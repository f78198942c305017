"""`feasible` output: byte-identical to the plain formatter it replaced, and streamed.

The reference below is the formatter `feasible` used before it wrote its
output in chunks: every cell built first, column widths taken over all
rows, the JSON document encoded whole by json.dumps(indent=2).  Column
widths change whenever a number gains a digit, so the sizes cover every
max_m up to 400 and both sides of 1000 and 10000.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest

from geoseries.cli import main
from geoseries.feasibility import enumerate_feasible
from geoseries.rational import fmt

SIZES = [*range(2, 401), 999, 1000, 1001, 10001]
ALL_REPORTS = enumerate_feasible(max(SIZES))


def reference_table(reports) -> str:
    def yes(flag):
        return "yes" if flag else "no"

    headers = ["m", "r", "n", "a", "sum", "integral", "square", "bound", "a<n", "feasible"]
    rows = [
        [
            str(r.candidate_m),
            fmt(r.r),
            str(r.derived_n),
            str(r.derived_a),
            fmt(Fraction(r.derived_a, r.derived_n)),
            yes(r.passes_integrality),
            yes(r.passes_square_constraint),
            yes(r.passes_bound),
            yes(r.derived_a < r.derived_n),
            yes(r.feasible),
        ]
        for r in reports
    ]
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    feasible_ms = [str(r.candidate_m) for r in reports if r.feasible]
    lines.append(f"feasible m: {{{', '.join(feasible_ms)}}}")
    return "\n".join(lines) + "\n"


def reference_json(max_m, reports) -> str:
    reports = [{**r._asdict(), "r": fmt(r.r)} for r in reports]
    doc = {"schema": 1, "max_m": max_m, "reports": reports}
    return json.dumps(doc, indent=2) + "\n"


def feasible_stdout(capsys, max_m, fmt_name):
    assert main(["feasible", "--max-m", str(max_m), "--format", fmt_name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_table_bytes_match_reference(capsys):
    for max_m in SIZES:
        want = reference_table(ALL_REPORTS[: max_m - 1])
        assert feasible_stdout(capsys, max_m, "table") == want, f"max_m={max_m}"


def test_json_bytes_match_reference(capsys):
    for max_m in SIZES:
        want = reference_json(max_m, ALL_REPORTS[: max_m - 1])
        assert feasible_stdout(capsys, max_m, "json") == want, f"max_m={max_m}"


class ByteCounter:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def test_json_output_is_not_held_whole(monkeypatch):
    # building every report's dict and encoding the document in one piece
    # peaks at about 8.5x the bytes written; streamed, the report list and
    # one chunk of text stay below 2x
    counter = ByteCounter()
    monkeypatch.setattr("sys.stdout", counter)
    tracemalloc.start()
    try:
        assert main(["feasible", "--max-m", "20000", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counter.written > 4_000_000
    assert peak < 3 * counter.written, f"peak {peak} B for {counter.written} B written"


@pytest.mark.parametrize("fmt_name", ["table", "json"])
def test_max_m_cap_is_checked_before_the_scan(capsys, monkeypatch, fmt_name):
    def refuse(max_m):
        raise AssertionError("enumerate_feasible ran")

    monkeypatch.setattr("geoseries.cli.enumerate_feasible", refuse)
    code = main(["feasible", "--max-m", "1000001", "--format", fmt_name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --max-m must be <= 1000000, got 1000001\n"
