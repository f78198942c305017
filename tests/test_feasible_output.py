"""`feasible` output: byte-identical to the plain formatter it replaced, and streamed.

The reference below is the formatter `feasible` used before it wrote its
output in chunks: every cell built first, column widths taken over all
rows, the JSON document encoded whole by json.dumps(indent=2).  Column
widths change whenever a number gains a digit, so the sizes cover every
max_m up to 400 and both sides of 1000 and 10000.  Both are written from
the scan's blocks of same-shape rows, the table with one template per
block, so the blocks are checked against the closed form at every digit
cut up to 10^6, and the 10^6 table and JSON are pinned by their sha256.
"""

import collections
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest

from geoseries import feasibility
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


class ByteCounter(io.TextIOBase):
    """A stdout that keeps only the number of characters written; writelines
    is TextIOBase's, one write per chunk."""

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


@pytest.mark.parametrize("fmt_name", ["table", "json"])
def test_no_report_and_no_fraction_per_row(capsys, monkeypatch, fmt_name):
    made = collections.Counter()

    def counting(name, make):
        def counted(*args):
            made[name] += 1
            return make(*args)

        return counted

    monkeypatch.setattr(feasibility, "Fraction", counting("Fraction", Fraction))
    monkeypatch.setattr(
        feasibility,
        "FeasibilityReport",
        counting("FeasibilityReport", feasibility.FeasibilityReport),
    )
    feasible_stdout(capsys, 10, fmt_name)
    small = made.copy()
    made.clear()
    feasible_stdout(capsys, 5000, fmt_name)
    assert made == small  # the same few for either size
    assert sum(small.values()) <= 2
    made.clear()
    list(enumerate_feasible(3))  # the stand-ins do count what reading the scan makes
    assert made == {"Fraction": 2, "FeasibilityReport": 2}


def traced_peak(monkeypatch, max_m, fmt_name) -> int:
    monkeypatch.setattr("sys.stdout", ByteCounter())
    tracemalloc.start()
    try:
        assert main(["feasible", "--max-m", str(max_m), "--format", fmt_name]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("fmt_name", ["table", "json"])
def test_scan_runs_in_constant_memory(monkeypatch, fmt_name):
    # a list of every report grows the peak with max_m; streamed rows keep
    # it at one chunk of text whatever the size of the scan
    small = traced_peak(monkeypatch, 20_000, fmt_name)
    large = traced_peak(monkeypatch, 200_000, fmt_name)
    assert large < 2 * small, f"peak {large} B at 200000, {small} B at 20000"


class Sha256Writer(io.TextIOBase):
    """A stdout that keeps only the sha256 of the UTF-8 bytes written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


# sha256 of `geoseries feasible --max-m 200000` stdout as written by the list-
# building formatter this scan replaced; past 10^5 the m, a and sum columns
# widen again, beyond the sizes compared with the reference above
PINNED_200000 = {
    "table": "fbfb2558da1d4ff053d337e3f84258d8eabeb9afc557de2db3cab50a23ef7bcf",
    "json": "18339bafc66c2558488d5433cad3f64b418f537ed257a0b6714ce639a1548653",
}


@pytest.mark.parametrize("fmt_name", ["table", "json"])
def test_benchmark_scale_output_is_pinned(monkeypatch, fmt_name):
    writer = Sha256Writer()
    monkeypatch.setattr("sys.stdout", writer)
    assert main(["feasible", "--max-m", "200000", "--format", fmt_name]) == 0
    assert writer.digest.hexdigest() == PINNED_200000[fmt_name]


# sha256 of the `geoseries feasible --max-m 1000000` table as written by the
# per-row writer the block writer replaced: n, a and m gain their last digits
# at m = 316229, 500001 and 10^6, past the scan pinned above
PINNED_1000000_TABLE = "bf3734d8893329900bbc0962d1df18e09b197f26fc99efa91427e446e5e0db69"
# and of `--format json` at that size, as written by the per-row writer the
# block writer replaced
PINNED_1000000_JSON = "59d9ce3730d7fbbfac6603ce500dfc3e786a72d158e40ee8328810eda524b446"


def test_largest_table_is_pinned(monkeypatch):
    writer = Sha256Writer()
    monkeypatch.setattr("sys.stdout", writer)
    assert main(["feasible", "--max-m", "1000000"]) == 0
    assert writer.digest.hexdigest() == PINNED_1000000_TABLE


def test_largest_json_is_pinned(monkeypatch):
    writer = Sha256Writer()
    monkeypatch.setattr("sys.stdout", writer)
    assert main(["feasible", "--max-m", "1000000", "--format", "json"]) == 0
    assert writer.digest.hexdigest() == PINNED_1000000_JSON


# the m at which n = 2m-1, a = (m-1)^2 and m gain a digit, up to 10^6, and the
# first m whose verdict differs from m = 2's
N_CUTS = [6, 51, 501, 5001, 50001, 500001]
A_CUTS = [5, 11, 33, 101, 318, 1001, 3164, 10001, 31624, 100001, 316229]
M_CUTS = [10**k for k in range(1, 7)]
VERDICT_CUTS = [4]


def shape(m, n, a, a_lt_n, ok):
    return ok, a_lt_n, len(str(m)), len(str(n)), len(str(a))


def test_blocks_hold_the_rows_of_the_closed_form():
    max_m = 10**6
    near_cuts = {m + d for m in N_CUTS + A_CUTS + M_CUTS + VERDICT_CUTS for d in range(-2, 3)}
    checked = set(range(2, 10**4 + 1)) | {m for m in near_cuts if 2 <= m <= max_m}
    seen, next_m = set(), 2
    for block in enumerate_feasible(max_m).blocks():
        assert 1 <= len(block.m) <= feasibility._CHUNK_ROWS
        assert len(block.n) == len(block.a) == len(block.m)
        assert block.m.start == next_m and block.m.step == 1
        next_m = block.m.stop
        first = shape(block.m[0], block.n[0], block.a[0], block.a_lt_n, block.feasible)
        ends = {0, len(block.m) - 1}
        for i, m in enumerate(block.m):
            if m not in checked and i not in ends:
                continue
            seen.add(m)
            report = feasibility._report(m)
            n, a, ok = report.derived_n, report.derived_a, report.feasible
            assert (block.n[i], block.a[i], block.feasible) == (n, a, ok), m
            assert shape(m, n, a, a < n, ok) == first, m
    assert next_m == max_m + 1
    assert checked <= seen


@pytest.mark.parametrize("max_m", [2, 3, 4, 5, 6, 4097, 4098])
def test_blocks_cover_every_row(max_m):
    scan = enumerate_feasible(max_m)
    rows = [
        (m, n, a, block.feasible)
        for block in scan.blocks()
        for m, n, a in zip(block.m, block.n, block.a)
    ]
    assert rows == [(r.candidate_m, r.derived_n, r.derived_a, r.feasible) for r in scan]


class PatchedScan:
    """enumerate_feasible's scan with the rows of some m replaced: by index, in
    the report of each; in blocks(), each as a one-row block of its own."""

    def __init__(self, max_m, patch):
        self.scan, self.patch = enumerate_feasible(max_m), patch

    def __getitem__(self, index):
        report = self.scan[index]
        if report.candidate_m not in self.patch:
            return report
        m, n, a, ok = self.patch[report.candidate_m]
        return report._replace(derived_n=n, derived_a=a, passes_bound=ok, feasible=ok)

    def blocks(self):
        for block in self.scan.blocks():
            done = 0
            for i, m in enumerate(block.m):
                if m in self.patch:
                    if done < i:
                        yield cut(block, done, i)
                    m, n, a, ok = self.patch[m]
                    yield feasibility.RowBlock(range(m, m + 1), range(n, n + 1), [a], a < n, ok)
                    done = i + 1
            if done < len(block.m):
                yield cut(block, done, len(block.m))


def cut(block, start, stop):
    """Rows start..stop-1 of block, as a block."""
    return block._replace(m=block.m[start:stop], n=block.n[start:stop], a=block.a[start:stop])


# m = 7 marked feasible, its a < n still false; m = 5 given a = 1 < n,
# its verdict still false: a writer that decides either cell itself fails
PATCH = {7: (7, 13, 36, True), 5: (5, 9, 1, False)}


def patched_reports(max_m):
    scan = PatchedScan(max_m, PATCH)
    return [scan[i] for i in range(max_m - 1)]


@pytest.mark.parametrize("max_m", [7, 10, 1001])
def test_writers_follow_the_scan(capsys, monkeypatch, max_m):
    monkeypatch.setattr("geoseries.cli.enumerate_feasible", lambda m: PatchedScan(m, PATCH))
    table = feasible_stdout(capsys, max_m, "table")
    assert table == reference_table(patched_reports(max_m))
    lines = table.splitlines()
    assert lines[-1] == "feasible m: {2, 3, 7}"
    # under the header and the rule, line m holds the row of m:
    # m, r, n, a, sum, integral, square, bound, a<n, feasible
    assert lines[7].split() == ["7", "1/7", "13", "36", "36/13", *"yes yes yes no yes".split()]
    assert lines[5].split() == ["5", "1/5", "9", "1", "1/9", *"yes yes no yes no".split()]
    text = feasible_stdout(capsys, max_m, "json")
    assert text == reference_json(max_m, patched_reports(max_m))
    reports = {r["candidate_m"]: r for r in json.loads(text)["reports"]}
    assert reports[7]["passes_bound"] is reports[7]["feasible"] is True
    assert reports[5]["passes_bound"] is reports[5]["feasible"] is False
