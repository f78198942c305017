"""One pass of one workload, in a fresh process: the closed loop itself.

Runs every command of the workload one after another through
``geoseries.cli.main`` (the oracle through ``brute_force_scan``), with
stdout and stderr captured in memory and files written to a scratch
directory that is removed afterwards.  Each command is timed around the
call only; its output check runs after the clock stops.  A host-speed
sampler (speed.py) runs through the pass; each command's time, and each
of its layer times, is rescaled by the sampler's units around it, and the
measured seconds are kept next to it.  With --trace 1
the module boundaries are instrumented first (see tracing.py) and the
pass also reports per-layer self times and sizes.

Prints one JSON report on stdout.  run.py starts this script; it is not
meant to be run by hand, but can be:

    python3 perfbench/worker.py --workload deep-scenes --seed 1 --trace 1
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


def import_cli():
    """geoseries.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "geoseries" / "cli.py").is_file():
        raise SystemExit(f"no geoseries sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geoseries.cli

    if Path(geoseries.cli.__file__).resolve().parent != SRC / "geoseries":
        raise SystemExit(f"imported {geoseries.cli.__file__}, not the checkout's copy")
    return geoseries.cli


def scene_values(scene):
    for poly in scene.polygons:
        for v in poly.vertices:
            yield v.x
            yield v.y
    for pt, _ in scene.labels:
        yield pt.x
        yield pt.y


def scene_doc_strings(doc):
    for entry in doc["polygons"]:
        for x, y in entry["vertices"]:
            yield x
            yield y
    for entry in doc.get("labels", []):
        yield entry["x"]
        yield entry["y"]


# per-layer time metric -> the span it sums
LAYER_SPANS = {
    "feasibility.enumerate_s": "feasibility.enumerate",
    "feasibility.brute_force_s": "feasibility.brute_force",
    "feasibility.derive_s": "feasibility.derive",
    "series.partial_sum_s": "series.partial_sum",
    "construction.formula_s": "construction.formula",
    "geometry.build_s": "geometry.build",
    "geometry.audit_s": "geometry.audit",
    "geometry.shoelace_s": "geometry.shoelace",
    "geometry.to_json_s": "geometry.to_json",
    "geometry.from_json_s": "geometry.from_json",
    "render.layout_s": "render.layout",
    "render.render_s": "render.render",
    "cli.self_s": "cli.main",
}


class LayerTally:
    """Per-layer numbers of one traced pass: times per command, sizes per pass."""

    def __init__(self, rational) -> None:
        self.rational = rational
        self.counts = collections.Counter()
        self.max_den_bits = 0

    def _timed_map(self, fn, values) -> float:
        start = time.perf_counter()
        collections.deque(map(fn, values), maxlen=0)
        return time.perf_counter() - start

    def command(self, self_ns: dict[str, int], captured) -> dict[str, float]:
        """One command's layer self times, nonzero ones only, after recording
        the sizes of what its calls produced and timing fmt/parse over its
        real values."""
        times = collections.Counter(
            {metric: self_ns[span] / 1e9 for metric, span in LAYER_SPANS.items() if span in self_ns}
        )
        for name, args, result in captured:
            if name == "feasibility.enumerate":
                self.counts["feasibility.candidates"] += len(result)
                values = [report.r for report in result]
                times["rational.fmt_s"] += self._timed_map(self.rational.fmt, values)
                self.counts["rational.fmt_calls"] += len(values)
            elif name in ("geometry.build", "geometry.from_json"):
                self.counts["geometry.polygons"] += len(result.polygons)
                bits = max(v.denominator.bit_length() for v in scene_values(result))
                self.max_den_bits = max(self.max_den_bits, bits)
                if name == "geometry.from_json":
                    strings = list(scene_doc_strings(args[0]))
                    times["rational.parse_s"] += self._timed_map(self.rational.parse, strings)
                    self.counts["rational.parse_calls"] += len(strings)
            elif name == "geometry.to_json":
                values = list(scene_values(args[0]))
                times["rational.fmt_s"] += self._timed_map(self.rational.fmt, values)
                self.counts["rational.fmt_calls"] += len(values)
            elif name == "render.render":
                self.counts["render.svg_bytes"] += len(result.encode("utf-8"))
        return dict(times)

    def pass_counts(self, calls: dict[str, int], stdout_bytes: int, oracle_pairs: int) -> dict:
        return {
            "feasibility.candidates": self.counts["feasibility.candidates"],
            "feasibility.brute_force_pairs": oracle_pairs,
            "rational.fmt_calls": self.counts["rational.fmt_calls"],
            "rational.parse_calls": self.counts["rational.parse_calls"],
            "series.terms": calls["series.partial_sum"],
            "construction.formula_calls": calls["construction.formula"],
            "geometry.shoelace_calls": calls["geometry.shoelace"],
            "geometry.polygons": self.counts["geometry.polygons"],
            "geometry.max_den_bits": self.max_den_bits,
            "render.svg_bytes": self.counts["render.svg_bytes"],
            "cli.stdout_bytes": stdout_bytes,
        }


def oracle_pairs(max_n: int, max_m: int, max_odd_j: int) -> int:
    """(ratio, n) pairs brute_force_scan tests: its candidate ratios times max_n."""
    return (max_m - 1 + len(range(3, max_odd_j + 1, 2))) * max_n


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cli = import_cli()
    from geoseries import feasibility, rational

    commands = workloads.build(workload, seed, ROOT / "fixtures")
    main, brute_force_scan = cli.main, feasibility.brute_force_scan
    tracer = tally = None
    if traced:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        main = tracer.wrap("cli.main", main)
        brute_force_scan = tracer.wrap("feasibility.brute_force", brute_force_scan)
        tally = LayerTally(rational)

    failures, artifacts, layer_times = [], {}, []
    spans = []  # (start, end) of each command
    stdout_bytes = pairs = 0
    sampler = speed.Sampler()
    sampler.start()
    time.sleep(speed.PAD_S)  # units before the first command, too
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="pass-") as scratch:
        os.chdir(scratch)
        for index, command in enumerate(commands):
            out, err, rc, value = io.StringIO(), io.StringIO(), None, None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    try:
                        if command.oracle:
                            args = tuple(map(int, command.argv[1:]))
                            value = brute_force_scan(*args)
                            rc = 0
                        else:
                            rc = main(list(command.argv))
                    except SystemExit as exc:  # argparse rejects usage this way
                        rc = exc.code
                    finally:
                        spans.append((start, time.perf_counter()))
                if command.oracle:
                    pairs += oracle_pairs(*args)
                text = out.getvalue()
                stdout_bytes += len(text.encode("utf-8"))
                problem = command.check(workloads.Outcome(rc, text, err.getvalue(), value))
            except Exception as exc:  # a crash is a failed command, not a failed pass
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"#{index} {' '.join(command.argv)}: {problem}")
            if command.artifact and Path(command.artifact).is_file():
                artifacts[command.artifact] = hashlib.sha256(
                    Path(command.artifact).read_bytes()
                ).hexdigest()
            if traced:
                layer_times.append(tally.command(tracer.take_self_ns(), tracer.take_captured()))
        os.chdir(ROOT)
        time.sleep(speed.PAD_S)  # and after the last
    sampler.stop()

    measured = [end - start for start, end in spans]
    scaled = [sampler.scaled(start, end) for start, end in spans]
    report = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "fingerprint": workloads.fingerprint(commands),
        "durations_s": scaled,
        "measured_s": measured,
        "wall_s": sum(scaled),
        "unit_s": sampler.unit_times(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "failures": failures,
        "artifacts": artifacts,
        "stdout_bytes": stdout_bytes,
    }
    if traced:
        report["layer_times"] = [
            {name: t * s / m for name, t in times.items()}
            for times, s, m in zip(layer_times, scaled, measured)
        ]
        report["layer_counts"] = tally.pass_counts(tracer.calls, stdout_bytes, pairs)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
