"""The geoseries benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload interactive --seed 7 --seconds 40 --trace 0

Runs from the root of a checkout and uses the geoseries sources under its
src/.  One run is a closed loop of passes, one after another: each pass is
a fresh worker process (worker.py) that runs the workload's whole command
list once, so no state carries from one pass to the next, as none carries
from one CLI invocation to the next.  Passes repeat until the next one
would end after --seconds.

Every time is put on one fixed scale: a host-speed sampler (speed.py)
runs in each worker and each setup interpreter, and every command's and
setup start's time is rescaled by the sampler's units around it.  A
command's time is the median of its rescaled times over the passes.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end"):
wall_s is the sum of the command times, i.e. the time of one pass;
cmd_p50_ms and cmd_p95_ms are percentiles of the command times over the
command list; peak_rss_mib is the median peak RSS of the pass workers;
setup_s is the median over several fresh interpreters, spread through the
run, of `import geoseries.cli` plus `build_parser()`.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics ("per_layer"): medians of the traced passes' self times, their
sizes and counts, and trace.overhead_s, the median over adjacent
untraced/traced pass pairs of the traced minus the untraced pass time.
Counts are compared with the last traced run of the workload in
baseline.jsonl; a difference is reported as count drift.

Every command's output is checked.  The last stdout line is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the details (seed, command count, sample counts, failures, sizes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_EVERY_PASS = 3  # fresh interpreters timed for setup_s after each pass
SETUP_MIN = 9
DEADLINE_S = 170  # a run must end within 180 s
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
sys.path.remove(sys.argv[2])
sampler = speed.Sampler()
sampler.start()
time.sleep(speed.PAD_S)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import geoseries.cli
geoseries.cli.build_parser()
end = time.perf_counter()
time.sleep(speed.PAD_S)
sampler.stop()
print(sampler.scaled(start, end), end - start, geoseries.cli.__file__)
"""


def run_child(argv: list[str], deadline: float) -> str:
    """stdout of a child process; it is killed and waited for if the deadline passes."""
    timeout = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)[:200]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def setup_start(deadline: float) -> tuple[float, float]:
    """Seconds one fresh interpreter takes to import geoseries.cli and build its
    parser: rescaled by the host-speed sampler running in it, and as measured."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)]
    scaled, measured, path = run_child(argv, deadline).split()
    if Path(path).resolve().parent != SRC / "geoseries":
        raise RuntimeError(f"setup imported {path}, not the checkout's copy")
    return float(scaled), float(measured)


def run_passes(args, deadline: float) -> tuple[list[dict], list[tuple[float, float]]]:
    """Closed loop of worker passes until the next would overrun --seconds.

    Without tracing, SETUP_EVERY_PASS setup starts follow each pass, so the
    setup_s samples spread over the run like the passes do.
    """
    passes: list[dict] = []
    setup: list[tuple[float, float]] = []
    if not args.trace:
        setup_start(deadline)  # untimed: the first start may still be compiling bytecode
    started = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        out = run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(int(traced))],
            deadline,
        )
        passes.append(json.loads(out.splitlines()[-1]))
        if not args.trace:
            setup += [setup_start(deadline) for _ in range(SETUP_EVERY_PASS)]
        longest = max(longest, time.monotonic() - t0)
        enough = len(passes) >= (2 if args.trace else 1)
        elapsed = time.monotonic() - started
        if enough and (elapsed + longest > args.seconds or time.monotonic() + longest > deadline):
            break
    while not args.trace and len(setup) < SETUP_MIN:
        setup.append(setup_start(deadline))
    return passes, setup


def quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def command_times(passes: list[dict], value=None) -> list[float]:
    """Each command's median time over the passes.

    value(pass, i) picks the time to take from command i of a pass; by
    default its rescaled duration.
    """
    value = value or (lambda p, i: p["durations_s"][i])
    return [statistics.median(value(p, i) for p in passes) for i in range(len(passes[0]["durations_s"]))]


def end_to_end(plain: list[dict], setup: list[tuple[float, float]]) -> dict:
    times = command_times(plain)
    return {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "wall_s": sum(times),
        "cmd_p50_ms": statistics.median(times) * 1e3,
        "cmd_p95_ms": quantile(times, 95) * 1e3,
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
    }


def layer_time(name: str, p: dict, i: int) -> float:
    return p["layer_times"][i].get(name, 0.0)


def per_layer(passes: list[dict], problems: list[str]) -> dict:
    """Layer self times summed over the command list, each command's taken as
    its median over the traced passes like wall_s; counts must agree across
    passes."""
    traced = [p for p in passes if p["traced"]]
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            pairs = zip(passes[0::2], passes[1::2])  # (untraced, traced), run next to each other
            out[name] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        elif m["unit"] == "s":
            out[name] = sum(command_times(traced, partial(layer_time, name)))
        else:
            values = [p["layer_counts"][name] for p in traced]
            if len(set(values)) != 1:  # counts repeat exactly unless the program changed
                problems.append(f"{name} differs between passes: {values}")
            out[name] = values[0]
    return out


def count_drift(workload: str, counts: dict) -> list[str]:
    """Differences from the counts of the workload's last traced run in baseline.jsonl.

    Every workload's counts are the same on every seed, so any difference
    means the program (or the workload) changed since the baseline.
    """
    recorded = None
    if BASELINE.is_file():
        for line in BASELINE.read_text(encoding="utf-8").splitlines():
            run = json.loads(line)
            if run["workload"] == workload and run["trace"] == 1:
                recorded = run["result"]["metrics"]
    if recorded is None:
        return [f"no traced {workload} run in {BASELINE.name} to compare with"]
    return [
        f"{k}: {recorded[k]['value']} in {BASELINE.name}, {v} now"
        for k, v in counts.items()
        if k not in recorded or recorded[k]["value"] != v
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "geoseries" / "cli.py").is_file():
        print(f"error: no geoseries sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    passes, setup = run_passes(args, deadline)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    problems: list[str] = []
    if len({p["fingerprint"] for p in passes}) != 1:
        problems.append("passes ran different command lists")
    for artifact in passes[0]["artifacts"]:
        digests = {p["artifacts"].get(artifact) for p in passes}
        if len(digests) != 1:
            problems.append(f"{artifact} differs between passes (traced and untraced): {digests}")
    if args.trace:
        metrics = per_layer(passes, problems)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        drift = count_drift(args.workload, {k: v for k, v in metrics.items() if units[k] != "s"})
    else:
        metrics = end_to_end(plain, setup)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        drift = []
    for line in drift:
        print(f"warning: count drift: {line}", file=sys.stderr)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["durations_s"]) for p in passes)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": passes[0]["fingerprint"],
        "commands_per_pass": len(passes[0]["durations_s"]),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "latency_samples": len(passes[0]["durations_s"]),
        "setup_samples": len(setup),
        "unit_us_quartiles": [round(q * 1e6, 2) for q in
                              statistics.quantiles([u for p in passes for u in p["unit_s"]], n=4)],
        "pass_wall_s": [round(p["wall_s"], 6) for p in passes],
        "measured": {
            "wall_s": sum(command_times(plain, lambda p, i: p["measured_s"][i])),
            "setup_s": statistics.median(measured for _, measured in setup) if setup else None,
        },
        "stdout_bytes_per_pass": passes[0]["stdout_bytes"],
        "artifacts": passes[0]["artifacts"],
        "count_drift": drift,
        "problems": problems,
        "failures": failures[:20],
    }
    print(json.dumps(details))
    for line in problems + failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
