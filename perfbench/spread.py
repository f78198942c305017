"""Run the benchmark on several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload deep-scenes --seeds 1 2 3 4 5 [--trace 0] [--out FILE]

For every metric: the median of the runs and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Metrics with unit "s"/"ms" should spread by less than a third of their
bound (setup_s excepted, whose bound applies between medians); count
metrics must not spread at all on a fixed-input workload.  With --out,
every run's result line is appended to FILE as JSON lines, with the
pass counts, the times as measured before rescaling and the quartiles of
the sampler's unit time from its details line.  Without tracing, the
spreads of the measured wall_s and setup_s are printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]

    results, measured = [], []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        *_, details, result = map(json.loads, done.stdout.splitlines())
        results.append(result)
        measured.append(details["measured"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        if args.out:
            with args.out.open("a", encoding="utf-8") as fh:
                kept = {k: details[k] for k in ("passes", "measured", "unit_us_quartiles")}
                fh.write(json.dumps({"workload": args.workload, "seed": seed, "trace": args.trace,
                                     "details": kept, "result": result}) + "\n")

    print(f"{args.workload}  runs={len(results)}  run_seconds={seconds}")
    columns = {name: [r["metrics"][name]["value"] for r in results] for name in results[0]["metrics"]}
    if not args.trace:  # the same runs' times before rescaling, for comparison
        columns.update({f"measured {k}": [m[k] for m in measured] for k in measured[0]})
    for name, values in columns.items():
        median = statistics.median(values)
        spread = None
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        print(f"  {name:30s} median {median:14.6g}  spread "
              f"{'-' if spread is None else f'{spread:.4f}':>7s}  bound {bound}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
