"""The benchmark's workloads: command lists made from the seed, with output checks.

A workload is a list of Commands.  Each is either a `geoseries` CLI argv,
run through ``geoseries.cli.main`` with relative file names inside the
worker's scratch directory, or the brute-force oracle, called as a library
function.  Every command carries a check that returns None when the output
is right and a one-line reason when it is not.  The checks recompute what
they can with their own ``Fraction`` arithmetic, so they do not trust the
modules they check.

Why these three workloads:

- negative-result: the 2*10^5-candidate feasibility scan in both output
  formats plus the independent oracle.  The CLI's per-row formatting is
  most of its time; geometry and render are not touched.
- deep-scenes: two 1001-polygon pictures whose denominators reach 317 and
  1162 bits, written, read back and audited.  Big-integer Fraction work in
  geometry, construction and render dominates.
- interactive: the ten commands of the usage examples in the repository's
  README, a hundred times each in seeded order.  Fixed per-command cost
  (argparse, validation, printing) dominates and big numbers barely show,
  so a big-number optimisation should leave it unchanged.  The equal
  weights are a stand-in: there is no usage data to weight by.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("negative-result", "deep-scenes", "interactive")

FEASIBLE_MAX_M = 200_000
ORACLE_ARGS = (2000, 1000, 1999)  # max_n, max_m, max_odd_j
ORACLE_EXPECTED = [(3, 1, Fraction(1, 2)), (5, 4, Fraction(1, 3))]

# sha256 of the deep-scenes SVGs.  The renderer's bytes are a fixed output
# of the system (the golden fixtures are small cases of the same rule), so
# a program change that alters them is a bug, not a speed-up.
DEEP_SVG_SHA256 = {
    "layered-m3-L200.svg": "95007870684fc29452c3bdc5d0397434c92ccaef25d57fec49d04a28c82d64d7",
    "staircase-s3_5-L500.svg": "df39e6d4225bb16241d4c88428b02c96bcd326f560c328611fe31bdd0ba233ac",
}

# The three golden pictures, rendered exactly as the fixtures were made.
FIXTURE_RENDERS = (
    ("mabry_L4.svg", ("--construction", "layered", "--m", "2", "--layers", "4")),
    ("edgar_L3.svg", ("--construction", "layered", "--m", "3", "--layers", "3")),
    ("staircase_3_5_L3.svg", ("--construction", "staircase", "--s", "3/5", "--layers", "3")),
)


@dataclass(frozen=True)
class Outcome:
    """What one command left behind: exit code, captured streams, oracle value."""

    rc: int | None
    out: str
    err: str
    value: object = None


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[Outcome], str | None]
    oracle: bool = False  # argv is ("brute_force_scan", max_n, max_m, max_odd_j)
    artifact: str | None = None  # file whose sha256 every pass must reproduce


def q(x: Fraction) -> str:
    """The canonical "p/q" text form, written independently of geoseries.rational."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fingerprint(commands: list[Command]) -> str:
    """sha256 over every argv: equal fingerprints mean equal inputs."""
    return hashlib.sha256(json.dumps([c.argv for c in commands]).encode()).hexdigest()


def build(workload: str, seed: int, fixtures_dir: Path) -> list[Command]:
    if workload == "negative-result":
        return negative_result()
    if workload == "deep-scenes":
        return deep_scenes()
    if workload == "interactive":
        return interactive(seed, fixtures_dir)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# ---------------------------------------------------------------- checks


def _exit_ok(o: Outcome) -> str | None:
    if o.rc != 0:
        return f"exit code {o.rc}, stderr {o.err.strip()[-200:]!r}"
    return None


def _feasible_set(max_m: int) -> list[int]:
    return [m for m in (2, 3) if m <= max_m]


def check_feasible_table(max_m: int):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        want_last = "feasible m: {" + ", ".join(map(str, _feasible_set(max_m))) + "}\n"
        if not o.out.endswith(want_last):
            return f"last line is not {want_last.strip()!r}"
        lines = o.out.count("\n")
        if lines != max_m - 1 + 3:  # header, rule, one row per m, verdict
            return f"{lines} lines, expected {max_m + 2}"
        return None

    return check


def check_feasible_json(max_m: int):
    """Checks the document by scanning its text, so the check adds no peak memory."""

    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        text = o.out
        if not text.startswith(f'{{\n  "schema": 1,\n  "max_m": {max_m},\n  "reports": ['):
            return "unexpected document head"
        reports = text.count('"candidate_m": ')
        if reports != max_m - 1:
            return f"report count {reports} != {max_m - 1}"
        feasible = []
        at = text.find('"feasible": true')
        while at != -1:
            key = text.rfind('"candidate_m": ', 0, at) + len('"candidate_m": ')
            feasible.append(int(text[key : text.index(",", key)]))
            at = text.find('"feasible": true', at + 1)
        if feasible != _feasible_set(max_m):
            return f"feasible m {feasible} != {_feasible_set(max_m)}"
        if text.count('"feasible": false') != max_m - 1 - len(feasible):
            return "feasible flags do not cover every report"
        if not text.endswith("\n  ]\n}\n"):
            return "document is not closed"
        return None

    return check


def check_oracle(o: Outcome) -> str | None:
    if o.value != ORACLE_EXPECTED:
        return f"brute_force_scan returned {o.value!r}"
    return None


def check_verify_table(layers: int):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        lines = o.out.splitlines()
        if lines[-1] != "check: pass":
            return f"audit says {lines[-1]!r}"
        if len(lines) != layers + 4:  # header, rule, one row per layer, tiling, check
            return f"{len(lines) - 4} layer rows, expected {layers}"
        if any(not row.endswith(" ok") for row in lines[2 : 2 + layers]):
            return "a layer row is not ok"
        return None

    return check


def check_verify_json(layers: int):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        doc = json.loads(o.out)
        if doc["check"] != "pass" or doc["mismatches"]:
            return f"audit says {doc['check']!r}"
        if len(doc["layers"]) != layers or not all(layer["ok"] for layer in doc["layers"]):
            return "layer list incomplete or not ok"
        tiled, rest, figure = (Fraction(doc[k]) for k in ("tiled_area", "apex_remainder", "figure_area"))
        if tiled + rest != figure:
            return "tiled + remainder != figure"
        return None

    return check


def check_render(out_name: str, polygons: int, emit_scene: bool, warn: bool = False):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        want = f"wrote {out_name}\n"
        if emit_scene:
            want += f"wrote {Path(out_name).with_suffix('.json')}\n"
        if o.out != want:
            return f"stdout {o.out!r} != {want!r}"
        if warn != ("is infeasible; coloring clamped" in o.err):
            return f"unexpected stderr {o.err!r}"
        svg = Path(out_name).read_text(encoding="utf-8")
        if not (svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ') and svg.endswith("</svg>\n")):
            return "not a complete SVG document"
        if svg.count("<polygon ") != polygons:
            return f"{svg.count('<polygon ')} polygons, expected {polygons}"
        return None

    return check


def check_render_equals(out_name: str, golden: Path):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        if Path(out_name).read_bytes() != golden.read_bytes():
            return f"{out_name} differs from {golden.name}"
        return None

    return check


def check_render_sha(out_name: str, polygons: int):
    shape = check_render(out_name, polygons, emit_scene=True)

    def check(o: Outcome) -> str | None:
        bad = shape(o)
        if bad:
            return bad
        digest = hashlib.sha256(Path(out_name).read_bytes()).hexdigest()
        if digest != DEEP_SVG_SHA256[out_name]:
            return f"{out_name} sha256 {digest} != {DEEP_SVG_SHA256[out_name]}"
        return None

    return check


def check_table(ratio: Fraction, first: Fraction, terms: int):
    def check(o: Outcome) -> str | None:
        bad = _exit_ok(o)
        if bad:
            return bad
        rows = [line.split() for line in o.out.splitlines()[2:]]
        if len(rows) != terms:
            return f"{len(rows)} rows, expected {terms}"
        limit = first / (1 - ratio)
        for k, row in enumerate(rows, start=1):
            partial = first * (1 - ratio**k) / (1 - ratio)
            want = [str(k), q(first * ratio ** (k - 1)), q(partial), q(partial), q(limit)]
            if row != want:
                return f"row {k} is {row}, expected {want}"
        return None

    return check


# ---------------------------------------------------------------- workloads


def negative_result() -> list[Command]:
    m = str(FEASIBLE_MAX_M)
    return [
        Command(("feasible", "--max-m", m, "--format", "table"), check_feasible_table(FEASIBLE_MAX_M)),
        Command(("feasible", "--max-m", m, "--format", "json"), check_feasible_json(FEASIBLE_MAX_M)),
        Command(("brute_force_scan", *map(str, ORACLE_ARGS)), check_oracle, oracle=True),
    ]


def deep_scenes() -> list[Command]:
    commands = []
    for name, scene_args, layers in (
        ("layered-m3-L200", ("--construction", "layered", "--m", "3", "--layers", "200"), 200),
        ("staircase-s3_5-L500", ("--construction", "staircase", "--s", "3/5", "--layers", "500"), 500),
    ):
        svg, scene = f"{name}.svg", f"{name}.json"
        polygons = 1 + (5 if name.startswith("layered") else 2) * layers
        commands += [
            Command(
                ("render", *scene_args, "--out", svg, "--emit-scene"),
                check_render_sha(svg, polygons),
                artifact=svg,
            ),
            Command(("verify", "--from-scene", scene), check_verify_table(layers)),
            Command(("verify", *scene_args, "--format", "json"), check_verify_json(layers)),
        ]
    return commands


def readme_examples(fixtures_dir: Path) -> list[list[Command]]:
    """The CLI usage examples of README.md, with file names inside the scratch
    directory.  A render that writes its scene and the verify --from-scene
    that reads it back stay together, as in the README."""
    staircase = ("--construction", "staircase", "--s", "3/5", "--layers", "3")
    clamped = ("--construction", "layered", "--m", "4", "--layers", "2", "--allow-infeasible")
    groups = [
        [Command(("render", *args, "--out", name), check_render_equals(name, fixtures_dir / name))]
        for name, args in FIXTURE_RENDERS
    ]
    groups += [
        [Command(("feasible", "--max-m", "10", "--format", "table"), check_feasible_table(10))],
        [Command(("table", "--ratio", "1/4", "--first-term", "1/4", "--terms", "5"),
                 check_table(Fraction(1, 4), Fraction(1, 4), 5))],
        [Command(("verify", "--construction", "layered", "--m", "3", "--layers", "6"),
                 check_verify_table(6))],
        [Command(("verify", "--construction", "staircase", "--s", "1/2", "--layers", "8",
                  "--format", "json"), check_verify_json(8))],
        [Command(("render", *staircase, "--out", "pic.svg", "--emit-scene"),
                 check_render("pic.svg", 1 + 2 * 3, emit_scene=True)),
         Command(("verify", "--from-scene", "pic.json"), check_verify_table(3))],
        [Command(("render", *clamped, "--out", "m4.svg"),
                 check_render("m4.svg", 1 + 7 * 2, emit_scene=False, warn=True))],
    ]
    return groups


INTERACTIVE_REPEATS = 100


def interactive(seed: int, fixtures_dir: Path) -> list[Command]:
    """Each README example INTERACTIVE_REPEATS times, in an order drawn from the seed.

    Every seed runs the same commands, so every seed has the same sizes and
    counts; only the order differs.
    """
    groups = readme_examples(fixtures_dir) * INTERACTIVE_REPEATS
    random.Random(seed).shuffle(groups)
    return [command for group in groups for command in group]
