"""Command-line front end: feasible / verify / render / table.

All user-facing numbers are exact "p/q" strings; decimals appear only
inside SVG coordinates.  Exit status: 0 success, 1 verification
mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .construction import StaircaseParams
from .feasibility import derive_config, enumerate_feasible
from .geometry import (
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_to_json,
)
from .rational import Rational, fmt, parse
from .render import RenderOptions, render
from .series import partial_sum_closed


class CliError(Exception):
    """Usage-level problem; reported on stderr with exit status 2."""


def _rational(text: str) -> Rational:
    try:
        return parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_feasible(args: argparse.Namespace) -> int:
    if args.max_m < 2:
        raise CliError(f"--max-m must be >= 2, got {args.max_m}")
    reports = enumerate_feasible(args.max_m)
    if args.format == "json":
        doc = {"schema": 1, "max_m": args.max_m, "reports": [r.as_dict() for r in reports]}
        print(json.dumps(doc, indent=2))
        return 0
    rows = []
    for r in reports:
        rows.append(
            [
                str(r.candidate_m),
                fmt(r.r),
                str(r.derived_n),
                str(r.derived_a),
                fmt(Rational(r.derived_a, r.derived_n)),
                _yes(r.passes_integrality),
                _yes(r.passes_square_constraint),
                _yes(r.passes_bound),
                _yes(r.derived_a < r.derived_n),
                _yes(r.feasible),
            ]
        )
    _print_table(
        ["m", "r", "n", "a", "sum", "integral", "square", "bound", "a<n", "feasible"],
        rows,
    )
    feasible_ms = [str(r.candidate_m) for r in reports if r.feasible]
    print(f"feasible m: {{{', '.join(feasible_ms)}}}")
    return 0


def _build_scene(args: argparse.Namespace):
    if args.construction == "layered":
        if args.m is None:
            raise CliError("layered construction requires --m")
        if args.s is not None:
            raise CliError("--s applies to the staircase construction only")
        params = derive_config(args.m)
        colored = None
        if not params.drawable:
            if not args.allow_infeasible:
                raise CliError(
                    f"m={args.m} admits no layered picture (a={params.a} >= n={params.n}; "
                    f"only m=2 and m=3 are feasible, see `geoseries feasible`); "
                    f"pass --allow-infeasible to draw a clamped picture anyway"
                )
            colored = min(params.a, params.n)
            print(
                f"warning: m={args.m} is infeasible; coloring clamped to "
                f"{colored} of {params.n} triangles per layer",
                file=sys.stderr,
            )
        return build_layered_scene(params, args.layers, colored_per_layer=colored)
    if args.s is None:
        raise CliError("staircase construction requires --s P/Q")
    if args.m is not None:
        raise CliError("--m applies to the layered construction only")
    if not 0 < args.s < 1:
        raise CliError(f"--s must lie strictly in (0,1), got {fmt(args.s)}")
    return build_staircase_scene(StaircaseParams(args.s), args.layers)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.from_scene is not None:
        try:
            doc = json.loads(Path(args.from_scene).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read scene file {args.from_scene}: {exc}") from exc
        scene = scene_from_json(doc)
    else:
        if args.construction is None:
            raise CliError("verify needs --construction or --from-scene")
        scene = _build_scene(args)
    report = audit_scene(scene)
    if not report.ok:
        print(json.dumps(report.as_dict(), indent=2))
        return 1
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    rows = [
        [
            str(layer.layer_index),
            str(layer.polygon_count),
            str(layer.colored_count),
            fmt(layer.colored_area),
            fmt(layer.total_area),
            fmt(layer.colored_fraction),
            "ok" if layer.ok else "MISMATCH",
        ]
        for layer in report.layers
    ]
    _print_table(
        ["layer", "polygons", "colored", "colored_area", "layer_area", "fraction", "check"],
        rows,
    )
    print(
        f"tiled {fmt(report.tiled_area)} + remainder {fmt(report.apex_remainder)} "
        f"= figure {fmt(report.figure_area)}"
    )
    print("check: pass")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    scene = _build_scene(args)
    opts = RenderOptions(
        canvas_width_px=args.width,
        color_fill=args.fill,
        stroke_color=args.stroke,
        decimal_places=args.decimal_places,
        show_labels=not args.no_labels,
        show_layer_annotations=not args.no_layer_annotations,
        equilateral_look=not args.no_equilateral,
    )
    out = Path(args.out)
    out.write_bytes(render(scene, opts).encode("utf-8"))
    print(f"wrote {out}")
    if args.emit_scene:
        scene_path = out.with_suffix(".json")
        scene_path.write_text(
            json.dumps(scene_to_json(scene), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {scene_path}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if not 0 < args.ratio < 1:
        raise CliError(f"--ratio must lie strictly in (0,1), got {fmt(args.ratio)}")
    if args.first_term <= 0:
        raise CliError(f"--first-term must be positive, got {fmt(args.first_term)}")
    if args.terms < 1:
        raise CliError(f"--terms must be >= 1, got {args.terms}")
    limit = args.first_term / (1 - args.ratio)
    rows = []
    running = parse("0")
    term = args.first_term
    for k in range(1, args.terms + 1):
        running += term  # naive column: honest term-by-term accumulation
        closed = args.first_term * partial_sum_closed(args.ratio, k - 1)
        rows.append([str(k), fmt(term), fmt(running), fmt(closed), fmt(limit)])
        term *= args.ratio
    _print_table(["k", "term", "partial_naive", "partial_closed", "limit"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoseries",
        description="Construct, verify and render proof-without-words pictures "
        "for geometric series, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feasible = sub.add_parser(
        "feasible", help="enumerate which r = 1/m admit a layered picture"
    )
    p_feasible.add_argument("--max-m", type=int, default=10)
    p_feasible.add_argument("--format", choices=("table", "json"), default="table")
    p_feasible.set_defaults(func=cmd_feasible)

    def add_scene_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--construction", choices=("layered", "staircase"))
        p.add_argument("--m", type=int, help="layered: r = 1/m")
        p.add_argument("--s", type=_rational, help="staircase: s = P/Q, ratio r = s^2")
        p.add_argument("--layers", type=int, default=4)
        p.add_argument("--allow-infeasible", action="store_true")

    p_verify = sub.add_parser(
        "verify", help="build a scene and audit every area against the formulas"
    )
    add_scene_args(p_verify)
    p_verify.add_argument("--from-scene", metavar="PATH", help="audit a scene JSON file")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="render a scene to a deterministic SVG")
    add_scene_args(p_render)
    p_render.add_argument("--out", required=True, metavar="PATH")
    p_render.add_argument("--emit-scene", action="store_true")
    p_render.add_argument("--width", type=int, default=600)
    p_render.add_argument("--fill", default="#00ffff")
    p_render.add_argument("--stroke", default="#000000")
    p_render.add_argument("--decimal-places", type=int, default=6)
    p_render.add_argument("--no-labels", action="store_true")
    p_render.add_argument("--no-layer-annotations", action="store_true")
    p_render.add_argument("--no-equilateral", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_table = sub.add_parser(
        "table", help="print partial sums of a geometric series, naive and closed"
    )
    p_table.add_argument("--ratio", type=_rational, required=True)
    p_table.add_argument("--first-term", type=_rational, default=parse("1"))
    p_table.add_argument("--terms", type=int, default=10)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
