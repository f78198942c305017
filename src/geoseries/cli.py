"""Command-line front end: feasible / verify / render / table.

All user-facing numbers are exact "p/q" strings; decimals appear only
inside SVG coordinates.  Exit status: 0 success, 1 verification
mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .construction import StaircaseParams
from .feasibility import FeasibilityReport, derive_config, enumerate_feasible
from .geometry import (
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_to_json,
)
from .rational import MAX_DENOMINATOR_BITS, Rational, check_depth, fmt, parse
from .render import RenderOptions, render
from .series import partial_sum_closed


class CliError(Exception):
    """Usage-level problem; reported on stderr with exit status 2."""


def _rational(text: str) -> Rational:
    try:
        return parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# rows per write: few enough that a chunk of `feasible` output stays a few
# hundred KiB, enough that the writes themselves cost little
_CHUNK_ROWS = 4096

# largest picture, in polygons (layers x n + 1 for layered m, 2 x layers + 1
# for a staircase): layered m = 3 at the depth cap, 2048 x 5 + 1, so only a
# clamped infeasible picture can exceed it.  At the cap a clamped picture
# costs no more than m = 3 at 2048 layers (see MAX_DENOMINATOR_BITS)
MAX_POLYGONS = 10_241

# largest --max-m: the acceptance gate's scan (about 5 s and 310 MiB peak
# RSS with Python 3.11 on a 2-core x86 host); a larger scan costs more
# and finds nothing new
MAX_M_LIMIT = 10**6

_YES = ("no", "yes")
_JSON_BOOL = ("false", "true")

_FEASIBLE_HEADERS = ("m", "r", "n", "a", "sum", "integral", "square", "bound", "a<n", "feasible")


def _widths(headers, rows) -> list[int]:
    """Each column's width: its longest cell, header included."""
    return [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]


def _write_table(headers, widths, rows) -> None:
    """Print the headers, a dash rule and every row, each cell left-justified to its width.

    rows is any iterable of tuples of str or int cells; it is consumed in
    chunks, each written at once from one %-format line, so a long table
    is never held whole.
    """
    line = "  ".join(f"%-{w}s" for w in widths)
    write = sys.stdout.write
    write((line % tuple(headers)).rstrip() + "\n")
    write("  ".join("-" * w for w in widths) + "\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        write("".join([(line % row).rstrip() + "\n" for row in chunk]))


def _feasible_rows(reports):
    """Table rows of _FEASIBLE_HEADERS, one per report."""
    for m, r, integral, n, a, square, bound, feasible in reports:
        # sum = a/n is already in lowest terms: n = 2m-1 = 2(m-1)+1 shares
        # no factor with a = (m-1)^2, and n >= 3
        yield (
            m, fmt(r), n, a, f"{a}/{n}",
            _YES[integral], _YES[square], _YES[bound], _YES[a < n], _YES[feasible],
        )


def _write_feasible_json(max_m: int, reports) -> None:
    """Print json.dumps(doc, indent=2) of {"schema": 1, "max_m", "reports"}, chunk by chunk.

    Each report is filled into one template built from the field names,
    so the document is never held whole; json.dumps with indent would run
    the pure-Python encoder and join millions of pieces at the end.
    """
    item = (
        "    {\n"
        + ",\n".join(f"      {json.dumps(name)}: %s" for name in FeasibilityReport._fields)
        + "\n    }"
    )
    write = sys.stdout.write
    write('{\n  "schema": 1,\n  "max_m": %d,\n  "reports": [\n' % max_m)
    lead = ""
    for start in range(0, len(reports), _CHUNK_ROWS):
        items = [
            item
            % (
                m, encode_basestring_ascii(fmt(r)), _JSON_BOOL[integral], n, a,
                _JSON_BOOL[square], _JSON_BOOL[bound], _JSON_BOOL[feasible],
            )
            for m, r, integral, n, a, square, bound, feasible in reports[
                start : start + _CHUNK_ROWS
            ]
        ]
        write(lead + ",\n".join(items))
        lead = ",\n"
    write("\n  ]\n}\n")


def cmd_feasible(args: argparse.Namespace) -> int:
    if args.max_m < 2:
        raise CliError(f"--max-m must be >= 2, got {args.max_m}")
    if args.max_m > MAX_M_LIMIT:
        raise CliError(f"--max-m must be <= {MAX_M_LIMIT}, got {args.max_m}")
    reports = enumerate_feasible(args.max_m)
    if args.format == "json":
        _write_feasible_json(args.max_m, reports)
        return 0
    # a cell never gets shorter as m grows, except yes/no, which never
    # outgrows its header: the last report fixes every width
    widths = _widths(_FEASIBLE_HEADERS, _feasible_rows(reports[-1:]))
    _write_table(_FEASIBLE_HEADERS, widths, _feasible_rows(reports))
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
        check_depth(args.layers, params.r, "--layers")
        if not params.drawable:
            if not args.allow_infeasible:
                raise CliError(
                    f"m={args.m} admits no layered picture (a={params.a} >= n={params.n}; "
                    f"only m=2 and m=3 are feasible, see `geoseries feasible`); "
                    f"pass --allow-infeasible to draw a clamped picture anyway"
                )
            count = args.layers * params.n + 1
            if count > MAX_POLYGONS:
                raise CliError(
                    f"--m {args.m} with --layers {args.layers} draws {args.layers} x "
                    f"{params.n} + 1 = {count} polygons, over the cap of {MAX_POLYGONS}"
                )
            # a = (m-1)^2 >= n = 2m-1, so the builder colors all n
            print(
                f"warning: m={args.m} is infeasible; coloring clamped to "
                f"{params.n} of {params.n} triangles per layer",
                file=sys.stderr,
            )
        return build_layered_scene(params, args.layers)
    if args.s is None:
        raise CliError("staircase construction requires --s P/Q")
    if args.m is not None:
        raise CliError("--m applies to the layered construction only")
    if not 0 < args.s < 1:
        raise CliError(f"--s must lie strictly in (0,1), got {fmt(args.s)}")
    check_depth(args.layers, args.s, "--layers")
    return build_staircase_scene(StaircaseParams(args.s), args.layers)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.from_scene is not None:
        try:
            doc = json.loads(Path(args.from_scene).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read scene file {args.from_scene}: {exc}") from exc
        try:
            scene = scene_from_json(doc)
        except ValueError as exc:
            raise CliError(f"invalid scene file {args.from_scene}: {exc}") from exc
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
    headers = ("layer", "polygons", "colored", "colored_area", "layer_area", "fraction", "check")
    rows = [
        (
            str(layer.layer_index),
            str(layer.polygon_count),
            str(layer.colored_count),
            fmt(layer.colored_area),
            fmt(layer.total_area),
            fmt(layer.colored_fraction),
            "ok" if layer.ok else "MISMATCH",
        )
        for layer in report.layers
    ]
    _write_table(headers, _widths(headers, rows), rows)
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
    _write_output(out, render(scene, opts))
    print(f"wrote {out}")
    if args.emit_scene:
        scene_path = out.with_suffix(".json")
        _write_output(scene_path, json.dumps(scene_to_json(scene), indent=2) + "\n")
        print(f"wrote {scene_path}")
    return 0


def _write_output(path: Path, text: str) -> None:
    """Write text to path as UTF-8 bytes; a file that cannot be written is a usage error."""
    data = text.encode("utf-8")
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_table(args: argparse.Namespace) -> int:
    if not 0 < args.ratio < 1:
        raise CliError(f"--ratio must lie strictly in (0,1), got {fmt(args.ratio)}")
    if args.first_term <= 0:
        raise CliError(f"--first-term must be positive, got {fmt(args.first_term)}")
    first = args.first_term
    for part, value in (("numerator", first.numerator), ("denominator", first.denominator)):
        bits = value.bit_length()
        if bits > MAX_DENOMINATOR_BITS:
            raise CliError(
                f"--first-term has a {bits}-bit {part}, over the cap of "
                f"{MAX_DENOMINATOR_BITS} bits for its numerator and its denominator"
            )
    if args.terms < 1:
        raise CliError(f"--terms must be >= 1, got {args.terms}")
    check_depth(args.terms, args.ratio, "--terms")
    limit = args.first_term / (1 - args.ratio)
    headers = ("k", "term", "partial_naive", "partial_closed", "limit")
    rows = []
    running = parse("0")
    term = args.first_term
    for k in range(1, args.terms + 1):
        running += term  # naive column: honest term-by-term accumulation
        closed = args.first_term * partial_sum_closed(args.ratio, k - 1)
        rows.append((str(k), fmt(term), fmt(running), fmt(closed), fmt(limit)))
        term *= args.ratio
    _write_table(headers, _widths(headers, rows), rows)
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
    p_feasible.add_argument(
        "--max-m",
        type=int,
        default=10,
        help=f"scan m = 2..MAX_M, at most {MAX_M_LIMIT} (default: 10)",
    )
    p_feasible.add_argument("--format", choices=("table", "json"), default="table")
    p_feasible.set_defaults(func=cmd_feasible)

    def add_scene_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--construction", choices=("layered", "staircase"))
        p.add_argument(
            "--m",
            type=int,
            help="layered: r = 1/m; an infeasible m (with --allow-infeasible) draws "
            f"layers x (2m - 1) + 1 polygons, at most {MAX_POLYGONS}",
        )
        p.add_argument("--s", type=_rational, help="staircase: s = P/Q, ratio r = s^2")
        p.add_argument(
            "--layers",
            type=int,
            default=4,
            help="layers to draw (default: 4); layers x bit length of the denominator "
            f"of r = 1/m or of s is at most {MAX_DENOMINATOR_BITS}",
        )
        p.add_argument("--allow-infeasible", action="store_true")

    p_verify = sub.add_parser(
        "verify", help="build a scene and audit every area against the formulas"
    )
    add_scene_args(p_verify)
    p_verify.add_argument(
        "--from-scene",
        metavar="PATH",
        help="audit a scene JSON file; its layers_rendered has the cap of --layers",
    )
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
    p_table.add_argument(
        "--first-term",
        type=_rational,
        default=parse("1"),
        help=f"first term P/Q (default: 1); P and Q are at most {MAX_DENOMINATOR_BITS} bits each",
    )
    p_table.add_argument(
        "--terms",
        type=int,
        default=10,
        help="rows to print (default: 10); terms x bit length of the ratio's "
        f"denominator is at most {MAX_DENOMINATOR_BITS}",
    )
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
