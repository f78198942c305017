"""Command-line front end: feasible / verify / render / table.

All user-facing numbers are exact "p/q" strings; decimals appear only
inside SVG coordinates.  Exit status: 0 success, 1 verification
mismatch, 2 usage error or standard output that cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from itertools import chain

from .construction import StaircaseParams
from .feasibility import FeasibilityReport, derive_config, enumerate_feasible
from .geometry import (
    ARRAY,
    FILL,
    MAX_POLYGONS,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    json_array,
    json_template,
    report_json_chunks,
    scene_from_json,
    scene_json_chunks,
    scene_to_json,  # noqa: F401  the library's scene dict, looked up here by perfbench's traced pass
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


# largest scene file --from-scene reads, in bytes: twice the largest file
# render --emit-scene writes, 56,510,244 bytes for layered m = 3 at the depth
# cap (2048 layers); checked before the file is read
MAX_SCENE_FILE_BYTES = 2 * 56_510_244

# largest --max-m: the acceptance gate's scan (1.8 s as a table and 1.2-1.8 s
# as JSON in a fresh process, medians of two batches of 7, in constant memory,
# 19 and 18 MiB peak RSS, with Python 3.11 on a shared 2-core Xeon host); a
# larger scan costs more and finds nothing new
MAX_M_LIMIT = 10**6

_CONSTRUCTIONS = ("layered", "staircase")

# --layers when not given; None marks it as not given, which --from-scene checks
_DEFAULT_LAYERS = 4

_YES = ("no", "yes")

_FEASIBLE_HEADERS = ("m", "r", "n", "a", "sum", "integral", "square", "bound", "a<n", "feasible")


def _widths(headers, rows) -> list[int]:
    """Each column's width: its longest cell, header included."""
    return [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]


def _write_table(headers, widths, rows) -> None:
    """Print the headers, a dash rule and every row, each cell left-justified to its width.

    rows holds tuples of str or int cells, at most 2048 of them (check_depth's
    cap on layers and terms; feasible writes its rows itself and passes
    none), each written as it is filled into one %-format line.
    """
    line = "  ".join(f"%-{w}s" for w in widths)
    write = sys.stdout.write
    write((line % tuple(headers)).rstrip() + "\n")
    write("  ".join("-" * w for w in widths) + "\n")
    sys.stdout.writelines((line % row).rstrip() + "\n" for row in rows)


def _feasible_lines(blocks, widths):
    """The table's lines under its header, one piece per RowBlock of the scan,
    then the closing `feasible m: {...}` line of every feasible m.

    Each block's template is built from its first row, since every row of a
    block has the same digit counts and yes/no cells: %d fields padded to
    their widths with literal spaces, r = 1/m as "1/" before m, sum = a/n
    as "%d/%d", and the yes/no cells baked in, the last one not padded.
    The block is filled by one C-level map of the template over its columns.
    """
    w_m, w_r, w_n, w_a, w_sum, *w_flags = widths
    feasible_ms = []
    for block in blocks:
        d_m, d_n, d_a = (len(str(column[0])) for column in (block.m, block.n, block.a))
        # r = 1/m and sum = a/n are already in lowest terms: n = 2m-1 =
        # 2(m-1)+1 shares no factor with a = (m-1)^2, and n >= 3; the
        # integrality and square conditions hold for every row (see _report)
        cells = (("%d", w_m - d_m), ("1/%d", w_r - 2 - d_m), ("%d", w_n - d_n),
                 ("%d", w_a - d_a), ("%d/%d", w_sum - d_a - 1 - d_n))
        flags = ("yes", "yes", _YES[block.feasible], _YES[block.a_lt_n])
        template = "  ".join(
            [*(field + " " * pad for field, pad in cells), *map(str.ljust, flags, w_flags)]
        ) + f"  {_YES[block.feasible]}\n"
        if block.feasible:
            feasible_ms.extend(block.m)
        m, n, a = block.m, block.n, block.a
        yield "".join(map(template.__mod__, zip(m, m, n, a, a, n)))
    yield f"feasible m: {{{', '.join(map(str, feasible_ms))}}}\n"


# `feasible --format json` around its reports; _FEASIBLE_REPORTS[feasible] is
# the report of a row with that verdict, to be filled with (m, m, n, a)
_FEASIBLE_HEAD, _FEASIBLE_TAIL = json_template({"schema": 1, "max_m": FILL, "reports": ARRAY})
_FEASIBLE_REPORTS = tuple(json_template(
    dict(zip(FeasibilityReport._fields, (FILL, "1/%s", True, FILL, FILL, True, ok, ok))), 2
) for ok in (False, True))


def cmd_feasible(args: argparse.Namespace) -> int:
    if args.max_m < 2:
        raise CliError(f"--max-m must be >= 2, got {args.max_m}")
    if args.max_m > MAX_M_LIMIT:
        raise CliError(f"--max-m must be <= {MAX_M_LIMIT}, got {args.max_m}")
    scan = enumerate_feasible(args.max_m)
    if args.format == "json":
        # each block is filled into the report of its verdict by one C-level
        # map, 64 reports a piece by json_array, so the document is never held
        # whole; json.dumps with indent would run the pure-Python encoder
        sys.stdout.write(_FEASIBLE_HEAD % args.max_m)
        sys.stdout.writelines(json_array(chain.from_iterable(
            map(_FEASIBLE_REPORTS[block.feasible].__mod__, zip(block.m, block.m, block.n, block.a))
            for block in scan.blocks()
        )))
        sys.stdout.write(_FEASIBLE_TAIL)
        return 0
    # a cell never gets shorter as m grows, and yes/no never outgrows its
    # header: the m, n and a of the last report fix every width
    m, _, _, n, a, *_ = scan[-1]
    widths = _widths(_FEASIBLE_HEADERS, [(m, f"1/{m}", n, a, f"{a}/{n}", *["yes"] * 5)])
    _write_table(_FEASIBLE_HEADERS, widths, ())
    sys.stdout.writelines(_feasible_lines(scan.blocks(), widths))
    return 0


def _build_scene(args: argparse.Namespace):
    layers = _DEFAULT_LAYERS if args.layers is None else args.layers
    if args.construction == "layered":
        if args.m is None:
            raise CliError("layered construction requires --m")
        if args.s is not None:
            raise CliError("--s applies to the staircase construction only")
        params = derive_config(args.m)
        check_depth(layers, params.r, "--layers")
        if not params.drawable:
            if not args.allow_infeasible:
                raise CliError(
                    f"m={args.m} admits no layered picture (a={params.a} >= n={params.n}; "
                    f"only m=2 and m=3 are feasible, see `geoseries feasible`); "
                    f"pass --allow-infeasible to draw a clamped picture anyway"
                )
            count = layers * params.n + 1
            if count > MAX_POLYGONS:
                raise CliError(
                    f"--m {args.m} with --layers {layers} draws {layers} x "
                    f"{params.n} + 1 = {count} polygons, over the cap of {MAX_POLYGONS}"
                )
            # a = (m-1)^2 >= n = 2m-1, so the builder colors all n
            print(
                f"warning: m={args.m} is infeasible; coloring clamped to "
                f"{params.n} of {params.n} triangles per layer",
                file=sys.stderr,
            )
        return build_layered_scene(params, layers)
    if args.s is None:
        raise CliError("staircase construction requires --s P/Q")
    if args.m is not None:
        raise CliError("--m applies to the layered construction only")
    if not 0 < args.s < 1:
        raise CliError(f"--s must lie strictly in (0,1), got {fmt(args.s)}")
    check_depth(layers, args.s, "--layers")
    return build_staircase_scene(StaircaseParams(args.s), layers)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.from_scene is not None:
        scene_args = {"--m": args.m, "--s": args.s, "--layers": args.layers,
                      "--allow-infeasible": args.allow_infeasible}
        given = [flag for flag, value in scene_args.items() if value is not None]
        if given:
            raise CliError(
                f"--from-scene takes its scene from the file, not from {', '.join(given)}"
            )
        path = _path(args.from_scene, "--from-scene")
        try:
            size = path.stat().st_size
            if size > MAX_SCENE_FILE_BYTES:
                raise CliError(
                    f"scene file {args.from_scene} holds {size} bytes, over the cap of "
                    f"{MAX_SCENE_FILE_BYTES}"
                )
            with open(path, "rb") as file:
                data = _read_capped(file, size)
            if len(data) > MAX_SCENE_FILE_BYTES:  # a pipe or a device: stat gives no size
                raise CliError(
                    f"scene file {args.from_scene} holds more than {MAX_SCENE_FILE_BYTES} "
                    "bytes, the cap"
                )
            # each buffer is dropped once the next is made: the bytes, the text
            # and the document held together peak at over 3x the file's size
            text = data.decode("utf-8")
            del data
            doc = json.loads(text)
            del text
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: not UTF-8, not JSON, or an integer too long to convert
            raise CliError(f"cannot read scene file {args.from_scene}: {exc}") from exc
        try:
            scene = scene_from_json(doc)
        except ValueError as exc:
            raise CliError(f"invalid scene file {args.from_scene}: {exc}") from exc
    else:
        scene = _build_scene(args)
    report = audit_scene(scene)
    if not report.ok or args.format == "json":
        sys.stdout.writelines(report_json_chunks(report))
        return 0 if report.ok else 1
    headers = ("layer", "polygons", "colored", "colored_area", "layer_area", "fraction", "check")
    rows = [
        (
            str(layer.layer_index),
            str(layer.polygon_count),
            str(layer.colored_count),
            fmt(layer.colored_area),
            fmt(layer.total_area),
            fmt(layer.colored_fraction),
            "ok",
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
    opts = RenderOptions(
        canvas_width_px=args.width,
        color_fill=args.fill,
        stroke_color=args.stroke,
        decimal_places=args.decimal_places,
        show_labels=not args.no_labels,
        show_layer_annotations=not args.no_layer_annotations,
        equilateral_look=not args.no_equilateral,
    )
    out = _path(args.out, "--out")
    if args.emit_scene and out.suffix == ".json":
        raise CliError(
            f"--emit-scene writes the scene to {out}, the --out file; give --out another suffix"
        )
    _check_writable(out)
    if args.emit_scene:
        _check_writable(scene_path := out.with_suffix(".json"))
    scene = _build_scene(args)
    _write_output(out, [render(scene, opts)])
    print(f"wrote {out}")
    if args.emit_scene:
        _write_output(scene_path, scene_json_chunks(scene))
        print(f"wrote {scene_path}")
    return 0


def _path(text: str, flag: str):
    """pathlib.Path(text), imported here: pathlib loads urllib.parse, which only
    the commands that read or write files need.  An empty text, which Path reads
    as the current directory, is a usage error that names the flag."""
    if not text:
        raise CliError(f"{flag} must name a file, got ''")
    from pathlib import Path

    return Path(text)


def _check_writable(path) -> None:
    """Refuse before the build what open() would refuse after the render."""
    if path.is_dir():
        raise CliError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:  # a missing parent, or a file on the way to it
        parent_mode = os.stat(path.parent).st_mode
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None
    if not stat.S_ISDIR(parent_mode):
        raise CliError(f"cannot write {path}: {os.strerror(errno.ENOTDIR)}")


# bytes _read_capped asks for at a time once a file holds more than stat said
_READ_CHUNK = 1 << 20


def _read_capped(file, size: int):
    """The file's bytes, up to one past MAX_SCENE_FILE_BYTES, in about as much
    memory as it holds.

    size is what stat gave; one more byte is asked for, to see the file hold
    more. A read of n bytes reserves n up front, so a file that does hold more,
    or a pipe or a device (stat gives 0), is read on in chunks of _READ_CHUNK.
    """
    data = file.read(size + 1)
    if len(data) <= size:
        return data
    data = bytearray(data)
    while len(data) <= MAX_SCENE_FILE_BYTES and (
        chunk := file.read(min(_READ_CHUNK, MAX_SCENE_FILE_BYTES + 1 - len(data)))
    ):
        data += chunk
    return data


def _write_output(path, chunks) -> None:
    """Write the text chunks to path as UTF-8, each as it comes; a file that cannot
    be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as file:
            file.writelines(chunks)
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help text reaches stdout or raises OSError, and
    whose arguments may be added when it first parses.

    argparse's own print_help drops a write error, and the interpreter's flush
    at exit reports a buffered one as "Exception ignored"; main turns the
    OSError into its one-line error and exit 2.  Subparsers take this class.

    fill, when given, is a function that adds the parser's arguments.
    parse_known_args, which parse_args and the subparsers action of the chosen
    subcommand both call, runs it once before its first parse: a command builds
    the arguments of the subcommand it names and of no other.
    """

    def __init__(self, *args, fill=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def print_help(self, file=None) -> None:
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _feasible_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-m",
        type=int,
        default=10,
        help=f"scan m = 2..MAX_M, at most {MAX_M_LIMIT} (default: 10)",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")


def _scene_args(p: argparse.ArgumentParser) -> None:
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
        help=f"layers to draw (default: {_DEFAULT_LAYERS}); layers x bit length of the "
        f"denominator of r = 1/m or of s is at most {MAX_DENOMINATOR_BITS}",
    )
    p.add_argument("--allow-infeasible", action="store_true", default=None)


def _verify_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--construction", choices=_CONSTRUCTIONS)
    source.add_argument(
        "--from-scene",
        metavar="PATH",
        help="audit a scene JSON file, which takes no other scene argument; its "
        "layers_rendered has the cap of --layers",
    )
    _scene_args(p)
    p.add_argument("--format", choices=("table", "json"), default="table")


def _render_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", choices=_CONSTRUCTIONS, required=True)
    _scene_args(p)
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--emit-scene", action="store_true")
    p.add_argument("--width", type=int, default=RenderOptions.canvas_width_px)
    p.add_argument("--fill", default=RenderOptions.color_fill)
    p.add_argument("--stroke", default=RenderOptions.stroke_color)
    p.add_argument("--decimal-places", type=int, default=RenderOptions.decimal_places)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--no-layer-annotations", action="store_true")
    p.add_argument("--no-equilateral", action="store_true")


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio", type=_rational, required=True)
    p.add_argument(
        "--first-term",
        type=_rational,
        default=parse("1"),
        help=f"first term P/Q (default: 1); P and Q are at most {MAX_DENOMINATOR_BITS} bits each",
    )
    p.add_argument(
        "--terms",
        type=int,
        default=10,
        help="rows to print (default: 10); terms x bit length of the ratio's "
        f"denominator is at most {MAX_DENOMINATOR_BITS}",
    )


# each subcommand: its name, its line in --help, the function that adds its
# arguments and the function that runs it
_COMMANDS = (
    ("feasible", "enumerate which r = 1/m admit a layered picture", _feasible_args, cmd_feasible),
    ("verify", "build a scene and audit every area against the formulas", _verify_args,
     cmd_verify),
    ("render", "render a scene to a deterministic SVG", _render_args, cmd_render),
    ("table", "print partial sums of a geometric series, naive and closed", _table_args,
     cmd_table),
)


def build_parser() -> argparse.ArgumentParser:
    """The geoseries parser, with each subcommand's name, help line and handler.

    A subcommand's arguments are added when its parser first parses, that is
    when the command line names it: a command pays for its own arguments only.
    """
    parser = _Parser(
        prog="geoseries",
        description="Construct, verify and render proof-without-words pictures "
        "for geometric series, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, fill, handler in _COMMANDS:
        sub.add_parser(name, help=help_line, fill=fill).set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # before ValueError: io.UnsupportedOperation is both
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        try:  # the interpreter flushes stdout again at exit: let that write go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # no file descriptor, e.g. a StringIO
            pass
        return 2
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
