"""Command-line front end: feasible / verify / render / table.

All user-facing numbers are exact "p/q" strings; decimals appear only
inside SVG coordinates.  Exit status: 0 success, 1 verification
mismatch, 2 usage error or standard output that cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import stat
import sys

from .construction import StaircaseParams
from .feasibility import FeasibilityReport, derive_config, enumerate_feasible
from .geometry import (
    ARRAY,
    FILL,
    MAX_POLYGONS,
    MAX_SCENE_DIGITS,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
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

# largest --max-m: the acceptance gate's scan (0.55 s as a table and 0.54 s as
# JSON in a fresh process, median of 7, in constant memory, 17 MiB peak RSS,
# with Python 3.11 on a shared 2-core Xeon host, where writers that formatted
# every hole of every row took 0.91 s and 0.84 s in the same batch); a larger
# scan costs more and finds nothing new
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


# rows _fill fills at a time: a piece of `feasible` output stays under 128 KiB at
# m = 10^6, where a JSON report takes about 290 bytes.  Whole blocks of
# _CHUNK_ROWS rows, about 1.2 MB of JSON, ran as fast, but raised the peak RSS
# of a process holding both outputs of --max-m 200000 in a StringIO from 146.4
# to 148.9 MiB
_PIECE_ROWS = 256
# fewest rows _fill copies into place: below it, one strided slice per digit of
# a row costs more than formatting each row (about 20 us against 2 us for one
# row of the table, and even at 48 to 64 rows of 6-digit numbers)
_FILL_MIN_ROWS = 64


def _slices(block):
    """block's m, n and a columns, _PIECE_ROWS rows at a time."""
    for i in range(0, len(block.m), _PIECE_ROWS):
        j = i + _PIECE_ROWS
        yield block.m[i:j], block.n[i:j], block.a[i:j]


def _fill(template: str, columns) -> str:
    """"".join(template % row for row in zip(*columns)), for an ASCII template
    whose holes are "%s" and columns of ints, at least one row, each column's
    numbers sharing one digit count, as a RowBlock's do.

    Every row then has one length.  Each distinct column is printed once, by
    one %-format of all its rows, about 50 ns a number against 90 ns for a
    hole of template; the row, its holes zero-filled, is repeated rows times
    and digit j of each hole copied into every row by one strided slice.
    ValueError if a column's first and last numbers differ in digit count, or
    its text is not rows x that count long: the columns increase, so this
    covers every row.  Fewer than _FILL_MIN_ROWS rows are formatted row by row.
    """
    rows = len(columns[0])
    if rows < _FILL_MIN_ROWS:
        return "".join(map(template.__mod__, zip(*columns)))
    printed: dict[int, tuple[bytes, int]] = {}  # id of a column -> its text and width
    cells = []
    for column in columns:
        cell = printed.get(id(column))
        if cell is None:
            width = len(str(column[0]))
            digits = (b"%d" * rows) % tuple(column)
            if len(str(column[-1])) != width or len(digits) != rows * width:
                raise ValueError(f"the numbers of a column differ in digit count: "
                                 f"{column[0]} .. {column[-1]}")
            cell = printed[id(column)] = digits, width
        cells.append(cell)
    parts = template.encode("ascii").split(b"%s")
    row, starts = bytearray(parts[0]), []
    for (_, width), part in zip(cells, parts[1:], strict=True):
        starts.append(len(row))
        row += b"0" * width + part
    text, step = row * rows, len(row)
    for start, (digits, width) in zip(starts, cells):
        for j in range(width):
            text[start + j::step] = digits[j::width]
    return text.decode("ascii")


def _feasible_lines(blocks, widths):
    """The table's lines under its header, _PIECE_ROWS rows a piece (see _fill),
    then the closing `feasible m: {...}` line of every feasible m.

    Each block's template is built from its first row, since every row of a
    block has the same digit counts and yes/no cells: holes padded to their
    widths with literal spaces, r = 1/m as "1/" before m, sum = a/n as
    "%s/%s", and the yes/no cells baked in, the last one not padded.
    """
    w_m, w_r, w_n, w_a, w_sum, *w_flags = widths
    feasible_ms = []
    for block in blocks:
        d_m, d_n, d_a = (len(str(column[0])) for column in (block.m, block.n, block.a))
        # r = 1/m and sum = a/n are already in lowest terms: n = 2m-1 =
        # 2(m-1)+1 shares no factor with a = (m-1)^2, and n >= 3; the
        # integrality and square conditions hold for every row (see _report)
        cells = (("%s", w_m - d_m), ("1/%s", w_r - 2 - d_m), ("%s", w_n - d_n),
                 ("%s", w_a - d_a), ("%s/%s", w_sum - d_a - 1 - d_n))
        flags = ("yes", "yes", _YES[block.feasible], _YES[block.a_lt_n])
        template = "  ".join(
            [*(field + " " * pad for field, pad in cells), *map(str.ljust, flags, w_flags)]
        ) + f"  {_YES[block.feasible]}\n"
        if block.feasible:
            feasible_ms.extend(block.m)
        for m, n, a in _slices(block):
            yield _fill(template, (m, m, n, a, a, n))
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
        # the reports array, laid out as json.dumps(indent=2) lays it out, a
        # piece at a time, so the document is never held whole; every report
        # follows ",\n", but the first, whose "," the array's "[" replaces
        write = sys.stdout.write
        write(_FEASIBLE_HEAD % args.max_m + "[")
        skip = 1
        for block in scan.blocks():
            template = ",\n" + _FEASIBLE_REPORTS[block.feasible]
            for m, n, a in _slices(block):
                write(_fill(template, (m, m, n, a))[skip:])
                skip = 0
        write("\n  ]" + _FEASIBLE_TAIL)
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
        # int() is quadratic in a number's digits: hold Python's limit on them at MAX_SCENE_DIGITS
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_SCENE_DIGITS)
        try:
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
                # ValueError: not UTF-8, not JSON, or an integer over MAX_SCENE_DIGITS digits
                raise CliError(f"cannot read scene file {args.from_scene}: {exc}") from exc
            try:
                scene = scene_from_json(doc)
            except ValueError as exc:
                raise CliError(f"invalid scene file {args.from_scene}: {exc}") from exc
        finally:
            sys.set_int_max_str_digits(limit)
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
            *layer.area_texts()[:3],
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
    out_stat = _check_writable(out, "--out names")
    if args.emit_scene:
        if out_stat and not stat.S_ISREG(out_stat.st_mode):
            raise CliError(f"--emit-scene needs --out to name a regular file, and {out} is not one")
        _check_writable(scene_path := out.with_suffix(".json"), "--emit-scene writes")
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


def _check_writable(path, flag_does: str):
    """Refuse before the build what open() would refuse after the render, and the
    regular file standard output is written to, which the "wrote" lines would
    also write over.  Return the stat of the file at path, or None where open()
    is to make it."""
    try:
        try:
            st = os.stat(path)
        except FileNotFoundError:  # open() makes the file, if its parent is there
            os.stat(path.parent)
            return None
    except OSError as exc:  # no parent, a file on the way to it, a symlink loop
        raise CliError(f"cannot write {path}: {exc.strerror}") from None
    if stat.S_ISDIR(st.st_mode):
        raise CliError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:
        stdout = stat.S_ISREG(st.st_mode) and os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # no file descriptor, as a StringIO has
        stdout = None
    if stdout and os.path.samestat(st, stdout):
        raise CliError(f"{flag_does} {path}, the file standard output is written to")
    return st


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


def _open_in_place(path, flags):  # open()'s mode "w" without O_TRUNC
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(path, chunks) -> None:
    """Write the text chunks to path as UTF-8, each as it comes; a file that cannot
    be written is a usage error.

    A file already there is written over in place, then cut where the new bytes
    end, also when a write or the chunks fail midway.  No O_TRUNC: ext4 starts
    writing back the old data of a file cut to zero as it is closed, about 0.1
    ms a rewrite.  Only a regular file is cut; a pipe or a device refuses it."""
    try:
        with open(path, "w", encoding="utf-8", newline="", opener=_open_in_place) as file:
            try:
                file.writelines(chunks)
                file.flush()  # so the cut below is not to zero, which ext4 writes back
            finally:
                if stat.S_ISREG(os.fstat(fd := file.fileno()).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
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
    limit = fmt(args.first_term / (1 - args.ratio))
    headers = ("k", "term", "partial_naive", "partial_closed", "limit")
    rows = []
    running = parse("0")
    term = args.first_term
    for k in range(1, args.terms + 1):
        running += term  # naive column: honest term-by-term accumulation
        closed = args.first_term * partial_sum_closed(args.ratio, k - 1)
        # each distinct value printed once: the closed column shows the
        # naive column's text only where the two sums are equal
        naive = fmt(running)
        rows.append((str(k), fmt(term), naive, naive if closed == running else fmt(closed), limit))
        term *= args.ratio
    _write_table(headers, _widths(headers, rows), rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help text reaches stdout or raises OSError.

    argparse's own print_help drops a write error, and the interpreter's flush
    at exit reports a buffered one as "Exception ignored"; main turns the
    OSError into its one-line error and exit 2.  Every subcommand's parser is
    one too.  Each reads the terminal's width once and gives it, less 2 as
    argparse takes it, to the formatter add_argument makes per argument.
    """

    def __init__(self, **kwargs) -> None:
        width = shutil.get_terminal_size().columns - 2
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=width),
                         **kwargs)

    def print_help(self, file=None) -> None:
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _subparser(parser: _Parser, fill, handler) -> _Parser:
    """parser, filled as a subcommand's: fill adds its arguments, and handler
    is its func."""
    fill(parser)
    parser.set_defaults(func=handler)
    return parser


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
# arguments to its parser and the function that runs it; _parse and
# build_parser hand the last two to _subparser
_COMMANDS = (
    ("feasible", "enumerate which r = 1/m admit a layered picture", _feasible_args, cmd_feasible),
    ("verify", "build a scene and audit every area against the formulas", _verify_args,
     cmd_verify),
    ("render", "render a scene to a deterministic SVG", _render_args, cmd_render),
    ("table", "print partial sums of a geometric series, naive and closed", _table_args,
     cmd_table),
)


def build_parser() -> argparse.ArgumentParser:
    """The geoseries parser, with every subcommand's parser, name and help line.

    main makes it only for --help, usage errors and the command lines _parse
    does not take by itself.  Nothing is kept between calls.
    """
    parser = _Parser(
        prog="geoseries",
        description="Construct, verify and render proof-without-words pictures "
        "for geometric series, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_line, fill, handler in _COMMANDS:
        _subparser(sub.add_parser(name, help=help_line), fill, handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, made with one parser where
    argv starts with a subcommand's name.

    There the top-level parser only hands argv[1:], as it is, to that
    subcommand's parser, so this calls that parser itself.  If words are left
    over, and for every other command line, the top-level parser parses argv:
    --help, its usage errors and "unrecognized arguments" stay its own.
    """
    for name, _, fill, handler in _COMMANDS:
        if argv[:1] == [name]:
            parser = _subparser(_Parser(prog=f"geoseries {name}"), fill, handler)
            args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
            if not extra:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
