"""Deterministic SVG output: same scene and options, same bytes, always.

No binary floating point anywhere.  layout finds the bounding box in exact
rationals and turns it into one exact affine map per axis, px = ax*x + bx,
held as integers over one shared denominator.  A vertex x = p/d, p an
integer numerator of its polygon over the polygon's denominator d, then
maps to the unreduced fraction (ax*p + bx*d) / (den*d), with no gcd; a
label's x and y are mapped so too, each over its own denominator.  Each
is printed by the one rounding rule format_coordinate also uses: decimal
digits expanded from integers, half away from zero.  A run of polygons
over one denominator, as a built layer is, shares its coordinate lines:
each distinct x and y numerator of a run is mapped and printed once, by
one memo per axis, cleared where the denominator changes.  A built
scene, one that keeps its layer 1 frame, takes its box from its outline,
which holds every tile.  Its layer k is layer 1 shrunk toward the apex A
by lam^(k-1): once both ends of layer k's bottom line print as A's cell,
every vertex of every later layer, in the box of those three points,
prints so too, as the map is affine per axis and the rounding monotone;
and once layer k's label prints as its limit point's cell, every later
label does.  From the first layer at which both hold, found by
bisection, layers are written from one line per tile and labels from
that cell; the layers before it are made from the frame, so the scene's
own polygons and labels are never made.  Any other scene, as one read
from a file, maps every vertex, and the tests hold that path as the
reference.  The equilateral look for layered scenes is a cosmetic
y-stretch by a fixed rational stand-in for sqrt(3); the audit never
sees these coordinates.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .geometry import ROLE_BLANK, ROLE_COLORED, ROLE_OUTLINE, Scene, _layers, _point_parts
from .rational import ONE, Rational
from .record import Record

# 18 correct digits of sqrt(3); cosmetic stretch only, never audited.
SQRT3 = Fraction(1_732_050_807_568_877_293, 10**18)

# a character XML 1.0 does not allow anywhere in a document: a C0 control but
# tab, LF and CR, a surrogate, U+FFFE or U+FFFF (the complement of XML's Char,
# written out because the negated class takes ten times as long to compile)
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """text with &, < and > escaped, for element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    """text escaped for a "-quoted attribute value."""
    return _escape(text).replace('"', "&quot;")


_POLYGON = '<polygon points="%s" fill="%s" stroke="%s" stroke-width="1"/>'
_TEXT = '<text x="%s" y="%s" font-family="sans-serif" font-size="%d" text-anchor="%s">%s</text>'

# widest canvas, in px: at the cap a built picture's SVG costs about what it
# costs at the default width (see README); far wider, its numbers only grow
MAX_CANVAS_WIDTH_PX = 1_000_000


class RenderOptions(Record):
    """How render draws a scene: the canvas width in px, the colored tiles'
    fill and every outline's stroke color, the digits after the point of each
    coordinate, whether the vertex labels and the layer annotations are
    drawn, and whether a layered scene is stretched to look equilateral.

    The defaults are class attributes, which the CLI's render options read.
    """

    canvas_width_px: int = 600
    color_fill: str = "#00ffff"
    stroke_color: str = "#000000"
    decimal_places: int = 6
    show_labels: bool = True
    show_layer_annotations: bool = True
    equilateral_look: bool = True

    def __init__(  # each default is the class attribute above
        self,
        canvas_width_px: int = canvas_width_px,
        color_fill: str = color_fill,
        stroke_color: str = stroke_color,
        decimal_places: int = decimal_places,
        show_labels: bool = show_labels,
        show_layer_annotations: bool = show_layer_annotations,
        equilateral_look: bool = equilateral_look,
    ) -> None:
        if canvas_width_px < 1:
            raise ValueError(f"canvas width must be positive, got {canvas_width_px}")
        if canvas_width_px > MAX_CANVAS_WIDTH_PX:
            raise ValueError(
                f"canvas width must be at most {MAX_CANVAS_WIDTH_PX}, got {canvas_width_px}"
            )
        if not 1 <= decimal_places <= 12:
            raise ValueError(
                f"decimal_places must lie in [1, 12], got {decimal_places}"
            )
        for name, color in (("fill", color_fill), ("stroke", stroke_color)):
            bad = _NOT_XML.search(color)
            if bad:
                raise ValueError(
                    f"{name} color must not contain U+{ord(bad.group()):04X}, "
                    "a character XML 1.0 does not allow"
                )
        self.__dict__.update(
            canvas_width_px=canvas_width_px, color_fill=color_fill, stroke_color=stroke_color,
            decimal_places=decimal_places, show_labels=show_labels,
            show_layer_annotations=show_layer_annotations, equilateral_look=equilateral_look,
        )


def _fixed(num: int, den: int, decimal_places: int) -> str:
    """num/den (den > 0, not necessarily reduced) as format_coordinate prints it."""
    units = (2 * abs(num) * 10**decimal_places + den) // (2 * den)
    if decimal_places == 0:
        text = str(units)
    else:
        digits = str(units).rjust(decimal_places + 1, "0")
        text = f"{digits[:-decimal_places]}.{digits[-decimal_places:]}"
    if num < 0 and units != 0:
        text = "-" + text
    return text


def format_coordinate(q: Rational, decimal_places: int) -> str:
    """Fixed-point decimal, exactly decimal_places digits, half away from zero.

    Never uses exponent notation; a value that rounds to zero loses its
    sign ("-0.000000" is printed as "0.000000").
    """
    if decimal_places < 0:
        raise ValueError(f"decimal_places must be >= 0, got {decimal_places}")
    return _fixed(q.numerator, q.denominator, decimal_places)


class Layout(Record):
    """Exact scene-to-pixel map, one affine map per axis over one denominator:
    px = (ax*x + bx) / den and py = (ay*y + by) / den, all five integers.

    area_scale converts exact scene areas to px^2.
    """

    ax: int
    bx: int
    ay: int
    by: int
    den: int
    width_px: int
    height_px: int

    def __init__(self, ax: int, bx: int, ay: int, by: int, den: int, width_px: int,
                 height_px: int) -> None:
        self.__dict__.update(ax=ax, bx=bx, ay=ay, by=by, den=den, width_px=width_px,
                             height_px=height_px)

    @property
    def area_scale(self) -> Fraction:
        return Fraction(-self.ax * self.ay, self.den * self.den)


def _least(pairs) -> Fraction:
    """The least of the rationals num/den given as (num, den) pairs, den > 0.

    Pairs that share a denominator, as a layer's do, compare by numerator;
    any other two by cross-multiplying.
    """
    if not pairs:
        raise ValueError("a layout needs at least one polygon")
    num, den = pairs[0]
    for n, d in pairs:
        if (n < num) if d == den else (n * den < num * d):
            num, den = n, d
    return Fraction(num, den)


def layout(scene: Scene, opts: RenderOptions) -> Layout:
    """Bounding box over polygon vertices plus a 10% margin, scaled to the canvas;
    a built scene's is its outline's, kept in its head, as every tile lies in it."""
    stretch = (
        SQRT3 if scene.construction_kind == "layered" and opts.equilateral_look else ONE
    )
    head = scene.__dict__.get("_head")
    polygons = scene.polygons if head is None else head[0]
    x_min = _least([(min(poly.xs), poly.den) for poly in polygons])
    x_max = -_least([(-max(poly.xs), poly.den) for poly in polygons])
    y_min = _least([(min(poly.ys), poly.den) for poly in polygons]) * stretch  # stretch > 0
    y_max = -_least([(-max(poly.ys), poly.den) for poly in polygons]) * stretch
    width = x_max - x_min
    height = y_max - y_min
    margin = max(width, height) / 10
    scale = Fraction(opts.canvas_width_px) / (width + 2 * margin)
    height_px = math.ceil((height + 2 * margin) * scale)
    # px = (x - x_min + margin) * scale, py = (y_max + margin - y * stretch) * scale
    coefficients = (scale, (margin - x_min) * scale, -stretch * scale, (y_max + margin) * scale)
    den = math.lcm(*[c.denominator for c in coefficients])
    ax, bx, ay, by = [c.numerator * (den // c.denominator) for c in coefficients]
    return Layout(ax, bx, ay, by, den, opts.canvas_width_px, height_px)


def _px(lay: Layout, xn: int, xd: int, yn: int, yd: int, dp: int) -> tuple[str, str]:
    """The point (xn/xd, yn/yd)'s pixel coordinates as printed, each mapped over
    its own denominator, reduced or not."""
    return (_fixed(lay.ax * xn + lay.bx * xd, lay.den * xd, dp),
            _fixed(lay.ay * yn + lay.by * yd, lay.den * yd, dp))


def _points_attrs(polygons, lay: Layout, dp: int):
    """Each polygon's points attribute, in order: each distinct x and y numerator
    of a run of polygons over one denominator is mapped and printed once."""
    den = None
    for poly in polygons:
        if poly.den != den:
            den = poly.den
            scale, bx, by = lay.den * den, lay.bx * den, lay.by * den
            px: dict[int, str] = {}
            py: dict[int, str] = {}
        cells = []
        for x, y in zip(poly.xs, poly.ys):
            tx = px.get(x)
            if tx is None:
                tx = px[x] = _fixed(lay.ax * x + bx, scale, dp)
            ty = py.get(y)
            if ty is None:
                ty = py[y] = _fixed(lay.ay * y + by, scale, dp)
            cells.append(f"{tx},{ty}")
        yield " ".join(cells)


def _collapse(lay: Layout, dp: int, a: int, b: int, last: int, points) -> int:
    """The first layer k up to last, or last + 1, from which every point prints as its
    limit: layer k of a built scene puts a point (x0, x1, y0, y1, d) at (x0 v + x1 u,
    y0 v + y1 u) / (d v), u/v = (a/b)^(k-1), so it moves monotonically on each axis
    toward (x0, y0) / d, and once it prints as that cell, so does every later layer's.
    Layer last is tried first, then layers 1, 2, 4, ... and a bisection, so once it
    holds, the calls depend on k alone."""
    def holds(k: int) -> bool:
        u, v = a ** (k - 1), b ** (k - 1)
        return all(_px(lay, x0 * v + x1 * u, d * v, y0 * v + y1 * u, d * v, dp)
                   == _px(lay, x0, d, y0, d, dp) for x0, x1, y0, y1, d in points)

    if not holds(last):
        return last + 1
    lo, hi = 0, 1
    while hi < last and not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # holds(hi), as hi < last ended the loop or hi >= last
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def render(scene: Scene, opts: RenderOptions | None = None) -> str:
    """Serialize a scene to SVG 1.1 text, byte-deterministic.

    Element order is fixed: outline, then polygons by (layer_index,
    emission order), then text labels.  A colored or blank polygon without
    a layer_index raises ValueError, as audit_scene does; so does a drawn
    label whose text holds a character XML 1.0 does not allow.
    """
    opts = opts or RenderOptions()
    lay = layout(scene, opts)
    dp = opts.decimal_places
    font_px = max(opts.canvas_width_px // 40, 8)
    fills = {ROLE_OUTLINE: "none", ROLE_COLORED: _escape_attr(opts.color_fill),
             ROLE_BLANK: "#ffffff"}
    stroke_attr = _escape_attr(opts.stroke_color)
    deep_polygons, deep_labels = [], []  # deep: drawn as one cell
    layer1 = scene.__dict__.get("_layer1")
    if layer1 is None:
        labels = scene.labels
        outlines = [poly for poly in scene.polygons if poly.role == ROLE_OUTLINE]
        filled = [poly for poly in scene.polygons if poly.role != ROLE_OUTLINE]
        if any(poly.layer_index is None for poly in filled):
            raise ValueError("non-outline polygon without a valid layer index")
        filled.sort(key=lambda poly: poly.layer_index)  # stable: emission order kept
        polygons = outlines + filled
    else:  # built: the outline, then layer by layer
        d1, xs, apex, _, a, b, tiles, (apex_l, mid, dx, dl) = layer1
        last = scene.layers_rendered
        # both ends of layer k's bottom line, whose limit is A, and layer k's label
        ends = [(0, c, apex, -apex, d1) for c in (min(xs), max(xs))]
        k = _collapse(lay, dp, a, b, last, [*ends, (dx, mid, apex_l, -mid, dl)])
        outline, vertex_labels = scene._head
        polygons = outline + _layers(layer1, k - 1)
        labels = vertex_labels + _layers(layer1, k - 1, labels=True)
        if k <= last:
            cell = ",".join(_px(lay, 0, 1, apex, d1, dp))
            deep_polygons = [_POLYGON % (" ".join([cell] * len(corners)), fills[role],
                                         stroke_attr) for role, corners in tiles] * (last - k + 1)
            if opts.show_layer_annotations:
                limit = _px(lay, dx, dl, apex_l, dl, dp)
                deep_labels = [_TEXT % (*limit, font_px, "start", f"layer {j}")
                               for j in range(k, last + 1)]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {lay.width_px} {lay.height_px}" '
        f'width="{lay.width_px}" height="{lay.height_px}">',
    ]
    for poly, points in zip(polygons, _points_attrs(polygons, lay, dp)):
        lines.append(_POLYGON % (points, fills[poly.role], stroke_attr))
    lines += deep_polygons
    for i, (pt, text) in enumerate(labels):
        is_annotation = text.startswith("layer ")
        if not (opts.show_layer_annotations if is_annotation else opts.show_labels):
            continue
        if bad := _NOT_XML.search(text):
            raise ValueError(f"label {i} text must not contain U+{ord(bad.group()):04X}, "
                             "a character XML 1.0 does not allow")
        anchor = "start" if is_annotation else "middle"
        lines.append(_TEXT % (*_px(lay, *_point_parts(pt), dp), font_px, anchor, _escape(text)))
    lines += deep_labels
    lines.append("</svg>\n")
    return "\n".join(lines)
