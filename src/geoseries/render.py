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
scene takes its box from its outline, which holds every tile.  Its
layer k holds each layer-1 term (c0, c1) over d at (c0 v + c1 u) / (d v),
lam^(k-1) = u/v (see geometry._values), which moves monotonically toward
its limit c0 / d, the term at 0/1; the map being affine per axis and the
rounding monotone, once the extreme x terms, the two lines and the label
print as their limit's cell, every corner and label does at every later
layer.  From the first layer at which they do, found by bisection,
layers are written from one line per tile and labels from that cell;
the layers before it are made from layer 1, so the scene's own polygons
and labels are never made.  Any other scene, as one read from a file,
maps every vertex, and the tests hold that path as the reference.  The
equilateral look for layered scenes is a cosmetic y-stretch by a fixed
rational stand-in for sqrt(3); the audit never sees these coordinates.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .geometry import (ROLE_BLANK, ROLE_COLORED, ROLE_OUTLINE, Scene, _layers, _point_parts,
                       _scales, _values)
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # stored, then checked
        width, places = self.canvas_width_px, self.decimal_places
        if width < 1:
            raise ValueError(f"canvas width must be positive, got {width}")
        if width > MAX_CANVAS_WIDTH_PX:
            raise ValueError(f"canvas width must be at most {MAX_CANVAS_WIDTH_PX}, got {width}")
        if not 1 <= places <= 12:
            raise ValueError(f"decimal_places must lie in [1, 12], got {places}")
        for name, color in (("fill", self.color_fill), ("stroke", self.stroke_color)):
            if bad := _NOT_XML.search(color):
                raise ValueError(f"{name} color must not contain U+{ord(bad.group()):04X}, "
                                 "a character XML 1.0 does not allow")


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
    a built scene's is its outline's, as every tile lies in it."""
    stretch = (
        SQRT3 if scene.construction_kind == "layered" and opts.equilateral_look else ONE
    )
    layer1 = scene.__dict__.get("_layer1")
    polygons = scene.polygons if layer1 is None else (layer1.outline,)
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


def _collapse(lay: Layout, dp: int, layer1, last: int, points) -> tuple[int, list | None]:
    """(k, limits): the first layer k up to last, or last + 1, from which every point
    (x term, y term, d) of layer 1 prints as its limit's cell, and, for k <= last,
    those cells.  A point moves monotonically on each axis toward its limit, the term
    at 0/1 (see _values), as k grows, so once it prints as that cell, so does every
    later layer's.  Layer last is tried first, then layers 1, 2, 4, ... and a
    bisection, so once it holds, the calls depend on k alone."""
    def cells(u: int = 0, v: int = 1):
        for x, y, d in points:
            xn, yn = _values((x, y), u, v)
            yield _px(lay, xn, d * v, yn, d * v, dp)

    def holds(k: int) -> bool:
        (_, u, v), = _scales(layer1, (k,))
        return all(map(operator.eq, cells(u, v), cells()))

    if not holds(last):
        return last + 1, None
    lo, hi = 0, 1
    while hi < last and not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # holds(hi), as hi < last ended the loop or hi >= last
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi, list(cells())


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
        xs, ys, d, last = layer1.xs, layer1.ys, layer1.d, scene.layers_rendered
        # the x terms share c0 and ascend in c1, so each x lies between the first and the
        # last, and each y is one of the two lines': all tend to one limit, A
        ends = [(x, y, d) for x, y in zip((xs[0], xs[-1]), ys)]
        k, limits = _collapse(lay, dp, layer1, last, [*ends, (*layer1.label, layer1.dl)])
        polygons, labels = _layers(layer1, k - 1), _layers(layer1, k - 1, labels=True)
        if k <= last:
            cell = ",".join(limits[0])
            deep_polygons = [_POLYGON % (" ".join([cell] * len(corners)), fills[role], stroke_attr)
                             for role, corners in layer1.tiles] * (last - k + 1)
            if opts.show_layer_annotations:
                deep_labels = [_TEXT % (*limits[-1], font_px, "start", f"layer {j}")
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
