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
one memo per axis, cleared where the denominator changes.  The memo
reads nothing but the polygons, so a scene read from a file takes the
same path.  The equilateral look for layered scenes is a cosmetic
y-stretch by a fixed rational stand-in for sqrt(3); the audit never sees
these coordinates.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .geometry import ROLE_BLANK, ROLE_COLORED, ROLE_OUTLINE, Scene, _point_parts
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
    """Bounding box over polygon vertices plus a 10% margin, scaled to the canvas."""
    stretch = (
        SQRT3 if scene.construction_kind == "layered" and opts.equilateral_look else ONE
    )
    polygons = scene.polygons
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


def render(scene: Scene, opts: RenderOptions | None = None) -> str:
    """Serialize a scene to SVG 1.1 text, byte-deterministic.

    Element order is fixed: outline, then polygons by (layer_index,
    emission order), then text labels.  A colored or blank polygon without
    a layer_index raises ValueError, as audit_scene does.
    """
    outlines = [poly for poly in scene.polygons if poly.role == ROLE_OUTLINE]
    filled = [poly for poly in scene.polygons if poly.role != ROLE_OUTLINE]
    if any(poly.layer_index is None for poly in filled):
        raise ValueError("non-outline polygon without a valid layer index")
    opts = opts or RenderOptions()
    lay = layout(scene, opts)
    dp = opts.decimal_places
    font_px = max(opts.canvas_width_px // 40, 8)
    fills = {ROLE_OUTLINE: "none", ROLE_COLORED: _escape_attr(opts.color_fill),
             ROLE_BLANK: "#ffffff"}
    stroke_attr = _escape_attr(opts.stroke_color)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {lay.width_px} {lay.height_px}" '
        f'width="{lay.width_px}" height="{lay.height_px}">',
    ]
    filled.sort(key=lambda poly: poly.layer_index)  # stable: emission order kept
    polygons = outlines + filled
    for poly, points in zip(polygons, _points_attrs(polygons, lay, dp)):
        lines.append(
            f'<polygon points="{points}" fill="{fills[poly.role]}" '
            f'stroke="{stroke_attr}" stroke-width="1"/>'
        )
    for pt, text in scene.labels:
        is_annotation = text.startswith("layer ")
        if is_annotation and not opts.show_layer_annotations:
            continue
        if not is_annotation and not opts.show_labels:
            continue
        px, py = _px(lay, *_point_parts(pt), dp)
        anchor = "start" if is_annotation else "middle"
        lines.append(
            f'<text x="{px}" y="{py}" '
            f'font-family="sans-serif" font-size="{font_px}" '
            f'text-anchor="{anchor}">{_escape(text)}</text>'
        )
    lines.append("</svg>\n")
    return "\n".join(lines)
