"""Exact-rational coordinate realizations of both pictures, plus the area audit.

The layered master triangle is isoceles with vertices C=(-1,0), B=(1,0),
A=(0,1): area exactly 1 and every coordinate rational.  Affine shape does
not change any area ratio; the renderer applies a cosmetic stretch for an
equilateral look, but the audit always runs on these coordinates.

The staircase triangle is A=(0,h), B=(h,0), C=(h-1,0) with h = 1/(1-s);
colored piece k is the right triangle (R_k, W_{k-1}, W_k) with legs
s^(k-1), where W_0 = B, R_k = W_{k-1} - (s^(k-1), 0) and
W_k = R_k + (0, s^(k-1)).  Every W_k lies on AB and every R_k on AC.

Both pictures hold a shrunken copy of themselves: layer k is layer 1
shrunk toward the apex A by lam^(k-1), with lam = 1 - r for layered and
lam = s for the staircase, so its area is layer 1's times x^(k-1), where
x = lam^2 is the series ratio.  _construction defines each picture's
layer 1 once, from its ratio alone, in integers, with lam = a/b; the
audit evaluates the area formulas at layer 1 only, stepping them by x as
integer running products, and the apex copy left after L layers has area
x^L times the figure's.  A built picture holds each layer-1 coordinate
once, as a term (c0, c1) over a denominator d, and one rule gives layer
k: with lam^(k-1) = u/v, the term's value is (c0 v + c1 u) / (d v), and
its limit c0 / d.  The builder, the scene writer, render and the audit's
band k all read layer k through that rule (see _Layer1, _values, _walk).

Coordinates are held as plain integers: a polygon keeps integer x and y
numerators over one positive denominator `den`, which the builders share
across a layer (m^k for layered r = 1/m, (q-p) q^k for the staircase
s = p/q), so building, reading, auditing and rendering a scene take no
gcd per coordinate.  Fractions appear only at the edge: Point and Polygon
are made from Fractions and give them back (.x, .y, .vertices, .area and a
LayerAudit's areas, made on first use), == compares rational values, and
a scene file holds each coordinate reduced to its canonical "p/q".

Scene files and audit reports have one writer each, scene_json_chunks
and report_json_chunks: they fill %-templates item by item and yield
the text json.dumps(doc, indent=2) + "\n" would give, in pieces, through
json_array, so neither the document nor its whole text is ever built.
Every template is made once, by json_template, from json.dumps of a
prototype document, so its layout is the encoder's; free text (params,
label texts, mismatches) is encoded by json.dumps as it is written.
The library's dict forms, scene_to_json and AuditReport.as_dict, parse
that text.

A built scene keeps its outline, vertex labels and layer 1 outside its
fields, and makes its polygons and labels only when they are read, which
neither the scene writer nor render does.  The writer prints a layer's
terms at once (see _texts): each distinct value is reduced and printed
once, by a gcd with a small number, as gcd(a, b) = 1.  A scene without
them, read from a file or made by Scene._replace, is written polygon by
polygon, each distinct coordinate of a run over one denominator reduced
by one gcd.  Both give the same text; the tests hold the second as the
first's reference.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter

from .construction import (
    LayeredParams,
    StaircaseParams,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
from .feasibility import derive_config
from .rational import (
    MAX_DENOMINATOR_BITS,
    ONE,
    ZERO,
    Rational,
    _int_text,
    check_depth,
    fmt,
    fmt_parts,
    fmt_reduced,
    parse,
    parse_parts,
)
from .record import Record
from .series import partial_sum_closed

ROLE_COLORED = "colored"
ROLE_BLANK = "blank"
ROLE_OUTLINE = "outline"

# largest picture, in polygons (layers x n + 1 for layered m, 2 x layers + 1
# for a staircase): layered m = 3 at the depth cap, 2048 x 5 + 1.  The builders
# refuse a larger, clamped picture; one within it costs no more than m = 3 at
# 2048 layers (see MAX_DENOMINATOR_BITS).  A scene file may hold as many
# polygons and labels, and 3 x as many vertices
MAX_POLYGONS = 10_241


class Point(Record):
    """A point with exact rational coordinates.

    A point of a built or read scene is made by lattice_point from integer
    numerators over one denominator; its x and y Fractions are made on
    first use.
    """

    x: Rational
    y: Rational

    def _make(self, name: str):
        num = self.__dict__.get("_num")  # a lattice point's (xn, yn, d)
        if num is None or name not in ("x", "y"):
            raise AttributeError(name)
        return Fraction(num[name == "y"], num[2])


def lattice_point(xn: int, yn: int, d: int) -> Point:
    """The point (xn/d, yn/d), d > 0, without reducing either coordinate."""
    pt = object.__new__(Point)
    pt.__dict__["_num"] = (xn, yn, d)
    return pt


def _point_parts(pt: Point) -> tuple[int, int, int, int]:
    """(xn, xd, yn, yd): pt is (xn/xd, yn/yd), unreduced for a lattice point."""
    num = pt.__dict__.get("_num")
    if num is not None:
        xn, yn, d = num
        return xn, d, yn, d
    x, y = pt.x, pt.y
    return x.numerator, x.denominator, y.numerator, y.denominator


def _lcm(values) -> int:
    """math.lcm of a sequence of positive integers, with no gcd taken where one
    value divides the other, as nested denominators almost always do."""
    d = values[0] if values else 1
    for e in values:
        if e != d and d % e:
            d = e if e % d == 0 else d * (e // math.gcd(d, e))
    return d


def _over_lcm(parts) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(xs, ys, d): points given as (xn, xd, yn, yd) as integer numerators over d,
    the lcm of their denominators."""
    d = _lcm([e for _, xd, _, yd in parts for e in (xd, yd)])
    return (
        tuple([xn * (d // xd) for xn, xd, _, _ in parts]),
        tuple([yn * (d // yd) for _, _, yn, yd in parts]),
        d,
    )


def point_numerators(pt: Point) -> tuple[int, int, int]:
    """(xn, yn, d): pt is (xn/d, yn/d), d > 0."""
    (xn,), (yn,), d = _over_lcm([_point_parts(pt)])
    return xn, yn, d


def _cross(xs, ys) -> int:
    """The shoelace sum of xs[i-1] ys[i] - xs[i] ys[i-1]: twice the signed area times d^2.

    It is summed from vertex 0: the sum of X_i Y_(i+1) - X_(i+1) Y_i over
    i = 1..n-2, with X = x - xs[0] and Y = y - ys[0], is the same integer for
    any closed polygon, as the terms in xs[0] and ys[0] cancel.  A triangle
    then takes 2 products instead of 6, of differences that in a built layer
    are shorter than the coordinates: multiples of u where the y numerators
    are near apex v (see _build_scene).
    """
    x0, y0 = xs[0], ys[0]
    px, py = xs[1] - x0, ys[1] - y0
    if len(xs) == 3:  # every polygon of both pictures
        return px * (ys[2] - y0) - (xs[2] - x0) * py
    total = 0
    for x, y in zip(xs[2:], ys[2:]):
        x -= x0
        y -= y0
        total += px * y - x * py
        px, py = x, y
    return total


class Polygon(Record):
    """Polygon of at least 3 vertices, a known role and a positive shoelace sum.

    Those three are all that is checked, so the vertices run counterclockwise
    on the whole, but a repeated vertex or a self-crossing outline passes: the
    pentagon (0,0), (6,0), (6,4), (3,-2), (0,4) is accepted, with area 6.

    Held as integer numerators xs, ys over one denominator den > 0, with
    cross the integer shoelace sum: the area is cross / (2 den^2).  None of
    them is a field, so ==, repr and scene JSON never see them; == compares
    rational values, whatever the denominators.  Polygon(vertices, ...)
    takes Points; over() takes the integers themselves.
    """

    vertices: tuple[Point, ...]
    role: str
    layer_index: int | None = None

    def __init__(self, vertices: tuple[Point, ...], role: str,
                 layer_index: int | None = None) -> None:
        made = self.over(*_over_lcm([_point_parts(pt) for pt in vertices]), role, layer_index)
        self.__dict__.update(vertices=vertices, **made.__dict__)

    @classmethod
    def over(cls, xs: tuple[int, ...], ys: tuple[int, ...], den: int, role: str,
             layer_index: int | None = None) -> Polygon:
        """The polygon with vertices (xs[i]/den, ys[i]/den), den > 0, checked, then
        kept as numerators xs, ys over den in one step."""
        if len(xs) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(xs)}")
        if role not in (ROLE_COLORED, ROLE_BLANK, ROLE_OUTLINE):
            raise ValueError(f"unknown polygon role {role!r}")
        cross = _cross(xs, ys)
        if cross <= 0:
            raise ValueError("polygon must be counterclockwise with nonzero area")
        poly = object.__new__(cls)
        object.__setattr__(poly, "__dict__", {"role": role, "layer_index": layer_index, "xs": xs,
                                              "ys": ys, "den": den, "cross": cross})
        return poly

    def _make(self, name: str):
        if name != "vertices" or "xs" not in self.__dict__:  # made by over()
            raise AttributeError(name)
        den = self.den
        return tuple([lattice_point(x, y, den) for x, y in zip(self.xs, self.ys)])

    @property
    def area(self) -> Rational:
        """Exact positive shoelace area."""
        return Fraction(self.cross, 2 * self.den * self.den)


class Scene(Record):
    """A fully built picture: polygons, text labels, and parameter echo.

    A scene from the builders holds, outside its fields, its layer 1 (see
    _Layer1), and makes its polygons and its labels, each on first read,
    from it (see _layers); the writers and render read layer 1 and make
    neither.
    """

    polygons: tuple[Polygon, ...]
    labels: tuple[tuple[Point, str], ...]
    construction_kind: str  # "layered" | "staircase"
    params_echo: dict[str, str]
    layers_rendered: int

    def _make(self, name: str):
        layer1 = self.__dict__.get("_layer1")  # a built scene's
        if layer1 is None or name not in ("polygons", "labels"):
            raise AttributeError(name)
        return _layers(layer1, self.layers_rendered, name == "labels")


class _Layer1(Record):
    """A built picture's outline, vertex labels and layer 1, from which every
    layer is made: layer k is layer 1 shrunk toward the apex by (a/b)^(k-1).

    Each layer-1 coordinate is a term (c0, c1) over a denominator (see
    _values).  xs holds the tiles' x values, (0, c) with c ascending, and ys
    their bottom and top lines' y values, (apex, -apex) and (apex, top -
    apex), over d; a tile is its role and its corners, each an index into
    xs and one into ys.  label is layer 1's label's x and y terms, over dl.
    """

    outline: Polygon
    vertex_labels: tuple[tuple[Point, str], ...]
    a: int
    b: int
    d: int
    xs: tuple[tuple[int, int], ...]
    ys: tuple[tuple[int, int], ...]
    tiles: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    dl: int
    label: tuple[tuple[int, int], tuple[int, int]]


def _scales(layer1: _Layer1, ks):
    """(k, u, v) for each layer k of the ascending ks: u/v = (a/b)^(k-1), stepped
    by one product per integer from the layer before."""
    a, b = layer1.a, layer1.b
    last = u = v = 1
    for k in ks:
        if k != last:
            u, v = (u * a, v * b) if k == last + 1 else (a ** (k - 1), b ** (k - 1))
            last = k
        yield k, u, v


def _values(terms, u: int, v: int) -> list[int]:
    """The one rule of a built picture's layers: a layer-1 term (c0, c1) over d is
    (c0 v + c1 u) / (d v) at the layer whose shrink is u/v, and c0 / d, its limit,
    at 0/1.  Each term's numerator."""
    return [c0 * v + c1 * u for c0, c1 in terms]


def shoelace_area(polygon: Polygon) -> Rational:
    """Exact positive area of a polygon, from the shoelace sum kept at its construction."""
    return polygon.area


def _construction(kind: str, ratio: Rational):
    """(echo, outline, frame, layer1, figure): what a picture of this kind
    derives from its ratio alone.

    echo is the params a built scene echoes, outline is (C, B, A), layer1
    is layer 1's (polygons, colored, colored area, layer area) from the
    construction formulas, never from drawn tiles, and figure is the
    figure's area.  frame is layer 1 in integers over one denominator d1,
    in closed form: (d1, xs, apex, top, a, b), xs the numerators of its
    x-coordinates, apex and top those of A's y and its top line's, and
    lam = a/b, with gcd(a, b) = 1.  Layered r = 1/m: n, a and min(a, n)
    colored through derive_config, outline (-1,0), (1,0), (0,1), lam = 1 - r,
    frame (m, range(-m, m + 1), m, 1, m - 1, m); a layered r that is not 1/m
    raises ValueError naming params.r.  Staircase s = p/q: r = s^2, outline
    (h-1,0), (h,0), (0,h) with h = 1/(1-s), lam = s, frame (q(q-p), (p^2, pq,
    q^2), q^2, q(q-p), p, q): x = h-1-s, h-1 and h, and y = 1 on the top line.
    """
    if kind == "layered":
        if ratio.numerator != 1:
            raise ValueError(f"params.r must be 1/m for a layered scene, got {fmt(ratio)!r:.40}")
        m = ratio.denominator
        p = derive_config(m)
        colored = min(p.a, p.n)
        echo = {"n": str(p.n), "a": str(p.a), "r": fmt(ratio), "m": str(m),
                "colored_per_layer": str(colored)}
        outline = (Point(-ONE, ZERO), Point(ONE, ZERO), Point(ZERO, ONE))
        layer1 = (p.n, colored, colored * triangle_area(p, 1), layer_area(p, 1))
        return echo, outline, (m, range(-m, m + 1), m, 1, m - 1, m), layer1, ONE
    params = StaircaseParams(ratio)
    p, q = ratio.numerator, ratio.denominator
    h = Fraction(q, q - p)
    outline = (Point(h - 1, ZERO), Point(h, ZERO), Point(ZERO, h))
    frame = (q * (q - p), (p * p, p * q, q * q), q * q, q * (q - p), p, q)
    layer1 = (2, 1, staircase_piece_area(params, 1), staircase_layer_area(params, 1))
    echo = {"s": fmt(ratio), "r": fmt(params.ratio)}
    return echo, outline, frame, layer1, staircase_total_area(params)


def _build_scene(kind: str, ratio: Rational, layers: int) -> Scene:
    """The picture of `layers` layers: layer k is layer 1 shrunk toward A by shrink^(k-1).

    _construction(kind, ratio) gives the echoed params, the outline (C, B, A)
    and layer 1's integer frame (d1, xs, apex, top, a, b), shrink = a/b.
    The depth and the polygon cap are checked first: layers too deep or
    more than MAX_POLYGONS polygons raise ValueError before any term or
    tile is made.  Layer 1's terms over d1 are then (0, c) for each x
    numerator c, and (apex, -apex) for the bottom line's y and
    (apex, top - apex) for the top one's; a tile's corner is an (xs index,
    0 bottom or 1 top line) pair.  Its layer label sits label_dx, a shift
    that does not shrink, right of the point of AB with x = label_mid.  The
    scene keeps them as _layer1, outside its fields, so ==, repr and
    _replace never see it.
    """
    echo, outline, frame, (per_layer, colored, *_), _ = _construction(kind, ratio)
    d1, xs, apex, top, a, b = frame
    check_depth(layers, ratio, "layers")  # shrink has the ratio's denominator, b
    if (count := layers * per_layer + 1) > MAX_POLYGONS:
        raise ValueError(f"layers {layers} draws {layers} x {per_layer} + 1 = {count} polygons, "
                         f"over the cap of {MAX_POLYGONS}")
    assert math.gcd(a, b) == 1  # for both kinds; _texts relies on it
    h, shrink = Fraction(apex, d1), Fraction(a, b)  # A = (0, h)
    lines = ((apex, -apex), (apex, top - apex))  # the bottom and the top line's y
    if kind == "layered":
        # coloring order, b being m: m-1 downward triangles left to right, then m upward
        corners = [((i + 1, 0), (i + 2, 1), (i, 1)) for i in range(1, 2 * b - 2, 2)]
        corners += [((i, 0), (i + 2, 0), (i + 1, 1)) for i in range(0, 2 * b - 1, 2)]
        tiles = [(ROLE_COLORED if idx < colored else ROLE_BLANK, c) for idx, c in enumerate(corners)]
        e = Fraction(1, 20)
        vertex_labels = (
            (Point(ZERO, ONE + e), "A"), (Point(ONE + e, -e), "B"), (Point(-ONE - e, -e), "C"),
            (Point(shrink + e, ratio), "D"), (Point(-shrink - e, ratio), "E"),
        )
        label_mid, label_dx = (ONE + shrink) / 2, Fraction(1, 4)  # midpoint of B and D
    else:
        # layer 1 is (C, B, W_1) and (C, W_1, R_2); as h - 1 = s h, W_1 is B shrunk by s
        tiles = [(ROLE_COLORED, ((1, 0), (2, 0), (1, 1))), (ROLE_BLANK, ((1, 0), (1, 1), (0, 1)))]
        vertex_labels = ((Point(ZERO, h + h / 20), "A"), (Point(h + h / 20, -h / 20), "B"),
                         (Point(h - 1, -h / 20), "C"))
        label_mid, label_dx = h - Fraction(1, 2), h / 10  # midpoint of B and W_1
    # the labels have their own denominator, so they do not widen the polygons'
    dl = math.lcm(d1, h.denominator, label_mid.denominator, label_dx.denominator)
    apex_l, mid, dx = [q.numerator * (dl // q.denominator) for q in (h, label_mid, label_dx)]
    scene = object.__new__(Scene)
    scene.__dict__.update(construction_kind=kind, params_echo=echo, layers_rendered=layers,
                          _layer1=_Layer1(Polygon(outline, ROLE_OUTLINE), vertex_labels, a, b, d1,
                                          tuple([(0, c) for c in xs]), lines, tuple(tiles), dl,
                                          ((dx, mid), (apex_l, -mid))))
    return scene


def _layers(layer1: _Layer1, layers: int, labels: bool = False) -> tuple:
    """A built scene's outline and the tiles of its layers 1..layers, as Polygons,
    or with labels, its vertex labels and those layers' labels, made from its
    _layer1: layer k's terms are valued over d v by _values, and only u and v
    grow, by one product each per layer."""
    steps = _scales(layer1, range(1, layers + 1))
    if labels:
        dl, label = layer1.dl, layer1.label
        return layer1.vertex_labels + tuple([
            (lattice_point(*_values(label, u, v), dl * v), f"layer {k}") for k, u, v in steps])
    polygons = [layer1.outline]
    for k, u, v in steps:
        x, y = _values(layer1.xs, u, v), _values(layer1.ys, u, v)
        d = layer1.d * v
        for role, corners in layer1.tiles:
            polygons.append(Polygon.over(tuple([x[i] for i, _ in corners]),
                                         tuple([y[j] for _, j in corners]), d, role, k))
    return tuple(polygons)


def build_layered_scene(p: LayeredParams, layers: int) -> Scene:
    """Tessellated layered picture for r = 1/m, n = 2m-1, a = (m-1)^2.

    p must be derive_config(m), as the audit derives it from r alone.
    Each layer colors min(a, n) of its n triangles: an infeasible m has
    a = (m-1)^2 >= n, so its picture is the clamped one with every
    triangle colored.  The count is echoed as colored_per_layer.
    """
    if p.r.numerator != 1:
        raise ValueError(
            f"layered tessellation requires a unit fraction r, got r = {fmt(p.r)}"
        )
    want = derive_config(p.r.denominator)
    if p != want:
        raise ValueError(
            f"r = {fmt(p.r)} forces n = {want.n} triangles per layer and a = {want.a} colored, "
            f"got n = {p.n}, a = {p.a}"
        )
    return _build_scene("layered", p.r, layers)


def build_staircase_scene(q: StaircaseParams, layers: int) -> Scene:
    """Repositioned staircase picture with L colored pieces and blank remainders."""
    return _build_scene("staircase", q.s, layers)


class LayerAudit(Record):
    """One layer's exact tallies: its polygon counts, its colored and total
    areas and their ratio, against the areas the formulas expect of it; ok is
    False where a count or an area differs, or a polygon lies off its place.  A
    layer audit_scene makes keeps its five areas as reduced (num, den) pairs
    outside its fields, and makes each Fraction on first use."""

    layer_index: int
    polygon_count: int
    colored_count: int
    colored_area: Rational
    total_area: Rational
    colored_fraction: Rational
    expected_colored_area: Rational
    expected_total_area: Rational
    ok: bool

    def _make(self, name: str):
        parts = self.__dict__.get("_parts")  # a layer the audit made
        if parts is None or name not in self._fields:
            raise AttributeError(name)
        return Fraction(*parts[self._fields.index(name) - 3])  # the five areas follow 3 counts

    def area_texts(self) -> tuple[str, str, str, str, str]:
        """The five areas as fmt writes them, in field order, from reduced pairs; an
        area equal to its expectation takes that expectation's text."""
        colored, total, fraction, want_colored, want_total = self.__dict__.get("_parts") or [
            (q.numerator, q.denominator) for q in self._astuple()[3:8]]  # made by LayerAudit(...)
        colored_text, total_text = fmt_reduced(*want_colored), fmt_reduced(*want_total)
        return (colored_text if colored == want_colored else fmt_reduced(*colored),
                total_text if total == want_total else fmt_reduced(*total),
                fmt_reduced(*fraction), colored_text, total_text)


class AuditReport(Record):
    """Per-layer exact tallies of a scene against the analytic formulas."""

    construction_kind: str
    params: dict[str, str]
    layers: tuple[LayerAudit, ...]
    tiled_area: Rational
    apex_remainder: Rational
    figure_area: Rational
    ok: bool
    mismatches: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        """The `verify --format json` document, parsed from report_json_chunks."""
        return json.loads("".join(report_json_chunks(self)))


def _equals(num: int, den: int, qn: int, qd: int) -> bool:
    """num/den == qn/qd, den > 0: qn/qd is reduced, so den must be a multiple of qd."""
    k, rest = divmod(den, qd)
    return rest == 0 and num == qn * k


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, in lowest terms."""
    g = math.gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _powers(num: int, den: int, a: int, b: int):
    """num/den times (a/b)^j, j = 0, 1, ..., in lowest terms, as num/den and a/b are: a step
    takes gcds against the small a and b, as Fraction's product does, until both are 1;
    as gcd(a, b) = 1, they stay 1, and every later step is two plain products."""
    g = h = 0
    while g != 1 or h != 1:
        yield num, den
        g, h = math.gcd(num, b), math.gcd(a, den)
        num, den = num // g * (a // h), den // h * (b // g)
    while True:
        yield num, den
        num, den = num * a, den * b


def _points_text(points) -> str:
    """"((x, y), ...)" of points, each coordinate as fmt writes it."""
    return "(" + ", ".join([f"({fmt(pt.x)}, {fmt(pt.y)})" for pt in points]) + ")"


def _piece(xs, ys, bottom: int, top: int):
    """(bottom left, bottom right, top left, top right) x of a polygon whose vertices
    lie on the lines y = bottom and y = top, running left to right along the first,
    then right to left along the second; else the index of its first vertex on
    neither line, or None if they do not run so.

    A triangle, every polygon of both pictures, takes a fast path: with each vertex
    on one of two lines, two share a line, and its positive area fixes its order.
    All three heights are compared, so that a triangle at three heights fails."""
    if len(xs) == 3:
        (x0, x1, x2), (y0, y1, y2) = xs, ys
        # the two vertices at one height and the one left; at three heights, none
        if y0 == y1:
            lo, hi, lone, y_pair, y_lone = x0, x1, x2, y0, y2
        elif y1 == y2:
            lo, hi, lone, y_pair, y_lone = x1, x2, x0, y1, y0
        elif y2 == y0:
            lo, hi, lone, y_pair, y_lone = x2, x0, x1, y2, y1
        else:
            y_pair = None
        if y_pair == bottom and y_lone == top:
            return (lo, hi, lone, lone) if lo < hi else (hi, lo, lone, lone)
        if y_pair == top and y_lone == bottom:
            return (lone, lone, lo, hi) if lo < hi else (lone, lone, hi, lo)
    on_top = []
    for j, y in enumerate(ys):
        if y != bottom and y != top:
            return j
        on_top.append(y == top)
    # rotated to where the one run of bottom vertices starts: x ascends along it,
    # then descends along the one run of top vertices
    starts = [j for j in range(len(xs)) if on_top[j - 1] and not on_top[j]]
    if len(starts) == 1:
        xs, on_top = xs[starts[0]:] + xs[:starts[0]], on_top[starts[0]:] + on_top[:starts[0]]
        t = on_top.index(True)
        if all(map(int.__lt__, xs[:t - 1], xs[1:t])) and all(map(int.__gt__, xs[t:-1], xs[t + 1:])):
            return xs[0], xs[t - 1], xs[-1], xs[t]
    return None


def _walk(k: int, items, d: int, band) -> tuple[int, int, int, int, list[str]]:
    """(colored count, colored, total, den, misplaced) of layer k's polygons, given
    as (i, polygons[i]), in one walk: their exact colored and total areas are
    colored/den and total/den, not reduced, and misplaced their mismatches against
    the band they must tile, (bottom, top, *ends) over d: its lines y = bottom / d
    and y = top / d, and its ends on the outline's edges, (bottom left, bottom
    right, top left, top right).

    Every vertex must lie on a line (band containment), and every polygon run
    left to right along the bottom line and back along the top one (shape), so
    that it is the convex hull of its intervals on them.  Sorted by those, each
    must lie left of the next on both lines (disjointness), and all between the
    band's ends (band ends).  With the layer's area, that is an exact tiling.
    All is in plain ints over dc, the lcm of d and the polygons' denominators
    (d in a built or written scene), and den = 2 dc^2.
    """
    dc = _lcm([d, *[poly.den for _, poly in items]])
    if dc != d:
        band = [e * (dc // d) for e in band]
    bottom, top, *ends = band
    count = colored = total = 0
    pieces, mismatches = [], []
    for i, poly in items:
        xs, ys, cross = poly.xs, poly.ys, poly.cross
        if poly.den != dc:
            f = dc // poly.den
            xs, ys, cross = tuple([x * f for x in xs]), tuple([y * f for y in ys]), cross * f * f
        total += cross
        if poly.role == ROLE_COLORED:
            count += 1
            colored += cross
        piece = _piece(xs, ys, bottom, top)
        if type(piece) is tuple:
            pieces.append((piece, i))
            continue
        low, high = fmt_parts(bottom, dc), fmt_parts(top, dc)
        mismatches.append(f"layer {k}: polygons[{i}] " + (
            f"does not run left to right along y = {low}, then right to left along y = {high} "
            "(shape)" if piece is None else f"vertex {piece} at y = {fmt_parts(ys[piece], dc)} "
            f"is off the band's lines y = {low} and y = {high} (band containment)"))
    if pieces and not mismatches:
        pieces.sort(key=itemgetter(0))
        for (left, i), (right, j) in zip(pieces, pieces[1:]):
            if left[1] > right[0] or left[3] > right[2]:
                mismatches.append(f"layer {k}: polygons[{j}] overlaps polygons[{i}]: it does not "
                                  "lie right of it on both band lines (disjointness)")
        (first, i), (last, j) = pieces[0], pieces[-1]
        if first[0] < ends[0] or first[2] < ends[2]:
            mismatches.append(f"layer {k}: polygons[{i}] reaches past the outline's left edge "
                              "(band ends)")
        if last[1] > ends[1] or last[3] > ends[3]:
            mismatches.append(f"layer {k}: polygons[{j}] reaches past the outline's right edge "
                              "(band ends)")
    return count, colored, total, 2 * dc * dc, mismatches


def audit_scene(scene: Scene) -> AuditReport:
    """Check the params, the outline, each layer's polygon counts and area
    sums against the construction formulas, and where its polygons lie,
    exactly.

    Only the ratio is read; _construction derives the rest from it, and
    every other echoed param must equal its derived value.  The scene must
    hold exactly one outline polygon, with the vertices of the master
    triangle (C, B, A) in that cyclic order; its layer_index is not read.
    Layer k is layer 1 shrunk by x^(k-1) in area, x = shrink^2 the series
    ratio, so the formulas are evaluated at layer 1 only and the apex
    remainder is x^L times the figure.  Layer k's expectations, layer 1's times
    x^(k-1), are reduced integer pairs (see _powers), and its area sums integers
    over one denominator, checked against them exactly (see _equals); a passing
    sum is reported as its expectation, never reduced.  tiled_area is the
    expectations' closed-form sum plus each failing layer's area less its own.
    One walk of the polygons picks out the outline and groups each layer's
    with their indices; _walk then walks a layer once, for its counts, sums
    and placement: a layer whose counts and areas hold must tile its band,
    band 1 shrunk toward A by lam^(k-1) and valued by _values, exactly.  Never
    raises on mismatch: failures come back as a report with ok=False and one
    message per broken equality or misplaced polygon.  A missing ratio, a
    malformed echoed param (see _echoed_ratio), or a layers_rendered below 1
    or too deep for the ratio (see check_depth), raises ValueError, as a
    scene file holding it does.
    """
    kind, echo = scene.construction_kind, scene.params_echo
    ratio, echoed, (derived, outline, frame, layer1, figure) = _echoed_ratio(kind, echo)
    check_depth(scene.layers_rendered, ratio, "layers_rendered")
    d1, _, apex, top, a, b = frame
    # band 1 over d1 as terms: its bottom and top lines' y, then its ends' x, C and B
    # on its bottom line and, as A = (0, apex / d1), those shrunk toward A on its top
    ends = [int(pt.x * d1) for pt in outline[:2]]
    ends += [e * (apex - top) // apex for e in ends]
    band = ((apex, -apex), (apex, top - apex), *[(0, e) for e in ends])
    # layer 1 holds want_count polygons, want_colored_count of them colored,
    # with colored area want_colored and layer area want_total
    want_count, want_colored_count, want_colored, want_total = layer1
    x = Fraction(aa := a * a, bb := b * b)
    basis = f"{_RATIO_KEY[kind]} = {fmt(ratio)}"

    mismatches = [
        f"params.{key}: echoed {echo[key]} != {want} derived from {basis}"
        for key, want in derived.items()
        if key in echoed and echoed[key] != parse(want)
    ]
    outlines = []
    by_layer: dict[int, list] = {k: [] for k in range(1, scene.layers_rendered + 1)}
    for i, poly in enumerate(scene.polygons):
        if poly.role == ROLE_OUTLINE:
            outlines.append(poly.vertices)
        elif (items := by_layer.get(poly.layer_index)) is None:
            raise ValueError("non-outline polygon without a valid layer index")
        else:
            items.append((i, poly))
    if len(outlines) != 1 or outlines[0] not in [outline[i:] + outline[:i] for i in range(3)]:
        got = _points_text(outlines[0]) if len(outlines) == 1 else f"{len(outlines)} polygons"
        mismatches.append(
            f"outline: {got} != one polygon with the master triangle's vertices "
            f"(C, B, A) = {_points_text(outline)}, in this cyclic order"
        )
    layers = []
    tiled = want_total * partial_sum_closed(x, scene.layers_rendered - 1)
    fraction_1 = ((f := want_colored / want_total).numerator, f.denominator)
    wants = zip(_powers(want_colored.numerator, want_colored.denominator, aa, bb),
                _powers(want_total.numerator, want_total.denominator, aa, bb))
    u = v = 1  # lam^(k-1) = u/v at layer k
    for (k, items), (want_c, want_t) in zip(by_layer.items(), wants):
        colored_count, colored_num, total_num, den, misplaced = _walk(k, items, d1 * v,
                                                                      _values(band, u, v))
        colored_ok = _equals(colored_num, den, *want_c)
        total_ok = _equals(total_num, den, *want_t)
        colored = want_c if colored_ok else _reduced(colored_num, den)
        total = want_t if total_ok else _reduced(total_num, den)
        before = len(mismatches)
        if len(items) != want_count or colored_count != want_colored_count:
            mismatches.append(
                f"layer {k}: polygon counts ({len(items)}, {colored_count} colored) "
                f"!= expected ({want_count}, {want_colored_count} colored)"
            )
        if not colored_ok:
            mismatches.append(
                f"layer {k}: colored area {fmt_reduced(*colored)} != "
                f"expected {fmt_reduced(*want_c)} (per-layer colored formula)"
            )
        if not total_ok:
            mismatches.append(
                f"layer {k}: layer area {fmt_reduced(*total)} != "
                f"expected {fmt_reduced(*want_t)} (layer area formula)"
            )
            tiled += Fraction(*total) - Fraction(*want_t)
        if len(mismatches) == before:  # a layer that fails its counts or areas is not placed
            mismatches += misplaced
        u, v = u * a, v * b
        fraction = (fraction_1 if colored_ok and total_ok else (0, 1) if not items
                    else _reduced(colored[0] * total[1], colored[1] * total[0]))
        layer = object.__new__(LayerAudit)
        layer.__dict__.update(layer_index=k, polygon_count=len(items), colored_count=colored_count,
                              ok=len(mismatches) == before,
                              _parts=(colored, total, fraction, want_c, want_t))
        layers.append(layer)
    remainder = x ** scene.layers_rendered * figure
    if tiled + remainder != figure:
        mismatches.append(
            f"tiling: layers {fmt(tiled)} + apex remainder {fmt(remainder)} "
            f"!= figure area {fmt(figure)}"
        )
    return AuditReport(kind, dict(echo), tuple(layers), tiled, remainder, figure, not mismatches,
                       tuple(mismatches))


def scene_to_json(scene: Scene) -> dict:
    """The scene file of `render --emit-scene`, parsed from scene_json_chunks;
    every coordinate is a canonical "p/q" string."""
    return json.loads("".join(scene_json_chunks(scene)))


def json_array(items):
    """A JSON array, a member of a top-level object, laid out as
    json.dumps(indent=2) lays it out, in pieces.

    items yields the text of each item, indented four spaces, and is
    consumed _JSON_CHUNK items per piece.  Yields "[]" for no items, else
    "[\n", the items joined by ",\n" a piece at a time, and "\n  ]".
    """
    items = iter(items)
    lead = "[\n"
    while part := ",\n".join(islice(items, _JSON_CHUNK)):
        yield lead + part
        lead = ",\n"
    yield "[]" if lead == "[\n" else "\n  ]"


# items per piece of a streamed JSON array: at the depth cap a piece of
# polygons is under a MiB of text
_JSON_CHUNK = 64
FILL, ARRAY = "\x00", "\x01"  # json_template's holes: a bare value, an array json_array writes


def _dumps(doc, depth: int) -> str:
    """json.dumps(doc, indent=2), as a value `depth` levels down in a document."""
    return json.dumps(doc, indent=2).replace("\n", "\n" + "  " * depth)


def json_template(doc, depth: int = 0):
    """The %-template of the program's own prototype doc, laid out by json.dumps(doc, indent=2)
    with each FILL value a bare %s and "%s" strings quoted holes: an array item `depth` levels
    down, or at depth 0 a document with its newline, split around each ARRAY member."""
    text = ("  " * depth + _dumps(doc, depth)).replace(json.dumps(FILL), "%s")
    return text if depth else (text + "\n").split(json.dumps(ARRAY))


_SCENE_HEAD, _SCENE_LABELS, _SCENE_TAIL = json_template({
    "schema": 1, "construction_kind": FILL, "params": FILL, "layers_rendered": FILL,
    "polygons": ARRAY, "labels": ARRAY})
_LABEL_JSON = json_template({"x": "%s", "y": "%s", "text": FILL}, 2)


@functools.lru_cache(maxsize=None)
def _polygon_json(vertex_count: int) -> str:
    """The %-template of a scene file's polygon with vertex_count vertices:
    x and y of each vertex, then role and layer_index."""
    return json_template({"vertices": [["%s", "%s"]] * vertex_count, "role": "%s",
                          "layer_index": FILL, "label": None}, 2)


def _polygon_items(polygons):
    """Each polygon's item in a scene file: each distinct numerator of a run of
    polygons over one denominator is reduced and printed once; the memo holds
    one run's text at most."""
    memo: dict[int, str] = {}
    memo_den = None
    for poly in polygons:
        den = poly.den
        if den != memo_den:
            memo.clear()
            memo_den = den
        cells = []
        for x, y in zip(poly.xs, poly.ys):
            for value in (x, y):
                text = memo.get(value)
                if text is None:
                    text = memo[value] = fmt_parts(value, den)
                cells.append(text)
        layer_index = "null" if poly.layer_index is None else poly.layer_index
        yield _polygon_json(len(poly.xs)) % (*cells, poly.role, layer_index)


def _texts(terms, d: int, steps):
    """(k, texts) for each (k, u, v) of steps: texts[i] is terms[i]'s value at
    layer k, (c0 v + c1 u) / (d v), as fmt writes it.

    Each value of a layer is reduced and printed once, a term and its
    negation sharing one print.  As gcd(a, b) = 1, no prime of v divides u,
    so a value's gcd with d v is its gcd with d gcd(c1, v): a small number
    for a term that moves (c1 != 0), as every term of a built picture but
    (0, 0) does.  Each reduced denominator is printed once per layer.
    """
    keys: dict[tuple[int, int], int] = {}  # each term, or its negation, once
    flips = [(c0, c1) < (0, 0) for c0, c1 in terms]
    order = [keys.setdefault((-c0, -c1) if flip else (c0, c1), len(keys))
             for (c0, c1), flip in zip(terms, flips)]
    order = [key + len(keys) * flip for key, flip in zip(order, flips)]  # negations follow
    c1s, negate = [c1 for _, c1 in keys], any(flips)
    for k, u, v in steps:
        den = d * v
        overs: dict[int, str] = {}
        printed = []  # each key's text, then, where a term negates a key, each negation's
        for num, c1 in zip(_values(keys, u, v), c1s):
            g = math.gcd(num, d * math.gcd(c1, v))
            over = overs.get(g)
            if over is None:
                over = overs[g] = "" if g == den else "/" + _int_text(den // g)
            printed.append(_int_text(num // g) + over)
        if negate:
            printed += [t[1:] if t[0] == "-" else "-" + t if t != "0" else t for t in printed]
        yield k, list(map(printed.__getitem__, order))


def _layer_items(layer1: _Layer1, layers: int, labels: bool = False):
    """The items of a built scene's layered polygons, or with labels, of its
    layer labels, filled a layer at a time from the texts of their terms
    (see _texts): each tile's item is a template, its role baked in."""
    if labels:
        terms, d = layer1.label, layer1.dl
        fills = [(_LABEL_JSON % ("%s", "%s", json.dumps("layer %s")), itemgetter(0, 1, -1))]
    else:  # the layer's texts: its x values, its y values, its index
        terms, d, n = layer1.xs + layer1.ys, layer1.d, len(layer1.xs)
        fills = [  # (template, cells): cells picks a tile's texts, then its layer, from the layer's
            (_polygon_json(len(corners)) % (*("%s",) * (2 * len(corners)), role, "%s"),
             itemgetter(*[t for i, j in corners for t in (i, n + j)], -1))
            for role, corners in layer1.tiles]
    for k, texts in _texts(terms, d, _scales(layer1, range(1, layers + 1))):
        texts.append(k)
        for template, cells in fills:
            yield template % cells(texts)


def _label_items(labels):
    """Each label's item in a scene file, its coordinates reduced by fmt_parts."""
    for pt, text in labels:
        xn, yn, d = point_numerators(pt)
        yield _LABEL_JSON % (fmt_parts(xn, d), fmt_parts(yn, d), json.dumps(text))


def scene_json_chunks(scene: Scene):
    """The scene file of scene, laid out as json.dumps(doc, indent=2) + "\n", in
    pieces of _JSON_CHUNK polygons; neither the document nor its whole text
    is built.

    A scene from the builders is written from its outline and vertex labels
    and a layer at a time from the layer 1 it keeps (see _layer_items), and
    makes neither its polygons nor its labels; any other scene, as
    one read from a file or made by Scene._replace, polygon by polygon
    and label by label (see _polygon_items and _label_items).  Both give the
    same text for the same scene.
    """
    yield _SCENE_HEAD % (
        json.dumps(scene.construction_kind), _dumps(scene.params_echo, 1),
        scene.layers_rendered,
    )
    layer1 = scene.__dict__.get("_layer1")
    if layer1 is None:
        polygons = _polygon_items(scene.polygons)
        labels = _label_items(scene.labels)
    else:
        layers = scene.layers_rendered
        polygons = chain(_polygon_items((layer1.outline,)), _layer_items(layer1, layers))
        labels = chain(_label_items(layer1.vertex_labels), _layer_items(layer1, layers, True))
    yield from json_array(polygons)
    yield _SCENE_LABELS
    yield from json_array(labels)
    yield _SCENE_TAIL


_REPORT_HEAD, _REPORT_AREAS, _REPORT_TAIL = json_template({
    "schema": 1, "construction": FILL, "params": FILL, "layers": ARRAY, "tiled_area": "%s",
    "apex_remainder": "%s", "figure_area": "%s", "check": "%s", "mismatches": ARRAY})
_LAYER_JSON = json_template({
    "layer": FILL, "polygons": FILL, "colored": FILL, "colored_area": "%s",
    "layer_area": "%s", "colored_fraction": "%s", "expected_colored_area": "%s",
    "expected_layer_area": "%s", "ok": FILL}, 2)
_MISMATCH_JSON = json_template(FILL, 2)


def report_json_chunks(report: AuditReport):
    """The `verify --format json` document of report, laid out as
    json.dumps(doc, indent=2) + "\n", in pieces of _JSON_CHUNK layers.

    Each layer's areas are printed by LayerAudit.area_texts, as the verify
    table's are.
    """
    yield _REPORT_HEAD % (json.dumps(report.construction_kind), _dumps(report.params, 1))

    def layers():
        for layer in report.layers:
            yield _LAYER_JSON % (
                layer.layer_index, layer.polygon_count, layer.colored_count,
                *layer.area_texts(), "true" if layer.ok else "false",
            )

    yield from json_array(layers())
    yield _REPORT_AREAS % (
        fmt(report.tiled_area), fmt(report.apex_remainder), fmt(report.figure_area),
        "pass" if report.ok else "fail",
    )
    yield from json_array(_MISMATCH_JSON % json.dumps(m) for m in report.mismatches)
    yield _REPORT_TAIL


# the ratio a picture of each kind is read from, whose denominator sets how
# deep layers_rendered may go; every other echoed param is a count or r
_RATIO_KEY = {"layered": "r", "staircase": "s"}
_COUNT_PARAMS = ("n", "a", "m", "colored_per_layer")
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
# largest lcm, in bits, of a scene file's coordinate denominators: twice the
# largest a built scene reaches, (q - p) q^L for the staircase s = p/q or
# m^L for layered r = 1/m, at most 2 x MAX_DENOMINATOR_BITS (its labels
# add a few bits)
MAX_SCENE_DENOMINATOR_BITS = 4 * MAX_DENOMINATOR_BITS
# most digits of a number in a scene file: those of a MAX_SCENE_DENOMINATOR_BITS-bit
# number (log10(2) < 0.30103), about twice the most a built scene file's have
MAX_SCENE_DIGITS = MAX_SCENE_DENOMINATOR_BITS * 30103 // 100000 + 1


def _typed(value, kind: type, path: str, optional: bool = False):
    """value if it is a `kind` (bool never counts as int), or None when optional;
    else ValueError naming path."""
    if (value is None and optional) or (isinstance(value, kind) and not isinstance(value, bool)):
        return value
    raise ValueError(f"{path} must be {_JSON_KINDS[kind]}, got {value!r:.40}")


def _member(obj: dict, key: str, kind: type, path: str, optional: bool = False):
    """obj[key] if it is a `kind`; a missing key is None when optional."""
    where = f"{path}.{key}" if path else key
    if key not in obj and not optional:
        raise ValueError(f"{where} is missing")
    return _typed(obj.get(key), kind, where, optional)


def _pair_parts(pair, read) -> tuple[int, int, int, int]:
    """(xn, xd, yn, yd) of an ["x", "y"] pair of "p/q" strings, each parsed by read."""
    if isinstance(pair, list) and len(pair) == 2:
        x, y = pair
        if isinstance(x, str) and isinstance(y, str):
            return (*read(x), *read(y))
    raise ValueError(f'must be an ["x", "y"] pair of "p/q" strings, got {pair!r:.40}')


def _check_param(key: str, value):
    """value parsed, or ValueError naming params.<key> unless it is what the audit reads.

    Counts are integers >= 1, as decimal strings or JSON integers, parsed to
    int; ratios are "p/q" strings in (0, 1), parsed to Fraction.
    """
    try:
        if key in _COUNT_PARAMS:
            want = "an integer >= 1"
            text = str(value) if isinstance(value, int) else value
            if (isinstance(text, str) and text.isascii() and text.isdigit()
                    and (count := int(text)) >= 1):
                return count
        else:
            want = 'a "p/q" string in (0, 1)'
            if isinstance(value, str) and 0 < (ratio := parse(value)) < 1:
                return ratio
    except ValueError:  # not a rational, or too many digits to convert
        pass
    raise ValueError(f"params.{key} must be {want}, got {value!r:.40}")


def _echoed_ratio(kind: str, params: dict):
    """(ratio, echoed, _construction(kind, ratio)): ratio is params[_RATIO_KEY[kind]], and
    echoed maps every echoed count and ratio to its value parsed by _check_param; ValueError
    for an unknown kind, a missing ratio, a malformed param or a layered r not 1/m."""
    key = _RATIO_KEY.get(kind)
    if key is None:
        raise ValueError(f"unknown construction kind {kind!r}")
    if key not in params:
        raise ValueError(f"params.{key} is missing")
    echoed = {name: _check_param(name, params[name])
              for name in (*_COUNT_PARAMS, *_RATIO_KEY.values()) if name in params}
    return echoed[key], echoed, _construction(kind, echoed[key])


def _check_counts(doc: dict) -> None:
    """ValueError naming the field if the document holds more polygons, vertices
    or labels than the largest built picture allows; counted before anything
    is read, so a huge file costs one pass over its lists.  A field of the
    wrong type is left to the reader, which names it."""
    polygons = doc.get("polygons")
    polygons = polygons if isinstance(polygons, list) else []
    labels = doc.get("labels")
    labels = labels if isinstance(labels, list) else []
    if len(polygons) > MAX_POLYGONS:
        raise ValueError(
            f"polygons holds {len(polygons)} entries, over the cap of {MAX_POLYGONS}"
        )
    vertices = sum(
        len(entry["vertices"])
        for entry in polygons
        if isinstance(entry, dict) and isinstance(entry.get("vertices"), list)
    )
    if vertices > 3 * MAX_POLYGONS:
        raise ValueError(
            f"polygons hold {vertices} vertices in total, over the cap of "
            f"{3 * MAX_POLYGONS} (3 x {MAX_POLYGONS})"
        )
    if len(labels) > MAX_POLYGONS:
        raise ValueError(f"labels holds {len(labels)} entries, over the cap of {MAX_POLYGONS}")


def scene_from_json(doc) -> Scene:
    """Inverse of scene_to_json; checks the schema version and the document's shape.

    Each distinct "p/q" coordinate string is parsed once, to two integers,
    unreduced, and each polygon is put over the lcm of its denominators (no
    division for a value over it, or 0), so no Fraction is made.  The lcm
    of every coordinate denominator is kept as the strings are read: a
    file that takes it past MAX_SCENE_DENOMINATOR_BITS is refused before
    the polygon is made, so every denominator the audit meets divides a
    number of at most that many bits.  Each field is checked inline;
    _typed, _member and _pair_parts are called only to name a failure.

    A file holding more than MAX_POLYGONS polygons or labels, or more
    than 3 x MAX_POLYGONS vertices in all, is refused before anything is read.

    Anything malformed raises ValueError naming where, e.g.
    ``polygons[3].vertices[1]: invalid literal for a "p/q" rational: ...``.
    """
    _typed(doc, dict, "scene")
    _check_counts(doc)
    schema = doc.get("schema")
    if type(schema) is not int or schema != 1:
        raise ValueError(f"unsupported scene schema: {schema!r:.40}")
    kind = _member(doc, "construction_kind", str, "")
    if kind not in _RATIO_KEY:
        raise ValueError(f"construction_kind: unknown construction {kind!r:.40}")
    params = _member(doc, "params", dict, "")
    ratio, _, _ = _echoed_ratio(kind, params)
    layers = _member(doc, "layers_rendered", int, "")
    check_depth(layers, ratio, "layers_rendered")
    lcm = 1
    # a layer's polygons share their coordinate lines: each distinct string is parsed once
    parts: dict[str, tuple[int, int]] = {}

    def read(text: str) -> tuple[int, int]:
        nonlocal lcm
        num, den = parse_parts(text)
        if lcm % den:  # on a built scene, only where a deeper layer starts
            lcm = math.lcm(lcm, den)
            if lcm.bit_length() > MAX_SCENE_DENOMINATOR_BITS:
                raise ValueError(
                    f"the lcm of the coordinate denominators so far has {lcm.bit_length()} "
                    f"bits, over the cap of {MAX_SCENE_DENOMINATOR_BITS}"
                )
        parts[text] = num, den
        return num, den

    polygons = []
    for i, entry in enumerate(_member(doc, "polygons", list, "")):
        if type(entry) is not dict:
            _typed(entry, dict, f"polygons[{i}]")
        if type(vertices := entry.get("vertices")) is not list:
            vertices = _member(entry, "vertices", list, f"polygons[{i}]")
        points = []
        for j, pair in enumerate(vertices):
            try:
                if type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is str:
                    x, y = pair
                    points += parts.get(x) or read(x), parts.get(y) or read(y)
                else:  # names the failure, or reads a str subclass
                    xn, xd, yn, yd = _pair_parts(pair, read)
                    points += (xn, xd), (yn, yd)
            except ValueError as exc:
                raise ValueError(f"polygons[{i}].vertices[{j}]: {exc}") from None
        if type(role := entry.get("role")) is not str:
            role = _member(entry, "role", str, f"polygons[{i}]")
        if type(layer_index := entry.get("layer_index")) is not int and layer_index is not None:
            layer_index = _member(entry, "layer_index", int, f"polygons[{i}]", optional=True)
        if type(label := entry.get("label")) is not str and label is not None:
            _member(entry, "label", str, f"polygons[{i}]", optional=True)
        # x, y, x, ... over the lcm of their denominators: one of them, on a built scene
        d = _lcm([e for _, e in points])
        values = [n * (d // e) if n and e != d else n for n, e in points]
        try:
            polygons.append(Polygon.over(tuple(values[::2]), tuple(values[1::2]), d, role,
                                         layer_index))
        except ValueError as exc:
            raise ValueError(f"polygons[{i}]: {exc}") from None
        if role != ROLE_OUTLINE and not (layer_index is not None and 1 <= layer_index <= layers):
            raise ValueError(
                f"polygons[{i}].layer_index must be an integer in [1, {layers}] for a {role} "
                f"polygon, got {layer_index!r}"
            )
    labels = []
    for i, entry in enumerate(_member(doc, "labels", list, "", optional=True) or ()):
        if type(entry) is not dict:
            _typed(entry, dict, f"labels[{i}]")
        if type(x := entry.get("x")) is not str:
            x = _member(entry, "x", str, f"labels[{i}]")
        if type(y := entry.get("y")) is not str:
            y = _member(entry, "y", str, f"labels[{i}]")
        try:
            (xn, xd), (yn, yd) = parts.get(x) or read(x), parts.get(y) or read(y)
        except ValueError as exc:
            raise ValueError(f"labels[{i}]: {exc}") from None
        if type(text := entry.get("text")) is not str:
            text = _member(entry, "text", str, f"labels[{i}]")
        d = _lcm((xd, yd))
        labels.append((lattice_point(xn * (d // xd), yn * (d // yd), d), text))
    # a param's string as it is, any other value as its JSON text: 5 as "5", false as "false"
    echo = {k: v if isinstance(v, str) else json.dumps(v) for k, v in params.items()}
    return Scene(tuple(polygons), tuple(labels), kind, echo, layers)
