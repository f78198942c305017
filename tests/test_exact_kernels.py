"""The integer shoelace and the integer pixel map against the Fraction code they replaced.

A Polygon sums its cross products over one common denominator, and
render prints each coordinate from an unreduced numerator and denominator.
The references below are the earlier Fraction versions, kept here so that
both kernels must give the same values and the same SVG bytes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from geoseries import geometry
from geoseries.construction import LayeredParams, StaircaseParams
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    ROLE_OUTLINE,
    Point,
    Polygon,
    _lcm,
    build_layered_scene,
    build_staircase_scene,
    scene_json_chunks,
    shoelace_area,
)
from geoseries.render import SQRT3, RenderOptions, _fixed, format_coordinate, render


def reference_signed_area_twice(vertices):
    total = Fraction(0)
    m = len(vertices)
    for i in range(m):
        p, q = vertices[i], vertices[(i + 1) % m]
        total += p.x * q.y - q.x * p.y
    return total


def reference_format_coordinate(q, decimal_places):
    scaled = abs(q) * 10**decimal_places
    num, den = scaled.numerator, scaled.denominator
    units = (2 * num + den) // (2 * den)
    if decimal_places == 0:
        text = str(units)
    else:
        digits = str(units).rjust(decimal_places + 1, "0")
        text = f"{digits[:-decimal_places]}.{digits[-decimal_places:]}"
    if q < 0 and units != 0:
        text = "-" + text
    return text


@dataclass(frozen=True)
class ReferenceLayout:
    scale: Fraction
    y_stretch: Fraction
    x_min: Fraction
    y_max: Fraction
    margin: Fraction
    width_px: int
    height_px: int

    def to_px(self, pt):
        sy = pt.y * self.y_stretch
        return (
            (pt.x - self.x_min + self.margin) * self.scale,
            (self.y_max + self.margin - sy) * self.scale,
        )


def reference_layout(scene, opts):
    stretch = (
        SQRT3 if scene.construction_kind == "layered" and opts.equilateral_look else Fraction(1)
    )
    xs = [v.x for poly in scene.polygons for v in poly.vertices]
    ys = [v.y * stretch for poly in scene.polygons for v in poly.vertices]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    width = x_max - x_min
    height = y_max - y_min
    margin = max(width, height) / 10
    scale = Fraction(opts.canvas_width_px) / (width + 2 * margin)
    height_px = math.ceil((height + 2 * margin) * scale)
    return ReferenceLayout(scale, stretch, x_min, y_max, margin, opts.canvas_width_px, height_px)


def reference_points(scene, opts):
    """Every pixel coordinate the reference prints, as exact Fractions, in document order."""
    lay = reference_layout(scene, opts)
    outlines = [poly for poly in scene.polygons if poly.role == ROLE_OUTLINE]
    filled = sorted(
        (poly for poly in scene.polygons if poly.role != ROLE_OUTLINE),
        key=lambda poly: poly.layer_index,
    )
    for poly in outlines + filled:
        for v in poly.vertices:
            yield lay.to_px(v)
    for pt, text in scene.labels:
        is_annotation = text.startswith("layer ")
        if opts.show_layer_annotations if is_annotation else opts.show_labels:
            yield lay.to_px(pt)


def reference_render(scene, opts):
    lay = reference_layout(scene, opts)
    dp = opts.decimal_places
    fc = reference_format_coordinate
    font_px = max(opts.canvas_width_px // 40, 8)

    def points_attr(poly):
        pairs = []
        for v in poly.vertices:
            px, py = lay.to_px(v)
            pairs.append(f"{fc(px, dp)},{fc(py, dp)}")
        return " ".join(pairs)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {lay.width_px} {lay.height_px}" '
        f'width="{lay.width_px}" height="{lay.height_px}">',
    ]
    outlines = [poly for poly in scene.polygons if poly.role == ROLE_OUTLINE]
    filled = [poly for poly in scene.polygons if poly.role != ROLE_OUTLINE]
    filled.sort(key=lambda poly: poly.layer_index)
    for poly in outlines:
        lines.append(
            f'<polygon points="{points_attr(poly)}" fill="none" '
            f'stroke="{opts.stroke_color}" stroke-width="1"/>'
        )
    for poly in filled:
        fill = opts.color_fill if poly.role == "colored" else "#ffffff"
        lines.append(
            f'<polygon points="{points_attr(poly)}" fill="{fill}" '
            f'stroke="{opts.stroke_color}" stroke-width="1"/>'
        )
    for pt, text in scene.labels:
        is_annotation = text.startswith("layer ")
        if is_annotation and not opts.show_layer_annotations:
            continue
        if not is_annotation and not opts.show_labels:
            continue
        px, py = lay.to_px(pt)
        anchor = "start" if is_annotation else "middle"
        lines.append(
            f'<text x="{fc(px, dp)}" y="{fc(py, dp)}" '
            f'font-family="sans-serif" font-size="{font_px}" '
            f'text-anchor="{anchor}">{escape(text)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def is_tie(q, decimal_places):
    """True when q lies exactly half-way between two printable values."""
    return (q * 10**decimal_places).denominator == 2


# coordinates: integers, small fractions, negatives, and denominators of
# several hundred bits, as deep scenes have
COORDINATES = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    st.builds(
        lambda num, base, power: Fraction(num, base**power),
        st.integers(-(10**200), 10**200),
        st.sampled_from([2, 3, 5, 7, 10, 12]),
        st.integers(0, 400),
    ),
)
POINTS = st.builds(Point, COORDINATES, COORDINATES)


@given(st.lists(POINTS, min_size=3, max_size=8))
def test_polygon_area_is_half_the_fraction_reference(vertices):
    doubled = reference_signed_area_twice(tuple(vertices))
    assume(doubled != 0)
    if doubled < 0:
        vertices.reverse()
    polygon = Polygon(tuple(vertices), ROLE_OUTLINE)
    assert polygon.area == abs(doubled) / 2
    assert shoelace_area(polygon) == polygon.area


def textbook_cross(xs, ys):
    return sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(xs)))


BIG = st.integers(-(2**1200), 2**1200)


@given(st.lists(st.tuples(BIG, BIG), min_size=3, max_size=8), st.integers(1, 2**1200))
def test_cross_from_vertex_0_is_the_textbook_sum(vertices, den):
    # random vertex lists are mostly non-convex, and many cross themselves
    doubled = textbook_cross(*zip(*vertices))
    assume(doubled != 0)
    if doubled < 0:
        vertices.reverse()
    xs, ys = (tuple(c) for c in zip(*vertices))
    assert Polygon.over(xs, ys, den, ROLE_OUTLINE).cross == abs(doubled)


BIG_UNIT = 2**1200 + 7
# a dart, counterclockwise: its vertex (2, 1) is reflex
DART = ((0, 0), (4, 0), (2, 1), (4, 4))


@pytest.mark.parametrize("shift", [0, -(2**1199), 3**700], ids=["at-0", "shifted-down", "shifted-up"])
def test_cross_of_a_non_convex_polygon(shift):
    xs = tuple(BIG_UNIT * x + shift for x, _ in DART)
    ys = tuple(BIG_UNIT * y - shift for _, y in DART)
    cross = Polygon.over(xs, ys, 3, ROLE_OUTLINE).cross
    assert cross == textbook_cross(xs, ys) == 8 * BIG_UNIT**2
    with pytest.raises(ValueError, match="counterclockwise"):
        Polygon.over(xs[::-1], ys[::-1], 3, ROLE_OUTLINE)


@pytest.mark.parametrize(
    "values",
    [(), (1,), (1, 1, 1), (6, 6), (4, 6), (2**1200 * 3, 2**1200 * 5, 2**1200 * 3),
     (3**500, 3**700, 3**600, 1), (2**64 + 1, 2**64 - 1)],
    ids=["empty", "one", "ones", "equal", "neither-divides", "big-neither-divides",
         "nested", "coprime"],
)
def test_lcm_cases(values):
    assert _lcm(values) == math.lcm(*values)


# nested values, as a scene's denominators are, and arbitrary ones
LCM_VALUES = st.lists(
    st.one_of(
        st.just(1),
        st.integers(1, 2**1200),
        st.builds(lambda b, k: b**k, st.sampled_from([2, 3, 6, 10]), st.integers(0, 400)),
    ),
    max_size=8,
)


@given(LCM_VALUES)
def test_lcm_is_math_lcm(values):
    assert _lcm(values) == math.lcm(*values)
    assert _lcm(values + values) == math.lcm(*values)


def test_built_layers_are_written_without_fmt_parts(monkeypatch):
    # only the outline and the vertex labels are reduced by fmt_parts's big gcd;
    # every layer's polygons and labels are reduced by small ones
    scene = build_layered_scene(derive_config(3), 50)
    outline = scene.polygons[0]
    vertex_labels = [pt for pt, text in scene.labels if not text.startswith("layer ")]
    allowed = {(c, outline.den) for c in outline.xs + outline.ys}
    for pt in vertex_labels:
        xn, yn, d = geometry.point_numerators(pt)
        allowed |= {(xn, d), (yn, d)}
    calls = []
    real = geometry.fmt_parts
    monkeypatch.setattr(geometry, "fmt_parts", lambda num, den: calls.append((num, den)) or real(num, den))
    "".join(scene_json_chunks(scene))
    assert len(vertex_labels) == 5 and set(calls) <= allowed
    assert len(calls) <= 6 + 2 * len(vertex_labels)


@given(
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.integers(1, 10**6),
    st.integers(0, 12),
)
def test_unreduced_rounding_matches_reference(num, den, common, places):
    want = reference_format_coordinate(Fraction(num, den), places)
    assert _fixed(num * common, den * common, places) == want
    assert format_coordinate(Fraction(num, den), places) == want


@pytest.mark.parametrize("places", [1, 2, 6, 12])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("odd", [1, 3, 5, 25, 999])
def test_half_way_ties_round_away_from_zero(places, sign, odd):
    q = Fraction(sign * odd, 2 * 10**places)  # exactly half a printed unit past a value
    assert is_tie(q, places)
    want = reference_format_coordinate(q, places)
    assert want.lstrip("-") == reference_format_coordinate(Fraction(odd + 1, 2 * 10**places), places)
    assert format_coordinate(q, places) == want
    assert _fixed(sign * odd * 7, 2 * 10**places * 7, places) == want


STAIRCASE_3_5 = StaircaseParams(Fraction(3, 5))
SCENES = {
    "layered m=2 L=4": lambda: build_layered_scene(derive_config(2), 4),
    "layered m=3 L=3": lambda: build_layered_scene(LayeredParams(5, 4, Fraction(1, 3)), 3),
    "clamped m=4 L=2": lambda: build_layered_scene(derive_config(4), 2),
    "staircase 3/5 L=3": lambda: build_staircase_scene(STAIRCASE_3_5, 3),
    "staircase 3/5 L=40": lambda: build_staircase_scene(STAIRCASE_3_5, 40),
}
OPTIONS = {
    "defaults": RenderOptions(),
    "1 place": RenderOptions(decimal_places=1),
    "12 places": RenderOptions(decimal_places=12),
    "plain": RenderOptions(equilateral_look=False),
    "width 1": RenderOptions(canvas_width_px=1),
    "width 1, 12 places": RenderOptions(canvas_width_px=1, decimal_places=12),
    "no labels": RenderOptions(show_labels=False, show_layer_annotations=False),
    "only layer labels": RenderOptions(show_labels=False),
}


@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("scene", SCENES)
def test_render_bytes_match_reference(scene, options):
    built, opts = SCENES[scene](), OPTIONS[options]
    assert render(built, opts) == reference_render(built, opts)


@pytest.mark.parametrize(
    "layers, opts",
    [
        (1, RenderOptions(canvas_width_px=3, decimal_places=1)),
        (2, RenderOptions(canvas_width_px=6, decimal_places=2, show_labels=False)),
    ],
)
def test_render_bytes_match_reference_on_exact_ties(layers, opts):
    scene = build_staircase_scene(StaircaseParams(Fraction(1, 2)), layers)
    dp = opts.decimal_places
    assert any(is_tie(c, dp) for point in reference_points(scene, opts) for c in point)
    assert render(scene, opts) == reference_render(scene, opts)
