"""The audit proves the tiling it draws, not only its counts and areas.

A layer whose polygon counts and area sums hold must also tile its band:
every vertex on one of the band's two lines, each polygon running left to
right along the bottom line and back along the top one, the polygons
disjoint, and the band's ends inside the outline.  The reference below
decides the same in Fractions the slow way, for small L: it clips every
pair of a layer's polygons against each other, and each pair's common
interior must have area 0.  The audit must agree with it on built scenes,
on scenes read back, and on scenes with one polygon moved, mirrored,
copied or with a vertex slid.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoseries.construction import StaircaseParams
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    ROLE_COLORED,
    ROLE_OUTLINE,
    Point,
    Polygon,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_json_chunks,
)


def built(kind, param, layers):
    if kind == "layered":
        return build_layered_scene(derive_config(param), layers)
    return build_staircase_scene(StaircaseParams(param), layers)


def corners(poly):
    return [(pt.x, pt.y) for pt in poly.vertices]


def side(a, b, p):
    """Twice the signed area of (a, b, p): > 0 where p lies left of a -> b."""
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def area(points):
    return abs(sum(side((0, 0), p, q) for p, q in zip(points, points[1:] + points[:1]))) / 2


def clip(subject, clipper):
    """Sutherland-Hodgman: the part of subject inside the convex, counterclockwise clipper."""
    out = list(subject)
    for a, b in zip(clipper, clipper[1:] + clipper[:1]):
        points, out = out, []
        for i, q in enumerate(points):
            p = points[i - 1]
            sp, sq = side(a, b, p), side(a, b, q)
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            if sq >= 0:
                out.append(q)
    return out


def convex(points):
    """Counterclockwise and convex, with no edge of length 0."""
    edges = list(zip(points, points[1:] + points[:1]))
    return all(a != b and all(side(a, b, p) >= 0 for p in points) for a, b in edges)


def reference_band(scene, k):
    """Band k's bottom and top lines' y: A's height less lam^(k-1) and lam^k of it."""
    params = scene.params_echo
    if scene.construction_kind == "layered":
        apex, lam = Fraction(1), 1 - Fraction(params["r"])
    else:
        s = Fraction(params["s"])
        apex, lam = 1 / (1 - s), s
    return apex - lam ** (k - 1) * apex, apex - lam**k * apex


def reference_placement(scene, k):
    """True if layer k's polygons lie in its band, are convex and inside the outline,
    and have pairwise interiors of area 0; every pair is clipped in Fractions."""
    (outline,) = [corners(p) for p in scene.polygons if p.role == ROLE_OUTLINE]
    polys = [corners(p) for p in scene.polygons if p.layer_index == k and p.role != ROLE_OUTLINE]
    lines = reference_band(scene, k)
    edges = list(zip(outline, outline[1:] + outline[:1]))
    if not all(y in lines for poly in polys for _, y in poly):
        return False
    if not all(convex(poly) and all(side(a, b, p) >= 0 for a, b in edges for p in poly)
               for poly in polys):
        return False
    return all(area(clip(p, q)) == 0 for i, p in enumerate(polys) for q in polys[i + 1:])


def built_like(scene):
    """The built scene with scene's params and depth."""
    params = scene.params_echo
    if scene.construction_kind == "layered":
        return built("layered", int(params["m"]), scene.layers_rendered)
    return built("staircase", Fraction(params["s"]), scene.layers_rendered)


def assert_agrees_with_the_reference(scene):
    """The audit passes exactly the layers whose counts and areas hold and that the
    reference places; returns the report."""
    report = audit_scene(scene)
    genuine = built_like(scene).polygons
    want = []
    for layer in report.layers:
        k = layer.layer_index
        roles = [p.role for p in genuine if p.layer_index == k]
        held = ((layer.polygon_count, layer.colored_count) == (len(roles), roles.count(ROLE_COLORED))
                and layer.colored_area == layer.expected_colored_area
                and layer.total_area == layer.expected_total_area)
        want.append(held and reference_placement(scene, k))
    assert [layer.ok for layer in report.layers] == want
    return report


def read_back(scene):
    return scene_from_json(json.loads("".join(scene_json_chunks(scene))))


GENUINE = [("layered", 2, 4), ("layered", 3, 6), ("layered", 5, 3), ("staircase", Fraction(3, 5), 6),
           ("staircase", Fraction(1, 2), 5), ("staircase", Fraction(7, 9), 3)]


@pytest.mark.parametrize("kind, param, layers", GENUINE)
def test_genuine_scenes_pass_as_the_reference_places_them(kind, param, layers):
    scene = built(kind, param, layers)
    for each in (scene, read_back(scene)):
        assert assert_agrees_with_the_reference(each).ok
        assert all(reference_placement(each, k) for k in range(1, layers + 1))


def replaced(scene, i, poly):
    polygons = list(scene.polygons)
    polygons[i] = poly
    return scene._replace(polygons=tuple(polygons))


def layer_items(scene, k):
    return [(i, p) for i, p in enumerate(scene.polygons) if p.layer_index == k]


def only_mismatch(scene, k, i, check):
    """The audit's one mismatch, on layer k, naming polygons[i] and the check."""
    report = assert_agrees_with_the_reference(scene)
    assert not report.ok
    assert [layer.ok for layer in report.layers] == [j != k for j in range(1, len(report.layers) + 1)]
    (mismatch,) = report.mismatches
    assert mismatch.startswith(f"layer {k}: polygons[{i}] ")
    assert mismatch.endswith(f"({check})")
    return mismatch


PICTURES = [("layered", 3), ("staircase", Fraction(3, 5))]


def nudged(poly, j):
    """poly with vertex j moved parallel to the side opposite it, which keeps the
    area, until its y is 1/den off, as a Polygon from Fractions; None where that
    side is level."""
    points = corners(poly)
    p, q = points[(j + 1) % 3], points[(j + 2) % 3]
    if p[1] == q[1]:
        return None
    t = Fraction(1, poly.den) / (q[1] - p[1])
    points[j] = (points[j][0] + t * (q[0] - p[0]), points[j][1] + t * (q[1] - p[1]))
    return Polygon(tuple(Point(x, y) for x, y in points), poly.role, poly.layer_index)


@pytest.mark.parametrize("kind, param", PICTURES)
@pytest.mark.parametrize("j", [0, 1, 2])
def test_a_vertex_nudged_off_its_line_fails_band_containment(kind, param, j):
    # the triangle then lies at three heights, its vertex j 1/D off its line
    scene = built(kind, param, 3)
    i, poly, moved = next((i, p, m) for i, p in layer_items(scene, 2) if (m := nudged(p, j)))
    assert moved.area == poly.area and len(set(moved.ys)) == 3
    for tampered in (replaced(scene, i, moved), read_back(replaced(scene, i, moved))):
        mismatch = only_mismatch(tampered, 2, i, "band containment")
        assert f" vertex {j} at y = " in mismatch


def stretched(poly):
    """(j, poly stretched): its lone vertex j, off the line its other two share,
    moved to twice its distance from that line, and the other two pulled to half
    their spacing about their midpoint; the same area, vertex j off the band."""
    points = corners(poly)
    j = next(j for j in range(3) if points[j - 1][1] == points[j - 2][1])
    (lx, ly), line = points[j], points[j - 1][1]
    mid = (points[j - 1][0] + points[j - 2][0]) / 2
    points = [(lx, 2 * ly - line) if n == j else (mid + (x - mid) / 2, y)
              for n, (x, y) in enumerate(points)]
    return j, Polygon(tuple(Point(x, y) for x, y in points), poly.role, poly.layer_index)


@pytest.mark.parametrize("kind, param", PICTURES)
@pytest.mark.parametrize("pair_on_top", [False, True])
def test_a_triangle_stretched_past_its_band_fails_band_containment(kind, param, pair_on_top):
    # two vertices still on one band line and the third on neither, outside the band
    scene = built(kind, param, 3)
    i, poly = next((i, p) for i, p in layer_items(scene, 2)
                   if (sorted(p.ys)[1] == max(p.ys)) == pair_on_top)
    j, moved = stretched(poly)
    assert moved.area == poly.area
    mismatch = only_mismatch(replaced(scene, i, moved), 2, i, "band containment")
    assert f" vertex {j} at y = " in mismatch


@pytest.mark.parametrize("kind, param", PICTURES)
def test_a_self_crossing_polygon_fails_shape(kind, param):
    # a triangle (b1, b2, t) with b1, b2 on the bottom line becomes (b1, b2 + w, t, t + w):
    # the same area, every vertex on a line, but its top edge runs left to right
    scene = built(kind, param, 3)
    i, poly = next((i, p) for i, p in layer_items(scene, 2)
                   if len({y for _, y in corners(p)}) == 2 and corners(p)[0][1] == corners(p)[1][1]
                   and corners(p)[0][1] < corners(p)[2][1])
    (b1, b2, t), w = corners(poly), Fraction(1, poly.den)
    points = (b1, (b2[0] + w, b2[1]), t, (t[0] + w, t[1]))
    crossing = Polygon(tuple(Point(x, y) for x, y in points), poly.role, 2)
    assert crossing.area == poly.area
    only_mismatch(replaced(scene, i, crossing), 2, i, "shape")


@pytest.mark.parametrize("kind, param", PICTURES)
@pytest.mark.parametrize("turn", [0, 1, 2, 3])
def test_a_triangle_drawn_with_a_vertex_on_its_base_passes(kind, param, turn):
    # a layer-2 triangle as a quadrilateral, its base's midpoint a fourth vertex,
    # starting at any vertex: the same tiling, so the audit passes
    scene = built(kind, param, 3)
    i, poly = layer_items(scene, 2)[0]
    points = corners(poly)
    j = next(j for j in range(3) if points[j][1] == points[j - 1][1])
    a, b = points[j - 1], points[j]
    points.insert(j, ((a[0] + b[0]) / 2, a[1]))
    points = points[turn:] + points[:turn]
    quad = Polygon(tuple(Point(x, y) for x, y in points), poly.role, 2)
    assert quad.area == poly.area
    for tampered in (replaced(scene, i, quad), read_back(replaced(scene, i, quad))):
        assert assert_agrees_with_the_reference(tampered).ok


@pytest.mark.parametrize("kind, param", PICTURES)
@pytest.mark.parametrize("shift", [1, -1])
def test_a_layer_moved_along_its_band_fails_band_ends(kind, param, shift):
    # every polygon of layer 2 moved by shift/D along x: each still lies right of
    # the one before, but the layer reaches past one edge of the outline
    scene = built(kind, param, 3)
    polygons = list(scene.polygons)
    items = layer_items(scene, 2)
    for i, poly in items:
        polygons[i] = Polygon.over(tuple(x + shift for x in poly.xs), poly.ys, poly.den,
                                   poly.role, 2)
    moved = scene._replace(polygons=tuple(polygons))
    report = assert_agrees_with_the_reference(moved)
    (mismatch,) = report.mismatches
    assert mismatch.startswith("layer 2: polygons[")
    assert mismatch.endswith(f"past the outline's {'right' if shift > 0 else 'left'} edge (band ends)")


@pytest.mark.parametrize("shift", [1, -1])
def test_an_apex_slid_past_the_outline_fails_band_ends(shift):
    # the top vertex of layer 2's last (or first) upward triangle slid by 1/D past
    # the outline's edge along the top line: the area holds, and the bottom line
    # is still within the edges
    scene = built("layered", 3, 3)
    ups = [(i, p) for i, p in layer_items(scene, 2) if sorted(p.ys)[0] == sorted(p.ys)[1]]
    i, poly = (max if shift > 0 else min)(ups, key=lambda item: min(item[1].xs))
    j = poly.ys.index(max(poly.ys))
    xs = list(poly.xs)
    xs[j] += shift
    slid = Polygon.over(tuple(xs), poly.ys, poly.den, poly.role, 2)
    assert slid.area == poly.area
    mismatch = only_mismatch(replaced(scene, i, slid), 2, i, "band ends")
    assert f"the outline's {'right' if shift > 0 else 'left'} edge" in mismatch


def test_a_polygon_off_the_layers_denominator_is_compared_over_the_lcm():
    # a layer-2 polygon over 7 D, which does not divide D: at its place it passes,
    # and with a vertex 1/(7 D) off its line it fails band containment
    scene = built("layered", 3, 3)
    i, poly = layer_items(scene, 2)[0]
    over7 = Polygon.over(tuple(7 * x for x in poly.xs), tuple(7 * y for y in poly.ys),
                         7 * poly.den, poly.role, 2)
    assert audit_scene(replaced(scene, i, over7)).ok
    j, moved = next((j, m) for j in range(3) if (m := nudged(over7, j)))
    assert moved.den == 7 * poly.den
    mismatch = only_mismatch(replaced(scene, i, moved), 2, i, "band containment")
    assert f" vertex {j} at y = " in mismatch


def pythagorean(a, b):
    """(cos, sin) of a rational rotation: ((a^2 - b^2), 2ab) / (a^2 + b^2), not both 0."""
    n = a * a + b * b
    return Fraction(a * a - b * b, n), Fraction(2 * a * b, n)


@st.composite
def motions(draw):
    """(name, f): f maps a polygon's points, in order, to the moved polygon's."""
    kind = draw(st.sampled_from(("rigid", "reflection", "copy", "slide")))
    if kind in ("rigid", "reflection"):
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        c, s = pythagorean(a, b)
        tx, ty = (Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 9))))
                  for _ in range(2))
        if kind == "rigid":
            return kind, lambda pts: [(c * x - s * y + tx, s * x + c * y + ty) for x, y in pts]
        # a reflection reverses the order, so the polygon stays counterclockwise
        return kind, lambda pts: [(c * x + s * y + tx, s * x - c * y + ty) for x, y in pts][::-1]
    if kind == "copy":
        return kind, draw(st.integers(0, 10**6))
    j, t = draw(st.integers(0, 9)), Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 3, 9))))
    return kind, lambda pts: [(x + t, y) if n == j % len(pts) else (x, y) for n, (x, y) in enumerate(pts)]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("layered"), st.integers(2, 5)),
        st.builds(lambda q, p: ("staircase", Fraction(p % q or 1, q)),
                  st.integers(2, 9), st.integers(1, 8)),
    ),
    st.integers(1, 3),
    motions(),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_a_moved_polygon_fails_unless_it_maps_onto_itself(picture, layers, motion, i, back):
    scene = built(*picture, layers)
    polygons = scene.polygons
    i = 1 + i % (len(polygons) - 1)
    poly = polygons[i]
    kind, f = motion
    if kind == "copy":  # another polygon's points, or its own
        points = corners(polygons[1 + f % (len(polygons) - 1)])
    else:
        points = f(corners(poly))
    try:
        moved = Polygon(tuple(Point(x, y) for x, y in points), poly.role, poly.layer_index)
    except ValueError:  # no area left: not a polygon
        assume(False)
    tampered = replaced(scene, i, moved)
    if back:
        tampered = read_back(tampered)
    report = assert_agrees_with_the_reference(tampered)
    assert report.ok == (set(points) == set(corners(poly)))
