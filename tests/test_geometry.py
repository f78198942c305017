import copy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoseries.construction import (
    LayeredParams,
    StaircaseParams,
    layer_area,
    staircase_total_area,
    triangle_area,
)
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    ROLE_BLANK,
    ROLE_COLORED,
    ROLE_OUTLINE,
    Point,
    Polygon,
    Scene,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_to_json,
    shoelace_area,
)

MABRY = LayeredParams(3, 1, Fraction(1, 2))
EDGAR = LayeredParams(5, 4, Fraction(1, 3))


def tri(*coords, role=ROLE_COLORED):
    return Polygon(tuple(Point(Fraction(x), Fraction(y)) for x, y in coords), role)


class TestShoelace:
    def test_right_triangle(self):
        assert shoelace_area(tri((0, 0), (1, 0), (0, 1))) == Fraction(1, 2)

    def test_wide_triangle(self):
        assert shoelace_area(tri((0, 0), (2, 0), (0, 1))) == 1

    def test_unit_square(self):
        assert shoelace_area(tri((0, 0), (1, 0), (1, 1), (0, 1))) == 1

    def test_degenerate_rejected_at_construction(self):
        with pytest.raises(ValueError):
            tri((0, 0), (1, 1), (2, 2))

    def test_clockwise_rejected_at_construction(self):
        with pytest.raises(ValueError):
            tri((0, 0), (0, 1), (1, 0))


class TestLayeredScene:
    def test_mabry_single_layer(self):
        scene = build_layered_scene(MABRY, 1)
        small = [p for p in scene.polygons if p.role != ROLE_OUTLINE]
        assert len(small) == 3
        colored = [p for p in small if p.role == ROLE_COLORED]
        assert len(colored) == 1
        assert shoelace_area(colored[0]) == Fraction(1, 4)
        # the colored triangle is the downward middle one: its lone
        # bottom vertex is the midpoint of the base
        ys = sorted(v.y for v in colored[0].vertices)
        assert ys == [0, Fraction(1, 2), Fraction(1, 2)]
        bottom = [v for v in colored[0].vertices if v.y == 0]
        assert bottom == [Point(Fraction(0), Fraction(0))]

    def test_edgar_single_layer(self):
        scene = build_layered_scene(EDGAR, 1)
        small = [p for p in scene.polygons if p.role != ROLE_OUTLINE]
        assert len(small) == 5
        colored = [p for p in small if p.role == ROLE_COLORED]
        assert len(colored) == 4
        assert all(shoelace_area(p) == Fraction(1, 9) for p in small)

    def test_mabry_three_layers_colored_total(self):
        scene = build_layered_scene(MABRY, 3)
        small = [p for p in scene.polygons if p.role != ROLE_OUTLINE]
        assert len(small) == 9
        colored_total = sum(
            shoelace_area(p) for p in small if p.role == ROLE_COLORED
        )
        assert colored_total == Fraction(21, 64)

    @pytest.mark.parametrize("params", [MABRY, EDGAR])
    @pytest.mark.parametrize("layers", range(1, 13))
    def test_every_triangle_matches_formula(self, params, layers):
        scene = build_layered_scene(params, layers)
        for k in range(1, layers + 1):
            in_layer = [p for p in scene.polygons if p.layer_index == k]
            assert len(in_layer) == params.n
            assert sum(p.role == ROLE_COLORED for p in in_layer) == params.a
            for poly in in_layer:
                assert shoelace_area(poly) == triangle_area(params, k)
            assert sum(shoelace_area(p) for p in in_layer) == layer_area(params, k)

    @pytest.mark.parametrize("params", [MABRY, EDGAR])
    def test_tiling_leaves_exact_apex_remainder(self, params):
        layers = 8
        scene = build_layered_scene(params, layers)
        tiled = sum(
            shoelace_area(p) for p in scene.polygons if p.role != ROLE_OUTLINE
        )
        assert tiled + (1 - params.r) ** (2 * layers) == 1

    def test_rejects_non_unit_fraction_ratio(self):
        with pytest.raises(ValueError):
            build_layered_scene(LayeredParams(3, 1, Fraction(2, 5)), 1)

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            build_layered_scene(LayeredParams(4, 1, Fraction(1, 2)), 1)

    def test_clamped_coloring_override(self):
        p = LayeredParams(7, 9, Fraction(1, 4))
        scene = build_layered_scene(p, 2)
        for k in (1, 2):
            in_layer = [q for q in scene.polygons if q.layer_index == k]
            assert sum(q.role == ROLE_COLORED for q in in_layer) == 7

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_infeasible_m_colors_every_triangle(self, m):
        params = derive_config(m)
        assert params.a >= params.n
        scene = build_layered_scene(params, 2)
        for k in (1, 2):
            in_layer = [q for q in scene.polygons if q.layer_index == k]
            assert len(in_layer) == params.n
            assert all(q.role == ROLE_COLORED for q in in_layer)
        assert scene.params_echo["colored_per_layer"] == str(params.n)
        assert audit_scene(scene).ok

    def test_vertex_labels_present(self):
        scene = build_layered_scene(MABRY, 2)
        texts = {text for _, text in scene.labels}
        assert {"A", "B", "C", "D", "E", "layer 1", "layer 2"} <= texts


class TestStaircaseScene:
    def test_first_piece_coordinates(self):
        scene = build_staircase_scene(StaircaseParams(Fraction(3, 5)), 2)
        colored = [p for p in scene.polygons if p.role == ROLE_COLORED]
        assert colored[0].vertices == (
            Point(Fraction(3, 2), Fraction(0)),
            Point(Fraction(5, 2), Fraction(0)),
            Point(Fraction(3, 2), Fraction(1)),
        )
        # second piece: right angle at (9/10, 1), legs 3/5
        r2, w1, w2 = colored[1].vertices
        assert r2 == Point(Fraction(9, 10), Fraction(1))
        assert w1.x - r2.x == Fraction(3, 5)
        assert w2.y - r2.y == Fraction(3, 5)

    def test_partial_colored_sum(self):
        scene = build_staircase_scene(StaircaseParams(Fraction(1, 2)), 4)
        colored = sum(
            shoelace_area(p) for p in scene.polygons if p.role == ROLE_COLORED
        )
        assert colored == Fraction(85, 128)

    def test_corner_points_collinear_with_sides(self):
        s = Fraction(3, 5)
        layers = 32
        scene = build_staircase_scene(StaircaseParams(s), layers)
        h = 1 / (1 - s)
        for poly in scene.polygons:
            if poly.role != ROLE_COLORED:
                continue
            r_k, w_prev, w_k = poly.vertices
            assert w_prev.x + w_prev.y == h  # on AB
            assert w_k.x + w_k.y == h
            # on AC: through A=(0,h) and C=(h-1,0)
            assert h * r_k.x + (h - 1) * r_k.y == (h - 1) * h

    def test_blank_remainders_fill_each_layer(self):
        s = Fraction(2, 3)
        q = StaircaseParams(s)
        scene = build_staircase_scene(q, 6)
        tiled = sum(
            shoelace_area(p) for p in scene.polygons if p.role != ROLE_OUTLINE
        )
        assert tiled + s**12 * staircase_total_area(q) == staircase_total_area(q)


class TestAudit:
    def test_layered_audit_values(self):
        report = audit_scene(build_layered_scene(MABRY, 2))
        assert report.ok
        first, second = report.layers
        assert (first.polygon_count, first.colored_count) == (3, 1)
        assert (first.colored_area, first.total_area) == (Fraction(1, 4), Fraction(3, 4))
        assert (second.colored_area, second.total_area) == (
            Fraction(1, 16),
            Fraction(3, 16),
        )

    def test_staircase_audit_values(self):
        report = audit_scene(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 1))
        assert report.ok
        (layer,) = report.layers
        assert (layer.polygon_count, layer.colored_count) == (2, 1)
        assert (layer.colored_area, layer.total_area) == (Fraction(1, 2), Fraction(3, 4))

    def test_edgar_per_layer_colored_fraction(self):
        report = audit_scene(build_layered_scene(EDGAR, 1))
        assert report.layers[0].colored_fraction == Fraction(4, 5)

    def test_tampered_scene_yields_structured_mismatch(self):
        scene = build_staircase_scene(StaircaseParams(Fraction(1, 2)), 2)
        doc = scene_to_json(scene)
        doc["params"]["s"] = "2/5"  # geometry no longer matches the formulas
        report = audit_scene(scene_from_json(doc))
        assert not report.ok
        assert any("layer 1" in msg for msg in report.mismatches)
        assert report.as_dict()["check"] == "fail"

    def test_swapped_roles_fail_only_the_colored_area(self):
        s = Fraction(3, 5)
        scene = build_staircase_scene(StaircaseParams(s), 4)
        swap = {ROLE_COLORED: ROLE_BLANK, ROLE_BLANK: ROLE_COLORED}
        polygons = tuple(
            replace(poly, role=swap[poly.role]) if poly.layer_index == 2 else poly
            for poly in scene.polygons
        )
        report = audit_scene(replace(scene, polygons=polygons))
        assert not report.ok
        assert len(report.mismatches) == 1
        assert report.mismatches[0].startswith("layer 2: colored area ")
        assert [layer.ok for layer in report.layers] == [True, False, True, True]
        second = report.layers[1]
        assert (second.polygon_count, second.colored_count) == (2, 1)
        assert second.total_area == second.expected_total_area
        # the blank piece has legs s and s^2, the colored one s and s
        assert second.colored_area == s * second.expected_colored_area

    def test_scaled_triangle_fails_its_layer_areas(self):
        scene = build_layered_scene(MABRY, 3)
        i, small = next((i, p) for i, p in enumerate(scene.polygons) if p.layer_index == 1)
        double = tuple(Point(2 * v.x, 2 * v.y) for v in small.vertices)
        polygons = list(scene.polygons)
        polygons[i] = replace(small, vertices=double)
        assert polygons[i].area == 4 * small.area  # recomputed, never copied
        report = audit_scene(replace(scene, polygons=tuple(polygons)))
        assert not report.ok
        assert [layer.ok for layer in report.layers] == [False, True, True]
        first = report.layers[0]
        assert first.total_area == first.expected_total_area + 3 * small.area
        assert first.colored_area == first.expected_colored_area + 3 * small.area
        assert report.mismatches[0].startswith("layer 1: colored area ")
        assert report.mismatches[1].startswith("layer 1: layer area ")
        assert report.mismatches[2].startswith("tiling: ")


class TestSceneJson:
    @pytest.mark.parametrize(
        "scene",
        [
            build_layered_scene(MABRY, 3),
            build_staircase_scene(StaircaseParams(Fraction(3, 5)), 4),
        ],
    )
    def test_round_trip(self, scene):
        doc = scene_to_json(scene)
        assert doc["schema"] == 1
        assert scene_from_json(doc) == scene

    def test_rejects_unknown_schema(self):
        doc = scene_to_json(build_layered_scene(MABRY, 1))
        doc["schema"] = 2
        with pytest.raises(ValueError):
            scene_from_json(doc)

    def test_coordinates_are_exact_strings(self):
        doc = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(3, 5)), 1))
        colored = [p for p in doc["polygons"] if p["role"] == ROLE_COLORED]
        assert colored[0]["vertices"][0] == ["3/2", "0"]

    def test_blank_role_serialized(self):
        doc = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 1))
        roles = {p["role"] for p in doc["polygons"]}
        assert roles == {ROLE_OUTLINE, ROLE_COLORED, ROLE_BLANK}

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("polygons", 3, "vertices", 1), ["1/2"], "polygons[3].vertices[1]: must be an"),
            (("polygons", 2, "vertices", 0, 1), 7, "polygons[2].vertices[0]: must be an"),
            (("polygons", 2, "vertices", 2, 0), "1/x", "polygons[2].vertices[2]: invalid literal"),
            (("polygons", 1, "role"), "red", "polygons[1]: unknown polygon role 'red'"),
            (("polygons", 4, "layer_index"), "2", "polygons[4].layer_index must be an integer"),
            (("labels", 0, "x"), "1/0", "labels[0]: denominator must be positive"),
            (("labels", 1, "y"), None, "labels[1].y must be a string"),
            (("params",), {"r": "1/4"}, "params.s is missing"),
            (("layers_rendered",), 0, "layers_rendered must be >= 1"),
            (("construction_kind",), "spiral", "construction_kind: unknown construction"),
            (("params", "n"), "abc", "params.n must be an integer >= 1, got 'abc'"),
            (("params", "a"), 0, "params.a must be an integer >= 1, got 0"),
            (("params", "colored_per_layer"), "-1", "params.colored_per_layer must be an integer"),
            (("params", "r"), {"a": 1}, 'params.r must be a "p/q" string in (0, 1), got {'),
            (("params", "r"), "0", 'params.r must be a "p/q" string in (0, 1), got \'0\''),
            (("params", "s"), "1", 'params.s must be a "p/q" string in (0, 1), got \'1\''),
            (("params", "s"), "1/x", 'params.s must be a "p/q" string in (0, 1)'),
            (("layers_rendered",), 2049, "layers_rendered 2049 is too deep"),
            (("polygons", 1, "layer_index"), 0, "polygons[1].layer_index must be an integer in [1, 2]"),
            (("polygons", 1, "layer_index"), 3, "polygons[1].layer_index must be an integer in [1, 2]"),
            (("polygons", 2, "layer_index"), None, "polygons[2].layer_index must be an integer in [1, 2]"),
        ],
    )
    def test_malformed_document_names_the_path(self, path, value, message):
        doc = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 2))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValueError) as exc:
            scene_from_json(doc)
        assert str(exc.value).startswith(message)


def _paths(node, prefix=()):
    """Every key path inside a JSON value, the empty path first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


SCENE_KEYS = ["schema", "construction_kind", "params", "layers_rendered", "polygons",
              "labels", "vertices", "role", "layer_index", "label", "x", "y", "text", "s"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1/2", "3/4", "-1", "0/1", "colored", "staircase", "layered"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCENE_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=12,
)
VALID_DOC = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 2))
VALID_PATHS = list(_paths(VALID_DOC))[1:]


def _scene_or_value_error(doc):
    try:
        scene = scene_from_json(doc)
    except ValueError:
        return
    assert isinstance(scene, Scene)


@given(JSON_VALUES)
def test_scene_from_arbitrary_json_is_a_scene_or_value_error(doc):
    _scene_or_value_error(doc)


@given(st.sampled_from(VALID_PATHS), JSON_VALUES, st.booleans())
def test_scene_from_damaged_document_is_a_scene_or_value_error(path, value, delete):
    doc = copy.deepcopy(VALID_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    _scene_or_value_error(doc)
