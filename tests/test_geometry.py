import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseries.construction import (
    LayeredParams,
    StaircaseParams,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    ROLE_BLANK,
    ROLE_COLORED,
    ROLE_OUTLINE,
    MAX_POLYGONS,
    MAX_SCENE_DENOMINATOR_BITS,
    Point,
    Polygon,
    Scene,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_json_chunks,
    scene_to_json,
    shoelace_area,
)
from geoseries.rational import MAX_DENOMINATOR_BITS

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

    def test_area_is_kept_outside_the_fields(self):
        poly = tri((0, 0), (2, 0), (0, 1))
        assert poly.area == 1
        assert Polygon._fields == ("vertices", "role", "layer_index")
        assert "area" not in repr(poly)
        assert poly == tri((0, 0), (2, 0), (0, 1))

    @pytest.mark.parametrize(
        "scene",
        [build_layered_scene(EDGAR, 3), build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3)],
    )
    def test_equal_and_hash_by_rational_value(self, scene):
        for poly in scene.polygons:
            over_7 = Polygon.over(
                tuple(7 * x for x in poly.xs), tuple(7 * y for y in poly.ys), 7 * poly.den,
                poly.role, poly.layer_index,
            )
            assert over_7 == poly
            assert hash(over_7) == hash(poly)
        assert len(set(scene.polygons)) == len(scene.polygons)

    @pytest.mark.parametrize(
        "scene",
        [build_layered_scene(EDGAR, 3), build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3)],
    )
    def test_built_scene_survives_pickle_and_copy(self, scene):
        point = scene.labels[-1][0]  # a lattice point, its Fractions not made yet
        assert getattr(point, "z", None) is None
        assert getattr(scene.polygons[-1], "z", None) is None
        for twin in (pickle.loads(pickle.dumps(scene)), copy.copy(scene), copy.deepcopy(scene)):
            assert twin == scene
            assert audit_scene(twin).ok


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

    def test_rejects_the_a_its_audit_would_reject(self):
        # r = 1/2 forces a = 1: a = 2 would build a picture that audit_scene fails
        message = r"^r = 1/2 forces n = 3 triangles per layer and a = 1 colored, got n = 3, a = 2$"
        with pytest.raises(ValueError, match=message):
            build_layered_scene(LayeredParams(3, 2, Fraction(1, 2)), 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: build_layered_scene(derive_config(3), 2049),
                r"^layers 2049 is too deep .* over the cap of 4096 bits",
            ),
            (
                lambda: build_staircase_scene(StaircaseParams(Fraction(1, 2)), 0),
                r"^layers must be >= 1, got 0$",
            ),
            (
                lambda: build_layered_scene(derive_config(5), 1138),
                r"^layers 1138 draws 1138 x 9 \+ 1 = 10243 polygons, over the cap of 10241$",
            ),
        ],
        ids=["layered-m3-L2049", "staircase-L0", "clamped-m5-L1138"],
    )
    def test_builders_refuse_the_layer_counts_the_cli_refuses(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("m", [10**5, 10**6])
    def test_over_cap_picture_is_refused_before_any_tile_is_made(self, m):
        p = derive_config(m)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build_layered_scene(p, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = 2 * m - 1
        assert str(info.value) == (
            f"layers 1 draws 1 x {n} + 1 = {n + 1} polygons, over the cap of {MAX_POLYGONS}"
        )
        assert peak < 2**20  # far below one Fraction or tile per triangle

    def test_a_file_claiming_a_huge_m_is_read_and_audited_in_constant_memory(self):
        # the reader and the audit derive layer 1 from r alone: 2m + 1 x values, in O(1)
        doc = scene_to_json(build_layered_scene(derive_config(3), 1))
        doc["params"] = {"r": "1/1000000"}
        tracemalloc.start()
        try:
            report = audit_scene(scene_from_json(doc))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.ok and report.layers[0].polygon_count == 5
        assert peak < 2**20  # far below one integer per x value of layer 1

    def test_largest_clamped_m5_picture_round_trips(self):
        # within m = 5's depth cap (1365 layers), 1137 layers is the most the polygon cap admits
        scene = build_layered_scene(derive_config(5), 1137)
        assert len(scene.polygons) == 1137 * 9 + 1 == 10234
        read = scene_from_json(scene_to_json(scene))
        assert len(read.polygons) == 10234
        assert audit_scene(read).ok

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


def _shrunk(poly, apex_y, t, k):
    """poly shrunk by t toward the apex (0, apex_y), as a layer-k polygon."""
    vertices = tuple(Point(t * v.x, apex_y - t * (apex_y - v.y)) for v in poly.vertices)
    return poly._replace(vertices=vertices, layer_index=k)


class TestSelfSimilarity:
    @pytest.mark.parametrize(
        "scene, shrink",
        [
            pytest.param(build_layered_scene(derive_config(m), 6), 1 - Fraction(1, m), id=f"m={m}")
            for m in (2, 3, 4)
        ]
        + [
            pytest.param(build_staircase_scene(StaircaseParams(s), 6), s, id=f"s={s}")
            for s in (Fraction(1, 2), Fraction(3, 5), Fraction(254, 255))
        ],
    )
    def test_layer_k_is_layer_1_shrunk_toward_the_apex(self, scene, shrink):
        apex = scene.polygons[0].vertices[-1]
        assert apex.x == 0
        first = [p for p in scene.polygons if p.layer_index == 1]
        for k in range(2, scene.layers_rendered + 1):
            t = shrink ** (k - 1)
            layer = [p for p in scene.polygons if p.layer_index == k]
            assert layer == [_shrunk(p, apex.y, t, k) for p in first]

    @pytest.mark.parametrize("m", [2, 3])
    def test_layered_expectations_equal_the_formulas_at_every_layer(self, m):
        p = derive_config(m)
        report = audit_scene(build_layered_scene(p, 200))
        assert report.ok
        for k, layer in enumerate(report.layers, 1):
            assert layer.expected_colored_area == p.a * triangle_area(p, k)
            assert layer.expected_total_area == layer_area(p, k)
        assert report.apex_remainder == (1 - p.r) ** 400

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5)])
    def test_staircase_expectations_equal_the_formulas_at_every_layer(self, s):
        q = StaircaseParams(s)
        report = audit_scene(build_staircase_scene(q, 200))
        assert report.ok
        for k, layer in enumerate(report.layers, 1):
            assert layer.expected_colored_area == staircase_piece_area(q, k)
            assert layer.expected_total_area == staircase_layer_area(q, k)
        assert report.apex_remainder == s**400 * staircase_total_area(q)


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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"layer_index": 0}, "non-outline polygon without a valid layer index"),
            ({"layer_index": None}, "non-outline polygon without a valid layer index"),
            ({"kind": "spiral"}, "unknown construction kind 'spiral'"),
        ],
        ids=["layer-index-0", "layer-index-None", "unknown-kind"],
    )
    def test_scene_the_audit_cannot_read_raises(self, change, message):
        scene = build_layered_scene(EDGAR, 2)
        if "kind" in change:
            scene = scene._replace(construction_kind=change["kind"])
        else:
            first, colored, *rest = scene.polygons
            colored = colored._replace(layer_index=change["layer_index"])
            scene = scene._replace(polygons=(first, colored, *rest))
        with pytest.raises(ValueError, match=f"^{message}$"):
            audit_scene(scene)

    @pytest.mark.parametrize(
        "build, layers, message",
        [
            (lambda: build_layered_scene(EDGAR, 3), 0, "layers_rendered must be >= 1, got 0"),
            (
                lambda: build_layered_scene(EDGAR, 3),
                3000,
                "layers_rendered 3000 is too deep for a ratio with a 2-bit denominator",
            ),
            (
                lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3),
                0,
                "layers_rendered must be >= 1, got 0",
            ),
            (
                lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3),
                1366,
                "layers_rendered 1366 is too deep for a ratio with a 3-bit denominator",
            ),
        ],
        ids=["layered-0", "layered-3000", "staircase-0", "staircase-1366"],
    )
    def test_layer_count_out_of_range_raises(self, build, layers, message):
        # the outline alone: with no layer to audit, a count of 0 would pass as
        # a proof, and one of 3000 would report 9001 mismatches
        scene = build()
        scene = scene._replace(polygons=scene.polygons[:1], layers_rendered=layers)
        with pytest.raises(ValueError, match=f"^{message}"):
            audit_scene(scene)

    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: build_layered_scene(EDGAR, 2), "r"),
            (lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 2), "s"),
        ],
        ids=["layered", "staircase"],
    )
    def test_missing_ratio_raises_what_the_reader_raises(self, build, key):
        with pytest.raises(ValueError, match=rf"^params\.{key} is missing$"):
            audit_scene(build()._replace(params_echo={}))

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
            poly._replace(role=swap[poly.role]) if poly.layer_index == 2 else poly
            for poly in scene.polygons
        )
        report = audit_scene(scene._replace(polygons=polygons))
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
        polygons[i] = small._replace(vertices=double)
        assert polygons[i].area == 4 * small.area  # recomputed, never copied
        report = audit_scene(scene._replace(polygons=tuple(polygons)))
        assert not report.ok
        assert [layer.ok for layer in report.layers] == [False, True, True]
        first = report.layers[0]
        assert first.total_area == first.expected_total_area + 3 * small.area
        assert first.colored_area == first.expected_colored_area + 3 * small.area
        assert report.mismatches[0].startswith("layer 1: colored area ")
        assert report.mismatches[1].startswith("layer 1: layer area ")
        assert report.mismatches[2].startswith("tiling: ")

    @pytest.mark.parametrize(
        "scene, key, lie, message",
        [
            (build_layered_scene(EDGAR, 3), "n", "7", "echoed 7 != 5 derived from r = 1/3"),
            (build_layered_scene(EDGAR, 3), "a", "5", "echoed 5 != 4 derived from r = 1/3"),
            (build_layered_scene(EDGAR, 3), "m", "4", "echoed 4 != 3 derived from r = 1/3"),
            (
                build_layered_scene(EDGAR, 3), "colored_per_layer", "1",
                "echoed 1 != 4 derived from r = 1/3",
            ),
            (
                build_layered_scene(derive_config(4), 2), "a", "7",
                "echoed 7 != 9 derived from r = 1/4",
            ),
            (
                build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3), "r", "3/5",
                "echoed 3/5 != 9/25 derived from s = 3/5",
            ),
        ],
        ids=["n", "a", "m", "colored_per_layer", "clamped-a", "staircase-r"],
    )
    def test_each_lying_param_is_one_mismatch(self, scene, key, lie, message):
        doc = scene_to_json(scene)
        doc["params"][key] = lie
        report = audit_scene(scene_from_json(doc))
        assert report.mismatches == (f"params.{key}: {message}",)
        assert all(layer.ok for layer in report.layers)

    def test_int_echoed_count_is_audited_by_value(self):
        scene = build_layered_scene(EDGAR, 2)

        def audit(n):
            return audit_scene(scene._replace(params_echo={**scene.params_echo, "n": n}))

        assert audit(5).ok
        assert audit(6).mismatches == ("params.n: echoed 6 != 5 derived from r = 1/3",)
        with pytest.raises(ValueError) as exc:
            audit(True)
        assert str(exc.value) == "params.n must be an integer >= 1, got True"

    def test_layered_audit_reads_only_the_ratio(self):
        doc = scene_to_json(build_layered_scene(EDGAR, 3))
        doc["params"] = {"r": "1/3", "n": 5}
        report = audit_scene(scene_from_json(doc))
        assert report.ok
        assert [(layer.polygon_count, layer.colored_count) for layer in report.layers] == [
            (5, 4)
        ] * 3


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
            (("polygons", 1, "label"), 5, "polygons[1].label must be a string, got 5"),
            (("labels", 0, "y"), "+1/2", 'labels[0]: invalid literal for a "p/q" rational'),
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("r", "2/5", "params.r must be 1/m for a layered scene, got '2/5'"),
            ("m", "0", "params.m must be an integer >= 1, got '0'"),
            ("m", "x", "params.m must be an integer >= 1, got 'x'"),
            ("n", "x", "params.n must be an integer >= 1, got 'x'"),
            ("m", " 3", "params.m must be an integer >= 1, got ' 3'"),
        ],
    )
    def test_malformed_layered_param_names_the_path(self, key, value, message):
        # the audit reads a library scene's echoed params with the reader's grammar
        scene = build_layered_scene(EDGAR, 2)
        doc = scene_to_json(scene)
        doc["params"][key] = value
        with pytest.raises(ValueError) as exc:
            scene_from_json(doc)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            audit_scene(scene._replace(params_echo={**scene.params_echo, key: value}))
        assert str(exc.value) == message

    @pytest.mark.parametrize("extra_bits, ok", [(0, True), (1, False)])
    def test_denominator_lcm_cap_boundary(self, extra_bits, ok):
        # r = 1/2 puts the polygons over powers of 2 (the labels, over 20, are
        # dropped); a triangle over 2^8000 and an odd q takes the lcm to
        # 2^8000 q, exactly 8000 + bits(q) bits, each string well below
        # Python's digit limit
        q = 2 ** (MAX_SCENE_DENOMINATOR_BITS - 8000 - 1 + extra_bits) + 1
        doc = scene_to_json(build_layered_scene(MABRY, 1))
        doc["labels"] = []
        doc["polygons"].append({
            "vertices": [["0", "0"], [f"1/{2**8000}", "0"], ["0", f"1/{q}"]],
            "role": "blank", "layer_index": 1, "label": None,
        })
        if ok:
            assert scene_from_json(doc).polygons[-1].den.bit_length() == MAX_SCENE_DENOMINATOR_BITS
        else:
            with pytest.raises(ValueError) as exc:
                scene_from_json(doc)
            assert str(exc.value) == (
                f"polygons[{len(doc['polygons']) - 1}].vertices[2]: the lcm of the coordinate "
                f"denominators so far has {MAX_SCENE_DENOMINATOR_BITS + 1} bits, over the cap "
                f"of {MAX_SCENE_DENOMINATOR_BITS}"
            )

    def test_polygon_label_is_read_and_written_as_null(self):
        doc = scene_to_json(build_layered_scene(MABRY, 1))
        doc["polygons"][1]["label"] = "top"
        assert {p["label"] for p in scene_to_json(scene_from_json(doc))["polygons"]} == {None}


def _written_layer_by_layer_as_polygon_by_polygon(scene):
    # a _replace copy keeps no layer 1, so it is written polygon by polygon
    twin = scene._replace()
    assert "_layer1" in scene.__dict__ and "_layer1" not in twin.__dict__
    assert twin == scene
    assert "".join(scene_json_chunks(scene)) == "".join(scene_json_chunks(twin))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_layered_scene(derive_config(2), 60),
        lambda: build_layered_scene(derive_config(3), 60),
        lambda: build_layered_scene(derive_config(5), 30),  # clamped
        lambda: build_layered_scene(derive_config(5120), 1),  # clamped, 2m + 1 = 10241 x values
        lambda: build_staircase_scene(StaircaseParams(Fraction(1, 2)), 60),
        lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 60),
        lambda: build_staircase_scene(StaircaseParams(Fraction(7, 9)), 60),
        lambda: build_staircase_scene(StaircaseParams(Fraction(1, 10**100)), 12),  # its depth cap
    ],
    ids=["m2", "m3", "clamped-m5", "clamped-m5120-L1", "s1_2", "s3_5", "s7_9", "s1_10e100-cap"],
)
def test_built_scene_is_written_as_the_polygon_writer_writes_it(build):
    _written_layer_by_layer_as_polygon_by_polygon(build())


@settings(deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda s: 0 < s < 1),
    st.integers(2, 12),
    st.integers(1, 40),
)
def test_any_built_scene_is_written_as_the_polygon_writer_writes_it(s, m, layers):
    most = MAX_DENOMINATOR_BITS // s.denominator.bit_length()
    _written_layer_by_layer_as_polygon_by_polygon(
        build_staircase_scene(StaircaseParams(s), min(layers, most))
    )
    most = (MAX_POLYGONS - 1) // (2 * m - 1)
    _written_layer_by_layer_as_polygon_by_polygon(
        build_layered_scene(derive_config(m), min(layers, most))
    )


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
