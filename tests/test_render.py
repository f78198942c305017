import hashlib
import importlib
import importlib.util
import json
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseries.cli import MAX_SCENE_FILE_BYTES, main
from geoseries.construction import LayeredParams, StaircaseParams
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    ROLE_BLANK,
    ROLE_COLORED,
    Polygon,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    scene_from_json,
    scene_to_json,
    shoelace_area,
)
from geoseries.rational import MAX_DENOMINATOR_BITS, fmt
from geoseries.render import _NOT_XML, RenderOptions, format_coordinate, layout, render

SVG_NS = "{http://www.w3.org/2000/svg}"

MABRY = LayeredParams(3, 1, Fraction(1, 2))

# characters XML 1.0 forbids: C0 controls but tab, LF and CR; surrogates; U+FFFE/U+FFFF
BAD_CODEPOINTS = (0x00, 0x08, 0x0B, 0x0C, 0x1F, 0xD800, 0xDFFF, 0xFFFE, 0xFFFF)


def polygons_of(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f"{SVG_NS}polygon")


def parse_points(poly_el):
    return [
        tuple(float(c) for c in pair.split(","))
        for pair in poly_el.get("points").split()
    ]


def float_shoelace(points):
    total = 0.0
    for i in range(len(points)):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % len(points)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


class TestFormatCoordinate:
    @pytest.mark.parametrize(
        "q, places, expected",
        [
            (Fraction(1, 3), 6, "0.333333"),
            (Fraction(5, 2), 2, "2.50"),
            (Fraction(-1, 800000), 6, "-0.000001"),
            (Fraction(0), 6, "0.000000"),
            (Fraction(-1, 10**9), 6, "0.000000"),  # "-0" never printed
            (Fraction(1, 200), 2, "0.01"),  # half rounds away from zero
            (Fraction(-1, 200), 2, "-0.01"),
            (Fraction(10**15), 3, "1000000000000000.000"),  # no exponent form
        ],
    )
    def test_examples(self, q, places, expected):
        assert format_coordinate(q, places) == expected

    def test_rejects_negative_decimal_places(self):
        with pytest.raises(ValueError, match=r"^decimal_places must be >= 0, got -1$"):
            format_coordinate(Fraction(1, 3), -1)


class TestRenderOptions:
    def test_rejects_bad_decimal_places(self):
        for places in (0, 13):
            with pytest.raises(ValueError):
                RenderOptions(decimal_places=places)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            RenderOptions(canvas_width_px=0)

    @pytest.mark.parametrize("field", ["color_fill", "stroke_color"])
    @pytest.mark.parametrize(
        "bad", [chr(c) for c in BAD_CODEPOINTS], ids=[f"U+{c:04X}" for c in BAD_CODEPOINTS]
    )
    def test_rejects_a_color_character_xml_forbids(self, field, bad):
        with pytest.raises(ValueError, match="a character XML 1.0 does not allow"):
            RenderOptions(**{field: f"#00{bad}ff"})

    def test_accepts_every_other_character(self):
        RenderOptions(color_fill="\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff")

    def test_forbidden_characters_are_the_complement_of_xml_char(self):
        """_NOT_XML lists the forbidden code points; the reference is the complement
        of XML 1.0's Char production, and the two agree on every code point."""
        char = "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert _NOT_XML.findall(every) == re.findall(char, every)
        assert len(_NOT_XML.findall(every)) == 29 + 2048 + 2


class TestRender:
    def test_markup_characters_are_escaped_as_before(self):
        """&, < and > in text and attributes, and " in attributes, escaped byte for byte
        as xml.sax.saxutils.escape did."""
        scene = build_layered_scene(MABRY, 1)
        hostile = 'a&b<c>d"e'
        scene = scene._replace(labels=tuple((pt, hostile) for pt, _ in scene.labels))
        opts = RenderOptions(color_fill=hostile, stroke_color="&<>\"")
        svg = render(scene, opts)
        assert f">{escape(hostile)}</text>" in svg
        assert f'fill="{escape(hostile, {chr(34): "&quot;"})}"' in svg
        assert 'stroke="&amp;&lt;&gt;&quot;"' in svg
        root = ET.fromstring(svg)
        assert {t.text for t in root.findall(f"{SVG_NS}text")} == {hostile}
        assert {p.get("stroke") for p in polygons_of(svg)} == {"&<>\""}
        assert hostile in {p.get("fill") for p in polygons_of(svg)}

    @pytest.mark.parametrize("role", [ROLE_COLORED, ROLE_BLANK])
    def test_polygon_without_a_layer_index_raises_what_the_audit_raises(self, role):
        scene = build_layered_scene(MABRY, 2)
        scene = scene._replace(polygons=tuple(
            Polygon(poly.vertices, poly.role) if poly.role == role else poly
            for poly in scene.polygons
        ))
        message = "^non-outline polygon without a valid layer index$"
        with pytest.raises(ValueError, match=message):
            audit_scene(scene)
        with pytest.raises(ValueError, match=message):
            render(scene)

    @pytest.mark.parametrize(
        "bad", [chr(c) for c in BAD_CODEPOINTS], ids=[f"U+{c:04X}" for c in BAD_CODEPOINTS]
    )
    def test_a_drawn_label_text_xml_forbids_is_refused(self, bad):
        scene = build_layered_scene(derive_config(2), 2)
        texts = ["A" + bad, *[text for _, text in scene.labels[1:-1]], "layer 2" + bad]
        scene = scene._replace(labels=tuple(zip([pt for pt, _ in scene.labels], texts)))
        code = f"U\\+{ord(bad):04X}"
        with pytest.raises(ValueError, match=f"^label 0 text must not contain {code}, "):
            render(scene)
        with pytest.raises(ValueError, match=f"^label 6 text must not contain {code}, "):
            render(scene, RenderOptions(show_labels=False))
        hidden = render(scene, RenderOptions(show_labels=False, show_layer_annotations=False))
        assert ET.fromstring(hidden).findall(f"{SVG_NS}text") == []

    def test_byte_deterministic(self):
        scene = build_layered_scene(MABRY, 4)
        opts = RenderOptions()
        assert render(scene, opts).encode() == render(scene, opts).encode()

    def test_well_formed_xml(self):
        svg = render(build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3))
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("version") == "1.1"

    def test_colored_polygon_count_matches_scene(self):
        scene = build_layered_scene(MABRY, 4)
        svg = render(scene, RenderOptions())
        colored = [p for p in polygons_of(svg) if p.get("fill") == "#00ffff"]
        assert len(colored) == sum(p.role == "colored" for p in scene.polygons)

    def test_all_points_inside_viewbox(self):
        scene = build_staircase_scene(StaircaseParams(Fraction(2, 3)), 5)
        svg = render(scene, RenderOptions())
        root = ET.fromstring(svg)
        _, _, width, height = (float(v) for v in root.get("viewBox").split())
        for poly in polygons_of(svg):
            for x, y in parse_points(poly):
                assert -1e-6 <= x <= width + 1e-6
                assert -1e-6 <= y <= height + 1e-6

    def test_bounding_box_reaches_a_triangle_outside_the_outline(self):
        scene = build_layered_scene(derive_config(3), 2)
        assert 'viewBox="0 0 600 534"' in render(scene)
        small, d = scene.polygons[1], scene.polygons[1].den
        moved = Polygon.over(
            tuple(x + 10 * d for x in small.xs), tuple(y - 3 * d for y in small.ys), d,
            small.role, small.layer_index,
        )
        svg = render(scene._replace(polygons=(scene.polygons[0], moved, *scene.polygons[2:])))
        assert ET.fromstring(svg).get("viewBox") == "0 0 600 415"
        xs = [[x for x, _ in parse_points(poly)] for poly in polygons_of(svg)]
        assert all(50 <= x <= 550 for poly_xs in xs for x in poly_xs)
        assert max(xs[1]) == 550  # the moved triangle sets the right edge

    def test_layout_of_a_scene_without_polygons_is_refused(self):
        scene = build_layered_scene(MABRY, 1)._replace(polygons=())
        with pytest.raises(ValueError, match="^a layout needs at least one polygon$"):
            layout(scene, RenderOptions())

    @pytest.mark.parametrize(
        "scene",
        [
            build_layered_scene(MABRY, 3),
            build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3),
        ],
    )
    def test_reparsed_areas_match_exact_within_print_tolerance(self, scene):
        opts = RenderOptions()
        svg = render(scene, opts)
        scale = float(layout(scene, opts).area_scale)
        exact = sorted(
            float(shoelace_area(p)) for p in scene.polygons if p.role == "colored"
        )
        printed = sorted(
            float_shoelace(parse_points(p)) / scale
            for p in polygons_of(svg)
            if p.get("fill") == opts.color_fill
        )
        tol = 10.0 ** (1 - opts.decimal_places)
        for got, want in zip(printed, exact):
            assert abs(got - want) <= tol * want

    def test_label_flags_toggle_text_elements(self):
        scene = build_layered_scene(MABRY, 2)
        base = RenderOptions()
        no_text = RenderOptions(show_labels=False, show_layer_annotations=False)
        only_vertices = RenderOptions(show_layer_annotations=False)
        texts = lambda o: ET.fromstring(render(scene, o)).findall(f"{SVG_NS}text")
        assert len(texts(no_text)) == 0
        assert len(texts(only_vertices)) == 5  # A B C D E
        assert len(texts(base)) == 7  # plus two layer annotations
        # geometry elements are unaffected by text flags
        assert len(polygons_of(render(scene, no_text))) == len(
            polygons_of(render(scene, base))
        )

    def test_equilateral_stretch_is_cosmetic_only(self):
        scene = build_layered_scene(MABRY, 2)
        plain = render(scene, RenderOptions(equilateral_look=False))
        stretched = render(scene, RenderOptions(equilateral_look=True))
        assert plain != stretched
        # staircase scenes are never stretched
        stairs = build_staircase_scene(StaircaseParams(Fraction(1, 2)), 2)
        assert render(stairs, RenderOptions(equilateral_look=False)) == render(
            stairs, RenderOptions(equilateral_look=True)
        )


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name, scene",
        [
            ("mabry_L4.svg", build_layered_scene(MABRY, 4)),
            ("edgar_L3.svg", build_layered_scene(LayeredParams(5, 4, Fraction(1, 3)), 3)),
            (
                "staircase_3_5_L3.svg",
                build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3),
            ),
        ],
    )
    def test_matches_frozen_golden(self, fixtures_dir, name, scene):
        golden = (fixtures_dir / name).read_bytes()
        assert render(scene, RenderOptions()).encode("utf-8") == golden


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.mark.parametrize(
    "name, scene_args",
    [
        ("layered-m3-L200.svg", ("--construction", "layered", "--m", "3", "--layers", "200")),
        ("staircase-s3_5-L500.svg", ("--construction", "staircase", "--s", "3/5", "--layers", "500")),
    ],
)
def test_deep_svg_bytes_match_the_benchmark_pins(
    tmp_path, capsys, monkeypatch, name, scene_args
):
    """At 300- to 1200-bit denominators a rounding slip shows where L = 3 or 4 cannot."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    out = tmp_path / name
    assert main(["render", *scene_args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == workloads.DEEP_SVG_SHA256[name]


@pytest.mark.parametrize(
    "command, scene_args, digest",
    [
        (
            "render", ("--construction", "layered", "--m", "3", "--layers", "200"),
            "0133d6a598ff56d68b24900ad459b0aeb2eb22c6e51beefe39b6eeb0da73d40f",
        ),
        (
            "render", ("--construction", "staircase", "--s", "3/5", "--layers", "500"),
            "dea4c40b274fae08c9042d8eced22d9c219afb5a54e0ee4296b4435e42c2403a",
        ),
        (
            "verify", ("--construction", "layered", "--m", "3", "--layers", "200"),
            "1198d46e04229a207901a80a31358b2486573bc85147de0a85c8140d4cbf7f1f",
        ),
        (
            "verify", ("--construction", "staircase", "--s", "3/5", "--layers", "500"),
            "f5be9f630de557be6a76ca9c9a4b512d02c3dcb52b796341aa2762a7ce61625d",
        ),
        (
            "verify", ("--construction", "layered", "--m", "3", "--layers", "2048"),
            "6bdcea424ff36078037eca6cd3b7cefc91f04c4a47d2cbfd50a8eaf0ab1601ab",
        ),
    ],
)
def test_deep_scene_json_and_audit_bytes_match_their_pins(
    tmp_path, capsys, command, scene_args, digest
):
    """Exact coordinates and areas, unrounded: the emitted scene file, and verify's JSON."""
    if command == "render":
        out = tmp_path / "deep.svg"
        assert main(["render", *scene_args, "--out", str(out), "--emit-scene"]) == 0
        capsys.readouterr()
        data = out.with_suffix(".json").read_bytes()
    else:
        assert main(["verify", *scene_args, "--format", "json"]) == 0
        data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


DEEP_SCENES = {
    "layered-m3-L200": ("--construction", "layered", "--m", "3", "--layers", "200"),
    "staircase-3_5-L500": ("--construction", "staircase", "--s", "3/5", "--layers", "500"),
}


@pytest.mark.parametrize(
    "name, from_scene, digest",
    [
        ("layered-m3-L200", False, "3cc2a3a2987317312a73e4a622b39d7185f0ec91f83faed1535943c5c8539a63"),
        ("layered-m3-L200", True, "3cc2a3a2987317312a73e4a622b39d7185f0ec91f83faed1535943c5c8539a63"),
        ("staircase-3_5-L500", False, "76cae6977099006ddd3735aa77a6145cbed7c7396c3f1c47ba8c3447e92a4b02"),
        ("staircase-3_5-L500", True, "76cae6977099006ddd3735aa77a6145cbed7c7396c3f1c47ba8c3447e92a4b02"),
    ],
)
def test_deep_verify_tables_match_their_pins(tmp_path, capsys, name, from_scene, digest):
    """verify's table of a built scene, and of its scene file read back."""
    args = DEEP_SCENES[name]
    if from_scene:
        out = tmp_path / "deep.svg"
        assert main(["render", *args, "--out", str(out), "--emit-scene"]) == 0
        capsys.readouterr()
        args = ("--from-scene", str(out.with_suffix(".json")))
    assert main(["verify", *args]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


def test_verify_json_of_a_file_with_failing_layer_areas_matches_its_pin(tmp_path, capsys):
    """Staircase 3/5 at 500 layers with the colored pieces of layers 1 and 250 three
    times as tall: both layers' areas fail, and so does the tiling."""
    doc = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(3, 5)), 500))
    for k in (1, 250):
        vertices = doc["polygons"][2 * k - 1]["vertices"]  # (R_k, W_(k-1), W_k)
        bottom, top = Fraction(vertices[0][1]), Fraction(vertices[2][1])
        vertices[2][1] = fmt(bottom + 3 * (top - bottom))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--from-scene", str(path)]) == 1
    data = capsys.readouterr().out.encode("utf-8")
    report = json.loads(data)
    assert [m.split(":")[0] for m in report["mismatches"]] == [
        "layer 1", "layer 1", "layer 250", "layer 250", "tiling",
    ]
    assert hashlib.sha256(data).hexdigest() == "ffbce0b2ac8d4813f5d7e4018b278a71ac024247d0d2b95869399556c9e5a819"


def test_depth_cap_scene_file_matches_its_pin_and_sets_the_byte_cap(tmp_path, capsys):
    """The largest scene file render writes, layered m = 3 at 2048 layers: its
    bytes as json.dumps(indent=2) wrote them, and half of --from-scene's byte cap."""
    out = tmp_path / "cap.svg"
    args = ("--construction", "layered", "--m", "3", "--layers", "2048")
    assert main(["render", *args, "--out", str(out), "--emit-scene"]) == 0
    capsys.readouterr()
    data = out.with_suffix(".json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "a8c5f8c6f2b9feaef3bbe3cd451076f692c815919b72573b899b69a24c1848eb"
    )
    assert 2 * len(data) == MAX_SCENE_FILE_BYTES


def test_depth_cap_svg_matches_its_pin():
    """The largest picture, layered m = 3 at 2048 layers, at the default options."""
    svg = render(build_layered_scene(derive_config(3), 2048))
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
        "65a23ff58004bdea0262a3cf04d3494b8e7dc4d63d2b1e1285e3cb5c52da432c"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_layered_scene(derive_config(3), 200),
        lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 500),
        lambda: build_layered_scene(derive_config(5), 20),  # clamped
    ],
    ids=["layered-m3-L200", "staircase-3_5-L500", "clamped-m5-L20"],
)
@pytest.mark.parametrize(
    "opts", [RenderOptions(), RenderOptions(decimal_places=1, equilateral_look=False)],
    ids=["default", "dp1-flat"],
)
def test_render_of_a_read_back_scene_is_the_same(build, opts):
    scene = build()
    back = scene_from_json(scene_to_json(scene))
    if scene.construction_kind == "staircase":
        # read back, each polygon is over its own reduced denominator: a layer's
        # two differ, so render's memo is cleared inside a layer
        assert [poly.layer_index for poly in back.polygons[1:3]] == [1, 1]
        assert back.polygons[1].den != back.polygons[2].den
    assert render(back, opts) == render(scene, opts)


@st.composite
def built_scenes(draw):
    """A built layered scene, m = 2..12 (m >= 4 clamped), or staircase p/q, q <= 40,
    of 1 to 80 layers or to the depth cap, whichever is less."""
    if draw(st.booleans()):
        ratio = Fraction(1, draw(st.one_of(st.integers(2, 12), st.sampled_from([4, 5, 7]))))
        build = lambda layers: build_layered_scene(derive_config(ratio.denominator), layers)
    else:
        q = draw(st.integers(2, 40))
        ratio = Fraction(draw(st.integers(1, q - 1)), q)
        build = lambda layers: build_staircase_scene(StaircaseParams(ratio), layers)
    cap = MAX_DENOMINATOR_BITS // ratio.denominator.bit_length()
    return build(draw(st.integers(1, min(cap, 80))))


@settings(max_examples=150, deadline=None)
@given(
    scene=built_scenes(),
    width=st.sampled_from([1, 2, 3, 7, 50, 600, 10**6]),
    places=st.integers(1, 12),
    switches=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_a_built_scene_renders_as_its_copy_without_its_frame(scene, width, places, switches):
    """A built scene prints its deep layers and labels as one cell each and takes its
    box from its outline; its _replace copy keeps no frame and maps every vertex."""
    labels, annotations, equilateral = switches
    opts = RenderOptions(canvas_width_px=width, decimal_places=places, show_labels=labels,
                         show_layer_annotations=annotations, equilateral_look=equilateral)
    copy = scene._replace()
    assert "_layer1" in scene.__dict__ and "_layer1" not in copy.__dict__
    assert render(scene, opts) == render(copy, opts)


def _fixed_calls(monkeypatch, scene) -> int:
    """How many coordinates render(scene) rounds and prints."""
    module = importlib.import_module("geoseries.render")  # the package's render is the function
    calls = []
    fixed = module._fixed
    with monkeypatch.context() as patch:
        patch.setattr(module, "_fixed", lambda *args: calls.append(args) or fixed(*args))
        render(scene)
    return len(calls)


def test_deep_layers_are_printed_once(monkeypatch):
    """Past the first layer that prints as the apex's cell, render rounds nothing more
    per layer.  Mapping every vertex rounds 2215 coordinates at layered m=3 L=200,
    22543 at the cap, 3511 at staircase 3/5 L=500 and 291 at L=40."""
    layered = [_fixed_calls(monkeypatch, build_layered_scene(derive_config(3), layers))
               for layers in (200, 2048)]
    assert layered[0] == layered[1]
    stairs = StaircaseParams(Fraction(3, 5))
    assert _fixed_calls(monkeypatch, build_staircase_scene(stairs, 500)) < 600
    # L=40 never collapses: it may pay for a search's worth, 6 tries of 4 calls
    assert _fixed_calls(monkeypatch, build_staircase_scene(stairs, 40)) <= 291 + 4 * 6


def _made_by(monkeypatch, capsys, argv) -> tuple[int, int]:
    """(shoelace sums, lattice points) that the command argv makes."""
    geometry = importlib.import_module("geoseries.geometry")
    counts = {"_cross": 0, "lattice_point": 0}
    with monkeypatch.context() as patch:
        for name in counts:
            def counting(*args, name=name, made=getattr(geometry, name)):
                counts[name] += 1
                return made(*args)
            patch.setattr(geometry, name, counting)
        assert main(argv) == 0
    capsys.readouterr()
    return counts["_cross"], counts["lattice_point"]


@pytest.mark.parametrize("scene_args, rendered, verified", [
    (("--construction", "layered", "--m", "3", "--layers", "200"), (256, 51), (1001, 0)),
    (("--construction", "layered", "--m", "3", "--layers", "2048"), (256, 51), (10241, 0)),
    (("--construction", "staircase", "--s", "3/5", "--layers", "500"), (83, 41), (1001, 0)),
], ids=["layered-m3-L200", "layered-m3-cap", "staircase-3_5-L500"])
def test_a_built_scene_makes_only_the_tiles_and_labels_read(
    tmp_path, monkeypatch, capsys, scene_args, rendered, verified
):
    """render --emit-scene makes the outline and the tiles and labels of the layers
    before the apex's cell (K = 52 and 42) and verify makes every tile and no layer
    label.  Making every tile and label up front, both made 1001 or 10241 shoelace
    sums and 200 or 500 label points."""
    out = str(tmp_path / "deep.svg")
    assert _made_by(monkeypatch, capsys, ["render", *scene_args, "--out", out,
                                          "--emit-scene"]) == rendered
    assert _made_by(monkeypatch, capsys, ["verify", *scene_args]) == verified


@pytest.mark.parametrize(
    "scene_args, digest",
    [
        (
            ("--construction", "layered", "--m", "3", "--layers", "200",
             "--width", "1000000", "--decimal-places", "12"),
            "8c3629d938f36304a9468cc1efae242aa6fad8a0e1db2a02d1aa8c9cda4ebb46",
        ),
        (
            ("--construction", "staircase", "--s", "3/5", "--layers", "500",
             "--width", "1", "--decimal-places", "1", "--no-labels"),
            "71fa739fe5b7657ca4fb060bd3739c903fd28a88ca3ac0a1289c727d0444af4b",
        ),
    ],
    ids=["layered-m3-L200-1e6px-12dp", "staircase-3_5-L500-1px-1dp"],
)
def test_deep_svg_bytes_at_other_options_match_their_pins(tmp_path, capsys, scene_args, digest):
    """The deep layers collapse to the apex's cell from layer 107 and layer 6 here,
    against 52 and 42 at the default options."""
    out = tmp_path / "deep.svg"
    assert main(["render", *scene_args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_scene_file_is_written_without_holding_its_text(tmp_path, capsys):
    # the document's dict and its whole indented text peaked at about 3.4x the
    # file's bytes; streamed, the peak is the scene and the SVG render
    out = tmp_path / "deep.svg"
    args = ("--construction", "layered", "--m", "3", "--layers", "1024")
    tracemalloc.start()
    try:
        assert main(["render", *args, "--out", str(out), "--emit-scene"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    size = out.with_suffix(".json").stat().st_size
    assert size > 10_000_000
    assert peak < size / 2, f"peak {peak} B for a {size} B scene file"
