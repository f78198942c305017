"""The record classes behave as the frozen dataclasses they replace did.

The repr of one sample per class is pinned as dataclass(frozen=True)
printed it; construction, ==, hash, immutability, the constructors'
checks and copies are held to what the dataclasses gave.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from geoseries.construction import LayeredParams, StaircaseParams
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    AuditReport,
    LayerAudit,
    Point,
    Polygon,
    Scene,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    lattice_point,
    report_json_chunks,
)
from geoseries.record import Record
from geoseries.render import Layout, RenderOptions, layout

F = Fraction
RECORDS = [LayeredParams, StaircaseParams, Point, Polygon, Scene, LayerAudit, AuditReport,
           RenderOptions, Layout]
POINT = Point(F(1, 2), F(-1, 3))
TRIANGLE = Polygon((Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1, 2))), "colored", 1)
BUILT = build_layered_scene(derive_config(2), 1)
REPORT = audit_scene(BUILT)

_TRIANGLE_REPR = (
    "Polygon(vertices=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), Point(x=Fraction(1, 1), "
    "y=Fraction(0, 1)), Point(x=Fraction(0, 1), y=Fraction(1, 2))), role='colored', "
    "layer_index=1)"
)
_LAYER_REPR = (
    "LayerAudit(layer_index=1, polygon_count=3, colored_count=1, colored_area=Fraction(1, 4), "
    "total_area=Fraction(3, 4), colored_fraction=Fraction(1, 3), "
    "expected_colored_area=Fraction(1, 4), expected_total_area=Fraction(3, 4), ok=True)"
)
# name: (sample, its repr as the frozen dataclass printed it)
SAMPLES = {
    "LayeredParams": (LayeredParams(5, 4, F(1, 3)), "LayeredParams(n=5, a=4, r=Fraction(1, 3))"),
    "StaircaseParams": (StaircaseParams(F(3, 5)), "StaircaseParams(s=Fraction(3, 5))"),
    "Point": (POINT, "Point(x=Fraction(1, 2), y=Fraction(-1, 3))"),
    "lattice_point": (lattice_point(2, -6, 4), "Point(x=Fraction(1, 2), y=Fraction(-3, 2))"),
    "Polygon": (TRIANGLE, _TRIANGLE_REPR),
    "built_polygon": (
        BUILT.polygons[1],
        "Polygon(vertices=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), Point(x=Fraction(1, 2), "
        "y=Fraction(1, 2)), Point(x=Fraction(-1, 2), y=Fraction(1, 2))), role='colored', "
        "layer_index=1)",
    ),
    "Scene": (
        Scene((TRIANGLE,), ((POINT, "A"),), "layered", {"r": "1/3"}, 1),
        f"Scene(polygons=({_TRIANGLE_REPR},), labels=((Point(x=Fraction(1, 2), "
        "y=Fraction(-1, 3)), 'A'),), construction_kind='layered', params_echo={'r': '1/3'}, "
        "layers_rendered=1)",
    ),
    "LayerAudit": (REPORT.layers[0], _LAYER_REPR),
    "AuditReport": (
        REPORT,
        "AuditReport(construction_kind='layered', params={'n': '3', 'a': '1', 'r': '1/2', "
        f"'m': '2', 'colored_per_layer': '1'}}, layers=({_LAYER_REPR},), "
        "tiled_area=Fraction(3, 4), apex_remainder=Fraction(1, 4), figure_area=Fraction(1, 1), "
        "ok=True, mismatches=())",
    ),
    "RenderOptions": (
        RenderOptions(),
        "RenderOptions(canvas_width_px=600, color_fill='#00ffff', stroke_color='#000000', "
        "decimal_places=6, show_labels=True, show_layer_annotations=True, equilateral_look=True)",
    ),
    "Layout": (
        layout(BUILT, RenderOptions()),
        "Layout(ax=1000000000000000000, bx=1200000000000000000, ay=-1732050807568877293, "
        "by=1932050807568877293, den=4000000000000000, width_px=600, height_px=534)",
    ),
}
UNHASHABLE = {"Scene", "AuditReport"}  # a dict field: the dataclass's hash raised TypeError too
samples = pytest.mark.parametrize("name", list(SAMPLES))


def values(obj):
    return tuple(getattr(obj, name) for name in obj._fields)


def test_fields_are_the_dataclass_fields_in_order():
    assert {cls: cls._fields for cls in RECORDS} == {
        LayeredParams: ("n", "a", "r"),
        StaircaseParams: ("s",),
        Point: ("x", "y"),
        Polygon: ("vertices", "role", "layer_index"),
        Scene: ("polygons", "labels", "construction_kind", "params_echo", "layers_rendered"),
        LayerAudit: ("layer_index", "polygon_count", "colored_count", "colored_area",
                     "total_area", "colored_fraction", "expected_colored_area",
                     "expected_total_area", "ok"),
        AuditReport: ("construction_kind", "params", "layers", "tiled_area", "apex_remainder",
                      "figure_area", "ok", "mismatches"),
        RenderOptions: ("canvas_width_px", "color_fill", "stroke_color", "decimal_places",
                        "show_labels", "show_layer_annotations", "equilateral_look"),
        Layout: ("ax", "bx", "ay", "by", "den", "width_px", "height_px"),
    }
    for cls in RECORDS:
        assert issubclass(cls, Record)
        assert cls.__match_args__ == cls._fields


@samples
def test_repr_is_pinned(name):
    obj, want = SAMPLES[name]
    assert repr(obj) == want


@samples
def test_positional_and_keyword_construction(name):
    obj, _ = SAMPLES[name]
    cls = type(obj)
    by_position = cls(*values(obj))
    by_keyword = cls(**dict(zip(obj._fields, values(obj))))
    assert by_position == by_keyword == obj
    assert repr(by_position) == repr(by_keyword) == repr(obj)


def test_defaults_are_the_class_attributes():
    assert RenderOptions() == RenderOptions(600, "#00ffff", "#000000", 6, True, True, True)
    assert [getattr(RenderOptions, name) for name in RenderOptions._fields] == [
        600, "#00ffff", "#000000", 6, True, True, True
    ]
    assert RenderOptions(decimal_places=3) == RenderOptions(600, "#00ffff", "#000000", 3)
    polygon = Polygon(TRIANGLE.vertices, "colored")
    assert polygon.layer_index is None and Polygon.layer_index is None
    assert polygon == Polygon(TRIANGLE.vertices, "colored", None)
    report = AuditReport(*values(REPORT)[:-1])
    assert report.mismatches == () and AuditReport.mismatches == ()
    assert report == REPORT


@pytest.mark.parametrize("make, message", [
    (lambda: LayeredParams(5, 4), "missing 1 required positional argument: 'r'"),
    (lambda: Point(F(1)), "missing 1 required positional argument: 'y'"),
    (lambda: LayeredParams(5, 4, F(1, 3), 0), "takes 4 positional arguments but 5 were given"),
    (lambda: LayeredParams(n=5, a=4, r=F(1, 3), m=3), "unexpected keyword argument 'm'"),
])
def test_wrong_arguments_raise_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


@samples
def test_eq_and_hash_go_by_fields(name):
    obj, _ = SAMPLES[name]
    twin = type(obj)(*values(obj))
    assert twin is not obj and twin == obj and not twin != obj
    assert obj.__eq__(values(obj)) is NotImplemented
    assert obj != values(obj)
    other = StaircaseParams(F(1, 2)) if name != "StaircaseParams" else POINT
    assert obj.__eq__(other) is NotImplemented and obj != other
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(values(obj))


@pytest.mark.parametrize("one, other", [
    (LayeredParams(5, 4, F(1, 3)), LayeredParams(5, 3, F(1, 3))),
    (StaircaseParams(F(3, 5)), StaircaseParams(F(2, 5))),
    (POINT, Point(F(1, 2), F(1, 3))),
    (TRIANGLE, Polygon(TRIANGLE.vertices, "blank", 1)),
    (TRIANGLE, Polygon(TRIANGLE.vertices, "colored", 2)),
    (BUILT, BUILT._replace(layers_rendered=2)),
    (REPORT.layers[0], REPORT.layers[0]._replace(ok=False)),
    (REPORT, REPORT._replace(mismatches=("x",))),
    (RenderOptions(), RenderOptions(decimal_places=5)),
    (layout(BUILT, RenderOptions()), layout(BUILT, RenderOptions(canvas_width_px=601))),
])
def test_a_changed_field_is_unequal(one, other):
    assert one != other and not one == other


def test_equal_values_over_other_denominators_are_equal():
    # == compares rational values, as the dataclass compared the Fractions
    point = lattice_point(2, -6, 4)
    assert point == Point(F(1, 2), F(-3, 2))
    assert hash(point) == hash(Point(F(1, 2), F(-3, 2)))
    built = BUILT.polygons[1]
    assert built == Polygon(built.vertices, "colored", 1)


@samples
def test_fields_cannot_be_assigned_or_deleted(name):
    obj, want = SAMPLES[name]
    field = obj._fields[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        obj.other = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert repr(obj) == want


@pytest.mark.parametrize("make, message", [
    (lambda: LayeredParams(0, 1, F(1, 2)), "n must be a positive integer, got 0"),
    (lambda: LayeredParams(1, 0, F(1, 2)), "a must be a positive integer, got 0"),
    (lambda: LayeredParams(1, 1, F(1)), "r must lie strictly in (0,1), got 1"),
    (lambda: StaircaseParams(F(0)), "s must lie strictly in (0,1), got 0"),
    (lambda: Polygon((POINT, POINT), "colored"), "polygon needs >= 3 vertices, got 2"),
    (lambda: Polygon(TRIANGLE.vertices, "dotted"), "unknown polygon role 'dotted'"),
    (lambda: Polygon(TRIANGLE.vertices[::-1], "colored"),
     "polygon must be counterclockwise with nonzero area"),
    (lambda: RenderOptions(canvas_width_px=0), "canvas width must be positive, got 0"),
    (lambda: RenderOptions(canvas_width_px=1_000_001),
     "canvas width must be at most 1000000, got 1000001"),
    (lambda: RenderOptions(decimal_places=13), "decimal_places must lie in [1, 12], got 13"),
    (lambda: RenderOptions(color_fill="a\x01"),
     "fill color must not contain U+0001, a character XML 1.0 does not allow"),
    (lambda: RenderOptions(stroke_color="\ufffe"),
     "stroke color must not contain U+FFFE, a character XML 1.0 does not allow"),
    (lambda: LayeredParams(5, 4, F(1, 3))._replace(n=0), "n must be a positive integer, got 0"),
    (lambda: TRIANGLE._replace(role="dotted"), "unknown polygon role 'dotted'"),
])
def test_check_messages_are_unchanged(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@samples
def test_pickle_and_copy_round_trip(name):
    obj, want = SAMPLES[name]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert twin == obj
        assert repr(twin) == want
        if name not in UNHASHABLE:
            assert hash(twin) == hash(obj)


@samples
def test_replace_copies_every_field(name):
    obj, want = SAMPLES[name]
    twin = obj._replace()
    assert twin is not obj and twin == obj and repr(twin) == want


@pytest.mark.parametrize("build", [
    lambda: build_layered_scene(derive_config(3), 3),
    lambda: build_staircase_scene(StaircaseParams(F(3, 5)), 3),
])
def test_scene_replace_drops_layer1(build):
    scene = build()
    twin = scene._replace()
    assert "_layer1" in scene.__dict__ and "_layer1" not in twin.__dict__
    assert twin == scene
    fewer = scene._replace(polygons=scene.polygons[:1])
    assert "_layer1" not in fewer.__dict__
    assert (fewer.polygons, fewer.labels) == (scene.polygons[:1], scene.labels)
    with pytest.raises(TypeError):
        scene._replace(depth=2)


def test_copy_replace_hook_is_replace():
    # copy.replace (Python 3.13+) calls __replace__, which a dataclass had too
    assert POINT.__replace__(y=F(1, 3)) == POINT._replace(y=F(1, 3)) == Point(F(1, 2), F(1, 3))
    if hasattr(copy, "replace"):
        assert copy.replace(POINT, y=F(1, 3)) == Point(F(1, 2), F(1, 3))


def test_match_by_position():
    match POINT:
        case Point(x, y):
            assert (x, y) == (F(1, 2), F(-1, 3))
        case _:
            pytest.fail("a Point did not match Point(x, y)")


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_every_record_class_has_a_docstring_of_its_own(cls):
    # the dataclass decorator gave a class without one its signature as one
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


def _audited_layers():
    """Fresh layers from the audit, none of whose areas is made yet: layered m = 3
    and staircase 3/5, each passing, and a staircase layer whose area fails."""
    staircase = build_staircase_scene(StaircaseParams(F(3, 5)), 3)
    polygons = list(staircase.polygons)
    r, w, top = polygons[3].vertices  # layer 2's colored piece, twice as tall
    polygons[3] = Polygon((r, w, Point(top.x, 2 * top.y - r.y)), "colored", 2)
    tampered = audit_scene(staircase._replace(polygons=tuple(polygons)))
    assert not tampered.layers[1].ok
    return [*audit_scene(build_layered_scene(derive_config(3), 3)).layers,
            *audit_scene(staircase).layers, *tampered.layers]


AREA_FIELDS = ("colored_area", "total_area", "colored_fraction", "expected_colored_area",
               "expected_total_area")


@pytest.mark.parametrize("index", range(9))
def test_an_audited_layer_is_the_layer_made_from_its_fractions(index):
    layer = _audited_layers()[index]
    assert not set(AREA_FIELDS) & set(layer.__dict__)  # made on first use
    twins = [pickle.loads(pickle.dumps(layer)), copy.copy(layer), copy.deepcopy(layer)]
    hand = LayerAudit(
        layer.layer_index, layer.polygon_count, layer.colored_count,
        *[F(*pair) for pair in layer.__dict__["_parts"]], layer.ok,
    )
    assert hash(layer) == hash(hand)
    assert layer == hand and hand == layer
    assert repr(layer) == repr(hand)
    assert [type(getattr(layer, name)) for name in AREA_FIELDS] == [F] * 5
    assert all(getattr(layer, name) is layer.__dict__[name] for name in AREA_FIELDS)  # kept
    for twin in [*twins, layer._replace(), hand._replace()]:
        assert twin == hand and hash(twin) == hash(hand) and repr(twin) == repr(hand)
        assert twin.area_texts() == hand.area_texts() == layer.area_texts()
    changed = layer._replace(ok=not layer.ok)
    assert changed != hand and changed._replace(ok=layer.ok) == hand
    for name in ("nope", "area", "_num"):
        with pytest.raises(AttributeError):
            getattr(_audited_layers()[index], name)
    with pytest.raises(AttributeError):
        layer.colored_area = F(1)


def test_a_report_of_replaced_layers_writes_the_audits_bytes():
    for layers in (3, 200):
        report = audit_scene(build_staircase_scene(StaircaseParams(F(3, 5)), layers))
        text = "".join(report_json_chunks(report))
        replaced = report._replace(layers=tuple(layer._replace() for layer in report.layers))
        assert all("_parts" not in layer.__dict__ for layer in replaced.layers)
        assert "".join(report_json_chunks(replaced)) == text
        assert replaced == report


def _built_scenes():
    """Fresh built scenes, neither of whose fields is made yet: layered m = 3,
    clamped m = 5 and staircase 3/5."""
    return [build_layered_scene(derive_config(3), 3), build_layered_scene(derive_config(5), 2),
            build_staircase_scene(StaircaseParams(F(3, 5)), 3)]


SCENE_FIELDS = ("polygons", "labels")


@pytest.mark.parametrize("index", range(3))
def test_a_built_scene_is_the_scene_made_from_its_fields(index):
    made = _built_scenes()[index]
    hand = Scene(made.polygons, made.labels, made.construction_kind, made.params_echo,
                 made.layers_rendered)
    fresh = lambda: _built_scenes()[index]  # noqa: E731
    scene = fresh()
    assert not set(SCENE_FIELDS) & set(scene.__dict__)  # made on first read
    assert scene == hand and fresh() == hand and hand == fresh()
    assert repr(fresh()) == repr(hand)
    for obj in (fresh(), hand):  # a dict field: the dataclass's hash raised TypeError too
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    for make in (lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy):
        scene = fresh()
        twin = make(scene)
        assert not set(SCENE_FIELDS) & (set(scene.__dict__) | set(twin.__dict__))
        assert type(twin) is Scene and "_layer1" in twin.__dict__
        assert twin == hand and repr(twin) == repr(hand)
    scene = fresh()
    replaced = scene._replace()
    assert "_layer1" not in replaced.__dict__ and replaced == hand and repr(replaced) == repr(hand)
    for name in SCENE_FIELDS:  # each made alone, then kept
        scene = fresh()
        value = getattr(scene, name)
        assert set(SCENE_FIELDS) & set(scene.__dict__) == {name}
        assert getattr(scene, name) is value is scene.__dict__[name]
        assert value == getattr(hand, name)
    for name in ("nope", "vertices", "_num", "_head"):  # _head: now kept in _layer1
        for scene in (object.__new__(Scene), fresh()):
            with pytest.raises(AttributeError):
                getattr(scene, name)
    for name in SCENE_FIELDS:
        with pytest.raises(AttributeError):
            getattr(object.__new__(Scene), name)
        scene = fresh()
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(scene, name, ())
        assert name not in scene.__dict__
