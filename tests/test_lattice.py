"""Scene geometry held as integer numerators over one denominator per layer.

The builders, the reader and the audit work on plain integers.  The
reference below is the earlier Fraction builder and a Fraction audit that
evaluates the area formulas at every layer, kept here so that the integer
code must give the same vertices, labels, areas and audit reports.  The
earlier dict builders of a scene file and an audit report are kept too:
the streamed writers must give their json.dumps(indent=2) text, and the
library's dict forms, parsed from that text, must equal them.  So is the
earlier scene reader, which called a checking helper for every field and
vertex: the reader must give the same scene, or raise the same error.  So
is the earlier audit, which stepped its expectations as Fraction products
and made five Fractions per layer: the audit must give an equal report,
written to the same bytes, on built, read-back and tampered scenes.  So
is the earlier integer builder, which made every tile and label up front:
a built scene, which makes them only when they are read, must give the
same fields, SVG, scene file and audit, whatever is read first.
"""

import copy
import functools
import itertools
import json
import math
import pickle
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseries import cli
from geoseries.cli import main
from geoseries.construction import (
    StaircaseParams,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    MAX_POLYGONS,
    MAX_SCENE_DENOMINATOR_BITS,
    ROLE_BLANK,
    ROLE_COLORED,
    ROLE_OUTLINE,
    AuditReport,
    LayerAudit,
    Point,
    Polygon,
    Scene,
    _check_counts,
    _construction,
    _echoed_ratio,
    _lcm,
    _member,
    _over_lcm,
    _pair_parts,
    _point_parts,
    _points_text,
    _RATIO_KEY,
    _scales,
    _texts,
    _typed,
    _values,
    audit_scene,
    build_layered_scene,
    build_staircase_scene,
    lattice_point,
    point_numerators,
    report_json_chunks,
    scene_from_json,
    scene_json_chunks,
    scene_to_json,
)
from geoseries.rational import MAX_DENOMINATOR_BITS, check_depth, fmt, fmt_parts, parse, parse_parts
from geoseries.render import RenderOptions, render

ONE, ZERO = Fraction(1), Fraction(0)


def reference_build(layers, *, outline, vertex_labels, shrink, xs, tiles, label_mid, label_dx):
    """(polygons, labels) with polygons as (vertices, role, layer_index), all in Fractions."""
    apex_y = outline[-1].y
    polygons = [(outline, ROLE_OUTLINE, None)]
    labels = list(vertex_labels)
    t = ONE
    y_bottom = ZERO
    for k in range(1, layers + 1):
        x = [t * v for v in xs]
        mid = t * label_mid
        t *= shrink
        y = (y_bottom, apex_y - t * apex_y)
        for role, corners in tiles:
            polygons.append((tuple(Point(x[i], y[j]) for i, j in corners), role, k))
        labels.append((Point(mid + label_dx, apex_y - mid), f"layer {k}"))
        y_bottom = y[1]
    return polygons, labels


def reference_layered(m, layers):
    p = derive_config(m)
    colored = min(p.a, p.n)
    shrink = ONE - p.r
    tiles = []
    for idx in range(p.n):
        if idx < m - 1:
            i = 2 * idx + 1
            corners = ((i + 1, 0), (i + 2, 1), (i, 1))
        else:
            i = 2 * (idx - m + 1)
            corners = ((i, 0), (i + 2, 0), (i + 1, 1))
        tiles.append((ROLE_COLORED if idx < colored else ROLE_BLANK, corners))
    twentieth = Fraction(1, 20)
    return reference_build(
        layers,
        outline=(Point(-ONE, ZERO), Point(ONE, ZERO), Point(ZERO, ONE)),
        vertex_labels=[
            (Point(ZERO, ONE + twentieth), "A"),
            (Point(ONE + twentieth, -twentieth), "B"),
            (Point(-ONE - twentieth, -twentieth), "C"),
            (Point(shrink + twentieth, p.r), "D"),
            (Point(-shrink - twentieth, p.r), "E"),
        ],
        shrink=shrink, xs=[Fraction(i - m, m) for i in range(2 * m + 1)], tiles=tiles,
        label_mid=(ONE + shrink) / 2, label_dx=Fraction(1, 4),
    )


def reference_staircase(s, layers):
    h = ONE / (ONE - s)
    return reference_build(
        layers,
        outline=(Point(h - 1, ZERO), Point(h, ZERO), Point(ZERO, h)),
        vertex_labels=[
            (Point(ZERO, h + h / 20), "A"),
            (Point(h + h / 20, -h / 20), "B"),
            (Point(h - 1, -h / 20), "C"),
        ],
        shrink=s, xs=[h - 1 - s, h - 1, h],
        tiles=[(ROLE_COLORED, ((1, 0), (2, 0), (1, 1))), (ROLE_BLANK, ((1, 0), (1, 1), (0, 1)))],
        label_mid=h - Fraction(1, 2), label_dx=h / 10,
    )


def reference_lines(apex_y, xs, shrink, ks):
    """Layer k's x values, then its bottom and top lines' y values, in Fractions, for
    each k of ks: layer 1's x values shrunk by shrink^(k-1), and the lines at A's
    height less shrink^(k-1) and shrink^k of it."""
    return [[shrink ** (k - 1) * x for x in xs]
            + [apex_y - shrink ** (k - 1) * apex_y, apex_y - shrink ** k * apex_y] for k in ks]


def frame_lines(scene, ks):
    """Layer k's x values, then its bottom and top lines' y values, for each k of ks,
    as the built scene's layer 1 terms give them."""
    layer1 = scene.__dict__["_layer1"]
    return [[Fraction(n, layer1.d * v) for n in _values(layer1.xs + layer1.ys, u, v)]
            for _, u, v in _scales(layer1, ks)]


def lcm_of(values):
    return math.lcm(*[v.denominator for v in values])


@pytest.mark.parametrize("m", range(2, 65))
def test_layered_frame_is_layer_1_over_its_lcm(m):
    r = Fraction(1, m)
    scene = build_layered_scene(derive_config(m), 9)
    layer1 = scene.__dict__["_layer1"]
    xs = [Fraction(i - m, m) for i in range(2 * m + 1)]
    want = reference_lines(ONE, xs, ONE - r, (1, 2, 9))
    assert frame_lines(scene, (1, 2, 9)) == want
    assert layer1.d == lcm_of(want[0]) and (layer1.a, layer1.b) == (m - 1, m)
    assert math.gcd(layer1.a, layer1.b) == 1  # the premise of _texts' small-gcd reduction


@given(st.integers(2, 10**6).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))))
def test_staircase_frame_is_layer_1_over_its_lcm(pq):
    s = Fraction(*pq)
    h = ONE / (ONE - s)
    scene = build_staircase_scene(StaircaseParams(s), 9)
    layer1 = scene.__dict__["_layer1"]
    want = reference_lines(h, [h - 1 - s, h - 1, h], s, (1, 2, 9))
    assert frame_lines(scene, (1, 2, 9)) == want
    assert layer1.d == lcm_of(want[0]) and (layer1.a, layer1.b) == (s.numerator, s.denominator)
    assert math.gcd(layer1.a, layer1.b) == 1  # the premise of _texts' small-gcd reduction


@st.composite
def term_layers(draw):
    """(a, b, d, terms, ks): a shrink a/b in lowest terms, a denominator d and terms
    (c0, c1) that share primes with b or not, zero and negative ones among them, and
    ascending layers ks."""
    b = draw(st.integers(2, 60))
    a = draw(st.integers(1, b - 1).filter(lambda a: math.gcd(a, b) == 1))
    d = draw(st.integers(1, 10**4)) * b ** draw(st.integers(0, 3))
    number = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                       st.builds(lambda c, j: c * b**j, st.integers(-99, 99), st.integers(1, 4)))
    terms = draw(st.lists(st.tuples(number, number), min_size=1, max_size=6))
    ks = sorted(draw(st.sets(st.integers(1, 80), min_size=1, max_size=4)))
    return a, b, d, terms, ks


@given(term_layers())
def test_a_term_prints_as_its_value_reduced_by_one_gcd(case):
    a, b, d, terms, ks = case
    steps = _scales(types.SimpleNamespace(a=a, b=b), ks)
    for k, texts in _texts(terms, d, steps):
        u, v = a ** (k - 1), b ** (k - 1)
        assert texts == [fmt_parts(c0 * v + c1 * u, d * v) for c0, c1 in terms]


def reference_area(vertices):
    total = ZERO
    for i in range(len(vertices)):
        p, q = vertices[i - 1], vertices[i]
        total += p.x * q.y - q.x * p.y
    return total / 2


def reference_audit(kind, params, polygons, layers):
    """The as_dict of a passing audit, every expectation from the formulas at its own layer."""
    rows = []
    tiled = ZERO
    for k in range(1, layers + 1):
        layer = [(vertices, role) for vertices, role, index in polygons if index == k]
        colored = [reference_area(v) for v, role in layer if role == ROLE_COLORED]
        colored_area = sum(colored, ZERO)
        layer_area_k = sum((reference_area(v) for v, _ in layer), ZERO)
        tiled += layer_area_k
        if kind == "layered":
            p = derive_config(int(params["m"]))
            want_colored = min(p.a, p.n) * triangle_area(p, k)
            want_layer = layer_area(p, k)
        else:
            q = StaircaseParams(Fraction(params["s"]))
            want_colored = staircase_piece_area(q, k)
            want_layer = staircase_layer_area(q, k)
        rows.append({
            "layer": k,
            "polygons": len(layer),
            "colored": len(colored),
            "colored_area": fmt(colored_area),
            "layer_area": fmt(layer_area_k),
            "colored_fraction": fmt(colored_area / layer_area_k),
            "expected_colored_area": fmt(want_colored),
            "expected_layer_area": fmt(want_layer),
            "ok": colored_area == want_colored and layer_area_k == want_layer,
        })
    if kind == "layered":
        figure = ONE
        remainder = (ONE - Fraction(1, int(params["m"]))) ** (2 * layers)
    else:
        s = Fraction(params["s"])
        figure = staircase_total_area(StaircaseParams(s))
        remainder = s ** (2 * layers) * figure
    return {
        "schema": 1,
        "construction": kind,
        "params": params,
        "layers": rows,
        "tiled_area": fmt(tiled),
        "apex_remainder": fmt(remainder),
        "figure_area": fmt(figure),
        "check": "pass" if tiled + remainder == figure else "fail",
        "mismatches": [],
    }


CASES = [
    pytest.param("layered", m, layers, id=f"m={m}-L={layers}")
    for m in (2, 3, 4, 5)
    for layers in (1, 6, 50)
] + [
    pytest.param("staircase", s, layers, id=f"s={s}-L={layers}")
    for s in (Fraction(1, 2), Fraction(3, 5), Fraction(254, 255))
    for layers in (1, 6, 50)
]


def build(kind, param, layers):
    if kind == "layered":
        return build_layered_scene(derive_config(param), layers), reference_layered(param, layers)
    return build_staircase_scene(StaircaseParams(param), layers), reference_staircase(param, layers)


@pytest.mark.parametrize("kind, param, layers", CASES)
def test_integer_builder_matches_the_fraction_reference(kind, param, layers):
    scene, (ref_polygons, ref_labels) = build(kind, param, layers)
    assert [(p.vertices, p.role, p.layer_index) for p in scene.polygons] == ref_polygons
    assert [p.area for p in scene.polygons] == [reference_area(v) for v, _, _ in ref_polygons]
    assert list(scene.labels) == ref_labels
    report = audit_scene(scene).as_dict()
    assert report == reference_audit(kind, scene.params_echo, ref_polygons, layers)
    assert report["check"] == "pass"


@pytest.mark.parametrize("kind, param, layers", CASES)
def test_each_layer_lies_over_one_denominator(kind, param, layers):
    """m^k for layered r = 1/m, (q - p) q^k for the staircase s = p/q."""
    scene, _ = build(kind, param, layers)
    for k in range(1, layers + 1):
        dens = {p.den for p in scene.polygons if p.layer_index == k}
        if kind == "layered":
            assert dens == {param**k}
        else:
            assert dens == {(param.denominator - param.numerator) * param.denominator**k}


def _unreduce(text, factor):
    """text ("p/q" or "p") rewritten as the equal, unreduced "p*factor/q*factor"."""
    num, _, den = text.partition("/")
    return f"{int(num) * factor}/{int(den or 1) * factor}"


SCENES = st.one_of(
    st.builds(
        lambda m, layers: build_layered_scene(derive_config(m), layers),
        st.integers(2, 6), st.integers(1, 8),
    ),
    st.builds(
        lambda q, p, layers: build_staircase_scene(
            StaircaseParams(Fraction(p % q or 1, q)), layers
        ),
        st.integers(2, 300), st.integers(1, 299), st.integers(1, 8),
    ),
)


@given(SCENES, st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
def test_scene_round_trips_through_json_even_when_unreduced(scene, factors):
    doc = scene_to_json(scene)
    assert scene_from_json(doc) == scene
    # every coordinate string rewritten unreduced, "2/4" style
    loose = json.loads(json.dumps(doc))
    count = 0
    for entry in loose["polygons"]:
        for pair in entry["vertices"]:
            for i in (0, 1):
                pair[i] = _unreduce(pair[i], factors[count % len(factors)])
                count += 1
    for entry in loose["labels"]:
        for key in ("x", "y"):
            entry[key] = _unreduce(entry[key], factors[count % len(factors)])
            count += 1
    read = scene_from_json(loose)
    assert read == scene
    assert scene_to_json(read) == doc
    assert audit_scene(read) == audit_scene(scene)


def reference_scene_doc(scene):
    """The scene file of scene as a dict, built key by key."""

    def label(pt, text):
        xn, yn, d = point_numerators(pt)
        return {"x": fmt_parts(xn, d), "y": fmt_parts(yn, d), "text": text}

    return {
        "schema": 1,
        "construction_kind": scene.construction_kind,
        "params": dict(scene.params_echo),
        "layers_rendered": scene.layers_rendered,
        "polygons": [
            {
                "vertices": [
                    [fmt_parts(x, poly.den), fmt_parts(y, poly.den)]
                    for x, y in zip(poly.xs, poly.ys)
                ],
                "role": poly.role,
                "layer_index": poly.layer_index,
                "label": None,
            }
            for poly in scene.polygons
        ],
        "labels": [label(pt, text) for pt, text in scene.labels],
    }


def reference_scene_from_json(doc):
    """The earlier scene reader: a checking helper for every field, _pair_parts for
    every vertex, an lru_cache of parsed strings and _over_lcm for every polygon
    and label."""
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

    @functools.lru_cache(maxsize=None)
    def read(text):
        nonlocal lcm
        num, den = parse_parts(text)
        if lcm % den:
            lcm = math.lcm(lcm, den)
            if lcm.bit_length() > MAX_SCENE_DENOMINATOR_BITS:
                raise ValueError(
                    f"the lcm of the coordinate denominators so far has {lcm.bit_length()} "
                    f"bits, over the cap of {MAX_SCENE_DENOMINATOR_BITS}"
                )
        return num, den

    polygons = []
    for i, entry in enumerate(_member(doc, "polygons", list, "")):
        path = f"polygons[{i}]"
        _typed(entry, dict, path)
        vertices = _member(entry, "vertices", list, path)
        points = []
        for j, pair in enumerate(vertices):
            try:
                points.append(_pair_parts(pair, read))
            except ValueError as exc:
                raise ValueError(f"{path}.vertices[{j}]: {exc}") from None
        role = _member(entry, "role", str, path)
        layer_index = _member(entry, "layer_index", int, path, optional=True)
        _member(entry, "label", str, path, optional=True)
        try:
            polygons.append(Polygon.over(*_over_lcm(points), role, layer_index))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if role != ROLE_OUTLINE and not (layer_index is not None and 1 <= layer_index <= layers):
            raise ValueError(
                f"{path}.layer_index must be an integer in [1, {layers}] for a {role} "
                f"polygon, got {layer_index!r}"
            )
    labels = []
    for i, entry in enumerate(_member(doc, "labels", list, "", optional=True) or ()):
        path = f"labels[{i}]"
        _typed(entry, dict, path)
        pair = [_member(entry, "x", str, path), _member(entry, "y", str, path)]
        try:
            (xn,), (yn,), d = _over_lcm([_pair_parts(pair, read)])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        labels.append((lattice_point(xn, yn, d), _member(entry, "text", str, path)))
    return Scene(
        polygons=tuple(polygons),
        labels=tuple(labels),
        construction_kind=kind,
        params_echo={k: v if isinstance(v, str) else json.dumps(v) for k, v in params.items()},
        layers_rendered=layers,
    )


def read_by_both(doc):
    """What scene_from_json and the reference make of doc: (reference, reader), each
    the scene read from its own copy of doc or the text of the ValueError raised."""
    results = []
    for reader in (reference_scene_from_json, scene_from_json):
        try:
            results.append(reader(copy.deepcopy(doc)))
        except ValueError as exc:
            results.append(str(exc))
    return tuple(results)


def assert_read_alike(doc):
    want, got = read_by_both(doc)
    assert got == want
    if isinstance(want, Scene):  # the same integers too, not only the same values
        assert ([(p.xs, p.ys, p.den) for p in got.polygons]
                == [(p.xs, p.ys, p.den) for p in want.polygons])
        assert [pt._num for pt, _ in got.labels] == [pt._num for pt, _ in want.labels]
        assert "".join(scene_json_chunks(got)) == "".join(scene_json_chunks(want))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_layered_scene(derive_config(3), 200),
        lambda: build_layered_scene(derive_config(5), 30),  # clamped
        lambda: build_staircase_scene(StaircaseParams(Fraction(3, 5)), 500),
        lambda: build_staircase_scene(StaircaseParams(Fraction(1, 2)), 1),
    ],
    ids=["m3-L200", "clamped-m5-L30", "s3_5-L500", "s1_2-L1"],
)
def test_reader_reads_built_scenes_as_the_reference_does(build):
    scene = build()
    doc = scene_to_json(scene)
    assert_read_alike(doc)
    assert scene_from_json(doc) == scene


# a small built scene of each kind, and the values a corrupted field takes
CORRUPTIBLE_DOCS = (
    scene_to_json(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 2)),
    scene_to_json(build_layered_scene(derive_config(2), 2)),
)
WRONG_VALUES = (None, True, 0, 7, 1.5, "", "x", [], ["1/2"], [1, 2], {}, {"x": "0", "y": "0"})
MALFORMED_TEXTS = ("1/x", "+1/2", "1/0", "1/-2", "--1", "1/2/3", "1_0/3", "\uff11/2", " 1/2\n",
                   "1 /2", "/2", "1/", "")
# a triangle whose second and third vertices take the lcm of the denominators
# past the cap: 2^8000 times an odd 8400-bit number
PAST_CAP = [["0", "0"], [f"1/{2**8000}", "0"], ["0", f"1/{2**8400 + 1}"]]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def corrupt(draw, doc, polygon, label):
    """Corrupt one field of a scene document, in the polygon and the label at
    those paths or at the top: a wrong type, a missing key, a malformed or
    unreduced "p/q", a bad vertex (one element, three, two one-character
    coordinates as one string), an out-of-range layer_index, a bad label
    coordinate, or the polygon's vertices taking the denominators past the
    lcm cap."""
    vertex = (*polygon, "vertices", draw(st.integers(0, 2)))
    coordinate = draw(st.sampled_from([(*vertex, 0), (*vertex, 1), (*label, "x"), (*label, "y")]))
    members = [(key,) for key in doc] + [("params", key) for key in doc["params"]]
    members += [(*polygon, key) for key in _at(doc, polygon)] + [(*label, key) for key in _at(doc, label)]
    kind = draw(st.sampled_from(["type", "missing", "malformed", "unreduced", "vertex",
                                 "layer_index", "past-cap"]))
    if kind == "missing":
        path = draw(st.sampled_from(members))
        del _at(doc, path[:-1])[path[-1]]
        return
    if kind == "type":
        path = draw(st.sampled_from([draw(st.sampled_from(members)), polygon, vertex, coordinate,
                                     label]))
        value = draw(st.sampled_from(WRONG_VALUES))
    elif kind == "malformed":
        path, value = coordinate, draw(st.sampled_from(MALFORMED_TEXTS))
    elif kind == "unreduced":
        path = coordinate
        value = _unreduce(_at(doc, path), draw(st.integers(2, 10**6)))
    elif kind == "vertex":
        path, pair = vertex, _at(doc, vertex)
        value = draw(st.sampled_from([pair[:1], [*pair, pair[0]], "01"]))
    elif kind == "layer_index":
        path = (*polygon, "layer_index")
        value = draw(st.none() | st.integers(-1, doc["layers_rendered"] + 2))
    else:
        path, value = (*polygon, "vertices"), copy.deepcopy(PAST_CAP)
    _at(doc, path[:-1])[path[-1]] = value


@st.composite
def corrupted_docs(draw):
    """A copy of a CORRUPTIBLE_DOCS document with one field corrupted, or two of
    one polygon, label or the top, so that the order of the checks shows."""
    doc = copy.deepcopy(draw(st.sampled_from(CORRUPTIBLE_DOCS)))
    polygon = ("polygons", draw(st.integers(0, len(doc["polygons"]) - 1)))
    label = ("labels", draw(st.integers(0, len(doc["labels"]) - 1)))
    for _ in range(draw(st.integers(1, 2))):
        try:
            corrupt(draw, doc, polygon, label)
        # the first took what the second corrupts, or left a coordinate _unreduce cannot read
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            pass
    return doc


@settings(deadline=None, max_examples=300)
@given(corrupted_docs())
def test_reader_fails_as_the_reference_does(doc):
    assert_read_alike(doc)


@pytest.mark.parametrize("doc", CORRUPTIBLE_DOCS, ids=["staircase", "layered"])
def test_reader_checks_an_items_fields_in_the_reference_order(doc):
    # every set of a polygon's or a label's fields given a value of the wrong type
    for item, wrong in ((("polygons", 1), {("vertices", 0): 7, ("role",): 7,
                                           ("layer_index",): "2", ("label",): 5}),
                        (("labels", 0), {("x",): 7, ("y",): None, ("text",): 1.5})):
        for chosen in itertools.product((False, True), repeat=len(wrong)):
            broken = copy.deepcopy(doc)
            for (*path, key), value in itertools.compress(wrong.items(), chosen):
                _at(broken, (*item, *path))[key] = value
            assert_read_alike(broken)


def reference_report_doc(report):
    """The `verify --format json` document of report as a dict, built key by key."""
    return {
        "schema": 1,
        "construction": report.construction_kind,
        "params": dict(report.params),
        "layers": [
            {
                "layer": layer.layer_index,
                "polygons": layer.polygon_count,
                "colored": layer.colored_count,
                "colored_area": fmt(layer.colored_area),
                "layer_area": fmt(layer.total_area),
                "colored_fraction": fmt(layer.colored_fraction),
                "expected_colored_area": fmt(layer.expected_colored_area),
                "expected_layer_area": fmt(layer.expected_total_area),
                "ok": layer.ok,
            }
            for layer in report.layers
        ],
        "tiled_area": fmt(report.tiled_area),
        "apex_remainder": fmt(report.apex_remainder),
        "figure_area": fmt(report.figure_area),
        "check": "pass" if report.ok else "fail",
        "mismatches": list(report.mismatches),
    }


def encoded(doc):
    """doc as json.dumps(indent=2) lays it out, with the trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


STREAMED_SCENES = st.one_of(
    st.builds(
        lambda q, p, layers: build_staircase_scene(StaircaseParams(Fraction(p % q or 1, q)), layers),
        st.integers(2, 50), st.integers(1, 49), st.integers(1, 12),
    ),
    st.builds(
        lambda m, layers: build_layered_scene(derive_config(m), layers),
        st.integers(2, 6), st.integers(1, 12),  # m >= 4 is the clamped picture
    ),
)


@given(STREAMED_SCENES)
def test_streamed_json_matches_the_indented_encoder(scene):
    assert "".join(scene_json_chunks(scene)) == encoded(reference_scene_doc(scene))
    assert scene_to_json(scene) == reference_scene_doc(scene)
    report = audit_scene(scene)
    assert "".join(report_json_chunks(report)) == encoded(reference_report_doc(report))
    assert report.as_dict() == reference_report_doc(report)


def test_streamed_json_with_empty_params_matches_the_indented_encoder():
    scene = build_staircase_scene(StaircaseParams(Fraction(3, 5)), 2)
    report = audit_scene(scene)._replace(params={})
    scene = scene._replace(params_echo={})
    text = "".join(scene_json_chunks(scene))
    assert text == encoded(reference_scene_doc(scene))
    assert '"params": {},' in text
    assert "".join(report_json_chunks(report)) == encoded(reference_report_doc(report))


# free text: one holding a quote, a backslash, a non-ASCII letter, control
# characters and %-format text, then json_template's FILL and ARRAY values alone
FREE_TEXTS = ('q"b\\e\u00e9c\x01\x00 5% %s', "\x00", "\x01")


def tampered_staircase():
    """s = 3/5, L = 3 with layer 1's colored piece 11 times as tall, params.r wrong, and
    FREE_TEXTS as params note0, note1, ... and as the texts of the first labels."""
    scene = build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3)
    polygons = list(scene.polygons)
    (r, w, top) = polygons[1].vertices
    polygons[1] = Polygon((r, w, Point(top.x, top.y * 11)), ROLE_COLORED, 1)
    params = {**scene.params_echo, "r": "1/5"}
    params.update({f"note{i}": text for i, text in enumerate(FREE_TEXTS)})
    labels = [(pt, text) for (pt, _), text in zip(scene.labels, FREE_TEXTS)]
    labels = (*labels, *scene.labels[len(FREE_TEXTS):])
    return scene._replace(polygons=tuple(polygons), labels=labels, params_echo=params)


def test_dict_forms_equal_the_reference_builders():
    tampered = tampered_staircase()
    report = audit_scene(tampered)
    assert [layer.ok for layer in report.layers] == [False, True, True]
    assert [m.split(":")[0] for m in report.mismatches] == [
        "params.r", "layer 1", "layer 1", "tiling",
    ]
    # layer 2's blank triangle (P, Q, R) split at the midpoint M of QR into (P, Q, M) and
    # (P, M, R): its counts fail, its areas still equal their expectations
    polygons = list(tampered.polygons)
    (i,) = [n for n, poly in enumerate(polygons)
            if poly.layer_index == 2 and poly.role == ROLE_BLANK]
    p, q, r = polygons[i].vertices
    mid = Point((q.x + r.x) / 2, (q.y + r.y) / 2)
    polygons[i : i + 1] = [Polygon((p, q, mid), ROLE_BLANK, 2), Polygon((p, mid, r), ROLE_BLANK, 2)]
    split = tampered._replace(polygons=tuple(polygons))
    report = audit_scene(split)
    assert [layer.ok for layer in report.layers] == [False, False, True]
    assert [m.split(":")[0] for m in report.mismatches] == [
        "params.r", "layer 1", "layer 1", "layer 2", "tiling",
    ]
    second = report.layers[1]
    assert second.colored_area == second.expected_colored_area
    assert second.total_area == second.expected_total_area
    for scene in (build_layered_scene(derive_config(4), 3), tampered, split):  # clamped m = 4
        doc = scene_to_json(scene)
        assert doc == reference_scene_doc(scene)
        assert list(doc) == list(reference_scene_doc(scene))  # key order too
        report = audit_scene(scene)
        assert report.as_dict() == reference_report_doc(report)
        assert list(report.as_dict()) == list(reference_report_doc(report))


def test_report_writer_compares_areas_by_value_not_identity():
    """A report whose areas are equal copies, not the audit's own Fraction objects,
    streams the same bytes."""

    def copied(q):
        return Fraction(q.numerator, q.denominator)

    for scene in (build_staircase_scene(StaircaseParams(Fraction(3, 5)), 40), tampered_staircase()):
        report = audit_scene(scene)
        copies = report._replace(layers=tuple(
            layer._replace(
                colored_area=copied(layer.colored_area),
                total_area=copied(layer.total_area),
                colored_fraction=copied(layer.colored_fraction),
                expected_colored_area=copied(layer.expected_colored_area),
                expected_total_area=copied(layer.expected_total_area),
            )
            for layer in report.layers
        ))
        assert all(c.total_area is not layer.total_area and c.total_area == layer.total_area
                   for c, layer in zip(copies.layers, report.layers))
        text = "".join(report_json_chunks(report))
        assert "".join(report_json_chunks(copies)) == text == encoded(reference_report_doc(report))


def test_free_text_comes_back_intact_from_every_writer(tmp_path, capsys):
    """Free text is encoded by json.dumps as it is written, never made part of a
    %-template: the scene file, scene_to_json, the exit-1 diagnostic and as_dict
    each give FREE_TEXTS back as they went in."""
    scene = tampered_staircase()
    path = tmp_path / "tampered.json"
    path.write_text("".join(scene_json_chunks(scene)), encoding="utf-8")
    notes = [f"note{i}" for i in range(len(FREE_TEXTS))]
    for doc in (json.loads(path.read_text(encoding="utf-8")), scene_to_json(scene)):
        assert [doc["params"][key] for key in notes] == list(FREE_TEXTS)
        assert [label["text"] for label in doc["labels"][: len(FREE_TEXTS)]] == list(FREE_TEXTS)
    assert main(["verify", "--from-scene", str(path)]) == 1
    diagnostic = json.loads(capsys.readouterr().out)
    for doc in (diagnostic, audit_scene(scene).as_dict()):
        assert doc["check"] == "fail"
        assert [doc["params"][key] for key in notes] == list(FREE_TEXTS)


def test_layer_with_different_denominators_is_audited_exactly():
    scene = build_staircase_scene(StaircaseParams(Fraction(3, 5)), 3)
    polygons = list(scene.polygons)
    (i, colored), (j, blank) = [(n, p) for n, p in enumerate(polygons) if p.layer_index == 2]
    # the same colored piece over 7 times its denominator: same values, same audit
    polygons[i] = Polygon.over(
        tuple(7 * x for x in colored.xs), tuple(7 * y for y in colored.ys), 7 * colored.den,
        ROLE_COLORED, 2,
    )
    assert polygons[i] == colored
    # the blank piece as Fractions, its left corner moved left by 1/3^40: a different
    # denominator and a larger area
    (r, w, a) = blank.vertices
    moved = Point(a.x - Fraction(1, 3**40), a.y)
    polygons[j] = Polygon((r, w, moved), ROLE_BLANK, 2)
    assert len({p.den for p in polygons if p.layer_index == 2}) == 2
    tampered = audit_scene(scene._replace(polygons=tuple(polygons)))
    second = tampered.layers[1]
    assert second.colored_area == second.expected_colored_area
    want_total = reference_area(colored.vertices) + reference_area((r, w, moved))
    assert second.total_area == want_total != second.expected_total_area
    assert second.colored_fraction == second.colored_area / want_total
    assert [layer.ok for layer in tampered.layers] == [True, False, True]
    tiled = audit_scene(scene).tiled_area
    assert tampered.tiled_area == tiled + want_total - second.expected_total_area
    assert [m.split(":")[0] for m in tampered.mismatches] == ["layer 2", "tiling"]


def reference_area_sums(polygons):
    """The earlier _area_sums: every shoelace sum rescaled to the lcm, even by 1."""
    d = _lcm([poly.den for poly in polygons])
    count = colored = total = 0
    for poly in polygons:
        cross = poly.cross * (d // poly.den) ** 2
        total += cross
        if poly.role == ROLE_COLORED:
            count += 1
            colored += cross
    return count, colored, total, 2 * d * d


def reference_equals(num, den, q):
    k, rest = divmod(den, q.denominator)
    return rest == 0 and num == q.numerator * k


def reference_audit_scene(scene):
    """The earlier audit_scene: Fraction expectations stepped by x at each layer, five
    Fraction fields per LayerAudit, and the tiling summed over a running lcm."""
    kind, echo = scene.construction_kind, scene.params_echo
    ratio, echoed, (derived, outline, (*_, a, b), layer1, figure) = _echoed_ratio(kind, echo)
    check_depth(scene.layers_rendered, ratio, "layers_rendered")
    want_count, want_colored_count, want_colored, want_total = layer1
    x = Fraction(a, b) ** 2
    basis = f"{_RATIO_KEY[kind]} = {fmt(ratio)}"
    mismatches = [
        f"params.{key}: echoed {echo[key]} != {want} derived from {basis}"
        for key, want in derived.items()
        if key in echoed and echoed[key] != parse(want)
    ]
    outlines = [poly.vertices for poly in scene.polygons if poly.role == ROLE_OUTLINE]
    if len(outlines) != 1 or outlines[0] not in [outline[i:] + outline[:i] for i in range(3)]:
        got = _points_text(outlines[0]) if len(outlines) == 1 else f"{len(outlines)} polygons"
        mismatches.append(
            f"outline: {got} != one polygon with the master triangle's vertices "
            f"(C, B, A) = {_points_text(outline)}, in this cyclic order"
        )
    by_layer = {k: [] for k in range(1, scene.layers_rendered + 1)}
    for poly in scene.polygons:
        if poly.role == ROLE_OUTLINE:
            continue
        if poly.layer_index is None or not 1 <= poly.layer_index <= scene.layers_rendered:
            raise ValueError("non-outline polygon without a valid layer index")
        by_layer[poly.layer_index].append(poly)
    layers = []
    tiled_num, tiled_den = 0, 1
    fraction_1 = want_colored / want_total
    for k, polys in by_layer.items():
        colored_count, colored_num, total_num, den = reference_area_sums(polys)
        tiled_den, old_den = _lcm((tiled_den, den)), tiled_den
        tiled_num = tiled_num * (tiled_den // old_den) + total_num * (tiled_den // den)
        colored_ok = reference_equals(colored_num, den, want_colored)
        total_ok = reference_equals(total_num, den, want_total)
        colored_area = want_colored if colored_ok else Fraction(colored_num, den)
        total_area = want_total if total_ok else Fraction(total_num, den)
        before = len(mismatches)
        if len(polys) != want_count or colored_count != want_colored_count:
            mismatches.append(
                f"layer {k}: polygon counts ({len(polys)}, {colored_count} colored) "
                f"!= expected ({want_count}, {want_colored_count} colored)"
            )
        if not colored_ok:
            mismatches.append(
                f"layer {k}: colored area {fmt(colored_area)} != "
                f"expected {fmt(want_colored)} (per-layer colored formula)"
            )
        if not total_ok:
            mismatches.append(
                f"layer {k}: layer area {fmt(total_area)} != "
                f"expected {fmt(want_total)} (layer area formula)"
            )
        if colored_ok and total_ok:
            fraction = fraction_1
        else:
            fraction = colored_area / total_area if polys else ZERO
        layers.append(LayerAudit(
            layer_index=k, polygon_count=len(polys), colored_count=colored_count,
            colored_area=colored_area, total_area=total_area, colored_fraction=fraction,
            expected_colored_area=want_colored, expected_total_area=want_total,
            ok=len(mismatches) == before,
        ))
        want_colored *= x
        want_total *= x
    tiled = Fraction(tiled_num, tiled_den)
    remainder = x ** scene.layers_rendered * figure
    if tiled + remainder != figure:
        mismatches.append(
            f"tiling: layers {fmt(tiled)} + apex remainder {fmt(remainder)} "
            f"!= figure area {fmt(figure)}"
        )
    return AuditReport(
        construction_kind=kind, params=dict(echo), layers=tuple(layers), tiled_area=tiled,
        apex_remainder=remainder, figure_area=figure, ok=not mismatches,
        mismatches=tuple(mismatches),
    )


def assert_audited_alike(scene):
    """audit_scene and the reference give equal reports, written to the same bytes."""
    report, want = audit_scene(scene), reference_audit_scene(scene)
    text = "".join(report_json_chunks(report))
    assert text == encoded(reference_report_doc(want)) == "".join(report_json_chunks(want))
    assert report == want and repr(report) == repr(want)
    return report


def verify_alike(monkeypatch, capsys, argv):
    """main(argv) with audit_scene, then with the reference audit: the same exit and text."""
    runs = []
    for audit in (audit_scene, reference_audit_scene):
        monkeypatch.setattr(cli, "audit_scene", audit)
        runs.append((main(argv), capsys.readouterr().out))
    assert runs[0] == runs[1]
    return runs[0]


def edited(scene, edit, i):
    """scene with one edit applied to its non-outline polygon number i (counted
    modulo their number): a scaled triangle, swapped roles, a dropped polygon,
    its whole layer dropped, a layer over two denominators or a changed echoed
    param."""
    polygons = list(scene.polygons)
    i = 1 + i % (len(polygons) - 1)
    poly = polygons[i]
    xs, ys, den = poly.xs, poly.ys, poly.den
    if edit == "scaled":  # 3 times as large about its first vertex
        polygons[i] = Polygon.over(tuple(3 * x - 2 * xs[0] for x in xs),
                                   tuple(3 * y - 2 * ys[0] for y in ys), den, poly.role,
                                   poly.layer_index)
    elif edit == "swapped":
        other = ROLE_BLANK if poly.role == ROLE_COLORED else ROLE_COLORED
        polygons[i] = Polygon.over(xs, ys, den, other, poly.layer_index)
    elif edit == "dropped":
        del polygons[i]
    elif edit == "emptied":  # every polygon of its layer dropped
        polygons = [p for p in polygons if p.layer_index != poly.layer_index]
    elif edit == "two denominators":  # over 7 den, its last vertex moved out by 1/(7 den)
        xs, ys = [7 * x for x in xs], [7 * y for y in ys]
        px, py = xs[1] - xs[0], ys[1] - ys[0]
        if px:
            ys[-1] += 1 if px > 0 else -1
        else:
            xs[-1] += -1 if py > 0 else 1
        polygons[i] = Polygon.over(tuple(xs), tuple(ys), 7 * den, poly.role, poly.layer_index)
    elif edit == "param":
        key = sorted(set(scene.params_echo) - {_RATIO_KEY[scene.construction_kind]})[
            i % (len(scene.params_echo) - 1)]
        value = scene.params_echo[key]
        value = fmt(parse(value) / 2) if "/" in value else str(int(value) + 1)
        return scene._replace(params_echo={**scene.params_echo, key: value})
    return scene._replace(polygons=tuple(polygons))


EDITS = ("scaled", "swapped", "dropped", "emptied", "two denominators", "param")
AUDITED = [
    pytest.param(kind, param, layers, id=f"{kind}-{param}-L{layers}")
    for kind, params in (("layered", (2, 3, 5)), ("staircase", (Fraction(1, 2), Fraction(3, 5))))
    for param in params
    for layers in (1, 6, 200, 500)
]


def built(kind, param, layers):
    if kind == "layered":
        return build_layered_scene(derive_config(param), layers)
    return build_staircase_scene(StaircaseParams(param), layers)


def scene_args(kind, param, layers):
    flag = ("--m", str(param), "--allow-infeasible") if kind == "layered" else ("--s", fmt(param))
    return ("--construction", kind, *flag, "--layers", str(layers))


@pytest.mark.parametrize("kind, param, layers", AUDITED)
def test_audit_matches_the_reference_audit(tmp_path, monkeypatch, capsys, kind, param, layers):
    scene = built(kind, param, layers)
    assert assert_audited_alike(scene).ok
    back = scene_from_json(scene_to_json(scene))
    assert_audited_alike(back)
    code, table = verify_alike(monkeypatch, capsys, ["verify", *scene_args(kind, param, layers)])
    assert code == 0 and table.endswith("check: pass\n")
    if layers <= 200:  # the same table from the scene file
        path = tmp_path / "scene.json"
        path.write_text("".join(scene_json_chunks(scene)), encoding="utf-8")
        assert verify_alike(monkeypatch, capsys, ["verify", "--from-scene", str(path)]) == (
            0, table)
    for n, edit in enumerate(EDITS):
        assert not assert_audited_alike(edited(scene, edit, n * layers + 1)).ok


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("kind, param", [("layered", 3), ("layered", 5),
                                         ("staircase", Fraction(3, 5))])
def test_a_tampered_file_fails_as_in_the_reference_audit(tmp_path, monkeypatch, capsys, kind,
                                                          param, edit):
    scene = edited(built(kind, param, 6), edit, 7)
    path = tmp_path / "tampered.json"
    path.write_text("".join(scene_json_chunks(scene)), encoding="utf-8")
    assert_audited_alike(scene_from_json(json.loads(path.read_text(encoding="utf-8"))))
    code, text = verify_alike(monkeypatch, capsys, ["verify", "--from-scene", str(path)])
    assert code == 1 and json.loads(text)["check"] == "fail"


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("layered"), st.integers(2, 7)),
        st.builds(lambda q, p: ("staircase", Fraction(p % q or 1, q)),
                  st.integers(2, 40), st.integers(1, 39)),
    ),
    st.integers(1, 12),
    st.sampled_from((None, *EDITS)),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_audit_matches_the_reference_on_random_edits(picture, layers, edit, i, read_back):
    scene = built(*picture, layers)
    if edit is not None:
        scene = edited(scene, edit, i)
    if read_back:
        scene = scene_from_json(scene_to_json(scene))
    assert assert_audited_alike(scene).ok == (edit is None)


def count_fractions(fn):
    """The number of Fractions made while fn() runs, counted at Fraction.__new__."""
    new = vars(Fraction)["__new__"]
    count = 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        fn()
    finally:
        Fraction.__new__ = new
    return count


def test_auditing_and_writing_make_as_many_fractions_at_any_depth(capsys):
    """The audit and both its printers make no Fraction per layer: staircase 3/5 makes
    as many at 50 layers as at 500."""
    counts = []
    for layers in (50, 500):
        scene = build_staircase_scene(StaircaseParams(Fraction(3, 5)), layers)
        back = scene_from_json(scene_to_json(scene))
        counts.append([
            count_fractions(lambda: "".join(report_json_chunks(audit_scene(scene)))),
            count_fractions(lambda: "".join(report_json_chunks(audit_scene(back)))),
            count_fractions(lambda: main(["verify", *scene_args("staircase", Fraction(3, 5),
                                                                 layers)])),
        ])
        capsys.readouterr()
    assert counts[0] == counts[1]


def reference_build_scene(kind, ratio, layers):
    """The earlier integer builder: every tile and label made up front, each layer's
    lines stepped by its own loop, and no layer 1 kept, so render and
    scene_json_chunks take a scene's general path."""
    echo, outline, frame, (per_layer, colored, *_), _ = _construction(kind, ratio)
    d1, xs, apex, top, a, b = frame
    check_depth(layers, ratio, "layers")
    if (count := layers * per_layer + 1) > MAX_POLYGONS:
        raise ValueError(f"layers {layers} draws {layers} x {per_layer} + 1 = {count} polygons, "
                         f"over the cap of {MAX_POLYGONS}")
    h, shrink = Fraction(apex, d1), Fraction(a, b)
    if kind == "layered":
        corners = [((i + 1, 0), (i + 2, 1), (i, 1)) for i in range(1, 2 * b - 2, 2)]
        corners += [((i, 0), (i + 2, 0), (i + 1, 1)) for i in range(0, 2 * b - 1, 2)]
        tiles = [(ROLE_COLORED if idx < colored else ROLE_BLANK, c) for idx, c in enumerate(corners)]
        e = Fraction(1, 20)
        vertex_labels = [
            (Point(ZERO, ONE + e), "A"), (Point(ONE + e, -e), "B"), (Point(-ONE - e, -e), "C"),
            (Point(shrink + e, ratio), "D"), (Point(-shrink - e, ratio), "E"),
        ]
        label_mid, label_dx = (ONE + shrink) / 2, Fraction(1, 4)
    else:
        tiles = [(ROLE_COLORED, ((1, 0), (2, 0), (1, 1))), (ROLE_BLANK, ((1, 0), (1, 1), (0, 1)))]
        vertex_labels = [(Point(ZERO, h + h / 20), "A"), (Point(h + h / 20, -h / 20), "B"),
                         (Point(h - 1, -h / 20), "C")]
        label_mid, label_dx = h - Fraction(1, 2), h / 10
    rule = (h, label_mid, label_dx)
    dl = math.lcm(d1, *[q.denominator for q in rule])
    apex_l, mid, dx = [q.numerator * (dl // q.denominator) for q in rule]
    polygons = [Polygon(outline, ROLE_OUTLINE)]
    labels = list(vertex_labels)
    u = v = 1  # shrink^(k-1) = u/v
    for k in range(1, layers + 1):
        x = [u * c for c in xs]
        y = (apex * (v - u), apex * v - u * (apex - top))  # the bottom and the top line
        d = d1 * v
        for role, corners in tiles:
            polygons.append(Polygon.over(
                tuple([x[i] for i, _ in corners]), tuple([y[j] for _, j in corners]), d, role, k
            ))
        labels.append((lattice_point(u * mid + v * dx, apex_l * v - u * mid, dl * v), f"layer {k}"))
        u *= a
        v *= b
    return Scene(tuple(polygons), tuple(labels), kind, echo, layers)


@st.composite
def pictures(draw):
    """(kind, ratio, layers): layered m = 2..12 (m >= 4 clamped), or staircase p/q,
    q <= 40, of 1 to 80 layers or to the depth cap, whichever is less."""
    if draw(st.booleans()):
        kind, ratio = "layered", Fraction(1, draw(st.one_of(st.integers(2, 12),
                                                            st.sampled_from([4, 5, 7]))))
    else:
        q = draw(st.integers(2, 40))
        kind, ratio = "staircase", Fraction(draw(st.integers(1, q - 1)), q)
    cap = MAX_DENOMINATOR_BITS // ratio.denominator.bit_length()
    return kind, ratio, draw(st.integers(1, min(cap, 80)))


def _build(kind, ratio, layers):
    if kind == "layered":
        return build_layered_scene(derive_config(ratio.denominator), layers)
    return build_staircase_scene(StaircaseParams(ratio), layers)


def _exact(scene):
    """Every polygon's and label's integers and text, as the scene holds them."""
    return ([(p.role, p.layer_index, p.xs, p.ys, p.den, p.cross) for p in scene.polygons],
            [(_point_parts(pt), text) for pt, text in scene.labels])


READS = {
    "polygons": lambda scene, ref, opts: (scene.polygons == ref.polygons
                                          and _exact(scene)[0] == _exact(ref)[0]),
    "labels": lambda scene, ref, opts: (scene.labels == ref.labels
                                        and _exact(scene)[1] == _exact(ref)[1]),
    "render": lambda scene, ref, opts: render(scene, opts) == render(ref, opts),
    "scene file": lambda scene, ref, opts: ("".join(scene_json_chunks(scene))
                                            == "".join(scene_json_chunks(ref))),
    "audit": lambda scene, ref, opts: ("".join(report_json_chunks(audit_scene(scene)))
                                       == "".join(report_json_chunks(audit_scene(ref)))),
    "==": lambda scene, ref, opts: scene == ref and ref == scene,
    "repr": lambda scene, ref, opts: repr(scene) == repr(ref),
}


@settings(max_examples=80, deadline=None)
@given(
    picture=pictures(),
    reads=st.permutations([*READS, "pickle"]),
    width=st.sampled_from([1, 7, 600, 10**6]),
    places=st.integers(1, 12),
    switches=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_a_built_scene_reads_as_the_eager_reference_in_any_order(picture, reads, width, places,
                                                                 switches):
    scene = _build(*picture)
    ref = reference_build_scene(*picture)
    labels, annotations, equilateral = switches
    opts = RenderOptions(canvas_width_px=width, decimal_places=places, show_labels=labels,
                         show_layer_annotations=annotations, equilateral_look=equilateral)
    for read in reads:
        if read == "pickle":  # the rest is read from the copy, which made no more than scene
            made = {"polygons", "labels"} & set(scene.__dict__)
            scene = pickle.loads(pickle.dumps(scene))
            assert "_layer1" in scene.__dict__
            assert {"polygons", "labels"} & set(scene.__dict__) == made
        else:
            assert READS[read](scene, ref, opts), read
    assert _exact(scene) == _exact(ref)


@pytest.mark.parametrize("kind, ratio, layers", [
    ("layered", Fraction(1, 3), 200), ("staircase", Fraction(3, 5), 500),
    ("layered", Fraction(1, 5), 20),
])
def test_a_deep_built_scene_reads_as_the_eager_reference(kind, ratio, layers):
    scene, ref = _build(kind, ratio, layers), reference_build_scene(kind, ratio, layers)
    assert render(scene) == render(ref)
    assert "".join(scene_json_chunks(scene)) == "".join(scene_json_chunks(ref))
    assert not {"polygons", "labels"} & set(scene.__dict__)  # neither reads them
    assert _exact(scene) == _exact(ref)
