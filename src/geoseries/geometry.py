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
x = lam^2 is the series ratio.  One loop builds every layer of both
pictures from layer 1 and lam, and the audit evaluates the area formulas
at layer 1 only; the apex copy left after L layers has area x^L times
the figure's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
from .rational import ONE, ZERO, Rational, check_depth, fmt, parse

ROLE_COLORED = "colored"
ROLE_BLANK = "blank"
ROLE_OUTLINE = "outline"


@dataclass(frozen=True)
class Point:
    x: Rational
    y: Rational


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with distinct vertices in counterclockwise order.

    `area` is its exact shoelace area, set once by the orientation check;
    it is not a field, so ==, repr and scene JSON never see it.
    """

    vertices: tuple[Point, ...]
    role: str
    layer_index: int | None = None

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(self.vertices)}")
        if self.role not in (ROLE_COLORED, ROLE_BLANK, ROLE_OUTLINE):
            raise ValueError(f"unknown polygon role {self.role!r}")
        total, d = _shoelace(self.vertices)
        if total <= 0:
            raise ValueError("polygon must be counterclockwise with nonzero area")
        object.__setattr__(self, "area", Fraction(total, 2 * d * d))


@dataclass(frozen=True)
class Scene:
    """A fully built picture: polygons, text labels, and parameter echo."""

    polygons: tuple[Polygon, ...]
    labels: tuple[tuple[Point, str], ...]
    construction_kind: str  # "layered" | "staircase"
    params_echo: dict[str, str]
    layers_rendered: int


def _shoelace(vertices: tuple[Point, ...]) -> tuple[int, int]:
    """(total, d): twice the signed area is total / d^2, in plain ints.

    Every coordinate is put over one common denominator d, the lcm of the
    polygon's denominators, so the cross products are summed in plain ints
    and no gcd is taken.
    """
    d = math.lcm(*[c.denominator for v in vertices for c in (v.x, v.y)])
    xs = [v.x.numerator * (d // v.x.denominator) for v in vertices]
    ys = [v.y.numerator * (d // v.y.denominator) for v in vertices]
    return sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(xs))), d


def signed_area_twice(vertices: tuple[Point, ...]) -> Rational:
    """Twice the signed area, positive when counterclockwise (the shoelace sum)."""
    total, d = _shoelace(vertices)
    return Fraction(total, d * d)


def shoelace_area(polygon: Polygon) -> Rational:
    """Exact positive area of a polygon: the shoelace area kept at its construction."""
    return polygon.area


def _build_scene(kind, params_echo, layers, *, outline, vertex_labels, shrink, xs, tiles,
                 label_mid, label_dx) -> Scene:
    """The picture of `layers` layers: layer k is layer 1 shrunk toward A by shrink^(k-1).

    outline is (C, B, A), C and B on the base y = 0 and the apex A = (0, apex_y),
    so AB lies on x + y = apex_y.  Layer 1, from the base to y = apex_y (1 -
    shrink), is given by its distinct x-coordinates xs and its tiles (role,
    corners), a corner being an (xs index, 0 bottom or 1 top line) pair; its
    label sits label_dx, a shift that does not shrink, right of the point
    of AB with x = label_mid.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    apex_y = outline[-1].y
    polygons = [Polygon(outline, ROLE_OUTLINE)]
    labels = list(vertex_labels)
    t = ONE
    y_bottom = ZERO
    for k in range(1, layers + 1):
        x = [t * v for v in xs]
        mid = t * label_mid
        t *= shrink
        y = (y_bottom, apex_y - t * apex_y)
        for role, corners in tiles:
            polygons.append(Polygon(tuple([Point(x[i], y[j]) for i, j in corners]), role, k))
        labels.append((Point(mid + label_dx, apex_y - mid), f"layer {k}"))
        y_bottom = y[1]
    return Scene(tuple(polygons), tuple(labels), kind, params_echo, layers)


def build_layered_scene(p: LayeredParams, layers: int) -> Scene:
    """Tessellated layered picture for r = 1/m, n = 2m-1.

    Each layer colors min(a, n) of its n triangles: an infeasible m has
    a = (m-1)^2 >= n, so its picture is the clamped one with every
    triangle colored.  The count is echoed as colored_per_layer.
    """
    if p.r.numerator != 1:
        raise ValueError(
            f"layered tessellation requires a unit fraction r, got r = {fmt(p.r)}"
        )
    m = p.r.denominator
    if p.n != 2 * m - 1:
        raise ValueError(f"r = 1/{m} forces n = {2 * m - 1} triangles per layer, got n = {p.n}")
    colored = min(p.a, p.n)
    shrink = ONE - p.r
    # coloring order: m-1 downward triangles left to right, then m upward;
    # corner i of layer 1 lies at x = i r - 1, between y = 0 and y = r
    tiles = []
    for idx in range(p.n):
        if idx < m - 1:
            i = 2 * idx + 1
            corners = ((i + 1, 0), (i + 2, 1), (i, 1))
        else:
            i = 2 * (idx - m + 1)
            corners = ((i, 0), (i + 2, 0), (i + 1, 1))
        tiles.append((ROLE_COLORED if idx < colored else ROLE_BLANK, corners))
    return _build_scene(
        "layered",
        {"n": str(p.n), "a": str(p.a), "r": fmt(p.r), "m": str(m),
         "colored_per_layer": str(colored)},
        layers,
        outline=(Point(-ONE, ZERO), Point(ONE, ZERO), Point(ZERO, ONE)),
        vertex_labels=[
            (Point(ZERO, ONE + Fraction(1, 20)), "A"),
            (Point(ONE + Fraction(1, 20), -Fraction(1, 20)), "B"),
            (Point(-ONE - Fraction(1, 20), -Fraction(1, 20)), "C"),
            (Point(shrink + Fraction(1, 20), p.r), "D"),
            (Point(-shrink - Fraction(1, 20), p.r), "E"),
        ],
        shrink=shrink, xs=[Fraction(i - m, m) for i in range(2 * m + 1)], tiles=tiles,
        label_mid=(ONE + shrink) / 2, label_dx=Fraction(1, 4),  # midpoint of B and D
    )


def build_staircase_scene(q: StaircaseParams, layers: int) -> Scene:
    """Repositioned staircase picture with L colored pieces and blank remainders.

    Layer 1 is (C, B, W_1) and (C, W_1, R_2); as h - 1 = s h, W_1 is B shrunk by s.
    """
    h = ONE / (ONE - q.s)
    return _build_scene(
        "staircase",
        {"s": fmt(q.s), "r": fmt(q.ratio)},
        layers,
        outline=(Point(h - 1, ZERO), Point(h, ZERO), Point(ZERO, h)),
        vertex_labels=[
            (Point(ZERO, h + h / 20), "A"),
            (Point(h + h / 20, -h / 20), "B"),
            (Point(h - 1, -h / 20), "C"),
        ],
        shrink=q.s, xs=[h - 1 - q.s, h - 1, h],
        tiles=[(ROLE_COLORED, ((1, 0), (2, 0), (1, 1))), (ROLE_BLANK, ((1, 0), (1, 1), (0, 1)))],
        label_mid=h - Fraction(1, 2), label_dx=h / 10,  # midpoint of B and W_1
    )


@dataclass(frozen=True)
class LayerAudit:
    layer_index: int
    polygon_count: int
    colored_count: int
    colored_area: Rational
    total_area: Rational
    colored_fraction: Rational
    expected_colored_area: Rational
    expected_total_area: Rational
    ok: bool

    def as_dict(self) -> dict:
        return {
            "layer": self.layer_index,
            "polygons": self.polygon_count,
            "colored": self.colored_count,
            "colored_area": fmt(self.colored_area),
            "layer_area": fmt(self.total_area),
            "colored_fraction": fmt(self.colored_fraction),
            "expected_colored_area": fmt(self.expected_colored_area),
            "expected_layer_area": fmt(self.expected_total_area),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class AuditReport:
    """Per-layer exact tallies of a scene against the analytic formulas."""

    construction_kind: str
    params: dict[str, str]
    layers: tuple[LayerAudit, ...]
    tiled_area: Rational
    apex_remainder: Rational
    figure_area: Rational
    ok: bool
    mismatches: tuple[str, ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "construction": self.construction_kind,
            "params": dict(self.params),
            "layers": [layer.as_dict() for layer in self.layers],
            "tiled_area": fmt(self.tiled_area),
            "apex_remainder": fmt(self.apex_remainder),
            "figure_area": fmt(self.figure_area),
            "check": "pass" if self.ok else "fail",
            "mismatches": list(self.mismatches),
        }


def _audit_layers(scene, want_count, want_colored_count, colored_area_1, layer_area_1, x):
    """Shared per-layer tally loop, against layer 1 shrunk by x^(k-1).

    Layer k must hold want_count polygons, want_colored_count of them
    colored, with colored area colored_area_1 x^(k-1) and layer area
    layer_area_1 x^(k-1).  Returns (layer audits, mismatches, tiled area, x^L).
    """
    layers = []
    mismatches = []
    tiled = ZERO
    by_layer: dict[int, list[Polygon]] = {k: [] for k in range(1, scene.layers_rendered + 1)}
    for poly in scene.polygons:
        if poly.role == ROLE_OUTLINE:
            continue
        if poly.layer_index is None or not 1 <= poly.layer_index <= scene.layers_rendered:
            raise ValueError("non-outline polygon without a valid layer index")
        by_layer[poly.layer_index].append(poly)
    scale = ONE  # x^(k-1)
    for k in range(1, scene.layers_rendered + 1):
        polys = by_layer[k]
        colored_count = 0
        colored_area = total_area = ZERO
        for poly in polys:
            area = shoelace_area(poly)
            total_area += area
            if poly.role == ROLE_COLORED:
                colored_count += 1
                colored_area += area
        tiled += total_area
        want_colored = colored_area_1 * scale
        want_total = layer_area_1 * scale
        scale *= x
        ok = True
        if len(polys) != want_count or colored_count != want_colored_count:
            ok = False
            mismatches.append(
                f"layer {k}: polygon counts ({len(polys)}, {colored_count} colored) "
                f"!= expected ({want_count}, {want_colored_count} colored)"
            )
        if colored_area != want_colored:
            ok = False
            mismatches.append(
                f"layer {k}: colored area {fmt(colored_area)} != "
                f"expected {fmt(want_colored)} (per-layer colored formula)"
            )
        if total_area != want_total:
            ok = False
            mismatches.append(
                f"layer {k}: layer area {fmt(total_area)} != "
                f"expected {fmt(want_total)} (layer area formula)"
            )
        layers.append(
            LayerAudit(
                layer_index=k,
                polygon_count=len(polys),
                colored_count=colored_count,
                colored_area=colored_area,
                total_area=total_area,
                colored_fraction=colored_area / total_area if polys else ZERO,
                expected_colored_area=want_colored,
                expected_total_area=want_total,
                ok=ok,
            )
        )
    return layers, mismatches, tiled, scale


def _layered_params(r: Rational) -> LayeredParams:
    """derive_config(m) for r = 1/m; ValueError naming params.r for any other r."""
    if r.numerator != 1:
        raise ValueError(f"params.r must be 1/m for a layered scene, got {fmt(r)!r:.40}")
    return derive_config(r.denominator)


def audit_scene(scene: Scene) -> AuditReport:
    """Check every polygon area against the construction formulas, exactly.

    Only the ratio is read: layered r = 1/m gives n, a and the colored
    count through derive_config, and staircase s gives r = s^2.  Every
    other echoed param must equal its derived value.  Layer k is layer 1
    shrunk by x^(k-1) in area, x the series ratio, so the formulas are
    evaluated at layer 1 only and the apex remainder is x^L times the
    figure.  Never raises on mismatch: failures come back as a report
    with ok=False and one message per broken equality.
    """
    echo = scene.params_echo
    if scene.construction_kind == "layered":
        r = parse(echo["r"])
        p = _layered_params(r)
        colored = min(p.a, p.n)
        basis = f"r = {fmt(r)}"
        derived = {"n": p.n, "a": p.a, "m": r.denominator, "colored_per_layer": colored}
        layer_1 = (p.n, colored, colored * triangle_area(p, 1), layer_area(p, 1))
        x = (ONE - r) ** 2
        figure = ONE
    elif scene.construction_kind == "staircase":
        q = StaircaseParams(s=parse(echo["s"]))
        basis = f"s = {fmt(q.s)}"
        derived = {"r": q.ratio}
        layer_1 = (2, 1, staircase_piece_area(q, 1), staircase_layer_area(q, 1))
        x = q.ratio
        figure = staircase_total_area(q)
    else:
        raise ValueError(f"unknown construction kind {scene.construction_kind!r}")

    mismatches = [
        f"params.{key}: echoed {echo[key]} != {fmt(want)} derived from {basis}"
        for key, want in derived.items()
        if key in echo and parse(echo[key]) != want
    ]
    layers, layer_mismatches, tiled, x_to_L = _audit_layers(scene, *layer_1, x)
    mismatches += layer_mismatches
    remainder = x_to_L * figure
    if tiled + remainder != figure:
        mismatches.append(
            f"tiling: layers {fmt(tiled)} + apex remainder {fmt(remainder)} "
            f"!= figure area {fmt(figure)}"
        )
    return AuditReport(
        construction_kind=scene.construction_kind,
        params=dict(echo),
        layers=tuple(layers),
        tiled_area=tiled,
        apex_remainder=remainder,
        figure_area=figure,
        ok=not mismatches,
        mismatches=tuple(mismatches),
    )


def scene_to_json(scene: Scene) -> dict:
    """JSON-ready document; every coordinate is a canonical "p/q" string."""
    return {
        "schema": 1,
        "construction_kind": scene.construction_kind,
        "params": dict(scene.params_echo),
        "layers_rendered": scene.layers_rendered,
        "polygons": [
            {
                "vertices": [[fmt(v.x), fmt(v.y)] for v in poly.vertices],
                "role": poly.role,
                "layer_index": poly.layer_index,
                "label": None,
            }
            for poly in scene.polygons
        ],
        "labels": [
            {"x": fmt(pt.x), "y": fmt(pt.y), "text": text} for pt, text in scene.labels
        ],
    }


# the ratio the audit reads back, per construction kind; its denominator
# sets how deep layers_rendered may go
_AUDITED_RATIO = {"layered": "r", "staircase": "s"}
_COUNT_PARAMS = ("n", "a", "m", "colored_per_layer")
_RATIO_PARAMS = ("r", "s")
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _fits(value, kind: type, optional: bool) -> bool:
    """True if value is a `kind` (bool never counts as int), or None when optional."""
    return (value is None and optional) or (isinstance(value, kind) and not isinstance(value, bool))


def _wrong_type(value, kind: type, path: str) -> ValueError:
    return ValueError(f"{path} must be {_JSON_KINDS[kind]}, got {value!r:.40}")


def _typed(value, kind: type, path: str):
    """value if it is a `kind`, else ValueError naming path."""
    if _fits(value, kind, False):
        return value
    raise _wrong_type(value, kind, path)


def _member(obj: dict, key: str, kind: type, path: str, optional: bool = False):
    """obj[key] if it is a `kind`; a missing key is None when optional."""
    value = obj.get(key)
    if _fits(value, kind, optional):
        return value
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise ValueError(f"{where} is missing")
    raise _wrong_type(value, kind, where)


def _point(pair) -> Point:
    """The Point of an ["x", "y"] pair of "p/q" strings."""
    if isinstance(pair, list) and len(pair) == 2:
        x, y = pair
        if isinstance(x, str) and isinstance(y, str):
            return Point(parse(x), parse(y))
    raise ValueError(f'must be an ["x", "y"] pair of "p/q" strings, got {pair!r:.40}')


def _check_param(key: str, value) -> None:
    """ValueError naming params.<key> unless value is what the audit reads.

    Counts are integers >= 1, as decimal strings or JSON integers; ratios
    are "p/q" strings in (0, 1).
    """
    try:
        if key in _COUNT_PARAMS:
            want = "an integer >= 1"
            text = str(value) if _fits(value, int, False) else value
            ok = isinstance(text, str) and text.isascii() and text.isdigit() and int(text) >= 1
        else:
            want = 'a "p/q" string in (0, 1)'
            ok = isinstance(value, str) and 0 < parse(value) < 1
    except ValueError:  # not a rational, or too many digits to convert
        ok = False
    if not ok:
        raise ValueError(f"params.{key} must be {want}, got {value!r:.40}")


def scene_from_json(doc) -> Scene:
    """Inverse of scene_to_json; checks the schema version and the document's shape.

    Anything malformed raises ValueError naming where, e.g.
    ``polygons[3].vertices[1]: invalid literal for int() ...``.
    """
    _typed(doc, dict, "scene")
    schema = doc.get("schema")
    if type(schema) is not int or schema != 1:
        raise ValueError(f"unsupported scene schema: {schema!r:.40}")
    kind = _member(doc, "construction_kind", str, "")
    if kind not in _AUDITED_RATIO:
        raise ValueError(f"construction_kind: unknown construction {kind!r:.40}")
    params = _member(doc, "params", dict, "")
    ratio_key = _AUDITED_RATIO[kind]
    if ratio_key not in params:
        raise ValueError(f"params.{ratio_key} is missing")
    for key in _COUNT_PARAMS + _RATIO_PARAMS:
        if key in params:
            _check_param(key, params[key])
    ratio = parse(params[ratio_key])
    if kind == "layered":
        _layered_params(ratio)
    layers = _member(doc, "layers_rendered", int, "")
    if layers < 1:
        raise ValueError(f"layers_rendered must be >= 1, got {layers}")
    check_depth(layers, ratio, "layers_rendered")
    polygons = []
    for i, entry in enumerate(_member(doc, "polygons", list, "")):
        path = f"polygons[{i}]"
        _typed(entry, dict, path)
        vertices = _member(entry, "vertices", list, path)
        points = []
        for j, pair in enumerate(vertices):
            try:
                points.append(_point(pair))
            except ValueError as exc:
                raise ValueError(f"{path}.vertices[{j}]: {exc}") from None
        role = _member(entry, "role", str, path)
        layer_index = _member(entry, "layer_index", int, path, optional=True)
        _member(entry, "label", str, path, optional=True)
        try:
            polygons.append(Polygon(tuple(points), role, layer_index))
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
            point = _point(pair)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        labels.append((point, _member(entry, "text", str, path)))
    return Scene(
        polygons=tuple(polygons),
        labels=tuple(labels),
        construction_kind=kind,
        params_echo={k: str(v) for k, v in params.items()},
        layers_rendered=layers,
    )
