"""Exact-rational coordinate realizations of both pictures, plus the area audit.

The layered master triangle is isoceles with vertices C=(-1,0), B=(1,0),
A=(0,1): area exactly 1 and every coordinate rational.  Affine shape does
not change any area ratio; the renderer applies a cosmetic stretch for an
equilateral look, but the audit always runs on these coordinates.

The staircase triangle is A=(0,h), B=(h,0), C=(h-1,0) with h = 1/(1-s);
colored piece k is the right triangle (R_k, W_{k-1}, W_k) with legs
s^(k-1), where W_0 = B, R_k = W_{k-1} - (s^(k-1), 0) and
W_k = R_k + (0, s^(k-1)).  Every W_k lies on AB and every R_k on AC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .construction import (
    LayeredParams,
    StaircaseParams,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
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

    `area` is its shoelace area, computed once by the orientation check.
    """

    vertices: tuple[Point, ...]
    role: str
    layer_index: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(self.vertices)}")
        if self.role not in (ROLE_COLORED, ROLE_BLANK, ROLE_OUTLINE):
            raise ValueError(f"unknown polygon role {self.role!r}")
        if self.area <= 0:
            raise ValueError("polygon must be counterclockwise with nonzero area")

    @cached_property
    def area(self) -> Rational:
        """Exact area; not a field, so ==, repr and scene JSON never see it."""
        return signed_area_twice(self.vertices) / 2


@dataclass(frozen=True)
class Scene:
    """A fully built picture: polygons, text labels, and parameter echo."""

    polygons: tuple[Polygon, ...]
    labels: tuple[tuple[Point, str], ...]
    construction_kind: str  # "layered" | "staircase"
    params_echo: dict[str, str]
    layers_rendered: int


def signed_area_twice(vertices: tuple[Point, ...]) -> Rational:
    """Twice the signed area, positive when counterclockwise (the shoelace sum).

    Every coordinate is put over one common denominator d, the lcm of the
    polygon's denominators, so the cross products are summed in plain ints
    and the only gcd is the one that reduces the result, total / d^2.
    """
    d = math.lcm(*[c.denominator for v in vertices for c in (v.x, v.y)])
    xs = [v.x.numerator * (d // v.x.denominator) for v in vertices]
    ys = [v.y.numerator * (d // v.y.denominator) for v in vertices]
    total = sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(xs)))
    return Fraction(total, d * d)


def shoelace_area(polygon: Polygon) -> Rational:
    """Exact positive area of a polygon: the shoelace area kept at its construction."""
    return polygon.area


def build_layered_scene(p: LayeredParams, layers: int) -> Scene:
    """Tessellated layered picture for r = 1/m, n = 2m-1.

    Each layer colors min(a, n) of its n triangles: an infeasible m has
    a = (m-1)^2 >= n, so its picture is the clamped one with every
    triangle colored.  The count is echoed as colored_per_layer.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    if p.r.numerator != 1:
        raise ValueError(
            f"layered tessellation requires a unit fraction r, got r = {fmt(p.r)}"
        )
    m = p.r.denominator
    if p.n != 2 * m - 1:
        raise ValueError(f"r = 1/{m} forces n = {2 * m - 1} triangles per layer, got n = {p.n}")
    colored = min(p.a, p.n)

    a_pt = Point(ZERO, ONE)
    b_pt = Point(ONE, ZERO)
    c_pt = Point(-ONE, ZERO)
    polygons = [Polygon((c_pt, b_pt, a_pt), ROLE_OUTLINE)]

    shrink = ONE - p.r
    labels = [
        (Point(ZERO, ONE + Fraction(1, 20)), "A"),
        (Point(ONE + Fraction(1, 20), -Fraction(1, 20)), "B"),
        (Point(-ONE - Fraction(1, 20), -Fraction(1, 20)), "C"),
        (Point(shrink + Fraction(1, 20), p.r), "D"),
        (Point(-shrink - Fraction(1, 20), p.r), "E"),
    ]
    t = ONE  # shrink ** (k - 1): half-width of layer k's bottom edge
    for k in range(1, layers + 1):
        t_next = t * shrink
        step = p.r * t  # half-base of each small triangle
        y_bot = ONE - t
        y_top = ONE - t_next
        x = [i * step - t for i in range(2 * m + 1)]  # triangle corners, left to right
        # coloring order: m-1 downward triangles left to right, then m upward
        for idx in range(p.n):
            if idx < m - 1:
                i = 2 * idx + 1
                verts = (Point(x[i + 1], y_bot), Point(x[i + 2], y_top), Point(x[i], y_top))
            else:
                i = 2 * (idx - m + 1)
                verts = (Point(x[i], y_bot), Point(x[i + 2], y_bot), Point(x[i + 1], y_top))
            role = ROLE_COLORED if idx < colored else ROLE_BLANK
            polygons.append(Polygon(verts, role, layer_index=k))
        mid = (t + t_next) / 2
        labels.append((Point(mid + Fraction(1, 4), ONE - mid), f"layer {k}"))
        t = t_next

    return Scene(
        polygons=tuple(polygons),
        labels=tuple(labels),
        construction_kind="layered",
        params_echo={
            "n": str(p.n),
            "a": str(p.a),
            "r": fmt(p.r),
            "m": str(m),
            "colored_per_layer": str(colored),
        },
        layers_rendered=layers,
    )


def build_staircase_scene(q: StaircaseParams, layers: int) -> Scene:
    """Repositioned staircase picture with L colored pieces and blank remainders."""
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    h = ONE / (ONE - q.s)
    a_pt = Point(ZERO, h)
    b_pt = Point(h, ZERO)
    c_pt = Point(h - 1, ZERO)
    polygons = [Polygon((c_pt, b_pt, a_pt), ROLE_OUTLINE)]

    labels = [
        (Point(ZERO, h + h / 20), "A"),
        (Point(h + h / 20, -h / 20), "B"),
        (Point(h - 1, -h / 20), "C"),
    ]
    label_dx = h / 10
    w_prev = b_pt
    leg = ONE  # q.s ** (k - 1)
    for k in range(1, layers + 1):
        r_k = Point(w_prev.x - leg, w_prev.y)
        w_k = Point(r_k.x, r_k.y + leg)
        leg *= q.s
        r_next = Point(w_k.x - leg, w_k.y)
        polygons.append(Polygon((r_k, w_prev, w_k), ROLE_COLORED, layer_index=k))
        polygons.append(Polygon((r_k, w_k, r_next), ROLE_BLANK, layer_index=k))
        labels.append(
            (Point((w_prev.x + w_k.x) / 2 + label_dx, (w_prev.y + w_k.y) / 2), f"layer {k}")
        )
        w_prev = w_k

    return Scene(
        polygons=tuple(polygons),
        labels=tuple(labels),
        construction_kind="staircase",
        params_echo={"s": fmt(q.s), "r": fmt(q.ratio)},
        layers_rendered=layers,
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


def _audit_layers(scene, expected):
    """Shared per-layer tally loop.

    expected(k) is layer k's (polygon count, colored count, colored area, layer area).
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
        want_count, want_colored_count, want_colored, want_total = expected(k)
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
    return layers, mismatches, tiled


def audit_scene(scene: Scene) -> AuditReport:
    """Check every polygon area against the construction formulas, exactly.

    Never raises on mismatch: failures come back as a report with
    ok=False and one message per broken equality.
    """
    L = scene.layers_rendered
    if scene.construction_kind == "layered":
        p = LayeredParams(
            n=int(scene.params_echo["n"]),
            a=int(scene.params_echo["a"]),
            r=parse(scene.params_echo["r"]),
        )
        colored_n = int(scene.params_echo.get("colored_per_layer", str(p.a)))
        layers, mismatches, tiled = _audit_layers(
            scene, lambda k: (p.n, colored_n, colored_n * triangle_area(p, k), layer_area(p, k))
        )
        remainder = (ONE - p.r) ** (2 * L)
        figure = ONE
    elif scene.construction_kind == "staircase":
        q = StaircaseParams(s=parse(scene.params_echo["s"]))
        layers, mismatches, tiled = _audit_layers(
            scene, lambda k: (2, 1, staircase_piece_area(q, k), staircase_layer_area(q, k))
        )
        figure = staircase_total_area(q)
        remainder = q.s ** (2 * L) * figure
    else:
        raise ValueError(f"unknown construction kind {scene.construction_kind!r}")

    if tiled + remainder != figure:
        mismatches.append(
            f"tiling: layers {fmt(tiled)} + apex remainder {fmt(remainder)} "
            f"!= figure area {fmt(figure)}"
        )
    return AuditReport(
        construction_kind=scene.construction_kind,
        params=dict(scene.params_echo),
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
                "label": poly.label,
            }
            for poly in scene.polygons
        ],
        "labels": [
            {"x": fmt(pt.x), "y": fmt(pt.y), "text": text} for pt, text in scene.labels
        ],
    }


# params the audit reads back, per construction kind; the last is the ratio
# whose denominator sets how deep layers_rendered may go
_AUDITED_PARAMS = {"layered": ("n", "a", "r"), "staircase": ("s",)}
_COUNT_PARAMS = ("n", "a", "colored_per_layer")
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
    if kind not in _AUDITED_PARAMS:
        raise ValueError(f"construction_kind: unknown construction {kind!r:.40}")
    params = _member(doc, "params", dict, "")
    for key in _AUDITED_PARAMS[kind]:
        if key not in params:
            raise ValueError(f"params.{key} is missing")
    for key in _COUNT_PARAMS + _RATIO_PARAMS:
        if key in params:
            _check_param(key, params[key])
    layers = _member(doc, "layers_rendered", int, "")
    if layers < 1:
        raise ValueError(f"layers_rendered must be >= 1, got {layers}")
    check_depth(layers, parse(params[_AUDITED_PARAMS[kind][-1]]), "layers_rendered")
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
        label = _member(entry, "label", str, path, optional=True)
        try:
            polygons.append(Polygon(tuple(points), role, layer_index, label))
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
