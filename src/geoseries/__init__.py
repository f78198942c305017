"""Exact-rational proof-without-words pictures for geometric series."""

from .construction import (
    LayeredParams,
    StaircaseParams,
    colored_area_partial,
    colored_limit,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
from .feasibility import (
    FeasibilityReport,
    brute_force_scan,
    check_bound,
    check_square_constraint,
    derive_config,
    enumerate_feasible,
)
from .geometry import (
    AuditReport,
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
from .rational import Rational, fmt, parse
from .render import RenderOptions, format_coordinate, layout, render
from .series import layer_term, partial_sum_closed, partial_sum_naive

__version__ = "0.1.0"
