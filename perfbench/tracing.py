"""Span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side of each module boundary: the
traced worker rebinds the names through which ``geoseries.cli`` (and, one
level down, ``geoseries.geometry`` and ``geoseries.render``) reach the
public functions of the other modules, so ``cli.main`` runs unchanged but
every call it makes into another layer opens a span.  Nothing under
``src/`` is modified; the rebinding lives only in the worker process.

Each span's *self* time is its duration minus the spans nested in it, so
the self times of one command add up to the command's traced time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name, keep the call's arguments and result)
# The audit's expected-area formulas are reached through geometry's
# namespace; layout through render's.  Everything else is a name cli imports.
INSTRUMENTED = (
    ("geoseries.cli", "enumerate_feasible", "feasibility.enumerate", True),
    ("geoseries.cli", "derive_config", "feasibility.derive", False),
    ("geoseries.cli", "partial_sum_closed", "series.partial_sum", False),
    ("geoseries.cli", "build_layered_scene", "geometry.build", True),
    ("geoseries.cli", "build_staircase_scene", "geometry.build", True),
    ("geoseries.cli", "audit_scene", "geometry.audit", False),
    ("geoseries.cli", "scene_to_json", "geometry.to_json", True),
    ("geoseries.cli", "scene_from_json", "geometry.from_json", True),
    ("geoseries.cli", "render", "render.render", True),
    ("geoseries.render", "layout", "render.layout", False),
    ("geoseries.geometry", "shoelace_area", "geometry.shoelace", False),
    ("geoseries.geometry", "triangle_area", "construction.formula", False),
    ("geoseries.geometry", "layer_area", "construction.formula", False),
    ("geoseries.geometry", "staircase_piece_area", "construction.formula", False),
    ("geoseries.geometry", "staircase_layer_area", "construction.formula", False),
    ("geoseries.geometry", "staircase_total_area", "construction.formula", False),
)


class Tracer:
    """In-memory span totals: self nanoseconds and call count per span name.

    Self time is taken per command (take_self_ns); call counts add up over
    the whole pass.
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.captured: list[tuple[str, tuple, object]] = []
        self._open: list[int] = []  # child nanoseconds of each open span

    def wrap(self, name: str, fn, capture: bool = False):
        """fn, timed as span `name`; with capture, (name, args, result) is kept."""
        open_spans = self._open
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child_ns = open_spans.pop()
                self_ns[name] += duration - child_ns
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if capture:
                self.captured.append((name, args, result))
            return result

        return traced

    def take_captured(self) -> list[tuple[str, tuple, object]]:
        captured, self.captured = self.captured, []
        return captured

    def take_self_ns(self) -> dict[str, int]:
        """Self nanoseconds per span since the last call; call between commands."""
        taken = dict(self.self_ns)
        self.self_ns.clear()
        return taken


def instrument(tracer: Tracer) -> None:
    """Rebind every INSTRUMENTED name to a span wrapper, for this process's lifetime."""
    for module_name, attr, span, capture in INSTRUMENTED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), capture))
