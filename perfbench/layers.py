"""Layer tracing: spans around calls into heatgrid's module-level functions.

A ``Tracer`` replaces the names that the program calls through with
wrappers that record one span per call, and puts the originals back when
its ``with`` block ends. Spans stay in memory as ``(layer, start, end,
parent)`` tuples; ``self_times`` folds them into per-layer self time, a
span's duration minus the durations of its child spans. A target that no
longer exists makes entering the tracer raise, so a renamed function fails
the traced run rather than reading 0. Nothing inside ``src/heatgrid`` is
changed.
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, owner, name). ``owner`` is a module, or ``module:attribute`` for a
#: class (the name is a method) or a dict (the name is a key). Several
#: targets may share a layer; their spans add up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.output", "heatgrid.cli", "cmd_run"),
    ("building.load", "heatgrid.cli", "load_building_file"),
    ("weather.load", "heatgrid.cli", "load_weather_file"),
    ("radiation.exchange_build", "heatgrid.tensor_solver", "build_exchange_matrix_2d"),
    ("conditions.boundary", "heatgrid.tensor_solver", "boundary_for_time"),
    ("solar.position", "heatgrid.conditions", "solar_position"),
    ("tensor_solver.self", "heatgrid.cli:SOLVERS", "tensor"),
    ("tensor_solver.shift", "heatgrid.tensor_solver", "shift_fields"),
    ("radiation.exterior_lw", "heatgrid.tensor_solver", "assemble_exterior_lw_tensor"),
    ("radiation.interior_lw", "heatgrid.radiation:RadiationExchangeMatrix",
     "surface_temperatures"),
    ("radiation.interior_lw", "heatgrid.tensor_solver", "apply_interior_lw"),
    ("radiation.interior_lw", "heatgrid.tensor_solver", "scatter_interior_lw"),
    ("radiation.solar", "heatgrid.tensor_solver", "assemble_solar_tensors"),
    ("mass.update", "heatgrid.tensor_solver", "update_mass"),
)

Span = Tuple[str, float, float, int]


def _owner(path: str):
    module, _, attribute = path.partition(":")
    owner = import_module(module)
    return getattr(owner, attribute) if attribute else owner


def _get(owner, name: str):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name: str, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def exchange_counts(matrix) -> Dict[str, float]:
    """Surface count and array footprint [MB] of an interior exchange matrix."""
    nbytes = sum(v.nbytes for v in vars(matrix).values() if hasattr(v, "nbytes"))
    return {"radiation.n_surfaces": float(matrix.n_surfaces),
            "radiation.exchange_mb": nbytes / 1e6}



class Tracer:
    """Installs span wrappers on ``TARGETS`` for the length of a ``with`` block."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def add(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller, outside any wrapper."""
        self.spans.append((layer, start, end, self._stack[-1] if self._stack else -1))

    def wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        return traced

    def __enter__(self) -> "Tracer":
        """Installs every wrapper; a target that does not exist raises ``LookupError``."""
        for layer, owner_path, name in TARGETS:
            try:
                owner = _owner(owner_path)
                original = _get(owner, name)
            except (ImportError, AttributeError, KeyError) as exc:
                self.__exit__()
                raise LookupError(f"cannot trace {owner_path}.{name}: {exc!r}") from exc
            self._installed.append((owner, name, original))
            _set(owner, name, self.wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            _set(owner, name, original)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time [s]: span durations minus their children's."""
        totals: Dict[str, float] = {}
        children = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - children[index]
        return totals
