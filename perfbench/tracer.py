"""In-memory span tracer that wraps nfold's layer functions from outside.

Each wrapped function is replaced, at the module attribute its caller
looks it up by, with a wrapper that records a span: name, layer, start,
end, parent and work counts.  ``driver`` binds ``validate``,
``reduce_instance``, ``build_plan``, ``base_tables_for_level``,
``fold_tables`` and ``verify_solution`` at import time, so those are
wrapped on ``nfold.driver``; ``fold_tables`` and ``base_tables_for_level``
look up ``convolve`` and ``block_base_table`` on ``nfold.dp`` at call
time.  The front ends bind ``solve`` as ``ilp_solve``, so the engine span
sits on ``nfold.driver.solve_with_trace``, which ``solve`` calls.

A target that no longer exists is skipped with a warning and the metrics
that depend on it are reported as ``None``; its time then shows up as
self time of the enclosing span (``driver.self_s`` for engine layers).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def _outcome_cells(outcome_and_trace) -> dict[str, int]:
    return {"dp_cells": outcome_and_trace[0].stats.get("dp_cells", 0)}


def _table_cells(table) -> dict[str, int]:
    return {"cells": len(table)}


def _plan_shape(plan) -> dict[str, int]:
    return {"levels": plan.levels, "support": plan.support}


def _convolve_pairs(args, kwargs) -> dict[str, int]:
    return {"pairs": len(args[0]) * len(args[1])}


def _combine_pairs(args, kwargs) -> dict[str, int]:
    return {"pairs": len(args[0].cells) * len(args[1])}


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it is looked up and what it counts."""

    module: str
    attr: str
    span: str
    layer: str
    before: Callable[[tuple, dict], dict[str, int]] | None = None
    after: Callable[[Any], dict[str, int]] | None = None


TARGETS = (
    Target("nfold.driver", "solve_with_trace", "driver.solve", "driver", after=_outcome_cells),
    Target("nfold.driver", "validate", "core.validate", "core.validate"),
    Target("nfold.driver", "reduce_instance", "reduction.reduce", "reduction"),
    Target("nfold.driver", "build_plan", "plan.build", "plan", after=_plan_shape),
    Target("nfold.driver", "base_tables_for_level", "dp.base", "dp.base"),
    Target("nfold.dp", "block_base_table", "dp.base_table", "dp.base", after=_table_cells),
    Target("nfold.driver", "fold_tables", "dp.fold", "dp.fold", after=_table_cells),
    Target("nfold.dp", "convolve", "dp.convolve", "dp.fold", before=_convolve_pairs, after=_table_cells),
    Target("nfold.driver", "_combine_levels", "driver.combine", "driver.combine",
           before=_combine_pairs, after=lambda cells: {"cells": len(cells)}),
    Target("nfold.driver", "reconstruct", "driver.reconstruct", "driver.reconstruct"),
    Target("nfold.driver", "verify_solution", "core.verify", "core.verify"),
    Target("nfold.scheduling", "decide_guess", "scheduling.guess", "scheduling"),
    Target("nfold.closest_string", "decide_distance", "closest_string.guess", "closest_string"),
    Target("nfold.imbalance", "_best_for_cover_order", "imbalance.order", "imbalance"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, int] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Records spans while installed; ``uninstall`` restores the library."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counts: dict[str, int] | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(target.span, target.layer)
            counts = target.before(args, kwargs) if target.before else {}
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, counts)
                raise
            if target.after:
                counts.update(target.after(result))
            self.close(index, counts)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            fn = getattr(module, target.attr, None)
            if not callable(fn):
                if target.span not in self.missing:
                    self.missing.append(target.span)
                    print(
                        f"perfbench: warning: {target.module}.{target.attr} not found;"
                        f" {target.span} metrics reported as null",
                        file=sys.stderr,
                    )
                continue
            self._saved.append((module, target.attr, fn))
            setattr(module, target.attr, self._wrap(target, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass
# ---------------------------------------------------------------------------

# metric -> (unit, spans it needs); a missing span makes the metric None.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "dp.fold_s": ("s", ("dp.fold",)),
    "dp.fold_cells": ("count", ("dp.fold",)),
    "dp.convolve_calls": ("count", ("dp.convolve",)),
    "dp.convolve_pairs": ("count", ("dp.convolve",)),
    "dp.convolve_cells": ("count", ("dp.convolve",)),
    "dp.convolve_yield": ("ratio", ("dp.convolve",)),
    "driver.combine_s": ("s", ("driver.combine",)),
    "driver.combine_calls": ("count", ("driver.combine",)),
    "driver.combine_pairs": ("count", ("driver.combine",)),
    "driver.combine_cells": ("count", ("driver.combine",)),
    "driver.combine_yield": ("ratio", ("driver.combine",)),
    "dp.base_s": ("s", ("dp.base",)),
    "dp.base_calls": ("count", ("dp.base_table",)),
    "dp.base_cells": ("count", ("dp.base_table",)),
    "plan.build_s": ("s", ("plan.build",)),
    "plan.levels_max": ("count", ("plan.build",)),
    "plan.support_max": ("count", ("plan.build",)),
    "core.validate_s": ("s", ("core.validate",)),
    "reduction.reduce_s": ("s", ("reduction.reduce",)),
    "driver.reconstruct_s": ("s", ("driver.reconstruct",)),
    "core.verify_s": ("s", ("core.verify",)),
    "driver.solves": ("count", ("driver.solve",)),
    "driver.solve_s": ("s", ("driver.solve",)),
    "driver.dp_cells": ("count", ("driver.solve",)),
    "driver.self_s": ("s", ("driver.solve",)),
    "scheduling.self_s": ("s", ()),
    "scheduling.guesses": ("count", ("scheduling.guess",)),
    "closest_string.self_s": ("s", ()),
    "closest_string.guesses": ("count", ("closest_string.guess",)),
    "imbalance.self_s": ("s", ()),
    "imbalance.orders": ("count", ("imbalance.order",)),
    "process.cpu_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
}


def pass_metrics(spans: list[Span], missing: list[str]) -> dict[str, float | None]:
    """Per-layer metrics over the spans of one pass."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], int] = {}
    maxima: dict[tuple[str, str], int] = {}
    for span in spans:
        self_s[span.layer] = self_s.get(span.layer, 0.0) + span.self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            sums[span.name, key] = sums.get((span.name, key), 0) + value
            maxima[span.name, key] = max(maxima.get((span.name, key), value), value)
    solve_s = sum(s.seconds for s in spans if s.name == "driver.solve")

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, float | None] = {
        "dp.fold_s": self_s.get("dp.fold", 0.0),
        "dp.fold_cells": sums.get(("dp.fold", "cells"), 0),
        "dp.convolve_calls": calls.get("dp.convolve", 0),
        "dp.convolve_pairs": sums.get(("dp.convolve", "pairs"), 0),
        "dp.convolve_cells": sums.get(("dp.convolve", "cells"), 0),
        "driver.combine_s": self_s.get("driver.combine", 0.0),
        "driver.combine_calls": calls.get("driver.combine", 0),
        "driver.combine_pairs": sums.get(("driver.combine", "pairs"), 0),
        "driver.combine_cells": sums.get(("driver.combine", "cells"), 0),
        "dp.base_s": self_s.get("dp.base", 0.0),
        "dp.base_calls": calls.get("dp.base_table", 0),
        "dp.base_cells": sums.get(("dp.base_table", "cells"), 0),
        "plan.build_s": self_s.get("plan", 0.0),
        "plan.levels_max": maxima.get(("plan.build", "levels"), 0),
        "plan.support_max": maxima.get(("plan.build", "support"), 0),
        "core.validate_s": self_s.get("core.validate", 0.0),
        "reduction.reduce_s": self_s.get("reduction", 0.0),
        "driver.reconstruct_s": self_s.get("driver.reconstruct", 0.0),
        "core.verify_s": self_s.get("core.verify", 0.0),
        "driver.solves": calls.get("driver.solve", 0),
        "driver.solve_s": solve_s,
        "driver.dp_cells": sums.get(("driver.solve", "dp_cells"), 0),
        "driver.self_s": self_s.get("driver", 0.0),
        "scheduling.self_s": self_s.get("scheduling", 0.0),
        "scheduling.guesses": calls.get("scheduling.guess", 0),
        "closest_string.self_s": self_s.get("closest_string", 0.0),
        "closest_string.guesses": calls.get("closest_string.guess", 0),
        "imbalance.self_s": self_s.get("imbalance", 0.0),
        "imbalance.orders": calls.get("imbalance.order", 0),
    }
    out["dp.convolve_yield"] = ratio(out["dp.convolve_cells"], out["dp.convolve_pairs"])
    out["driver.combine_yield"] = ratio(out["driver.combine_cells"], out["driver.combine_pairs"])
    for name, (_, needs) in LAYER_METRICS.items():
        if any(span in missing for span in needs):
            out[name] = None
    return out


# Self times that together make up driver.solve_s.
ENGINE_PARTS = (
    "driver.self_s", "core.validate_s", "reduction.reduce_s", "plan.build_s",
    "dp.base_s", "dp.fold_s", "driver.combine_s", "driver.reconstruct_s",
    "core.verify_s",
)


def median_metrics(passes: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Median of each metric over passes (counts repeat exactly per pass)."""
    return {
        name: None if passes[0][name] is None else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
