"""Divide-and-conquer doubling solver for combinatorial n-fold programs.

The solver walks the level plan bottom-up maintaining one point set per
level: the set of shared-row vectors reachable by the doubled prefix of
the plan.  Level 1 is the bottom small set; every later level combines

    N(i) = { 2*p + q  :  p in N(i-1),  q in small-set(i) }

and keeps only points that can still reach ``b_up`` after the remaining
doublings.  A point retained at level i must satisfy the exact integer
window (e = levels - i)

    ceil((b_up_j - D*(2^e - 1)) / 2^e)  <=  v_j  <=  b_up_j // 2^e

which is the classical +-D box around ``b_up / 2^e`` tightened one-sidedly:
after the sign reduction every level contribution is nonnegative, so the
remaining levels can only add to ``2^e * v``.  At the top level (e = 0)
the window collapses to exactly ``b_up`` — feasibility is then simply
"is the top set nonempty".

The combine is ``dp.sumset`` at scale 2 (the in-level fold runs it at
scale 1): a box probe or a sorted-axis range index, and on value ties
a point keeps the first witness in sorted ``(p, q)`` order.

Witnesses are pairs (parent point, small point) per level; decoding
walks them down and recombines ``x = sum_i 2^(levels-i) * x~(i)``.
Objective values double along the same recursion (values are additive
and ``c`` is required to be nonnegative, so doubled prefixes stay
optimal substructures).  The decoded solution is re-verified; a
failure raises ``InternalError``, also under ``python -O``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    MODE_FEASIBILITY,
    MODE_OPTIMIZE,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    InternalError,
    NFoldInstance,
    Solution,
    SolveOutcome,
    Stopwatch,
    objective_value,
    validate,
    verify_solution,
)
from .dp import PointTable, base_tables_for_level, fold_tables, sumset
from .plan import IterationPlan, _ceil_div, build_plan
from .reduction import ReducedInstance, map_back, reduce_instance

logger = logging.getLogger(__name__)


@dataclass
class LevelSet:
    """Retained points of one level with back-pointers for decoding."""

    level: int
    # point -> (value, parent point or None, small point)
    cells: dict[tuple[int, ...], tuple]
    small: PointTable


@dataclass
class SolveTrace:
    """Everything the solver saw, for invariant checks in tests."""

    original: NFoldInstance
    reduced: ReducedInstance
    plan: IterationPlan | None = None
    windows: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    levels: list[LevelSet] = field(default_factory=list)


def level_window(
    b_up: Sequence[int], radius: int, levels: int, level: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-axis retention window for level ``level`` (1-based)."""
    e = levels - level
    scale = 1 << e
    lo = tuple(
        max(0, _ceil_div(v - radius * (scale - 1), scale)) for v in b_up
    )
    hi = tuple(v // scale for v in b_up)
    return lo, hi


def _combine_levels(
    prev: LevelSet,
    small: PointTable,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> dict[tuple[int, ...], tuple]:
    """Every ``2*p + q`` in ``[lo, hi]``: ``dp.sumset`` at scale 2.

    Values are ``2*value(p) + value(q)``; ties keep the first witness in
    sorted ``(p, q)`` order.  The kernel probes the window box in the
    small set when the box is no larger, else bisects a sorted index.
    """
    return sumset(prev.cells, small.cells, 2, lo, hi)


def reconstruct(levels: Sequence[LevelSet], b_up: Sequence[int]) -> list[tuple[int, ...]]:
    """Decode the witness chain ending at ``b_up`` into brick vectors.

    Returns one counts tuple per brick: ``x_k = sum_i 2^(I-i) * x~k(i)``.
    Checks the doubling identity at every step; a violation raises
    ``InternalError``: a corrupt witness is a bug, never an input problem.
    """
    if not levels:
        raise ValueError("reconstruct needs at least one level")
    depth = len(levels)
    target = tuple(b_up)
    per_block: dict[int, list[int]] = {}

    for level_set in reversed(levels):
        cell = level_set.cells.get(target)
        if cell is None:
            raise InternalError(
                f"corrupt witness: {target} missing at level {level_set.level}"
            )
        _, parent_pt, small_pt = cell
        if level_set.level > 1 and (
            parent_pt is None
            or any(2 * p + q != v for p, q, v in zip(parent_pt, small_pt, target))
        ):
            raise InternalError("corrupt witness: doubling identity violated")
        weight = 1 << (depth - level_set.level)
        for w in level_set.small.decode(small_pt):
            acc = per_block.setdefault(w.block, [0] * len(w.counts))
            for j, cnt in enumerate(w.counts):
                acc[j] += weight * cnt
        target = parent_pt
    return [tuple(per_block[k]) for k in sorted(per_block)]


def solve_with_trace(
    inst: NFoldInstance, mode: str = MODE_FEASIBILITY
) -> tuple[SolveOutcome, SolveTrace]:
    """Solve and also return the internal level sets for inspection."""
    if mode not in (MODE_FEASIBILITY, MODE_OPTIMIZE):
        raise ValueError(f"unknown mode: {mode!r}")
    validate(inst)
    if mode == MODE_OPTIMIZE:
        if inst.c is None:
            raise ValueError("optimize mode requires a cost vector")
        for i, cv in enumerate(inst.c):
            if cv < 0:
                raise ValueError(
                    f"optimize mode requires nonnegative costs, c[{i}] = {cv}"
                )

    watch = Stopwatch()
    reduced = reduce_instance(inst)
    work = reduced.instance
    trace = SolveTrace(original=inst, reduced=reduced)

    def finish_infeasible(iterations: int, cells: int) -> SolveOutcome:
        return SolveOutcome(
            status=STATUS_INFEASIBLE,
            stats={
                "iterations": iterations,
                "dp_cells": cells,
                "wall_time_s": watch.seconds(),
            },
        )

    # A shifted instance has nonnegative matrices; negative shared-row
    # targets are then unreachable outright.
    if any(v < 0 for v in work.b_up):
        return finish_infeasible(0, 0), trace

    plan = build_plan(work, mode)
    trace.plan = plan
    depth = plan.levels
    radius = plan.radius
    cells_total = 0

    for level in range(1, depth + 1):
        lo, hi = level_window(work.b_up, radius, depth, level)
        trace.windows.append((lo, hi))
        if level == 1:
            small_lo, small_hi = lo, tuple(min(radius, h) for h in hi)
        else:
            prev_lo, prev_hi = trace.windows[level - 2]
            small_lo = tuple(
                max(0, l - 2 * ph) for l, ph in zip(lo, prev_hi)
            )
            small_hi = tuple(
                min(radius, h - 2 * pl) for h, pl in zip(hi, prev_lo)
            )
        # A single brick's point can never exceed the fold window on any
        # axis (the other bricks only add), so cap base tables there too.
        per_block_cap = plan.support * work.delta
        base_hi = tuple(min(per_block_cap, h) for h in small_hi)
        base = base_tables_for_level(work, plan, level, mode, hi=base_hi)
        base_cells = sum(len(b) for b in base)
        cells_total += base_cells
        small = fold_tables(base, small_lo, small_hi)
        cells_total += len(small)

        if level == 1:
            cells = {
                pt: (small.cells[pt][0], None, pt) for pt in small.points()
            }
        else:
            cells = _combine_levels(trace.levels[-1], small, lo, hi)
        logger.debug(
            "level %d/%d: %d base cells, %d small points, %d retained",
            level, depth, base_cells, len(small), len(cells),
        )
        if not cells:
            return finish_infeasible(level, cells_total), trace
        cells_total += len(cells)
        trace.levels.append(LevelSet(level=level, cells=cells, small=small))

    bricks = reconstruct(trace.levels, work.b_up)
    value = trace.levels[-1].cells[work.b_up][0]
    x = map_back(reduced, tuple(v for brick in bricks for v in brick))
    stats = {
        "iterations": depth,
        "dp_cells": cells_total,
        "wall_time_s": watch.seconds(),
    }
    if mode == MODE_OPTIMIZE:
        if value != objective_value(inst, x):
            raise InternalError("corrupt witness: value drift")
        if not verify_solution(inst, x, value):
            raise InternalError("corrupt witness: bad solution")
        outcome = SolveOutcome(
            status=STATUS_OPTIMAL,
            solution=Solution(x=x, objective=value),
            stats=stats,
        )
    else:
        if not verify_solution(inst, x):
            raise InternalError("corrupt witness: bad solution")
        outcome = SolveOutcome(
            status=STATUS_FEASIBLE, solution=Solution(x=x), stats=stats
        )
    return outcome, trace


def solve(inst: NFoldInstance, mode: str = MODE_FEASIBILITY) -> SolveOutcome:
    """Solve a combinatorial n-fold program exactly.

    Parameters
    ----------
    inst : NFoldInstance
        The program; entries may be negative (a sign reduction is applied
        internally and undone in the reported solution).
    mode : str
        ``"feasibility"`` for a witness or ``"optimize"`` for a maximizer
        (requires ``inst.c >= 0``).

    Returns
    -------
    SolveOutcome
        Status plus a verified solution; stats carry the level count,
        total DP cells, and wall time.
    """
    outcome, _ = solve_with_trace(inst, mode)
    return outcome
