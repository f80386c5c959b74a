"""Divide-and-conquer doubling solver for combinatorial n-fold programs.

The solver walks the level plan bottom-up maintaining one point set per
level: the set of shared-row vectors reachable by the doubled prefix of
the plan.  Level 1 is the bottom small set; every later level combines

    N(i) = { 2*p + q  :  p in N(i-1),  q in small-set(i) }

and keeps only points that can still reach ``b_up`` after the remaining
doublings.  Each level reads its windows from the plan (see ``plan``):
a retained level-i point lies in ``[lo_i, hi_i]``, the exact range of
level-i prefixes that the placed units of the levels below can build and
the levels above can still complete to ``b_up``, and level i's small set
is folded into ``[small_lo_i, small_hi_i]``, the range ``2*p + q`` needs
from ``q`` for some ``p`` in the level-(i-1) window.  Every prefix and
partial sum of a decomposition that reaches ``b_up`` lies inside these
windows, so only dead-end points are dropped.  At the top level the
window collapses to exactly ``b_up`` — feasibility is then simply "is
the top set nonempty" — and the first level with an empty window ends
the solve as infeasible before its base tables are built.

The combine is ``dp.sumset`` at scale 2, which sets up a frame per call
and runs one step of the fold's kernel; the in-level fold
(``dp.fold_tables``) mostly runs in a frame of its own and calls
``sumset``, at scale 1, only for a zero-valued fold above its bitset
cap.  On value ties a point decodes to the first witness in sorted
``(p, q)`` order, whichever path ran.

Every level set is a ``dp.PointTable``: level 1 is the folded small
table itself, and level ``i`` is a sum table whose parents are a table
coding ``2*p`` for the points ``p`` of level ``i-1`` and the small table
of level ``i``.  No table stores a pair.  With the fold's own tables
below them, the levels form one witness graph from the bricks to the
top, and ``reconstruct`` is one ``PointTable.decode`` of ``b_up``: the
``p`` of a level's pair counts twice, which yields ``x = sum_i
2^(levels-i) * x~(i)``; on the way down every pair is recovered from the
parents' points and values, and a point without one raises.  Objective
values double along the same
recursion (values are additive and ``c`` is required to be nonnegative,
so doubled prefixes stay optimal substructures).  The decoded solution
is re-verified; a failure raises ``InternalError``, also under
``python -O``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import gt
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
from .plan import IterationPlan, build_plan
from .reduction import ReducedInstance, reduce_instance

logger = logging.getLogger(__name__)


@dataclass
class SolveTrace:
    """Everything the solver saw, for invariant checks in tests.

    ``levels[i - 1]`` is the level-``i`` table: the small table itself at
    level 1, a scale-2 ``sumset`` table above it; the top one is the root
    of the witness graph that ``reconstruct`` decodes.
    """

    reduced: ReducedInstance
    plan: IterationPlan
    levels: list[PointTable] = field(default_factory=list)


def _combine_levels(
    prev: PointTable,
    small: PointTable,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Every ``2*p + q`` in ``[lo, hi]``: ``dp.sumset`` at scale 2.

    Values are ``2*value(p) + value(q)``, the largest over a point's
    pairs; ``decode`` recovers the first maximiser in sorted ``(p, q)``
    order, ``p`` in ``prev`` counting twice.  ``dp.sumset`` picks the
    frame.
    """
    return sumset(prev, small, 2, lo, hi)


def reconstruct(top: PointTable, b_up: Sequence[int]) -> list[tuple[int, ...]]:
    """Decode ``b_up`` in the top level table: one counts tuple per brick.

    ``PointTable.decode`` walks the witness graph once and recovers every
    pair; a corrupt witness raises ``InternalError``.
    """
    return [w.counts for w in top.decode(tuple(b_up))]


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
    plan = build_plan(work, mode)
    trace = SolveTrace(reduced=reduced, plan=plan)
    depth = plan.levels

    def finish_infeasible(iterations: int, cells: int) -> SolveOutcome:
        return SolveOutcome(
            status=STATUS_INFEASIBLE,
            stats={
                "iterations": iterations,
                "dp_cells": cells,
                "wall_time_s": watch.seconds(),
                "support": plan.support,
            },
        )

    cells_total = 0

    for level, (lo, hi, small_lo, small_hi) in enumerate(plan.windows, 1):
        if any(map(gt, lo, hi)) or any(map(gt, small_lo, small_hi)):
            logger.debug(
                "level %d/%d: empty window %s..%s, small %s..%s",
                level, depth, lo, hi, small_lo, small_hi,
            )
            return finish_infeasible(level, cells_total), trace
        base = base_tables_for_level(work, plan, level, mode, hi=small_hi)
        base_cells = sum(len(b) for b in base)
        cells_total += base_cells
        small = fold_tables(base, small_lo, small_hi)
        cells_total += len(small)

        table = small
        if level > 1:
            table = _combine_levels(trace.levels[-1], small, lo, hi)
        logger.debug(
            "level %d/%d: %d base cells, %d small points, %d retained; "
            "window %s..%s, small %s..%s",
            level, depth, base_cells, len(small), len(table),
            lo, hi, small_lo, small_hi,
        )
        if not table:
            return finish_infeasible(level, cells_total), trace
        cells_total += len(table)
        trace.levels.append(table)

    top = trace.levels[-1]
    bricks = reconstruct(top, work.b_up)
    value = top.value(work.b_up)
    x = tuple(v for brick in bricks for v in brick)
    stats = {
        "iterations": depth,
        "dp_cells": cells_total,
        "wall_time_s": watch.seconds(),
        "support": plan.support,
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
        The program; entries may be negative (the engine works on a
        sign-shifted copy whose solutions are the instance's own).
    mode : str
        ``"feasibility"`` for a witness or ``"optimize"`` for a maximizer
        (requires ``inst.c >= 0``).

    Returns
    -------
    SolveOutcome
        Status plus a verified solution; stats carry the level count,
        total DP cells, wall time, and the level size K the plan used.
    """
    outcome, _ = solve_with_trace(inst, mode)
    return outcome
