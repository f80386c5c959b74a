"""Divide-and-conquer doubling solver for combinatorial n-fold programs.

The solver walks the level plan bottom-up maintaining one point set per
level: the set of shared-row vectors reachable by the doubled prefix of
the plan.  Level 1 is the fold of its brick tables; every later level is

    N(i) = { 2*p + q_1 + ... + q_n  :  p in N(i-1),  q_k in T_k(i) }

for brick ``k``'s base table ``T_k(i)``: the paper's ``N(i) = 2*N(i-1) +
S(i)`` regrouped as ``((2*N(i-1) + T_1) + T_2) + ...``, one
``dp.fold_tables`` started from ``2*N(i-1)``, so the small set ``S(i)``
is never built.  A level keeps only points that can still reach
``b_up`` after the remaining doublings.  Each level reads its windows
from the plan (see ``plan``): a retained level-i point lies in ``[lo_i,
hi_i]``, the exact range of level-i prefixes that the placed units of
the levels below can build and the levels above can still complete to
``b_up``, and ``small_hi_i``, the most ``2*p + q`` needs from ``q`` for
some ``p`` in the level-(i-1) window, caps the level's base tables.
Every prefix and partial sum of a decomposition that reaches ``b_up``
lies inside these windows, so only dead-end points are dropped.  At the
top level the window collapses to exactly ``b_up`` — feasibility is
then simply "is the top set nonempty" — and the first level with an
empty window ends the solve as infeasible before its base tables are
built.  On value ties a point decodes to the first witness in sorted
``(p, q)`` order, whichever path the fold ran.

Every level set is a ``dp.PointTable``, the fold's result, whose step
chain leads down to its start: the origin at level 1, above it a table
coding ``2*p`` for the points ``p`` of level ``i-1``.  No table stores
a pair.  With the base tables below them, the levels form one witness
graph from the bricks to the top, and ``reconstruct`` is one
``PointTable.decode`` of ``b_up``: each level's ``p`` counts twice,
which yields ``x = sum_i 2^(levels-i) * x~(i)``; on the way down every
pair is recovered from the parents' points and values, and a point
without one raises.  Objective values double along the same recursion
(values are additive and ``c`` is required to be nonnegative, so
doubled prefixes stay optimal substructures).  The decoded solution is
re-verified; a failure raises ``InternalError``, also under ``python
-O``.
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
from .dp import PointTable, base_tables_for_level, fold_tables
from .plan import IterationPlan, build_plan
from .reduction import ReducedInstance, reduce_instance

logger = logging.getLogger(__name__)


@dataclass
class SolveTrace:
    """Everything the solver saw, for invariant checks in tests.

    ``levels[i - 1]`` is the level-``i`` table: the fold of its bricks,
    from the origin at level 1 and from ``2*levels[i - 2]`` above it; the
    top one is the root of the witness graph that ``reconstruct``
    decodes.
    """

    reduced: ReducedInstance
    plan: IterationPlan
    levels: list[PointTable] = field(default_factory=list)


def _combine_levels(
    prev: PointTable,
    base: list[PointTable],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Level ``i`` from level ``i-1``: every ``2*p + q_1 + ... + q_n`` in
    ``[lo, hi]``, ``p`` in ``prev`` and ``q_k`` in ``base[k]``, valued
    ``2*value(p) + sum value(q_k)`` at best: one fold from ``2*prev``."""
    return fold_tables(base, lo, hi, prev)


def _peak_partial(table: PointTable) -> int:
    """Largest partial of the fold that made a level table: its step
    results down to the fold's start, the origin or ``2*prev``."""
    peak = 0
    while table.parents is not None and table.scale != 2:
        peak = max(peak, len(table))
        table = table.parents[0]
    return peak


def reconstruct(top: PointTable, b_up: Sequence[int]) -> list[tuple[int, ...]]:
    """Decode ``b_up`` in the top level table: one counts tuple per brick.

    ``PointTable.decode`` walks the witness graph once and recovers every
    pair; a corrupt witness raises ``InternalError``.
    """
    return [w.counts for w in top.decode(tuple(b_up))]


def solve_with_trace(
    inst: NFoldInstance, mode: str = MODE_FEASIBILITY, *,
    base_memo: dict | None = None,
) -> tuple[SolveOutcome, SolveTrace]:
    """Solve and also return the internal level sets for inspection;
    ``base_memo`` as for ``solve``."""
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
    if base_memo is None:
        base_memo = {}

    for level, (lo, hi, small_lo, small_hi) in enumerate(plan.windows, 1):
        if any(map(gt, lo, hi)) or any(map(gt, small_lo, small_hi)):
            logger.debug(
                "level %d/%d: empty window %s..%s, small %s..%s",
                level, depth, lo, hi, small_lo, small_hi,
            )
            return finish_infeasible(level, cells_total), trace
        known = len(base_memo)
        base = base_tables_for_level(work, plan, level, mode, hi=small_hi,
                                     memo=base_memo)
        base_cells = sum(len(b) for b in base)
        if level == 1:
            table = fold_tables(base, lo, hi)
        else:
            table = _combine_levels(trace.levels[-1], base, lo, hi)
        cells_total += base_cells + len(table)
        if logger.isEnabledFor(logging.DEBUG):
            tables, built = len({id(b.cells) for b in base}), len(base_memo) - known
            logger.debug(
                "level %d/%d: %d base cells (%d tables for %d bricks, "
                "%d built, %d from the memo), peak partial %d, %d retained; "
                "window %s..%s, small %s..%s",
                level, depth, base_cells, tables, len(base), built,
                tables - built, _peak_partial(table), len(table),
                lo, hi, small_lo, small_hi,
            )
        if not table:
            return finish_infeasible(level, cells_total), trace
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


def solve(
    inst: NFoldInstance, mode: str = MODE_FEASIBILITY, *,
    base_memo: dict | None = None,
) -> SolveOutcome:
    """Solve a combinatorial n-fold program exactly.

    Parameters
    ----------
    inst : NFoldInstance
        The program; entries may be negative (the engine works on a
        sign-shifted copy whose solutions are the instance's own).
    mode : str
        ``"feasibility"`` for a witness or ``"optimize"`` for a maximizer
        (requires ``inst.c >= 0``).
    base_memo : dict, optional
        Base-table memo (``dp.base_tables_for_level``); omitted, the solve
        keeps its own.  One dict passed to related solves builds each
        table once for all; the outcome is that of a fresh memo.

    Returns
    -------
    SolveOutcome
        Status plus a verified solution; stats carry the level count,
        total DP cells (``dp_cells``: every brick's base table cells plus
        each level table's points; bricks that share one base table, being
        equal at their level, count it once each), wall time, and the
        level size K the plan used.
    """
    outcome, _ = solve_with_trace(inst, mode, base_memo=base_memo)
    return outcome
