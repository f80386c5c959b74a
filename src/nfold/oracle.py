"""Brute-force reference oracle for small n-fold programs.

Enumerates every brick vector outright (stars-and-bars over each brick's
coordinate sum) and checks the shared rows directly.  Deliberately shares
no code with the real engine: this module is the independent witness the
engine is tested against, so it must stay naive.

The oracle refuses instances whose enumeration space exceeds its budget;
it never truncates, because a truncated "infeasible" would be a lie.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, Sequence

from .core import (
    MODE_FEASIBILITY,
    MODE_OPTIMIZE,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    NFoldInstance,
    Solution,
    SolveOutcome,
    Stopwatch,
)


DEFAULT_BUDGET = 10_000_000


class OracleBudgetError(RuntimeError):
    """The instance's enumeration space exceeds the oracle budget."""

    def __init__(self, required: int, allowed: int) -> None:
        super().__init__(
            f"oracle refuses: {required} candidate vectors exceed budget {allowed}"
        )
        self.required = required
        self.allowed = allowed


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _count_compositions(total: int, parts: int) -> int:
    """Size of the stars-and-bars space for one brick."""
    return comb(total + parts - 1, parts - 1)


def _row_products(block: Sequence[Sequence[int]], x: Sequence[int]) -> tuple[int, ...]:
    """This brick's contribution to every shared row."""
    return tuple(sum(e * v for e, v in zip(row, x)) for row in block)


def enumeration_size(b_low: Sequence[int], t: Sequence[int]) -> int:
    """Total candidate count: product of per-brick stars-and-bars sizes."""
    size = 1
    for target, width in zip(b_low, t):
        size *= _count_compositions(target, width)
    return size


def oracle_solve(
    inst: NFoldInstance,
    mode: str = MODE_FEASIBILITY,
    budget: int | None = None,
) -> SolveOutcome:
    """Decide (or optimize) a small instance by full enumeration.

    Parameters
    ----------
    inst : NFoldInstance
        Instance to decide.  Negative ``b_low`` entries are answered with
        an immediate "infeasible" (a brick cannot sum to a negative count).
    mode : str
        ``"feasibility"`` or ``"optimize"`` (the latter needs ``inst.c``).
    budget : int, optional
        Enumeration allowance, default 10**7 candidates.

    Raises
    ------
    OracleBudgetError
        If the candidate space is larger than the budget.  The oracle
        refuses; it never truncates the search.
    """
    if mode not in (MODE_FEASIBILITY, MODE_OPTIMIZE):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == MODE_OPTIMIZE and inst.c is None:
        raise ValueError("optimize mode requires a cost vector")

    watch = Stopwatch()
    if any(v < 0 for v in inst.b_low):
        return SolveOutcome(
            status=STATUS_INFEASIBLE,
            stats={"candidates": 0, "wall_time_s": watch.seconds()},
        )

    required = enumeration_size(inst.b_low, inst.t)
    limit = DEFAULT_BUDGET if budget is None else budget
    if required > limit:
        raise OracleBudgetError(required, limit)

    slices = inst.brick_slices()
    cost_parts = None
    if mode == MODE_OPTIMIZE:
        cost_parts = [tuple(inst.c[sl]) for sl in slices]

    per_brick = [
        list(_compositions(target, width))
        for target, width in zip(inst.b_low, inst.t)
    ]
    contribs = [
        [_row_products(inst.blocks[k], x) for x in brick]
        for k, brick in enumerate(per_brick)
    ]

    best_value: int | None = None
    best_pick: tuple[int, ...] | None = None
    candidates = 0
    for pick in itertools.product(*[range(len(b)) for b in per_brick]):
        candidates += 1
        rows = [0] * inst.r
        for k, idx in enumerate(pick):
            part = contribs[k][idx]
            for j in range(inst.r):
                rows[j] += part[j]
        if tuple(rows) != inst.b_up:
            continue
        if mode == MODE_FEASIBILITY:
            best_pick = pick
            break
        value = sum(
            sum(cv * xv for cv, xv in zip(cost_parts[k], per_brick[k][idx]))
            for k, idx in enumerate(pick)
        )
        if best_value is None or value > best_value:
            best_value = value
            best_pick = pick

    stats = {"candidates": candidates, "wall_time_s": watch.seconds()}
    if best_pick is None:
        return SolveOutcome(status=STATUS_INFEASIBLE, stats=stats)
    x: list[int] = []
    for k, idx in enumerate(best_pick):
        x.extend(per_brick[k][idx])
    if mode == MODE_FEASIBILITY:
        return SolveOutcome(
            status=STATUS_FEASIBLE, solution=Solution(x=tuple(x)), stats=stats
        )
    return SolveOutcome(
        status=STATUS_OPTIMAL,
        solution=Solution(x=tuple(x), objective=best_value),
        stats=stats,
    )


def oracle_point_set(
    blocks: Sequence[Sequence[Sequence[int]]],
    placed: Sequence[int],
    cap: int | Sequence[int],
    budget: int | None = None,
) -> set[tuple[int, ...]]:
    """Reachable shared-row vectors when brick k places ``placed[k]`` units.

    Returns every vector ``sum_k A_k x^(k)`` with ``sum(x^(k)) == placed[k]``
    whose coordinates all lie in ``[0, cap]`` (``cap`` may be per-axis).
    Used to cross-check the engine's per-level point sets.
    """
    blocks = [tuple(tuple(int(e) for e in row) for row in block) for block in blocks]
    r = len(blocks[0])
    caps = tuple(cap) if isinstance(cap, (tuple, list)) else (int(cap),) * r
    widths = [len(block[0]) for block in blocks]
    required = enumeration_size(placed, widths)
    limit = DEFAULT_BUDGET if budget is None else budget
    if required > limit:
        raise OracleBudgetError(required, limit)

    partial: set[tuple[int, ...]] = {(0,) * r}
    for block, units in zip(blocks, placed):
        width = len(block[0])
        step: set[tuple[int, ...]] = set()
        points = {
            _row_products(block, x) for x in _compositions(units, width)
        }
        for base in partial:
            for pt in points:
                step.add(tuple(a + b for a, b in zip(base, pt)))
        partial = step
    return {
        pt
        for pt in partial
        if all(0 <= v <= c for v, c in zip(pt, caps))
    }
