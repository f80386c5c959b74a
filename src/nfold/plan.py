"""Level schedules for the divide-and-conquer doubling solver.

The solver never attacks a brick target ``b`` directly.  It splits the
target across ``I`` levels so that level ``i`` only has to place a small
number of units ("placed") and the rest ("carried", always even) is
halved and pushed down a level:

    target^(I) = b
    target^(i) = placed^(i) + carried^(i),   carried^(i) even
    target^(i-1) = carried^(i) / 2
    placed^(i) <= K

``K`` is the level size.  The paper's choice is the support bound
``support_bound(r, delta, mode)``: some optimal brick vector is supported
on at most that many coordinates per level.  ``D = n*K*delta`` is the
paper's box radius: no level adds more than ``D`` on a shared axis.

Windows.  Level ``j`` places ``placed_k(j)`` units in brick ``k``, so on
shared axis ``a`` it adds at least ``Rmin_j[a] = sum_k placed_k(j) *
min(row a of brick k)`` and at most ``Rmax_j[a]``, the same with ``max``.
The level-``i`` prefix ``N(i) = sum_{j<=i} 2^(i-j) q_j`` of a solution
(``q_j`` the vector level ``j`` adds) then satisfies, per axis, with
``e = I - i``:

    lo_i = max(sum_{j<=i} 2^(i-j) Rmin_j,
               ceil((b_up - sum_{j>i} 2^(I-j) Rmax_j) / 2^e))
    hi_i = min(sum_{j<=i} 2^(i-j) Rmax_j,
               floor((b_up - sum_{j>i} 2^(I-j) Rmin_j) / 2^e))

the first term by what the levels below can add, the second because
``b_up = 2^e N(i) + sum_{j>i} 2^(I-j) q_j``.  Level ``i``'s own vector
``q_i = N(i) - 2 N(i-1)`` lies in ``[max(Rmin_i, lo_i - 2 hi_(i-1)),
min(Rmax_i, hi_i - 2 lo_(i-1))]`` (``[lo_1, hi_1]`` at level 1), the
level's small window.  These are exact reach bounds, never wider than the
``+-D`` box, and an empty one means no solution exists.

Why a smaller K is also exact.  The solver needs every brick vector
``x_k`` (with ``|x_k| = b_k``) to split along the plan as
``x_k = sum_i 2^(I-i) x~_k(i)`` with ``x~_k(i) >= 0`` and
``|x~_k(i)| = placed_k(i)``.  The top-down rule does this one level at
a time.  A target that fits (``b <= K``) is placed whole.  Otherwise the
level places ``take = K - z`` units, where the parity fix ``z`` makes
``b - take`` even; since ``b`` and the number of odd coordinates of
``x_k`` have the same parity, ``take`` has that parity too.  And ``take``
is at least the number of odd coordinates: there are at most ``t_k`` of
them, ``K >= t_k`` whenever ``b_k > K``, and when ``z = 1`` their count
has the parity of ``K - 1``, so it is not ``K``.  So the level takes one
unit from each odd coordinate and the rest in pairs, which leaves an
even vector whose half is the next target down.  The windows only use
that level ``i`` places ``placed_k(i)`` nonnegative units per brick,
which holds for this split at any K.  Hence any

    K >= floor = max(1, max_k min(t_k, b_low_k))

is exact, and so is the paper's K below the floor (by its support
theorem).  ``build_plan`` accepts exactly these.

Choosing K.  The paper's bound ``(n r delta)^O(r) log ||b||`` puts K
in the polynomial factor and the level count only in the log factor.
So, without an explicit K, ``build_plan`` uses one rule:

    K = paper K                     if max_k b_low_k <= paper K
    K = min(paper K, floor)         otherwise

A plan whose targets all fit the paper's K has one level, which is as
shallow as a plan gets, and splitting it deeper only adds levels.  A
plan that needs several levels anyway wants the smallest exact K.
Measured on the seed-1 benchmark programs (one ``solve``, in-process,
shared 2-vCPU host):

- one level: an ``imbalance-opt`` program took 4.3 ms at the paper's K
  and 733 ms at the floor, a closest-string d=6 program 21.6 ms and
  53.4 ms;
- several levels: ``core-deep`` took 2.3 ms at the floor and 32.8 ms at
  the paper's K, ``core-wide`` 55 ms and 195 ms.

Everything here is exact integer arithmetic; base-2 logarithms are taken
via ``int.bit_length`` so no float ever rounds a bound the wrong way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .core import MODE_FEASIBILITY, MODE_OPTIMIZE, NFoldInstance

logger = logging.getLogger(__name__)


def _floor_log2(value: int) -> int:
    """Exact floor(log2(value)) for positive integers."""
    if value <= 0:
        raise ValueError(f"floor_log2 needs a positive argument, got {value}")
    return value.bit_length() - 1


def support_bound(r: int, delta: int, mode: str) -> int:
    """Max coordinates a single level ever needs per brick.

    Feasibility:  floor( 2(r+1) * log2(4(r+1) * max(delta, 1)) )
    Optimization: floor( 2(r+2) * (log2(r+2) + delta + 2) )

    Both are computed exactly: the float-free form of
    ``floor(a * log2(m))`` for integer ``a`` is ``floor(log2(m**a))``.
    """
    if r < 1:
        raise ValueError(f"support_bound needs r >= 1, got {r}")
    if delta < 0:
        raise ValueError(f"support_bound needs delta >= 0, got {delta}")
    if mode == MODE_FEASIBILITY:
        base = 4 * (r + 1) * max(delta, 1)
        return _floor_log2(base ** (2 * (r + 1)))
    if mode == MODE_OPTIMIZE:
        whole = 2 * (r + 2) * (delta + 2)
        return whole + _floor_log2((r + 2) ** (2 * (r + 2)))
    raise ValueError(f"unknown mode: {mode!r}")


def box_radius(n: int, support: int, delta: int) -> int:
    """Per-axis slack allowed around the scaled shared-row target."""
    return n * support * delta


def _ceil_div(a: int, b: int) -> int:
    """Exact ceiling division for a positive divisor."""
    return -(-a // b)


def iteration_count(b: int, support: int) -> int:
    """Number of levels a brick target needs under support bound K.

    1 when ``b <= K`` (the whole target fits in one level); otherwise the
    halving chain needs the smallest ``e`` with ``2K * 2^e >= b + K``,
    plus the base level.
    """
    if b < 0:
        raise ValueError(f"iteration_count needs b >= 0, got {b}")
    if support < 1:
        raise ValueError(f"iteration_count needs support >= 1, got {support}")
    if b <= support:
        return 1
    quotient = _ceil_div(b + support, 2 * support)
    return 1 + (quotient - 1).bit_length()


def closed_form_target(b: int, support: int, levels: int, i: int) -> int:
    """Level-``i`` target in a ``levels``-deep chain, without simulating.

    Equals ``max(0, ceil((b + K) / 2^(levels - i)) - K)``: exact while the
    chain is still above K, and 0 below the level where the remaining
    target first fits (the anchor level places everything that is left).
    """
    if not 1 <= i <= levels:
        raise ValueError(f"level {i} outside 1..{levels}")
    shift = levels - i
    return max(0, _ceil_div(b + support, 1 << shift) - support)


@dataclass
class LevelSchedule:
    """Per-level split of one brick target (index 0 = bottom level)."""

    targets: tuple[int, ...]
    placed: tuple[int, ...]
    carried: tuple[int, ...]
    parity: tuple[int | None, ...]

    @property
    def levels(self) -> int:
        return len(self.targets)


def _schedule_top_down(b: int, support: int, levels: int) -> LevelSchedule:
    """Run the halving rule from the top level down (uniform rule).

    At each level: if the remaining target fits (``<= K``) place all of it
    and zero out everything below; otherwise place ``K - z`` where the
    parity fix ``z`` makes the carried remainder even, then halve.
    """
    targets, placed, carried, parity = [], [], [], []
    current = b
    for _ in range(levels):
        if current <= support:
            targets.append(current)
            placed.append(current)
            carried.append(0)
            parity.append(None)
            current = 0
            continue
        z = (current - support) & 1
        take = support - z
        rest = current - take
        targets.append(current)
        placed.append(take)
        carried.append(rest)
        parity.append(z)
        current = rest // 2
    # built top-down; store bottom-up so index i-1 is level i
    targets.reverse()
    placed.reverse()
    carried.reverse()
    parity.reverse()
    return LevelSchedule(
        targets=tuple(targets),
        placed=tuple(placed),
        carried=tuple(carried),
        parity=tuple(parity),
    )


def lower_rhs_schedule(b: int, support: int) -> tuple[LevelSchedule, int]:
    """Intrinsic schedule of one brick target plus its level count."""
    levels = iteration_count(b, support)
    return _schedule_top_down(b, support, levels), levels


@dataclass
class IterationPlan:
    """Joint level plan for a whole instance.

    ``support`` is the level size K the plan uses and ``support_bound``
    the paper's K for the same instance.  ``schedules[k]`` covers brick
    ``k`` across the global ``levels`` count; bricks that need fewer
    levels are anchored at the top (their whole target is placed at the
    highest levels, zeros below), which is what the uniform top-down rule
    produces on its own.  ``windows[i - 1]`` is ``(lo, hi, small_lo,
    small_hi)`` of level ``i``: the bounds of its retained prefixes and
    of its small set (see the module doc).  ``row_max[k]`` holds each
    row's largest entry in brick ``k``.
    """

    mode: str
    support: int
    support_bound: int
    radius: int
    levels: int
    block_levels: tuple[int, ...]
    schedules: tuple[LevelSchedule, ...]
    windows: tuple[tuple[tuple[int, ...], ...], ...]
    row_max: tuple[tuple[int, ...], ...]

    def placed_at(self, level: int) -> tuple[int, ...]:
        """Units every brick must place at ``level`` (1-based)."""
        return tuple(sched.placed[level - 1] for sched in self.schedules)


def reach_windows(
    inst: NFoldInstance, schedules: Sequence[LevelSchedule], levels: int,
    row_max: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``(lo, hi, small_lo, small_hi)`` per level, bottom first: the exact
    reach windows of the module doc, computed one axis at a time from
    each brick's row minima and maxima."""
    row_min = [tuple(map(min, block)) for block in inst.blocks]
    axes = []
    for a, target in enumerate(inst.b_up):
        rmin = [sum(s.placed[j] * low[a] for s, low in zip(schedules, row_min))
                for j in range(levels)]
        rmax = [sum(s.placed[j] * top[a] for s, top in zip(schedules, row_max))
                for j in range(levels)]
        lo, hi = [], []
        below_lo = below_hi = 0
        for i in range(levels):
            e = levels - 1 - i
            below_lo = 2 * below_lo + rmin[i]
            below_hi = 2 * below_hi + rmax[i]
            above_lo = sum(rmin[j] << (levels - 1 - j) for j in range(i + 1, levels))
            above_hi = sum(rmax[j] << (levels - 1 - j) for j in range(i + 1, levels))
            lo.append(max(below_lo, _ceil_div(target - above_hi, 1 << e)))
            hi.append(min(below_hi, (target - above_lo) >> e))
        small_lo = lo[:1] + [max(rmin[i], lo[i] - 2 * hi[i - 1])
                             for i in range(1, levels)]
        small_hi = hi[:1] + [min(rmax[i], hi[i] - 2 * lo[i - 1])
                             for i in range(1, levels)]
        axes.append((lo, hi, small_lo, small_hi))
    return tuple(
        tuple(tuple(axis[f][i] for axis in axes) for f in range(4))
        for i in range(levels)
    )


def support_floor(inst: NFoldInstance) -> int:
    """Smallest level size K for which every brick vector splits along
    the plan: ``max(1, max_k min(t_k, b_low_k))``."""
    return max([1, *map(min, inst.t, inst.b_low)])


def build_plan(
    inst: NFoldInstance, mode: str, support: int | None = None
) -> IterationPlan:
    """Compute K, D, the global level count, and every brick's schedule.

    ``support`` pins the level size K; it must be the paper's K or at
    least ``support_floor(inst)``.  ``None`` keeps the paper's K when
    every target fits it (one level, nothing to split) and otherwise
    takes the smaller of the paper's K and the floor, since a deep plan
    pays for K in the size of every table and for the level count only
    once per level (see the module doc for the measurements).
    """
    delta = inst.delta
    paper = support_bound(inst.r, delta, mode)
    floor = support_floor(inst)
    if support is None:
        fits = max(inst.b_low, default=0) <= paper
        support = paper if fits else min(paper, floor)
    elif support != paper and support < floor:
        raise ValueError(
            f"level size K={support} is neither the paper's K={paper} nor "
            f"at least the floor {floor}"
        )
    radius = box_radius(inst.n, support, delta)
    block_levels = tuple(iteration_count(b, support) for b in inst.b_low)
    levels = max(block_levels)
    schedules = tuple(
        _schedule_top_down(b, support, levels) for b in inst.b_low
    )
    logger.debug(
        "plan: paper K=%d, floor %d, K=%d D=%d levels=%d block_levels=%s",
        paper, floor, support, radius, levels, block_levels,
    )
    row_max = tuple(tuple(map(max, block)) for block in inst.blocks)
    return IterationPlan(
        mode=mode,
        support=support,
        support_bound=paper,
        radius=radius,
        levels=levels,
        block_levels=block_levels,
        schedules=schedules,
        windows=reach_windows(inst, schedules, levels, row_max),
        row_max=row_max,
    )


def plan_to_json(plan: IterationPlan) -> dict:
    """JSON shape of a plan (for the CLI `plan` subcommand)."""
    return {
        "mode": plan.mode,
        "support_bound": plan.support_bound,
        "support": plan.support,
        "box_radius": plan.radius,
        "levels": plan.levels,
        "block_levels": list(plan.block_levels),
        "targets": [list(s.targets) for s in plan.schedules],
        "placed": [list(s.placed) for s in plan.schedules],
        "carried": [list(s.carried) for s in plan.schedules],
        "parity": [list(s.parity) for s in plan.schedules],
        "windows": [
            dict(zip(("lo", "hi", "small_lo", "small_hi"), map(list, w)))
            for w in plan.windows
        ],
    }
