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
box radius: no level adds more than ``D`` on a shared axis, so it is the
per-axis slack a partial shared-row vector may have around
``b_up / 2^(I-i)`` and still extend to a full solution.

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
``D``, which bounds each level for any K.  Hence any

    K >= floor = max(1, max_k min(t_k, b_low_k))

is exact, and so is the paper's K below the floor (by its support
theorem).  ``build_plan`` accepts exactly these.

Choosing K.  The level count ``I`` falls as K grows, and the floor is
usually far below the paper's K.  Without an explicit K, ``build_plan``
considers, for each level count from the paper plan's to the floor's,
the smallest valid K that gives it.  (One-level plans are skipped when
the paper plan has one level: they place every target whole, as it
does.)  Each candidate gets a score from plan quantities alone:

- base tables: per brick, ``t * (placed + 1) * min(C(placed + t - 1,
  t - 1), volume of the capped box)`` state visits to build it, and the
  table bound ``min(C(placed + t - 1, t - 1), volume of the reach box)``,
  where the reach box runs from ``placed * min column`` to
  ``placed * max column`` per axis; both boxes are capped as the driver
  caps base tables;
- the in-level fold: the table bounds folded smallest first under the
  ``dp.fold_tables`` windows, each step adding its ``fold_tables`` step
  score (the greedy order without rescoring, which would cost a pass
  over the tables per step), with the partial bounded by its size and
  box; this bounds the small set;
- the cross-level combine: ``|retained of level i-1| * |small set|``,
  capped by the window volume, which also caps the retained set.

Levels are scored from the top down, where deep plans peak, and a
candidate stops being scored once its running total reaches the best so
far.  A candidate must score strictly below the paper plan to replace
it, so ties go to the paper's K; among candidates the larger K wins
ties.  For a one-level paper plan the bar is its base-table work alone:
its fold lands in the single point ``b_up``, where the fold bound
overstates the work by orders of magnitude (395,000 against 2,943
visited pairs on an imbalance program), and scoring that fold would
cost a visible share of such small solves.

Everything here is exact integer arithmetic; base-2 logarithms are taken
via ``int.bit_length`` so no float ever rounds a bound the wrong way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import itemgetter
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
    """Exact ceiling division for nonnegative numerator."""
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
    produces on its own.
    """

    mode: str
    support: int
    support_bound: int
    radius: int
    levels: int
    block_levels: tuple[int, ...]
    schedules: tuple[LevelSchedule, ...]

    def placed_at(self, level: int) -> tuple[int, ...]:
        """Units every brick must place at ``level`` (1-based)."""
        return tuple(sched.placed[level - 1] for sched in self.schedules)


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


def small_window(
    window: tuple[tuple[int, ...], tuple[int, ...]],
    below: tuple[tuple[int, ...], tuple[int, ...]] | None,
    radius: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Window of a level's small set ``q``, given the window of the level
    below (``None`` at level 1): ``2*p + q`` must land in ``window`` for
    some ``p`` in ``below``, and no level adds more than ``radius``."""
    lo, hi = window
    if below is None:
        return lo, tuple(min(radius, h) for h in hi)
    below_lo, below_hi = below
    return (
        tuple(max(0, l - 2 * bh) for l, bh in zip(lo, below_hi)),
        tuple(min(radius, h - 2 * bl) for h, bl in zip(hi, below_lo)),
    )


def support_floor(inst: NFoldInstance) -> int:
    """Smallest level size K for which every brick vector splits along
    the plan: ``max(1, max_k min(t_k, b_low_k))``."""
    return max([1, *map(min, inst.t, inst.b_low)])


def _fold_estimate(
    tables: list[tuple[int, tuple[int, ...], tuple[int, ...]]],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    limit: int | None,
) -> tuple[int, int]:
    """Fold of table bounds under the ``dp.fold_tables`` windows.

    ``tables`` holds one ``(size bound, reach lo, reach hi)`` per brick,
    folded smallest bound first.  Each step adds the ``fold_tables`` step
    score, with the partial bounded by its size and box.  Returns the
    summed scores, which stop growing once they pass ``limit``, and the
    bound on the folded set.
    """
    rest_lo = [sum(axis) for axis in zip(*(t_lo for _, t_lo, _ in tables))]
    rest_hi = [sum(axis) for axis in zip(*(t_hi for _, _, t_hi in tables))]
    box_lo, box_hi = [0] * len(lo), [0] * len(lo)
    axes = range(len(lo))
    size = 1
    work = 0
    for n_t, t_lo, t_hi in sorted(tables, key=itemgetter(0)):
        probe = volume = 1
        for j in axes:
            tl, th = t_lo[j], t_hi[j]
            rest_lo[j] -= tl
            rest_hi[j] -= th
            w_lo = max(0, lo[j] - rest_hi[j])
            w_hi = hi[j] - rest_lo[j]
            probe *= max(0, min(w_hi - w_lo, th - tl) + 1)
            b_lo = box_lo[j] + tl
            box_lo[j] = b_lo = b_lo if b_lo > w_lo else w_lo
            b_hi = box_hi[j] + th
            box_hi[j] = b_hi = b_hi if b_hi < w_hi else w_hi
            volume *= b_hi - b_lo + 1 if b_hi >= b_lo else 0
        out = min(size * n_t, volume)
        work += out + size * min(n_t, probe)
        size = out
        if not size or (limit is not None and work > limit):
            break
    return work, size


def _plan_cost(
    shapes: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]],
    b_up: tuple[int, ...],
    delta: int,
    support: int,
    levels: int,
    budget: int | None,
    *,
    base_only: bool = False,
) -> int | None:
    """Estimated work of a K-plan, or ``None`` once it passes ``budget``.

    ``shapes`` holds ``(b_low, t, per-axis column min, per-axis column
    max)`` per brick.  Base tables and folds are scored from the top
    level down, where deep plans peak, and the combines last; every level
    counts as if it ran.  ``base_only`` counts the base tables alone.
    """
    radius = box_radius(len(shapes), support, delta)
    cap = support * delta
    placed = {
        b: _schedule_top_down(b, support, levels).placed
        for b in {shape[0] for shape in shapes}
    }
    windows = [
        level_window(b_up, radius, levels, level)
        for level in range(1, levels + 1)
    ]
    smalls = [0] * levels
    total = 0
    for i in reversed(range(levels)):
        s_lo, s_hi = small_window(windows[i], windows[i - 1] if i else None, radius)
        base_hi = [min(cap, h) for h in s_hi]
        tables = []
        for b, t, col_lo, col_hi in shapes:
            p = placed[b][i]
            t_lo, t_hi = [], []
            reach = capped = 1
            for e_lo, e_hi, h in zip(col_lo, col_hi, base_hi):
                l = p * e_lo if e_lo > 0 else 0
                u = p * e_hi if p * e_hi < h else h
                t_lo.append(l)
                t_hi.append(u)
                capped *= u + 1 if u >= 0 else 0
                reach *= u - l + 1 if u >= l else 0
            bound = math.comb(p + t - 1, t - 1)
            # one visit per column and unit count to every capped state
            total += t * (p + 1) * min(bound, capped)
            tables.append((min(bound, reach), t_lo, t_hi))
        if base_only:
            continue
        limit = None if budget is None else budget - total
        fold, smalls[i] = _fold_estimate(tables, s_lo, s_hi, limit)
        total += fold
        if budget is not None and total > budget:
            return None
    if base_only:
        return total
    retained = 0
    for i, window in enumerate(windows):
        room = math.prod(max(0, h - l + 1) for l, h in zip(*window))
        if i:
            total += retained * min(smalls[i], room)
        retained = min(retained * smalls[i] if i else smalls[i], room)
    if budget is not None and total > budget:
        return None
    return total


def _choose_support(inst: NFoldInstance, delta: int, paper: int) -> int:
    """Level size with the lowest plan cost score (see the module doc);
    ``delta`` is the instance's and ``paper`` its paper K."""
    floor = support_floor(inst)
    b_max = max(inst.b_low, default=0)
    paper_levels = iteration_count(b_max, paper)
    floor_levels = iteration_count(b_max, floor)
    candidates = []
    for levels in range(min(paper_levels, floor_levels),
                        max(paper_levels, floor_levels) + 1):
        if levels == 1 == paper_levels:
            continue  # one level places every target whole, whatever K is
        # the smallest K >= floor with at most ``levels`` levels
        support = max(floor, _ceil_div(b_max, (1 << levels) - 1))
        if (iteration_count(b_max, support) == levels
                and support not in (paper, *(k for k, _ in candidates))):
            candidates.append((support, levels))
    if not candidates:
        return paper

    shapes = [
        (b, t, tuple(map(min, block)), tuple(map(max, block)))
        for b, t, block in zip(inst.b_low, inst.t, inst.blocks)
    ]
    best = paper
    bar = _plan_cost(shapes, inst.b_up, delta, paper, paper_levels, None,
                     base_only=paper_levels == 1)
    scores = [(paper, paper_levels, bar)]
    for support, levels in candidates:
        cost = _plan_cost(shapes, inst.b_up, delta, support, levels, bar - 1)
        scores.append((support, levels, cost))
        if cost is not None:
            best, bar = support, cost
    logger.debug(
        "plan: paper K=%d, candidates (K, L, score) %s, pick K=%d",
        paper, scores, best,
    )
    return best


def build_plan(
    inst: NFoldInstance, mode: str, support: int | None = None
) -> IterationPlan:
    """Compute K, D, the global level count, and every brick's schedule.

    ``support`` pins the level size K; it must be the paper's K or at
    least ``support_floor(inst)``.  ``None`` picks K by the plan cost
    score.
    """
    delta = inst.delta
    paper = support_bound(inst.r, delta, mode)
    if support is None:
        support = _choose_support(inst, delta, paper)
    elif support != paper and support < support_floor(inst):
        raise ValueError(
            f"level size K={support} is neither the paper's K={paper} nor "
            f"at least the floor {support_floor(inst)}"
        )
    radius = box_radius(inst.n, support, delta)
    block_levels = tuple(iteration_count(b, support) for b in inst.b_low)
    levels = max(block_levels)
    schedules = tuple(
        _schedule_top_down(b, support, levels) for b in inst.b_low
    )
    logger.debug(
        "plan: K=%d D=%d levels=%d block_levels=%s", support, radius, levels, block_levels
    )
    return IterationPlan(
        mode=mode,
        support=support,
        support_bound=paper,
        radius=radius,
        levels=levels,
        block_levels=block_levels,
        schedules=schedules,
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
    }
