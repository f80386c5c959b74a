"""Per-level point sets: base tables per brick and one windowed sumset kernel.

A *point* is the r-vector a brick (or a partial group of bricks)
contributes to the shared rows.  ``block_base_table`` enumerates every
point one brick can reach with an exact number of placed units, in one
pass per column: every column but the last runs the "one more copy"
recurrence ``(u - 1, p) -> (u, p + col)`` in place with the unit count
``u`` ascending, and the last column gives each state exactly the
``placed - u`` copies it still owes.  Its witnesses are shared
``(prefix, column, take)`` nodes, expanded into count tuples only for
the kept cells; each cell keeps the largest value and, among its
maximisers, the reverse-lexicographically largest count vector.

``sumset`` is the one windowed Minkowski-sum kernel, ``scale*p + q`` in
``[lo, hi]``, run at scale 1 by the in-level ``convolve`` and at scale 2
by the cross-level ``driver._combine_levels``; it probes the window box
when the box is no larger than the right table, else bisects a
sorted-axis range index of that table.  ``fold_tables`` sums the brick
tables with ``convolve`` one at a time, keeping only points that can
still land inside the target window given the summed reach of the bricks
not yet folded; that window depends on which bricks remain, not on the
order.  The order is greedy, as in bucket elimination: each step takes
the brick with the smallest bound on its output plus its probe work,
computed from table sizes and reaches alone, ties going to the lowest
brick position.  Bricks that pin a shared row thus go before bricks that
spread over several, and partial sums stay small.  Because the Minkowski
sum and max-plus are associative and commutative, and every partial sum
of a surviving decomposition stays inside its window, the point -> value
map is the same in every order; only tie witnesses and dict order follow
it.

Tables carry witnesses: a base cell remembers its column-count vector, a
combined cell remembers the pair of points it was summed from, so any
surviving point can be decoded back into per-brick vectors, listed in
brick order whatever order the fold took.

In optimize mode each cell also carries the best objective value seen
for that point; feasibility mode is the same machinery with all-zero
values.  Pairs are visited in sorted order and only a strictly larger
value replaces a cell, so ties keep the first witness and reruns are
bit-stable, dict order included.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add, attrgetter, gt, mul
from typing import Sequence

from .core import MODE_FEASIBILITY, MODE_OPTIMIZE, NFoldInstance
from .plan import IterationPlan

logger = logging.getLogger(__name__)


@dataclass
class BlockWitness:
    """One brick's decoded column counts for a point."""

    block: int
    counts: tuple[int, ...]


class PointTable:
    """Reachable point set with witnesses and per-cell values.

    ``cells`` maps an r-tuple point to ``(value, payload)``.  For a base
    table the payload is the column-count tuple; for a combined table it
    is ``(left_point, right_point)`` referring to the two parent tables.
    """

    __slots__ = ("r", "cells", "kind", "block", "parents", "_reach")

    def __init__(
        self,
        r: int,
        kind: str,
        *,
        block: int | None = None,
        parents: tuple["PointTable", "PointTable"] | None = None,
    ) -> None:
        self.r = r
        self.kind = kind  # "base" | "pair"
        self.block = block
        self.parents = parents
        self.cells: dict[tuple[int, ...], tuple] = {}
        self._reach: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def points(self) -> list[tuple[int, ...]]:
        """Points in sorted (deterministic) order."""
        return sorted(self.cells)

    def value(self, pt: tuple[int, ...]) -> int:
        return self.cells[pt][0]

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-axis (min, max) over the stored points; zeros when empty."""
        if self._reach is None:
            axes = list(zip(*self.cells)) or [(0,)] * self.r
            self._reach = (tuple(map(min, axes)), tuple(map(max, axes)))
        return self._reach

    def filtered(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> "PointTable":
        """Copy containing only the points inside [lo, hi] per axis."""
        out = PointTable(self.r, self.kind, block=self.block, parents=self.parents)
        for pt, cell in self.cells.items():
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi)):
                out.cells[pt] = cell
        return out

    def decode(self, pt: tuple[int, ...]) -> list[BlockWitness]:
        """Expand a point into per-brick column counts, sorted by brick."""
        if pt not in self.cells:
            raise KeyError(f"point {pt} not in table")
        out: list[BlockWitness] = []
        stack: list[tuple[PointTable, tuple[int, ...]]] = [(self, pt)]
        while stack:
            table, point = stack.pop()
            cell = table.cells[point]
            if table.kind == "base":
                out.append(BlockWitness(block=table.block, counts=cell[1]))
            else:
                left, right = table.parents
                stack.append((right, cell[2]))
                stack.append((left, cell[1]))
        out.sort(key=attrgetter("block"))
        return out


def block_base_table(
    block: Sequence[Sequence[int]],
    placed: int,
    *,
    block_index: int = 0,
    costs: Sequence[int] | None = None,
    hi: tuple[int, ...] | None = None,
) -> PointTable:
    """Every point one brick reaches with exactly ``placed`` units.

    A state ``(u, p)`` is a point ``p`` reached with ``u`` units on the
    columns seen so far; ``layers[u]`` maps ``p`` to its best value and
    witness.  Every column but the last runs one in-place pass with ``u``
    ascending, in which ``(u, p + col)`` takes one more copy of the
    column from ``(u - 1, p)``.  That source already holds this column's
    best take, so any number of copies chains through the one pass: a
    column costs one visit per state, each target has exactly one source,
    and no layer is ever sorted.  The new candidate replaces the state
    when its value is ``>=``, so on ties the larger take wins.  The last
    column keeps only the exact layer: ``(u, p)`` takes exactly
    ``placed - u`` copies, scanned with ``u`` ascending and replaced only
    on a strictly larger value, so again the larger take wins ties.

    Each cell holds the largest value of its point, and its witness is
    the reverse-lexicographically largest count vector (compared from the
    last column back) among the maximisers.  Cells are inserted in sorted
    point order.  Witnesses are stored as shared ``(prefix, column, take)``
    nodes, made only for a take of at least one, and are expanded into
    the dense count tuple for the kept cells alone.

    Kept points are nonnegative and at most ``hi`` per axis.  When every
    entry is nonnegative, points only grow, so a candidate past ``hi`` is
    dropped as soon as it is made.  The cap is checked only on a take of
    at least one: an untaken state is unchanged, and the origin may lie
    above a cap below 0, in which case the final filter empties the table.

    Parameters
    ----------
    block : matrix
        r x t brick matrix, ``t >= 1``.
    placed : int
        Exact number of units this brick must place.
    costs : sequence of int, optional
        Per-column objective coefficients; omitted means feasibility
        (all values zero).
    hi : tuple of int, optional
        Per-axis upper cap for kept points.
    """
    r = len(block)
    cols = list(zip(*block))  # column vectors of the row-major brick
    if not cols:
        raise ValueError("a brick needs at least one column")
    if costs is None:
        costs = (0,) * len(cols)
    monotone = all(e >= 0 for col in cols for e in col)
    cap = hi if monotone else None

    # layers[u] : point -> (value, witness node or None for no copies)
    layers: list[dict[tuple[int, ...], tuple]] = [{} for _ in range(placed + 1)]
    layers[0][(0,) * r] = (0, None)
    for j, col in enumerate(cols[:-1]):
        cost = costs[j]
        for u in range(1, placed + 1):
            dst = layers[u]
            for p, (value, node) in layers[u - 1].items():
                q = tuple(map(add, p, col))
                if cap is not None and any(map(gt, q, cap)):
                    continue
                value += cost
                prev = dst.get(q)
                if prev is None or value >= prev[0]:
                    if node is not None and node[1] == j:
                        node = (node[0], j, node[2] + 1)
                    else:
                        node = (node, j, 1)
                    dst[q] = (value, node)

    j = len(cols) - 1
    final: dict[tuple[int, ...], tuple] = {}
    for u, layer in enumerate(layers):
        take = placed - u
        shift = tuple(take * e for e in cols[j])
        gain = take * costs[j]
        for p, (value, node) in layer.items():
            q = tuple(map(add, p, shift))
            if min(q) < 0 or (hi is not None and any(map(gt, q, hi))):
                continue
            value += gain
            prev = final.get(q)
            if prev is None or value > prev[0]:
                final[q] = (value, (node, j, take) if take else node)

    table = PointTable(r, "base", block=block_index)
    for q in sorted(final):
        value, node = final[q]
        counts = [0] * len(cols)
        while node is not None:
            node, col_index, take = node
            counts[col_index] = take
        table.cells[q] = (value, tuple(counts))
    return table


def sumset(
    a_cells: dict[tuple[int, ...], tuple],
    b_cells: dict[tuple[int, ...], tuple],
    scale: int,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> dict[tuple[int, ...], tuple]:
    """Map every ``scale*p + q`` in ``[lo, hi]`` to ``(value, p, q)``.

    ``p`` runs over ``a_cells`` and ``q`` over ``b_cells``; the value is
    ``scale*value(p) + value(q)`` (a cell's value is its first entry).
    Pairs go in sorted ``(p, q)`` order and only a strictly larger value
    replaces a cell, so ties keep the first witness and keys come out in
    first-reached order.  A window box of at most ``len(b_cells)`` points
    is probed per ``p`` (``b`` points are nonnegative, as in every engine
    table); otherwise ``b_cells`` is grouped by prefix ``q[:-1]`` with
    sorted last coordinates, and each ``p`` bisects axis 0 over prefixes
    and the last axis per prefix.  Sums accumulate under mixed-radix int
    keys over the window.
    """
    dims = [h - l + 1 for l, h in zip(lo, hi)]
    if not a_cells or not b_cells or min(dims) <= 0:
        return {}
    strides = [math.prod(dims[j + 1:]) for j in range(len(dims))]
    probe = _probe_box if math.prod(dims) <= len(b_cells) else _probe_index
    acc: dict[int, tuple] = {}
    probe(acc, a_cells, b_cells, scale, lo, hi, strides)
    return {
        tuple(scale * x + y for x, y in zip(cell[1], cell[2])): cell
        for cell in acc.values()
    }


def _probe_box(acc, a_cells, b_cells, scale, lo, hi, strides) -> None:
    get = b_cells.get
    for p in sorted(a_cells):
        ranges = [
            range(max(l - scale * x, 0), h - scale * x + 1)
            for x, l, h in zip(p, lo, hi)
        ]
        base = sum((scale * x - l) * s for x, l, s in zip(p, lo, strides))
        p_val = scale * a_cells[p][0]
        for q in itertools.product(*ranges):
            cell = get(q)
            if cell is not None:
                key = base + sum(map(mul, q, strides))
                value = p_val + cell[0]
                prev = acc.get(key)
                if prev is None or value > prev[0]:
                    acc[key] = (value, p, q)


def _probe_index(acc, a_cells, b_cells, scale, lo, hi, strides) -> None:
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for q in sorted(b_cells):
        groups.setdefault(q[:-1], []).append(q)
    index = [
        (pre, sum(map(mul, pre, strides)), [q[-1] for q in qs],
         [b_cells[q][0] for q in qs], qs)
        for pre, qs in groups.items()
    ]
    last = len(lo) - 1
    firsts = [pre[0] for pre in groups] if last else []
    for p in sorted(a_cells):
        q_lo = [l - scale * x for x, l in zip(p, lo)]
        q_hi = [h - scale * x for x, h in zip(p, hi)]
        g0, g1 = 0, 1
        if last:
            g0 = bisect_left(firsts, q_lo[0])
            g1 = bisect_right(firsts, q_hi[0], g0)
        base = sum((scale * x - l) * s for x, l, s in zip(p, lo, strides))
        p_val = scale * a_cells[p][0]
        for pre, pre_key, lasts, values, qs in index[g0:g1]:
            if last > 1 and any(
                not q_lo[j] <= pre[j] <= q_hi[j] for j in range(1, last)
            ):
                continue
            i0 = bisect_left(lasts, q_lo[last])
            offset = base + pre_key
            for i in range(i0, bisect_right(lasts, q_hi[last], i0)):
                key = offset + lasts[i]
                value = p_val + values[i]
                prev = acc.get(key)
                if prev is None or value > prev[0]:
                    acc[key] = (value, p, qs[i])


def convolve(
    a: PointTable,
    b: PointTable,
    *,
    lo: tuple[int, ...] | None = None,
    hi: tuple[int, ...] | None = None,
) -> PointTable:
    """Minkowski sum ``a + b`` inside ``[lo, hi]``: ``sumset`` at scale 1.

    Values add; ties keep the first witness in sorted (left, right) order.
    The kernel probes the window box in ``b`` when the box is no larger
    than ``b``, else bisects a sorted-axis index of ``b``.  A missing
    window side defaults to ``reach(a) + reach(b)``.
    """
    if lo is None or hi is None:
        (a_lo, a_hi), (b_lo, b_hi) = a.reach(), b.reach()
        lo = lo if lo is not None else tuple(map(add, a_lo, b_lo))
        hi = hi if hi is not None else tuple(map(add, a_hi, b_hi))
    out = PointTable(a.r, "pair", parents=(a, b))
    out.cells = sumset(a.cells, b.cells, 1, lo, hi)
    return out


def fold_tables(
    tables: Sequence[PointTable],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Sum brick tables into the window ``[lo, hi]``, cheapest step first.

    Windows: with ``rest`` the summed per-axis reach of the tables not
    yet folded, a partial sum is clipped to ``[max(0, lo - rest_hi),
    hi - rest_lo]``; anything outside can no longer be steered into
    ``[lo, hi]`` (every table point is nonnegative), and the last step
    lands exactly in ``[lo, hi]``.  The window depends on which tables
    remain, not on the order they were taken in.

    Order: the partial starts as the origin and each step takes the
    remaining table ``t`` with the lowest estimated cost, ties going to
    the lowest position in ``tables``.  The estimate is the output bound
    ``min(|P|*|t|, volume of window ∩ (box P + reach t))`` plus the
    probe bound ``|P| * min(|t|, prod(min(window width, spread t) + 1))``,
    where ``box P`` is the bound on the partial's reach carried from the
    previous step (the partial is never rescanned).  The output term
    pulls forward tables that pin shared rows, so partial sums stay
    small; the probe term keeps a large table late.  Bricks of equal
    size and reach are interchangeable for the rule, so they are scored
    once per step and taken in position order.

    The point -> value map does not depend on the order: the Minkowski
    sum and max-plus are associative and commutative, and every partial
    sum of a decomposition that ends in ``[lo, hi]`` lies inside its
    window in any order.  Only tie witnesses and dict order follow the
    order; ``PointTable.decode`` returns witnesses in brick order.
    """
    if not tables:
        raise ValueError("fold_tables needs at least one table")
    r = tables[0].r
    reaches = [t.reach() for t in tables]
    rest_lo = [sum(axis) for axis in zip(*(t_lo for t_lo, _ in reaches))]
    rest_hi = [sum(axis) for axis in zip(*(t_hi for _, t_hi in reaches))]
    # (size, reach) -> positions, highest first, so pop() takes the lowest.
    groups: dict[tuple, list[int]] = {}
    for idx in range(len(tables) - 1, -1, -1):
        groups.setdefault((len(tables[idx]), reaches[idx]), []).append(idx)

    partial = None
    size, box_lo, box_hi = 1, (0,) * r, (0,) * r
    order: list[int] = []
    peak = 0
    while groups:
        best = None
        for key, idxs in groups.items():
            n_t, (t_lo, t_hi) = key
            w_lo = tuple(
                max(0, l - rh + th) for l, rh, th in zip(lo, rest_hi, t_hi)
            )
            w_hi = tuple(h - rl + tl for h, rl, tl in zip(hi, rest_lo, t_lo))
            o_lo = tuple(max(w, b + t) for w, b, t in zip(w_lo, box_lo, t_lo))
            o_hi = tuple(min(w, b + t) for w, b, t in zip(w_hi, box_hi, t_hi))
            volume = math.prod(max(0, h - l + 1) for l, h in zip(o_lo, o_hi))
            probe = math.prod(
                max(0, min(wh - wl, th - tl) + 1)
                for wl, wh, tl, th in zip(w_lo, w_hi, t_lo, t_hi)
            )
            score = min(size * n_t, volume) + size * min(n_t, probe)
            if best is None or (score, idxs[-1]) < best[:2]:
                best = (score, idxs[-1], key, w_lo, w_hi, o_lo, o_hi)
        _, idx, key, w_lo, w_hi, box_lo, box_hi = best
        idxs = groups[key]
        idxs.pop()
        if not idxs:
            del groups[key]
        t_lo, t_hi = key[1]
        rest_lo = [v - tl for v, tl in zip(rest_lo, t_lo)]
        rest_hi = [v - th for v, th in zip(rest_hi, t_hi)]
        if partial is None:
            partial = tables[idx].filtered(w_lo, w_hi)
        else:
            partial = convolve(partial, tables[idx], lo=w_lo, hi=w_hi)
        order.append(idx)
        size = len(partial)
        peak = max(peak, size)
        if not size:
            break
    logger.debug("fold order %s, peak partial %d cells", order, peak)
    return partial


def _block_costs(inst: NFoldInstance, mode: str) -> list[Sequence[int] | None]:
    """Objective slice per brick (None entries in feasibility mode)."""
    if mode != MODE_OPTIMIZE or inst.c is None:
        return [None] * inst.n
    return [inst.c[sl] for sl in inst.brick_slices()]


def base_tables_for_level(
    inst: NFoldInstance,
    plan: IterationPlan,
    level: int,
    mode: str,
    *,
    hi: tuple[int, ...] | None = None,
) -> list[PointTable]:
    """Per-brick base tables for one level's placed counts."""
    placed = plan.placed_at(level)
    cap = hi
    if cap is None:
        cap = (plan.support * inst.delta,) * inst.r
    costs = _block_costs(inst, mode)
    return [
        block_base_table(
            inst.blocks[k],
            placed[k],
            block_index=k,
            costs=costs[k],
            hi=cap,
        )
        for k in range(inst.n)
    ]


def small_subproblem_set(
    inst: NFoldInstance,
    plan: IterationPlan,
    level: int,
    mode: str = MODE_FEASIBILITY,
) -> PointTable:
    """Complete level point set over the box {0..D}^r.

    This is the reference-shaped variant: no target windows, every point
    within the box radius is kept.  The solver itself folds the same base
    tables under much tighter windows; both agree on their common domain.
    """
    radius = plan.radius
    box = (radius,) * inst.r
    tables = base_tables_for_level(inst, plan, level, mode)
    return fold_tables(tables, (0,) * inst.r, box)
