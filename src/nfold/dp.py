"""Per-level point sets: base tables per brick and one windowed sumset kernel.

A *point* is the r-vector a brick (or a partial group of bricks)
contributes to the shared rows.  ``block_base_table`` enumerates every
point one brick can reach with an exact number of placed units, in one
pass per column: each column runs the "one more copy" recurrence ``(u -
1, p) -> (u, p + col)`` in place with the unit count ``u`` ascending,
and the table is the ``u = placed`` layer after the last column.  Bricks
are nonnegative (the solver shifts a signed program first, in
``reduction.reduce_instance``), so points only grow and one capped codec
serves every call: a point is one packed ``int`` (one field per axis
under a guard bit), a step is one add and the cap check one AND.  Each
cell keeps the largest value and, among its maximisers, the
reverse-lexicographically largest count vector, stored as a shared
``(prefix, column, take)`` node; points are decoded for the kept cells
only, and count vectors only by ``PointTable.decode``.

Every sum runs in a *frame*: a point is one ``int`` code, digit ``j`` of
its offset from the frame's low corner times ``strides[j]``, axis 0 most
significant, so codes sort like points and ``code(p + q)`` is one add.
Zero-valued tables (feasibility mode) keep their codes as the set bits
of one big-int bitset, whose sum step (``_fold_bits``) is a few
shift-ORs and one AND; tables with values (optimize mode) keep a dict
from packed code to value, a field per axis under a guard bit, whose
step (``_fold_packed``) tests every pair of a sparse right table, a
brick with few points per prefix group, with one guard-bit expression
(``_pair_sum``), and walks a prefix-grouped index of a dense one
(``_index_sum``).  These two steps are the one sum kernel, with two
callers:

- ``fold_tables`` sums the brick tables one at a time in one fold-wide
  frame, from the origin or, for a solver level above the first, from
  ``2*prev``, the level below scaled by 2, keeping only points that can
  still land inside the target window given the summed reach of the
  bricks not yet folded; that window depends on which bricks remain,
  not on the order.
  The order is greedy, as in bucket elimination: each step takes the
  brick with the smallest bound on its output plus its probe work,
  computed from table sizes and reaches alone, ties going to the lowest
  brick position.  Bricks that pin a shared row thus go before bricks
  that spread over several, and partial sums stay small.  Because the
  Minkowski sum and max-plus are associative and commutative, and every
  partial sum of a surviving decomposition stays inside its window, the
  point -> value map is the same in every order; only tie witnesses
  follow it.
- ``sumset``, every ``scale*p + q`` in a window, sets up a frame per
  call around the two tables, codes ``scale*p`` as its left table
  and runs one step.  A zero-valued fold whose frame exceeds its bitset
  cap runs it: at scale 2 for its first step from ``2*prev``, and as
  ``convolve``, at scale 1, for every other step.

No table stores a pair.  A base cell remembers its column-count chain; a
sum table remembers its two parents, and ``PointTable.decode`` recovers
the pair of a point on demand: the first maximiser in sorted ``(p, q)``
order.  The tables of the folds and of the solver's levels thus form one
witness graph from the bricks to the top level, and ``decode`` expands
any point of it, in one walk, into per-brick count vectors, listed in
brick order whatever order the fold took.

In optimize mode each cell also carries the best objective value seen
for that point; feasibility mode is the same machinery with all-zero
values.  The witness a point decodes to depends only on the tables, so
reruns are bit-stable.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add, gt, itemgetter, le, lshift, mul, sub
from typing import Sequence

from .core import MODE_FEASIBILITY, MODE_OPTIMIZE, InternalError, NFoldInstance
from .plan import IterationPlan

logger = logging.getLogger(__name__)


def _reach_of(points) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-axis (min, max) over a nonempty collection of points."""
    axes = list(zip(*points))
    return tuple(map(min, axes)), tuple(map(max, axes))


@dataclass
class BlockWitness:
    """One brick's decoded column counts for a point."""

    block: int
    counts: tuple[int, ...]


class PointTable:
    """Reachable point set with witnesses and per-cell values.

    ``cells`` maps an r-tuple point to ``(value, payload)``, listed in
    ascending point order (``decode`` relies on it).  Two payload kinds
    are left:

    - a base table, over ``columns`` columns of brick ``block``: the
      ``(prefix, column, take)`` witness chain of ``block_base_table``,
      or None for no copies;
    - a frame table: none, each cell is ``(value,)``.  Only the result of
      a fold or of ``sumset`` lists its points in ``cells``.

    A frame table has ``strides`` and codes each point in its frame: one
    ``int``, digit ``j`` of ``point - low`` in ``[0, radix_j)`` times
    ``strides[j]``.  A zero-valued table keeps the codes as the set bits
    of ``bits`` (every value 0); a valued one keeps ``codes``, a dict
    from code to value.  Its ``parents`` say where its points come from:

    - none: the origin of a fold, the one point 0 valued 0;
    - one, at ``scale``: the left table of ``sumset`` or the start of a
      fold from ``2*prev`` (scale 2), each point ``scale*p`` for a point
      ``p`` of the parent, valued ``scale*value(p)``;
    - two: a sum ``left + right`` made by one step.  It stores no pairs:
      ``added`` lists the ``(code, q)`` of the points ``q`` of ``right``
      that the step added, ascending, and ``decode`` recovers each pair
      on demand.

    Tables and their parents form one witness graph, from the bricks up
    to a solve's top level, and ``decode`` expands a point of it into
    count vectors.
    """

    __slots__ = (
        "r", "cells", "block", "columns", "parents", "scale", "bits", "codes",
        "strides", "radix", "low", "added", "_reach",
    )

    def __init__(
        self,
        r: int,
        *,
        block: int | None = None,
        columns: int = 0,
        parents: tuple["PointTable", ...] | None = None,
    ) -> None:
        self.r = r
        self.block = block
        self.columns = columns
        self.parents = parents
        self.scale = 1
        self.cells: dict[tuple[int, ...], tuple] = {}
        self.bits: int | None = None
        self.codes: dict[int, int] | None = None
        self.strides: tuple[int, ...] = ()
        self.radix: tuple[int, ...] = ()
        self.low: tuple[int, ...] = ()
        self.added: list[tuple[int, tuple[int, ...]]] = []
        self._reach: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __len__(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return len(self.cells if self.codes is None else self.codes)

    def _codes(self) -> list[int]:
        """A frame table's codes, ascending."""
        return _set_bits(self.bits) if self.codes is None else sorted(self.codes)

    def points(self) -> list[tuple[int, ...]]:
        """Points in sorted (deterministic) order."""
        if not self.strides:
            return sorted(self.cells)
        return list(zip(*self._axes(self._codes())))

    def _axes(self, codes: list[int]) -> list[list[int]]:
        """Per axis, the coordinates of the points of ``codes`` in this
        table's frame, in their order.

        Digit ``j`` is ``code // strides[j] % radix[j]``: the fields below
        it sum to less than its stride, and a packed field's guard bit,
        always 0 in a stored code, is a multiple of its radix.
        """
        return [
            [code // stride % radix + low for code in codes]
            for stride, radix, low in zip(self.strides, self.radix, self.low)
        ]

    def _value_at(self, code: int) -> int | None:
        """A frame table's value at ``code``; None when no point has it."""
        if self.codes is not None:
            return self.codes.get(code)
        return 0 if code >= 0 and self.bits >> code & 1 else None

    def _code(self, pt: tuple[int, ...]) -> int:
        """``pt``'s code in this table's frame; -1 when a digit is outside."""
        code = 0
        for x, low, radix, stride in zip(pt, self.low, self.radix, self.strides):
            if not 0 <= x - low < radix:
                return -1
            code += (x - low) * stride
        return code

    def __contains__(self, pt: tuple[int, ...]) -> bool:
        if not self.strides:
            return pt in self.cells
        return self._value_at(self._code(pt)) is not None

    def _pair(self, point: tuple[int, ...], code: int, target: int) -> tuple:
        """A sum table's ``(p, q, code(p), value(p))`` for ``point``, coded
        ``code`` and valued ``target``: see ``decode``."""
        left, right = self.parents
        value_at, cells, added = left._value_at, right.cells, self.added
        # A left code is never negative: skip every q coded above ``code``.
        for q_code, q in reversed(added[:bisect_right(added, code, key=itemgetter(0))]):
            value = value_at(code - q_code)
            if value is not None and value + cells[q][0] == target:
                return tuple(map(sub, point, q)), q, code - q_code, value
        raise InternalError(f"corrupt witness: no pair for {point}")

    def _list_cells(self) -> None:
        """Fill a frame table's ``cells``, its points, sorted, as
        ``(value,)``, and its reach."""
        codes = self._codes()
        axes = self._axes(codes)
        if self.codes is None:
            self.cells = dict.fromkeys(zip(*axes), (0,))
        else:
            self.cells = dict(zip(zip(*axes), [(self.codes[c],) for c in codes]))
        if codes:
            self._reach = tuple(map(min, axes)), tuple(map(max, axes))

    def value(self, pt: tuple[int, ...]) -> int:
        if not self.strides:
            return self.cells[pt][0]
        return self._value_at(self._code(pt))

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-axis (min, max) over the stored points; zeros when empty."""
        if self._reach is None:
            self._reach = _reach_of(self.cells or self.points() or [(0,) * self.r])
        return self._reach

    def filtered(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> "PointTable":
        """A base table's copy with only the points inside [lo, hi] per axis."""
        out = PointTable(self.r, block=self.block, columns=self.columns)
        for pt, cell in self.cells.items():
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi)):
                out.cells[pt] = cell
        return out

    def decode(self, pt: tuple[int, ...]) -> list[BlockWitness]:
        """Expand a point into per-brick column counts, sorted by brick.

        One walk of the witness graph down to the base tables, carrying a
        weight that starts at 1: both parents of a sum keep the weight,
        a one-parent table at scale ``s`` (``sumset``'s left table or a
        fold's start from ``2*prev``) passes ``weight*s`` to its parent,
        and a base table adds ``weight*take`` into its
        brick's counts.  A missing point, or a point with no pair, raises
        ``InternalError``: a corrupt witness is a bug, never an input
        problem.

        A sum table stores no pairs.  Its pair for ``point`` is the
        smallest ``p`` of the left parent with ``q = point - p`` in the
        right one and ``value(p) + value(q) == value(point)``: the first
        maximiser in sorted ``(p, q)`` order.  For a ``sumset`` that is
        the smallest ``p`` of its own left operand, whose points are
        ``scale*p``.  The search (``_pair``) takes the step's ``added``
        points ``q`` coded at most ``code(point)``, found by one bisect,
        in descending order, each one code subtraction and one lookup.
        That lookup is exact: a point of the left table plus an added
        ``q`` never carries a digit in the frame, so
        ``code(point) - code(q) == code(p)`` only for ``p == point - q``.
        """
        counts: dict[int, list[int]] = {}
        stack: list[tuple[PointTable, tuple[int, ...], int]] = [(self, pt, 1)]
        while stack:
            table, point, weight = stack.pop()
            if table.strides:
                code = table._code(point)
                target = table._value_at(code)
                if target is None:
                    raise InternalError(f"corrupt witness: {point} missing")
                # Down the chain of sums; each pair found is in the left
                # parent, at the code it was found.
                while table.parents is not None:
                    if len(table.parents) == 1:  # scale*p, p in the parent
                        scale = table.scale
                        p = tuple(x // scale for x in point)
                        stack.append((table.parents[0], p, weight * scale))
                        break
                    point, q, code, target = table._pair(point, code, target)
                    table, right = table.parents
                    stack.append((right, q, weight))
                continue
            cell = table.cells.get(point)
            if cell is None:
                raise InternalError(f"corrupt witness: {point} missing")
            acc = counts.setdefault(table.block, [0] * table.columns)
            node = cell[1]
            while node is not None:
                node, j, take = node
                acc[j] += weight * take
        return [BlockWitness(block=k, counts=tuple(counts[k])) for k in sorted(counts)]


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
    witness.  Each column runs one in-place pass with ``u`` ascending, in
    which ``(u, p + col)`` takes one more copy of the column from ``(u -
    1, p)``.  That source already holds this column's best take, so any
    number of copies chains through the one pass: a column costs one
    visit per state, each target has exactly one source, and no layer is
    ever sorted.  The new candidate replaces the state when its value is
    ``>=``, so on ties the larger take wins.  The table is
    ``layers[placed]`` after the last column.

    Each cell holds the largest value of its point, and its witness is
    the reverse-lexicographically largest count vector (compared from the
    last column back) among the maximisers.  Cells are inserted in sorted
    point order.  A witness is a shared ``(prefix, column, take)`` node,
    made only for a take of at least one; ``PointTable.decode`` expands
    it into the count vector, so no count vector is built here.

    Entries must be nonnegative, and a negative one raises
    ``ValueError``: the solver shifts a signed program first
    (``reduction.reduce_instance``), so along a pass points only grow and
    a candidate past the cap is dropped as soon as it is made.  The DP
    runs on codes: field ``i`` holds ``x_i - low_i`` in ``w_i`` bits
    under one zero guard bit, axis 0 most significant, so a step is ``q =
    p + code(col)``.  With ``c_i = min(hi_i, placed * max of row i)``,
    ``w_i`` holds ``c_i`` and ``low_i = c_i + 1 - 2**w_i`` puts the cap
    at the top of the field: a point past it sets the field's guard bit,
    so the check is ``q & guard``.  A kept point plus a column within the
    cap is at most ``2*c_i``, whose field ``2*c_i - low_i`` is still below
    ``2**(w_i + 1)``: it never carries past the guard, since a column
    with an entry above the cap is skipped before its pass.  A cap below
    0 counts as -1, so even the origin sets its guard and nothing is
    kept.  Stored codes have every guard bit 0, so they sort like points;
    only the final cells are decoded.

    Parameters
    ----------
    block : matrix
        r x t brick matrix, ``t >= 1``, entries ``>= 0``.
    placed : int
        Exact number of units this brick must place.
    costs : sequence of int, optional
        Per-column objective coefficients; omitted means feasibility
        (all values zero).
    hi : tuple of int, optional
        Per-axis upper cap for kept points; omitted means the brick's own
        reach ``placed * max(row)``, which removes nothing.
    """
    cols = list(zip(*block))  # column vectors of the row-major brick
    if not cols:
        raise ValueError("a brick needs at least one column")
    if min(map(min, block)) < 0:
        raise ValueError("brick entries must be >= 0; shift signed programs first")
    if costs is None:
        costs = (0,) * len(cols)

    # Point codes: (shift, mask, low) per axis, axis 0 in the highest field.
    caps = [placed * max(row) for row in block]
    if hi is not None:
        caps = [max(min(c, h), -1) for c, h in zip(caps, hi)]
    fields: list[tuple[int, int, int]] = []
    shift = guard = 0
    for c in reversed(caps):
        width = max(c, 0).bit_length()
        fields.append((shift, (1 << width) - 1, c + 1 - (1 << width)))
        guard |= 1 << (shift + width)
        shift += width + 1
    fields.reverse()
    shifts = [s for s, _, _ in fields]

    # layers[u] : code -> (value, witness node or None for no copies)
    layers: list[dict[int, tuple]] = [{} for _ in range(placed + 1)]
    origin = sum(-low << s for s, _, low in fields)
    if not origin & guard:
        layers[0][origin] = (0, None)
    for j, col in enumerate(cols):
        if any(map(gt, col, caps)):
            continue
        step, cost = sum(map(lshift, col, shifts)), costs[j]
        for u in range(1, placed + 1):
            dst = layers[u]
            for p, (value, node) in layers[u - 1].items():
                q = p + step
                if q & guard:
                    continue
                value += cost
                prev = dst.get(q)
                if prev is None or value >= prev[0]:
                    if node is not None and node[1] == j:
                        node = (node[0], j, node[2] + 1)
                    else:
                        node = (node, j, 1)
                    dst[q] = (value, node)

    final = layers[placed]
    table = PointTable(len(block), block=block_index, columns=len(cols))
    for code in sorted(final):
        q = tuple([(code >> s & mask) + low for s, mask, low in fields])
        table.cells[q] = final[code]
    return table


def sumset(
    a: PointTable,
    b: PointTable,
    scale: int,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Every ``scale*p + q`` in ``[lo, hi]``, ``p`` in ``a`` and ``q`` in ``b``.

    A point's value is the largest ``scale*value(p) + value(q)`` over its
    pairs (a cell's value is its first entry), and ``decode`` recovers
    the first maximiser in sorted ``(p, q)`` order.  Points may have any
    sign.  The result is a frame table that lists its points, sorted, as
    ``(value,)``; an empty result is a bare ``PointTable``.

    A frame setup around one step of the fold's kernel.  ``_clip_pair``
    drops the points that cannot land in the window (a one-point window,
    whose pairs are lookups, keeps every point); the frame's low corner
    is ``scale*a_lo + b_lo`` and its digit ``j`` runs up to
    ``scale*spread(a)_j + spread(b)_j`` over the kept points' reaches,
    so no digit sum carries.  The left table holds ``scale*p`` for every
    kept ``p``, with ``a`` as its one parent at ``scale``, and one
    ``_fold_bits`` or ``_fold_packed`` step adds the kept ``b`` to it, a
    one-point window by lookup.  Zero-valued tables take a mixed-radix
    bitset while it has at most ``_BITS_PER_POINT`` bits per kept point
    of ``b``; anything else takes guard-bit packed codes.
    """
    if not a.cells or not b.cells or any(map(gt, lo, hi)):
        return PointTable(a.r)
    if lo == hi:  # pairs are lookups; a frame over the whole reaches is exact
        clipped = a.cells, a.reach(), b.cells, b.reach()
    else:
        clipped = _clip_pair(a, b, scale, lo, hi)
        if clipped is None:
            return PointTable(a.r)
    a_pts, (a_lo, a_hi), b_pts, (b_lo, b_hi) = clipped
    tops = [
        scale * (ah - al) + bh - bl for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi)
    ]
    left = _frame(tops, 0 if _has_values((a, b)) else _BITS_PER_POINT * len(b_pts))
    left.low = tuple(scale * x for x in a_lo)
    _scaled(left, a, a_pts, scale)
    step, strides = _fold_bits if left.codes is None else _fold_packed, left.strides
    corner = tuple(map(add, left.low, b_lo))
    out = step(
        left, b, _coded(b_pts, strides, sum(map(mul, b_lo, strides))),
        tuple(max(l - c, 0) for l, c in zip(lo, corner)),
        tuple(min(h - c, top) for h, c, top in zip(hi, corner, tops)),
    )
    out.low = corner
    out._list_cells()
    return out


# Largest bitset, in bits per kept point of the right table, that
# ``sumset`` builds for zero-valued tables; larger ones take packed codes.
# A fold from ``2*prev`` allows as many bits per kept point of ``prev``
# (see ``fold_tables``).  A bitset step shifts whole bitsets, the packed
# step probes per point.
# Measured when a separate scale-2 ``sumset`` still combined the levels:
# the 27 zero-valued calls of the core-wide, core-deep and apps-feas
# benchmark workloads, seeds 1-3, one-point windows aside, had 2 to
# 1,159 bits per point and took 27 ms as bitsets against 158 ms packed
# (min of 20, shared 2-vCPU host); the apps-feas calls among them came
# from the scheduling ``cmax`` guess 91/3, which the bracketed search no
# longer decides.  4096 is the crossover measured for an earlier
# per-point bitset walk, which none of them comes near.
_BITS_PER_POINT = 4096


def _repeat(bits: int, count: int, step: int) -> int:
    """OR of ``bits << (i * step)`` for ``i < count``, by doubling."""
    out, done, size = 0, 0, 1
    while count:
        if count & 1:
            out |= bits << (done * step)
            done += size
        count >>= 1
        if count:
            bits |= bits << (size * step)
            size *= 2
    return out


def _box_mask(strides, lo, hi) -> int:
    """Bitset of the codes of every point in ``[lo, hi]``; 0 when empty.

    Codes are mixed radix with these ``strides`` (the last one 1), and
    ``[lo, hi]`` must lie inside the frame: ``0 <= lo`` and ``hi`` below
    each axis's radix.  Built axis by axis from the last, by doubling.
    """
    mask = 1
    for j in range(len(strides) - 1, -1, -1):
        if lo[j] > hi[j]:
            return 0
        mask = _repeat(mask, hi[j] - lo[j] + 1, strides[j]) << (lo[j] * strides[j])
    return mask


def _bitset(codes) -> int:
    """One ``int`` with bit ``code`` set for each of the nonnegative ``codes``."""
    raw = bytearray((max(codes, default=0) >> 3) + 1)
    for code in codes:
        raw[code >> 3] |= 1 << (code & 7)
    return int.from_bytes(raw, "little")


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits of ``bits >= 0``, ascending."""
    digits = bin(bits)
    top = len(digits) - 1
    out = []
    i = digits.rfind("1", 2)
    while i >= 2:
        out.append(top - i)
        i = digits.rfind("1", 2, i)
    return out


def _clip(cells, reach, lo, hi):
    """Points of ``cells`` inside ``[lo, hi]`` per axis, with their reach.

    When ``reach`` already lies inside, nothing can be removed: the points
    are taken as they are and ``reach`` is kept, without a pass.  An empty
    result also keeps ``reach``.
    """
    if all(map(le, lo, reach[0])) and all(map(le, reach[1], hi)):
        return list(cells), reach
    pts = [p for p in cells if all(map(le, lo, p)) and all(map(le, p, hi))]
    return pts, (_reach_of(pts) if pts else reach)


def _clip_pair(a: PointTable, b: PointTable, scale, lo, hi):
    """``(a_pts, a_reach, b_pts, b_reach)``: the points that can land in the window.

    ``a`` keeps the ``p`` with ``scale*p + q`` in ``[lo, hi]`` for some
    ``q`` in the reach of ``b``; ``b`` then keeps the ``q`` that some
    ``p`` in the reach of the kept ``a`` can carry there.  Each reach is
    the per-axis (min, max) of the kept points.  Returns None when either
    side is left empty.
    """
    a_reach, (b_lo, b_hi) = a.reach(), b.reach()
    a_pts, a_reach = _clip(
        a.cells, a_reach,
        [-((bh - l) // scale) for l, bh in zip(lo, b_hi)],
        [(h - bl) // scale for h, bl in zip(hi, b_lo)],
    )
    if not a_pts:
        return None
    a_lo, a_hi = a_reach
    b_pts, b_reach = _clip(
        b.cells, (b_lo, b_hi),
        [l - scale * ah for l, ah in zip(lo, a_hi)],
        [h - scale * al for h, al in zip(hi, a_lo)],
    )
    if not b_pts:
        return None
    return a_pts, a_reach, b_pts, b_reach


# Points per prefix group of the right table (its prefix: every field but
# the last) up to which ``_fold_packed`` tests each pair alone
# (``_pair_sum``); denser tables take the grouped walk of ``_index_sum``.
# Measured on the steps of the imbalance benchmark (seeds 1-3) and of the
# random planted core optimize probes in ``BENCH_packed_step.json``
# (in-process, min of 3, shared 2-vCPU host): at 1.0 to 7.0 points per
# group the pair test took 0.33-1.05x the grouped walk's time (medians
# 0.36-0.80 per probe and group size); at 22.4, the dense r = 3 step of
# the n=3 t=5 probe, 1.43x.  On synthetic r = 3 tables whose window
# drops most pairs it loses from about 2 points per group.
_PAIR_GROUP_POINTS = 8
# Right-table size above which ``_pair_sum`` first narrows each ``p``'s
# partners to those whose axis-0 digit can land, by one bisect pair.
# Same steps: at up to 15 points (the imbalance, n=10 r=2 t=3 and n=6
# r=3 t=3 steps) the pair steps ran 0.78-0.92x as long without the
# bisect; at 5,456 points (the n=3 r=4 probe) 1.31x as long.
_PAIR_BISECT_POINTS = 32


def _pair_sum(a_items, b_items, shifts, radix0, w_lo, w_hi, values) -> None:
    """``_index_sum`` for a sparse right table: one guard test per pair.

    Arguments are as for ``_index_sum``, with ``a_items`` any iterable and
    ``radix0`` axis 0's radix, so that axis's guard bit is ``radix0 <<
    shifts[0]``.  With ``G`` every field's guard bit and ``LO``, ``HI``
    the window bounds in the fields, a pair lands exactly when ``(kl +
    code(q)) & (kh - code(q)) & G == G`` for ``kl = code(p) + G - LO`` and
    ``kh = (G | HI) - code(p)``: each field's sum lies in ``[0, radix)``,
    so a field of ``sum + G - LO`` reaches its guard bit exactly when
    ``sum >= lo``, and one of ``(G | HI) - sum`` keeps it exactly when
    ``sum <= hi``, and no field borrows from or carries into another.
    Above ``_PAIR_BISECT_POINTS`` points, ``b`` (ascending) is first cut
    to the ``q`` whose axis-0 digit lands, by one bisect pair per ``p``.
    """
    top = shifts[0]
    guards = sum(1 << s - 1 for s in shifts[:-1]) | radix0 << top
    g_lo = guards - sum(map(lshift, w_lo, shifts))
    g_hi = guards | sum(map(lshift, w_hi, shifts))
    top_lo, top_hi = w_lo[0] << top, w_hi[0] + 1 << top
    codes = [c for c, _ in b_items] if len(b_items) > _PAIR_BISECT_POINTS else None
    get = values.get
    partners = b_items
    for pc, p_val in a_items:
        k_lo, k_hi = pc + g_lo, g_hi - pc
        if codes is not None:
            head = pc >> top << top
            i0 = bisect_left(codes, top_lo - head)
            partners = b_items[i0:bisect_left(codes, top_hi - head, i0)]
        for qc, q_val in partners:
            if (k_lo + qc) & (k_hi - qc) & guards == guards:
                key = pc + qc
                value = p_val + q_val
                prev = get(key)
                if prev is None or value > prev:
                    values[key] = value


def _index_sum(a_items, b_items, shifts, w_lo, w_hi, values) -> None:
    """Max-plus sums of every pair of packed codes inside a window, for a
    right table with more than ``_PAIR_GROUP_POINTS`` points per prefix
    group; a sparser one takes ``_pair_sum`` (see ``_fold_packed``).

    Items are ``(code, value)``.  Codes share one frame: field ``i``
    starts at bit ``shifts[i]`` (the last at 0) under one zero guard bit,
    and no field of ``code(p) + code(q)`` carries, so that sum is the code
    of the sum point.  A pair lands when every field of it lies in
    ``[w_lo_i, w_hi_i]``, and ``values`` keeps, under the sum's code, the
    largest ``value(p) + value(q)``.

    ``b`` is grouped by prefix code (the last field zeroed), with the last
    fields sorted inside each group.  For each ``p`` one bisect finds the
    groups whose axis-0 field lands in the window, and ``k = code(p) +
    prefix`` tests every middle field at once: ``((k | G) - LO) & G ==
    G`` and ``((HI | G) - k) & G == G``, with ``G`` the middle guard bits
    and ``LO``, ``HI`` the window bounds in the middle fields (``HI`` has
    an all-ones last field, so no borrow reaches them).  A guard bit set
    before the subtraction absorbs its own field's borrow and survives
    exactly when that field is in bounds.  A bisect on the last field then
    yields the ``q`` that land.
    """
    r = len(shifts)
    last_mask = (1 << shifts[-2] - 1) - 1 if r > 1 else -1
    guards = sum(1 << shifts[i - 1] - 1 for i in range(1, r - 1))
    top = shifts[0]
    top_lo, top_hi = w_lo[0] << top, w_hi[0] + 1 << top
    # k has no guard bit set, so (k | G) - LO == k + mid_lo.
    mid_lo = guards - sum(map(lshift, w_lo[1:-1], shifts[1:-1]))
    mid_hi = guards | last_mask + sum(map(lshift, w_hi[1:-1], shifts[1:-1]))

    prefixes: list[int] = []
    index = []
    for code, value in sorted(b_items):
        prefix = code & ~last_mask
        if not prefixes or prefixes[-1] != prefix:
            prefixes.append(prefix)
            lasts, b_values = [], []
            index.append((prefix, lasts, b_values))
        lasts.append(code & last_mask)
        b_values.append(value)

    get = values.get
    for pc, p_val in a_items:
        groups = index
        if r > 1:
            head = pc >> top << top
            g0 = bisect_left(prefixes, top_lo - head)
            groups = index[g0:bisect_left(prefixes, top_hi - head, g0)]
        k_lo, k_hi = pc + mid_lo, mid_hi - pc
        p_last = pc & last_mask
        q_lo, q_hi = w_lo[-1] - p_last, w_hi[-1] - p_last
        for prefix, lasts, b_values in groups:
            if guards and (k_lo + prefix) & (k_hi - prefix) & guards != guards:
                continue
            offset = pc + prefix
            i0 = bisect_left(lasts, q_lo)
            for i in range(i0, bisect_right(lasts, q_hi, i0)):
                key = offset + lasts[i]
                value = p_val + b_values[i]
                prev = get(key)
                if prev is None or value > prev:
                    values[key] = value


def convolve(
    a: PointTable,
    b: PointTable,
    *,
    lo: tuple[int, ...] | None = None,
    hi: tuple[int, ...] | None = None,
) -> PointTable:
    """Minkowski sum ``a + b`` of two listed tables inside ``[lo, hi]``:
    ``sumset`` at scale 1, whose result decodes through ``a`` and ``b``.

    Values add; a missing window side defaults to ``reach(a) + reach(b)``.
    """
    if lo is None or hi is None:
        (a_lo, a_hi), (b_lo, b_hi) = a.reach(), b.reach()
        lo = lo if lo is not None else tuple(map(add, a_lo, b_lo))
        hi = hi if hi is not None else tuple(map(add, a_hi, b_hi))
    return sumset(a, b, 1, lo, hi)


# Largest frame, in bits, in which ``fold_tables`` folds zero-valued
# tables as bitsets from the origin; larger ones take the ``convolve``
# chain.  See ``fold_tables`` for the cap of a fold from ``2*prev``.
# Measured on the scheduling ``cmax`` fold of the benchmark instance at
# the guess 91/3, the first guess of the unbracketed search (the
# bracketed one no longer decides it): 3 r=4 tables of 399, 693 and 659
# points into one point, in a frame of 1,299,480 bits.  Timed in-process
# (min of 7 calls, seeds 1-3, on a shared 2-vCPU host), it takes 9.6 to
# 9.8 ms as the ``convolve`` chain, whose frames hold 802,893 and 849,303
# bits, and 12.4 to 22.9 ms as an uncapped bitset (its last step the
# one-point lookup).
_FOLD_FRAME_BITS = 1 << 20


def _frame(tops, bitset_bits: int) -> PointTable:
    """An empty frame table, low corner 0, whose digit ``j`` holds
    ``[0, tops_j]``; axis 0 is most significant, so codes sort like points.

    When the mixed-radix code space, ``radix_j = tops_j + 1``, has at
    most ``bitset_bits`` codes, the table is a bitset (``bits = 0``).
    Otherwise it holds packed codes (``codes = {}``): digit ``j`` has
    ``w_j`` bits, ``radix_j = 2**w_j > tops_j``, under one zero guard bit.
    """
    table = PointTable(len(tops))
    table.low = (0,) * len(tops)
    radix = [top + 1 for top in tops]
    if math.prod(radix) <= bitset_bits:
        table.bits, fields = 0, radix
    else:
        radix = [1 << top.bit_length() for top in tops]
        table.codes, fields = {}, [2 * rd for rd in radix]  # digit and guard bit
    table.radix = tuple(radix)
    table.strides = tuple(math.prod(fields[j + 1:]) for j in range(len(fields)))
    return table


def _fold_frame(tables, reaches, hi, low, prev, pts):
    """``(step, start)`` of a fold in a frame, or None for a zero-valued
    fold above its bitset cap.

    ``start`` is the fold's first partial, in a ``_frame`` with low corner
    ``low``: the origin alone, or ``2*p`` for the points ``p`` of ``pts``
    with ``prev`` as its one parent, at scale 2.  A partial point lies in
    ``[low, hi]`` and a brick point in ``[0, reach_hi]``, so with ``top_j
    = max(hi_j - low_j, 0) + max_t reach_hi_j`` digit sums never carry.
    Valued tables take packed codes and ``_fold_packed``, zero-valued
    ones a bitset and ``_fold_bits``.
    """
    tops = map(max, zip(*(t_hi for _, t_hi in reaches)))
    tops = [max(h - l, 0) + top for h, l, top in zip(hi, low, tops)]
    valued = _has_values(tables if prev is None else [*tables, prev])
    cap = max(_FOLD_FRAME_BITS, _BITS_PER_POINT * len(pts))
    start = _frame(tops, 0 if valued else cap)
    if start.codes is not None and not valued:
        return None
    start.low = low
    if prev is not None:
        _scaled(start, prev, pts, 2)
    elif start.codes is None:
        start.bits = 1
    else:
        start.codes[0] = 0
    return (_fold_bits if start.codes is None else _fold_packed), start


def _has_values(tables) -> bool:
    """Whether any cell of ``tables`` has a nonzero value."""
    return any(any(map(itemgetter(0), t.cells.values())) for t in tables)


def _coded(pts, strides, base: int = 0) -> list[tuple[int, tuple[int, ...]]]:
    """``(sum(p*strides) - base, p)`` for each point ``p`` of ``pts``."""
    return [(sum(map(mul, p, strides)) - base, p) for p in pts]


def _scaled(left: PointTable, a: PointTable, pts, scale: int) -> None:
    """Fill the empty frame table ``left`` with ``scale*p`` for the points
    ``p`` of ``a`` in ``pts``, valued ``scale*value(p)``; ``a`` becomes its
    one parent, at ``scale``."""
    strides = left.strides
    coded = _coded(pts, [scale * s for s in strides], sum(map(mul, left.low, strides)))
    left.parents, left.scale = (a,), scale
    if left.codes is None:
        left.bits = _bitset([c for c, _ in coded])
    else:
        left.codes = {c: scale * a.cells[p][0] for c, p in coded}


def _fold_step(left: PointTable, right: PointTable, added) -> PointTable:
    """An empty sum ``left + right`` in ``left``'s frame, adding ``added``."""
    out = PointTable(left.r, parents=(left, right))
    out.strides, out.radix, out.low = left.strides, left.radix, left.low
    out.added = added
    return out


def _fold_bits(
    left: PointTable,
    right: PointTable,
    added: list[tuple[int, tuple[int, ...]]],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Zero-valued step ``left + right`` in ``[lo, hi]``, as a bitset.

    ``added`` lists ``(code, q)`` for the points ``q`` of ``right`` to
    add, in ``left``'s frame, ascending; ``lo`` and ``hi`` are digits of
    that frame.  A
    one-point window ANDs ``left`` with the bitset of the partner codes
    ``code(lo) - code(q)``.  Otherwise the smaller side gives the shifts:
    ``min(|left|, |added|)`` shift-ORs of the other side's bitset, then
    one AND with the window's mask.
    """
    strides = left.strides
    out = _fold_step(left, right, added)
    if lo == hi:
        code = sum(map(mul, lo, strides))
        hits = _bitset([code - c for c, _ in added if c <= code])
        out.bits = 1 << code if hits & left.bits else 0
        return out
    out.bits = 0
    mask = _box_mask(strides, lo, hi)
    if not mask:
        return out
    codes = [c for c, _ in added]
    if len(codes) <= len(left):
        base, shifts = left.bits, codes
    else:
        base, shifts = _bitset(codes), _set_bits(left.bits)
    acc = 0
    for shift in shifts:
        acc |= base << shift
    out.bits = acc & mask
    return out


def _fold_packed(
    left: PointTable,
    right: PointTable,
    added: list[tuple[int, tuple[int, ...]]],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Valued step ``left + right`` in ``[lo, hi]``, as code -> value.

    ``added`` is as for ``_fold_bits``.  A
    one-point window looks up the partner codes ``code(lo) - code(q)`` in
    ``left`` and keeps the largest sum.  Otherwise the step runs on the
    frame's codes, so no point is decoded or turned into a tuple: a right
    table with at most ``_PAIR_GROUP_POINTS`` points per prefix group
    tests each pair (``_pair_sum``), a denser one walks its prefix groups
    (``_index_sum``).  Max-plus sums do not depend on the order of the
    pairs, so both give the same code -> value map.
    """
    strides, codes, cells = left.strides, left.codes, right.cells
    out = _fold_step(left, right, added)
    out.codes = {}
    if lo == hi:
        code = sum(map(mul, lo, strides))
        sums = [codes[code - c] + cells[q][0] for c, q in added if code - c in codes]
        if sums:
            out.codes[code] = max(sums)
    elif not any(map(gt, lo, hi)):
        shifts = [stride.bit_length() - 1 for stride in strides]
        b_items = [(c, cells[q][0]) for c, q in added]
        # Prefix groups: codes with every field but the last alike.
        prefix = -(1 << shifts[-2] - 1) if len(shifts) > 1 else 0
        if len(b_items) <= _PAIR_GROUP_POINTS * len({c & prefix for c, _ in b_items}):
            _pair_sum(codes.items(), b_items, shifts, left.radix[0], lo, hi, out.codes)
        else:
            _index_sum(list(codes.items()), b_items, shifts, lo, hi, out.codes)
    return out


def fold_tables(
    tables: Sequence[PointTable],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    prev: PointTable | None = None,
) -> PointTable:
    """Sum brick tables into the window ``[lo, hi]``, cheapest step first,
    from the origin or from ``2*prev``: every ``2*p + q_1 + ... + q_n``.

    Windows: with ``rest`` the summed per-axis reach of the tables not
    yet folded, a partial sum is clipped to ``[max(0, lo - rest_hi),
    hi - rest_lo]``; anything outside can no longer be steered into
    ``[lo, hi]`` (every table point is nonnegative), and the last step
    lands exactly in ``[lo, hi]``.  The window depends on which tables
    remain, not on the order they were taken in.  From ``prev``, only
    the ``p`` with ``2*p`` in the first window are kept.

    Order: the partial starts as the origin or as the kept ``2*p``, and
    each step takes the remaining table ``t`` with the lowest estimated
    cost, ties going to the lowest position in ``tables``.  The estimate
    is the output bound ``min(|P|*|t|, volume of window ∩ (box P + reach
    t))`` plus the probe bound ``|P| * min(|t|, prod(min(window width,
    spread t) + 1))``, where ``box P`` is the bound on the partial's
    reach carried from the previous step (the partial is never
    rescanned).  The output term pulls forward tables that pin shared
    rows, so partial sums stay small; the probe term keeps a large table
    late.  Bricks of equal size and reach are interchangeable for the
    rule, so they are scored once per step and taken in position order.

    The point -> value map does not depend on the order: the Minkowski
    sum and max-plus are associative and commutative, and every partial
    sum of a decomposition that ends in ``[lo, hi]`` lies inside its
    window in any order.  Only tie witnesses follow the order;
    ``PointTable.decode`` returns witnesses in brick order.

    Steps run one of two paths, both with the same partial point sets
    and the same witnesses:

    - frame (``_fold_frame``): every valued fold, and every zero-valued
      fold under the bitset cap.  The partial starts in one fold-wide
      frame, one ``int`` per point, and every step is ``_fold_packed``
      (a dict from code to value; one guard test per pair for a sparse
      brick table, ``_index_sum``'s prefix groups for a dense one) or
      ``_fold_bits`` (one bitset ``int``).  No step builds a cell; the
      result lists its points in ``cells`` as ``(value,)``, sorted;
    - ``convolve`` chain: a zero-valued fold above the cap.  The first
      step filters its table to its window, or from ``prev`` is a
      ``sumset`` at scale 2, and every later one is a ``convolve``; each
      runs the same steps in a frame of its own, fitted to its tables.

    Bitset cap: ``max(_FOLD_FRAME_BITS, _BITS_PER_POINT * |kept p|)``
    frame bits, so ``_FOLD_FRAME_BITS`` from the origin.  A step costs
    ``min(|P|, |t|)`` shifts over the whole frame, while a ``convolve``
    frame spans only the clipped tables, so a large fold frame of few
    points is slower as a bitset; the points kept from ``prev`` raise
    the cap as the right table's points raise ``sumset``'s.
    """
    if not tables:
        raise ValueError("fold_tables needs at least one table")
    r = tables[0].r
    reaches = [t.reach() for t in tables]
    rest_lo = [sum(axis) for axis in zip(*(t_lo for t_lo, _ in reaches))]
    rest_hi = [sum(axis) for axis in zip(*(t_hi for _, t_hi in reaches))]
    if prev is None:
        pts, low, size, box_lo, box_hi = (), (0,) * r, 1, (0,) * r, (0,) * r
    else:
        pts, (p_lo, p_hi) = _clip(prev.cells, prev.reach(),
                                  [-((rh - l) // 2) for l, rh in zip(lo, rest_hi)],
                                  [(h - rl) // 2 for h, rl in zip(hi, rest_lo)])
        if not pts:
            return PointTable(r)
        box_lo, box_hi = tuple(2 * x for x in p_lo), tuple(2 * x for x in p_hi)
        # No partial point lies below 2*min p, nor, once clipped to its
        # window, below lo - rest_hi: that is the frame's low corner.
        low, size = tuple(map(max, map(sub, lo, rest_hi), box_lo)), len(pts)
    step, partial = _fold_frame(tables, reaches, hi, low, prev, pts) or (None, None)
    if step is not None:  # from here on, offsets from the frame's low corner
        lo, hi, box_lo, box_hi = (
            tuple(map(sub, v, low)) for v in (lo, hi, box_lo, box_hi))
    # (size, reach) -> positions, highest first, so pop() takes the lowest.
    groups: dict[tuple, list[int]] = {}
    for idx in range(len(tables) - 1, -1, -1):
        groups.setdefault((len(tables[idx]), reaches[idx]), []).append(idx)

    order: list[int] = []
    peak = 0
    while groups:
        # The window of table t is [max(0, gap_lo + t_hi), gap_hi + t_lo].
        gap_lo = list(map(sub, lo, rest_hi))
        gap_hi = list(map(sub, hi, rest_lo))
        best = best_key = None
        for key, idxs in groups.items():
            n_t, (t_lo, t_hi) = key
            volume = probe = 1
            for gl, gh, bl, bh, tl, th in zip(
                gap_lo, gap_hi, box_lo, box_hi, t_lo, t_hi
            ):
                wl = gl + th if gl + th > 0 else 0
                wh = gh + tl
                ol = bl + tl if bl + tl > wl else wl
                oh = bh + th if bh + th < wh else wh
                volume *= oh - ol + 1 if oh >= ol else 0
                span = wh - wl if wh - wl < th - tl else th - tl
                probe *= span + 1 if span >= 0 else 0
            score = min(size * n_t, volume) + size * min(n_t, probe)
            if best is None or (score, idxs[-1]) < best:
                best, best_key = (score, idxs[-1]), key
        idx = best[1]
        idxs = groups[best_key]
        idxs.pop()
        if not idxs:
            del groups[best_key]
        t_lo, t_hi = best_key[1]
        w_lo = tuple(max(0, gl + th) for gl, th in zip(gap_lo, t_hi))
        w_hi = tuple(map(add, gap_hi, t_lo))
        box_lo = tuple(map(max, w_lo, map(add, box_lo, t_lo)))
        box_hi = tuple(map(min, w_hi, map(add, box_hi, t_hi)))
        rest_lo = list(map(sub, rest_lo, t_lo))
        rest_hi = list(map(sub, rest_hi, t_hi))
        if step is not None:
            added = _coded(tables[idx].cells, partial.strides)
            partial = step(partial, tables[idx], added, w_lo, w_hi)
        elif partial is None:
            partial = (tables[idx].filtered(w_lo, w_hi) if prev is None
                       else sumset(prev, tables[idx], 2, w_lo, w_hi))
        else:
            partial = convolve(partial, tables[idx], lo=w_lo, hi=w_hi)
        order.append(idx)
        size = len(partial)
        peak = max(peak, size)
        if not size:
            break
    if step is not None:
        partial._list_cells()
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
    """Per-brick base tables for one level's placed counts.

    ``inst`` is the sign-reduced program, so every brick is nonnegative.
    Each table is capped per axis at ``hi`` when given: a brick's point
    never exceeds the fold window it lands in, since the other bricks only
    add.  ``block_base_table`` itself caps at the brick's own reach.
    Cells hold witness chains; ``PointTable.decode`` expands those on the
    path of the solver's top point.
    """
    placed = plan.placed_at(level)
    costs = _block_costs(inst, mode)
    return [
        block_base_table(
            inst.blocks[k],
            placed[k],
            block_index=k,
            costs=costs[k],
            hi=hi,
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
