"""Per-level point sets: base tables per brick and one windowed Minkowski-sum kernel.

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
``base_tables_for_level`` builds one table per distinct key ``(matrix,
placed count, cost slice, cap)``, the cap being the one the builder
reads (``_caps``), in a memo that lasts one solve, or one front-end call
that passes it to every solve; every further brick with a built key gets
a view with its own ``block`` index that shares the built table's cells
and reach, and a fold codes such shared cells into its frame once.  The
solver's ``dp_cells`` counts a shared table once per brick that uses it.

Every fold runs in one *frame*: a point is one ``int`` code, digit
``j`` of its offset from the frame's low corner times ``strides[j]``,
axis 0 most significant, so codes sort like points and ``code(p + q)``
is one add.  A zero-valued fold (feasibility mode) whose frame is within
its bitset cap keeps its codes as the set bits of one big-int bitset,
whose sum step (``_fold_bits``) is a few shift-ORs and one AND; every
other fold, valued (optimize mode) or zero-valued above the cap, keeps a
dict from packed code to value, a field per axis under a guard bit, whose
step (``_fold_packed``) tests every pair of a sparse right table, a
brick with few points per prefix group, with one guard-bit expression
(``_pair_sum``), and walks a prefix-grouped index of a dense one
(``_index_sum``).  These two steps are the one sum kernel, and
``convolve``, one fold step, runs the one that fits its partial.  A
fold's result is a ``FrameTable``, coded only: no point becomes a tuple
on the way from one level to the next.

``fold_tables`` sums the brick tables one at a time in one fold-wide
frame, from the origin or, for a solver level above the first, from
``2*prev``, the level below scaled by 2, keeping only points that can
still land inside the target window given the summed reach of the
bricks not yet folded; that window depends on which bricks remain, not
on the order.  The start from ``2*prev`` reads ``prev``'s codes: a clip
in its frame (``_clip``), then, bitset to bitset, a few whole-frame
shifts, masks and one bit spread (``_double_into``), else the codes
recoded digit by digit.  The order is greedy, as in bucket elimination: each step
takes the brick with the smallest bound on its output plus its probe
work, computed from table sizes and reaches alone, ties going to the
lowest brick position; once every brick left has one table size and
reach, the step is forced and takes the lowest position unscored.
Bricks that pin a shared row thus go before bricks that spread over
several, and partial sums stay small.  Because the Minkowski sum and
max-plus are associative and commutative, and every partial sum of a
surviving decomposition stays inside its window, the point -> value map
is the same in every order; only tie witnesses follow it.

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
from operator import add, gt, itemgetter, lshift, mul, sub
from typing import Sequence

from .bits import bitset, box_mask, or_slabs, restride, set_bits, spread
from .core import MODE_OPTIMIZE, InternalError, NFoldInstance
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
    """A brick's base table: its reachable points, values and witnesses.

    ``cells`` maps an r-tuple point to ``(value, node)``, listed in
    ascending point order (``decode`` relies on it), ``node`` being the
    ``(prefix, column, take)`` witness chain of ``block_base_table`` over
    ``columns`` columns of brick ``block``, or None for no copies.  A
    fold's result is a ``FrameTable``, which codes its points instead.
    Tables and their parents form one witness graph, from the bricks up
    to a solve's top level, and ``decode`` expands a point of it into
    count vectors.
    """

    __slots__ = ("r", "cells", "block", "columns", "_reach")

    def __init__(self, r: int, *, block: int | None = None, columns: int = 0) -> None:
        self.r = r
        self.block = block
        self.columns = columns
        self.cells: dict[tuple[int, ...], tuple] = {}
        self._reach: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def points(self) -> list[tuple[int, ...]]:
        """Points in sorted (deterministic) order."""
        return sorted(self.cells)

    def __contains__(self, pt: tuple[int, ...]) -> bool:
        return pt in self.cells

    def value(self, pt: tuple[int, ...]) -> int:
        return self.cells[pt][0]

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-axis (min, max) over the stored points; zeros when empty."""
        if self._reach is None:
            self._reach = _reach_of(self.cells or [(0,) * self.r])
        return self._reach

    def decode(self, pt: tuple[int, ...]) -> list[BlockWitness]:
        """Expand a point into per-brick column counts, sorted by brick.

        One walk of the witness graph down to the base tables, carrying a
        weight that starts at 1: both parents of a sum keep the weight,
        a one-parent table at scale ``s`` (a fold's start from
        ``2*prev``, ``s = 2``) passes ``weight*s`` to its parent, and a
        base table adds ``weight*take`` into its brick's counts.  A
        missing point, or a point with no pair, raises ``InternalError``:
        a corrupt witness is a bug, never an input problem.

        A sum table stores no pairs.  Its pair for ``point`` is the
        smallest ``p`` of the left parent with ``q = point - p`` in the
        right one and ``value(p) + value(q) == value(point)``: the first
        maximiser in sorted ``(p, q)`` order.  The search
        (``FrameTable._pair``) takes the step's ``added`` points ``q``
        coded at most ``code(point)``, found by one bisect, and tries the
        partner codes ``code(point) - code(q)``, smallest first.
        That lookup is exact: a point of the left table plus an added
        ``q`` never carries a digit in the frame, so
        ``code(point) - code(q) == code(p)`` only for ``p == point - q``.
        """
        counts: dict[int, list[int]] = {}
        stack: list[tuple[PointTable, tuple[int, ...], int]] = [(self, pt, 1)]
        while stack:
            table, point, weight = stack.pop()
            if isinstance(table, FrameTable):
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


class FrameTable(PointTable):
    """A fold's point set, each point one ``int`` code in the fold's frame.

    The code of a point is digit ``j`` of ``point - low``, in ``[0,
    radix_j)``, times ``strides[j]``.  A zero-valued table keeps its codes
    as the set bits of ``bits`` (every value 0); a valued one keeps
    ``codes``, a dict from code to value.  Its ``parents`` say where its
    points come from:

    - none: the origin of a fold, the one point 0 valued 0;
    - one, at ``scale`` 2: the start of a fold from ``2*prev``, each
      point ``2*p`` for a point ``p`` of the parent, valued
      ``2*value(p)``;
    - two: a sum ``left + right`` made by one step.  It stores no pairs:
      ``added`` lists the ``(code, q)`` of the points ``q`` of ``right``
      that the step added, ascending, and ``decode`` recovers each pair
      on demand.

    ``cells``, each point as ``(value,)`` in ascending order, is listed on
    its first read, for tests and tracing; a solve never reads it, and
    ``reach`` comes from the codes.
    """

    __slots__ = ("parents", "scale", "bits", "codes", "strides", "radix", "low", "added",
                 "_cells")

    def __init__(
        self,
        r: int,
        low: tuple[int, ...] = (),
        radix: tuple[int, ...] = (),
        strides: tuple[int, ...] = (),
        parents: tuple[PointTable, ...] | None = None,
    ) -> None:
        self.r = r
        self.low, self.radix, self.strides = low, radix, strides
        self.parents = parents
        self.scale = 1
        self.bits: int | None = None
        self.codes: dict[int, int] | None = None
        self.added: list[tuple[int, tuple[int, ...]]] = []
        self._reach = None
        self._cells: dict[tuple[int, ...], tuple[int]] | None = None

    @property
    def cells(self) -> dict[tuple[int, ...], tuple[int]]:
        if self._cells is None:
            codes = self._codes()
            points = zip(*self._axes(codes))
            if self.codes is None:
                self._cells = dict.fromkeys(points, (0,))
            else:
                self._cells = dict(zip(points, [(self.codes[c],) for c in codes]))
        return self._cells

    def __len__(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return len(self.codes)

    def _codes(self) -> list[int]:
        """The codes, ascending."""
        return set_bits(self.bits) if self.codes is None else sorted(self.codes)

    def points(self) -> list[tuple[int, ...]]:
        return list(zip(*self._axes(self._codes())))

    def _axes(self, codes: list[int]) -> list[list[int]]:
        """Per axis, the coordinates of the points of ``codes``, in their
        order.

        Digit ``j`` is ``code // strides[j] % radix[j]``: the fields below
        it sum to less than its stride, and a packed field's guard bit,
        always 0 in a stored code, is a multiple of its radix.
        """
        return [
            [code // stride % radix + low for code in codes]
            for stride, radix, low in zip(self.strides, self.radix, self.low)
        ]

    def _value_at(self, code: int) -> int | None:
        """The value at ``code``; None when no point has it."""
        if self.codes is not None:
            return self.codes.get(code)
        return 0 if code >= 0 and self.bits >> code & 1 else None

    def _code(self, pt: tuple[int, ...]) -> int:
        """``pt``'s code; -1 when a digit is outside the frame."""
        code = 0
        for x, low, radix, stride in zip(pt, self.low, self.radix, self.strides):
            if not 0 <= x - low < radix:
                return -1
            code += (x - low) * stride
        return code

    def __contains__(self, pt: tuple[int, ...]) -> bool:
        return self._value_at(self._code(pt)) is not None

    def value(self, pt: tuple[int, ...]) -> int:
        return self._value_at(self._code(pt))

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-axis (min, max) over the points; zeros when empty.  A
        bitset's digit range per axis comes from its lowest and highest
        set bits after OR-ing the slabs of the axes above
        (``bits.or_slabs``); packed codes give their digits (``_axes``)."""
        if self._reach is None:
            if not self:
                self._reach = ((0,) * self.r,) * 2
            elif self.codes is None:
                bits, lows, highs = self.bits, [], []
                for j, stride in enumerate(self.strides):
                    if j:
                        bits = or_slabs(bits, self.strides[j - 1])
                    lows.append(((bits & -bits).bit_length() - 1) // stride + self.low[j])
                    highs.append((bits.bit_length() - 1) // stride + self.low[j])
                self._reach = tuple(lows), tuple(highs)
            else:
                axes = self._axes(list(self.codes))
                self._reach = tuple(map(min, axes)), tuple(map(max, axes))
        return self._reach

    def _pair(self, point: tuple[int, ...], code: int, target: int) -> tuple:
        """A sum table's ``(p, q, code(p), value(p))`` for ``point``, coded
        ``code`` and valued ``target``: see ``decode``.

        Each lookup in a bitset left parent shifts its whole frame, so
        past its first ``_PAIR_TRIES`` partners one bitset of the other
        partner codes, ANDed with it, keeps the partners it holds, whose
        lowest set bit is the next smallest ``p``.
        """
        left, right = self.parents
        value_at, cells, added = left._value_at, right.cells, self.added
        # A left code is never negative: skip every q coded above ``code``.
        stop = bisect_right(added, code, key=itemgetter(0))
        first = stop - _PAIR_TRIES if stop > _PAIR_TRIES and left.codes is None else 0
        for q_code, q in reversed(added[first:stop]):
            value = value_at(code - q_code)
            if value is None:
                continue
            cell = cells.get(q)
            if cell is None:
                raise InternalError(f"corrupt witness: {q} missing")
            if value + cell[0] == target:
                return tuple(map(sub, point, q)), q, code - q_code, value
        hits = bitset([code - q_code for q_code, _ in added[:first]]) & left.bits if first else 0
        while hits:
            p_code = (hits & -hits).bit_length() - 1
            q = added[bisect_left(added, code - p_code, 0, first, key=itemgetter(0))][1]
            cell = cells.get(q)
            if cell is None:
                raise InternalError(f"corrupt witness: {q} missing")
            if cell[0] == target:
                return tuple(map(sub, point, q)), q, p_code, 0
            hits &= hits - 1
        raise InternalError(f"corrupt witness: no pair for {point}")


# Partners a sum table's ``_pair`` looks up one at a time in a bitset left
# parent before it ANDs one bitset of the others with the parent.  Decode
# of the top points, in-process, min over 15 interleaved rounds (shared
# 2-vCPU host), against lookups alone: 0.253 against 0.246 ms on
# core-wide and 0.181 against 0.178 ms on apps-feas (seed 1), whose pairs
# take at most 6 tries; 1.69 against 2.00 ms and 11.1 against 14.4 ms on
# the core n=8 r=3 and n=4 r=4 rows of the coded-levels ladder, up to 39
# tries.  With 4 tries apps-feas took 0.31 ms, with 1 try 0.42 ms.
_PAIR_TRIES = 8


def _caps(row_max, placed: int, hi: tuple[int, ...] | None) -> tuple[int, ...]:
    """Per-axis cap of kept points, ``max(min(placed * row max, hi), -1)``
    (-1: nothing kept); comparisons, as 2-argument min/max are slow."""
    caps = [placed * top for top in row_max]
    if hi is not None:
        caps = [c if -1 < c < h else h if -1 < h <= c else -1
                for c, h in zip(caps, hi)]
    return tuple(caps)


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
    caps = _caps(map(max, block), placed, hi)
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


def _clip(table: FrameTable, lo, hi) -> FrameTable:
    """The points of ``table`` inside the box ``[lo, hi]``, in its frame:
    ``table`` itself when the box holds the whole frame, else its bitset
    ANDed with the box's mask (``bits.box_mask``) or its packed codes that
    pass the one guard test of ``_pair_sum``."""
    d_lo = [max(x - low, 0) for x, low in zip(lo, table.low)]
    d_hi = [min(x - low, radix - 1) for x, low, radix in zip(hi, table.low, table.radix)]
    if not any(d_lo) and all(d + 1 == radix for d, radix in zip(d_hi, table.radix)):
        return table
    strides = table.strides
    out = FrameTable(table.r, table.low, table.radix, strides)
    if table.codes is None:
        out.bits = table.bits & box_mask(strides, d_lo, d_hi)
    elif any(map(gt, d_lo, d_hi)):
        out.codes = {}
    else:
        guards = sum(map(mul, table.radix, strides))
        g_lo = guards - sum(map(mul, d_lo, strides))
        g_hi = guards | sum(map(mul, d_hi, strides))
        out.codes = {c: v for c, v in table.codes.items()
                     if (c + g_lo) & (g_hi - c) & guards == guards}
    return out


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


# Bitset cap of a zero-valued fold: its partials are one bitset while
# the frame has at most max(_FOLD_FRAME_BITS, _BITS_PER_POINT * |kept p|)
# bits, |kept p| the points kept from ``prev`` (none from the origin), and
# zero-valued packed codes above that.  A bitset step costs min(|P|, |t|)
# shift-ORs over the whole frame and the packed step one probe per pair,
# so a large frame of few points is slower as a bitset; the points kept
# from ``prev`` start the partial, so they raise the cap.
# Measured on the scheduling ``cmax`` fold of the benchmark instance at
# the guess 91/3, the first guess of the unbracketed search (the
# bracketed one no longer decides it): 3 r=4 tables of 399, 693 and 659
# points into one point, in a frame of 1,299,480 bits, just above the
# cap.  It takes 24.2-24.4 ms in packed codes and 12.0-15.0 ms as an
# uncapped bitset (in-process, min of 7, shared 2-vCPU host).  Both caps
# were set against per-step frames fitted to each step's tables, 9.4-9.8
# ms on that fold; the crossover against the fold-wide packed frame is
# not measured.  4096 bits per point is the crossover measured for an
# earlier per-point bitset walk.
_FOLD_FRAME_BITS = 1 << 20
_BITS_PER_POINT = 4096


def _frame(low, tops, bits: bool) -> FrameTable:
    """An empty frame table with low corner ``low`` whose digit ``j``
    holds ``[0, tops[j]]``, axis 0 most significant, so codes sort like
    points: a bitset of mixed radix ``radix_j = tops[j] + 1``, or packed
    codes, digit ``j`` of ``w_j`` bits, ``radix_j = 2**w_j > tops[j]``,
    under one zero guard bit."""
    if bits:
        radix = fields = [top + 1 for top in tops]
    else:
        radix = [1 << top.bit_length() for top in tops]
        fields = [2 * rd for rd in radix]  # digit and guard bit
    strides = tuple(math.prod(fields[j + 1:]) for j in range(len(fields)))
    table = FrameTable(len(tops), tuple(low), tuple(radix), strides)
    if bits:
        table.bits = 0
    else:
        table.codes = {}
    return table


def _frame_of(table: PointTable) -> FrameTable:
    """A base table's points as packed codes over its reach: the level
    below of a fold from ``2*prev`` when that is a base table, as tests
    pass."""
    low, high = table.reach()
    frame = _frame(low, list(map(sub, high, low)), False)
    frame.codes = {frame._code(p): cell[0] for p, cell in table.cells.items()}
    return frame


def _fold_frame(tables, reaches, hi, low, prev=None, below=None, kept=None) -> FrameTable:
    """A fold's first partial, in the fold's frame: the origin alone, or
    ``2*p`` valued ``2*value(p)`` for the points ``p`` of ``kept``, the
    level below clipped, with ``prev`` as its one parent at scale 2;
    ``below`` is ``prev`` coded in a frame (``prev`` itself for a fold's
    result).

    The frame's low corner is ``low`` and its digit ``j`` holds ``[0,
    top_j]``, ``top_j = max(hi_j - low_j, 0) + max_t reach_hi_j``: a
    partial point lies in ``[low, hi]`` and a brick point in ``[0,
    reach_hi]``, so digit sums never carry.  A zero-valued fold (no value
    in ``tables`` or ``below``) whose mixed-radix code space, ``radix_j =
    top_j + 1``, is within the bitset cap keeps a bitset (``bits``); any
    other fold keeps packed codes (``codes``).  See ``_frame``.
    """
    tops = map(max, zip(*(t_hi for _, t_hi in reaches)))
    tops = [max(h - l, 0) + top for h, l, top in zip(hi, low, tops)]
    cap = max(_FOLD_FRAME_BITS, _BITS_PER_POINT * (0 if kept is None else len(kept)))
    start = _frame(low, tops, math.prod(top + 1 for top in tops) <= cap and not _has_values(
        tables) and not (below is not None and any((below.codes or {}).values())))
    if prev is None:
        if start.codes is None:
            start.bits = 1
        else:
            start.codes[0] = 0
        return start
    start.parents, start.scale = (prev,), 2
    _double_into(start, kept)
    return start


def _double_into(start: FrameTable, kept: FrameTable) -> None:
    """Code ``2*p`` valued ``2*value(p)`` in ``start`` for each point
    ``p`` of ``kept``, ``start``'s low corner being ``2*min p``, so that
    its digit ``j`` is ``2*(p_j - min p_j)``; no point becomes a tuple.

    Bitset to bitset, on whole frames (``bits``): shift ``kept`` down to its
    minimum digits, restride to the tight strides of its digit ranges
    when ``start``'s are narrower on some axis, spread bit ``i`` to bit
    ``2*i`` (``bits.spread``), and restride to twice ``start``'s strides
    (``bits.restride``).  Any other pair: ``kept``'s codes, digit by digit as
    ``_axes`` reads them, recoded in ``start``'s frame with values
    doubled.
    """
    p_lo, p_hi = kept.reach()
    new = start.strides
    if kept.codes is None and start.codes is None:
        counts = [h - l + 1 for l, h in zip(p_lo, p_hi)]
        mid = kept.strides
        bits = kept.bits >> sum(map(mul, map(sub, p_lo, kept.low), mid))
        if any(map(gt, mid, new)):
            mid = tuple(math.prod(counts[j + 1:]) for j in range(len(counts)))
            bits = restride(bits, kept.strides, mid, counts)
        start.bits = restride(spread(bits), [2 * s for s in mid], [2 * s for s in new], counts)
        return
    codes = kept._codes()
    doubled = [-sum(map(mul, p_lo, new)) * 2] * len(codes)
    for axis, stride in zip(kept._axes(codes), new):
        doubled = list(map(add, doubled, [x * 2 * stride for x in axis]))
    if start.codes is None:
        start.bits = bitset(doubled)
    elif kept.codes is None:
        start.codes = dict.fromkeys(doubled, 0)
    else:
        start.codes = dict(zip(doubled, [2 * kept.codes[c] for c in codes]))


def _has_values(tables) -> bool:
    """Whether any cell of the base ``tables`` has a nonzero value; a
    ``cells`` dict shared by several tables is scanned once."""
    distinct = {id(t.cells): t.cells for t in tables}
    return any(any(map(itemgetter(0), cells.values())) for cells in distinct.values())


def _step_codes(cells, strides, bits: bool) -> tuple[list, list]:
    """``(added, keys)`` of a right table with these ``cells`` in a frame
    of these ``strides``: ``added`` its ``(code, q)`` list (see
    ``_fold_bits``), ``keys`` the codes alone for a bitset partial
    (``_fold_bits``) and the ``(code, value)`` items for a packed one
    (``_fold_packed``)."""
    added = [(sum(map(mul, q, strides)), q) for q in cells]
    if bits:
        return added, [c for c, _ in added]
    return added, [(c, cells[q][0]) for c, q in added]


def convolve(
    left: FrameTable,
    right: PointTable,
    added: list[tuple[int, tuple[int, ...]]],
    keys: list,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> FrameTable:
    """One fold step: ``left + right`` in ``[lo, hi]``, digits of
    ``left``'s frame, with ``right``'s ``added`` and ``keys`` from
    ``_step_codes``.  A bitset ``left`` takes ``_fold_bits``, packed
    codes ``_fold_packed``."""
    step = _fold_bits if left.codes is None else _fold_packed
    return step(left, right, added, keys, lo, hi)


def _fold_step(left: FrameTable, right: PointTable, added) -> FrameTable:
    """An empty sum ``left + right`` in ``left``'s frame, adding ``added``."""
    out = FrameTable(left.r, left.low, left.radix, left.strides, parents=(left, right))
    out.added = added
    return out


def _fold_bits(
    left: FrameTable,
    right: PointTable,
    added: list[tuple[int, tuple[int, ...]]],
    codes: list[int],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Zero-valued step ``left + right`` in ``[lo, hi]``, as a bitset.

    ``added`` lists ``(code, q)`` for the points ``q`` of ``right`` to
    add, in ``left``'s frame, ascending, and ``codes`` their codes alone
    (``_step_codes``); ``lo`` and ``hi`` are digits of that frame.  A
    one-point window ANDs ``left`` with the bitset of the partner codes
    ``code(lo) - code(q)``.  Otherwise the smaller side gives the shifts:
    ``min(|left|, |added|)`` shift-ORs of the other side's bitset, then
    one AND with the window's mask.
    """
    strides = left.strides
    out = _fold_step(left, right, added)
    if lo == hi:
        code = sum(map(mul, lo, strides))
        hits = bitset([code - c for c in codes if c <= code])
        out.bits = 1 << code if hits & left.bits else 0
        return out
    out.bits = 0
    mask = box_mask(strides, lo, hi)
    if not mask:
        return out
    if len(codes) <= len(left):
        base, shifts = left.bits, codes
    else:
        base, shifts = bitset(codes), set_bits(left.bits)
    acc = 0
    for shift in shifts:
        acc |= base << shift
    out.bits = acc & mask
    return out


def _fold_packed(
    left: FrameTable,
    right: PointTable,
    added: list[tuple[int, tuple[int, ...]]],
    b_items: list[tuple[int, int]],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> PointTable:
    """Packed step ``left + right`` in ``[lo, hi]``, as code -> value.

    ``added`` is as for ``_fold_bits``, and ``b_items`` its ``(code,
    value(q))`` items (``_step_codes``); every value is 0 in a
    zero-valued fold above its bitset cap.  A one-point window looks up
    the partner codes ``code(lo) - code(q)`` in ``left`` and keeps the
    largest sum.  Otherwise the step runs on the frame's codes, so no
    point is decoded or turned into a tuple: a right
    table with at most ``_PAIR_GROUP_POINTS`` points per prefix group
    tests each pair (``_pair_sum``), a denser one walks its prefix groups
    (``_index_sum``).  Max-plus sums do not depend on the order of the
    pairs, so both give the same code -> value map.
    """
    strides, codes = left.strides, left.codes
    out = _fold_step(left, right, added)
    out.codes = {}
    if lo == hi:
        code = sum(map(mul, lo, strides))
        sums = [codes[code - c] + v for c, v in b_items if code - c in codes]
        if sums:
            out.codes[code] = max(sums)
    elif not any(map(gt, lo, hi)):
        shifts = [stride.bit_length() - 1 for stride in strides]
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
) -> FrameTable:
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
    A step is forced when one such group is left: it takes the group's
    lowest position without scoring, the scorer's own choice on a tie,
    and the box, which only the scores read, is no longer carried.

    The point -> value map does not depend on the order: the Minkowski
    sum and max-plus are associative and commutative, and every partial
    sum of a decomposition that ends in ``[lo, hi]`` lies inside its
    window in any order.  Only tie witnesses follow the order;
    ``PointTable.decode`` returns witnesses in brick order.

    Every fold runs in one frame (``_fold_frame``), one ``int`` per
    point, and every step is one ``convolve``: ``_fold_bits`` (one bitset
    ``int``) for a zero-valued fold within the bitset cap, else
    ``_fold_packed`` (a dict from code to value; one guard test per pair
    for a sparse brick table, ``_index_sum``'s prefix groups for a dense
    one).  No step builds a cell, and the result is a ``FrameTable``
    that codes its points and lists them as tuples only when its
    ``cells`` is read.  From ``prev`` the fold reads ``prev``'s codes
    (a base table ``prev``, which only tests pass, is coded once): it
    clips them in ``prev``'s frame (``_clip``), takes the kept points'
    reach from the codes, and codes ``2*p`` into its own frame
    (``_double_into``).  Tables that share one ``cells`` dict (the views
    of ``base_tables_for_level``) are coded into the frame once per
    fold, with the codes or ``(code, value)`` items their step reads
    (``_step_codes``), and ``_has_values`` scans such a dict once.
    """
    if not tables:
        raise ValueError("fold_tables needs at least one table")
    r = tables[0].r
    reaches = [t.reach() for t in tables]
    rest_lo = tuple(map(sum, zip(*(t_lo for t_lo, _ in reaches))))
    rest_hi = tuple(map(sum, zip(*(t_hi for _, t_hi in reaches))))
    if prev is None:
        low = box_lo = box_hi = (0,) * r
        size = 1
        partial = _fold_frame(tables, reaches, hi, low)
    else:
        below = prev if isinstance(prev, FrameTable) else _frame_of(prev)
        kept = _clip(below, [-((rh - l) // 2) for l, rh in zip(lo, rest_hi)],
                     [(h - rl) // 2 for h, rl in zip(hi, rest_lo)])
        size = len(kept)
        if not size:
            empty = FrameTable(r)
            empty.bits = 0
            return empty
        # Every kept 2*p lies at or above lo - rest_hi, so no partial point
        # lies below 2*min p: that is the frame's low corner.
        box_lo, box_hi = (tuple(2 * x for x in v) for v in kept.reach())
        low = box_lo
        partial = _fold_frame(tables, reaches, hi, low, prev, below, kept)
    # From here on, offsets from the frame's low corner.
    lo, hi, box_lo, box_hi = (tuple(map(sub, v, low)) for v in (lo, hi, box_lo, box_hi))
    # (size, reach) -> positions, highest first, so pop() takes the lowest.
    groups: dict[tuple, list[int]] = {}
    for idx in range(len(tables) - 1, -1, -1):
        groups.setdefault((len(tables[idx]), reaches[idx]), []).append(idx)

    # id(cells) -> its (added, keys) for the step: shared base tables are
    # coded once.
    coded: dict[int, tuple[list, list]] = {}
    zeros = (0,) * r
    order: list[int] = []
    peak = 0
    while groups:
        if len(groups) == 1:  # forced: every table scores alike
            ((best_key, idxs),) = groups.items()
        else:
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
            idxs = groups[best_key]
        idx = idxs.pop()
        if not idxs:
            del groups[best_key]
        t_lo, t_hi = best_key[1]
        rest_lo = tuple(map(sub, rest_lo, t_lo))
        rest_hi = tuple(map(sub, rest_hi, t_hi))
        w_lo = tuple(map(max, map(sub, lo, rest_hi), zeros))
        w_hi = tuple(map(sub, hi, rest_lo))
        if len(groups) > 1:  # the box feeds the scores alone
            box_lo = tuple(map(max, w_lo, map(add, box_lo, t_lo)))
            box_hi = tuple(map(min, w_hi, map(add, box_hi, t_hi)))
        cells = tables[idx].cells
        keyed = coded.get(id(cells))
        if keyed is None:
            keyed = coded[id(cells)] = _step_codes(
                cells, partial.strides, partial.codes is None)
        partial = convolve(partial, tables[idx], *keyed, w_lo, w_hi)
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
    memo: dict[tuple, PointTable] | None = None,
) -> list[PointTable]:
    """Per-brick base tables for one level's placed counts.

    ``inst`` is the sign-reduced program, so every brick is nonnegative.
    Each table is capped per axis at ``hi`` when given: a brick's point
    never exceeds the fold window it lands in, since the other bricks only
    add.  ``block_base_table`` itself caps at the brick's own reach.
    Cells hold witness chains; ``PointTable.decode`` expands those on the
    path of the solver's top point.

    ``block_base_table`` runs once per distinct key ``(matrix, placed,
    cost slice, cap)`` in ``memo``, the cap being ``_caps``, all of ``hi``
    that the builder reads, so equal keys build equal tables.  A brick
    with a key already built gets a view: a table with its own ``block``
    and ``columns`` that shares the built table's ``cells`` dict and
    reach.  Witness nodes hold only column indices and ``decode`` adds
    counts to ``table.block``, so every witness, value and tie is the one
    the brick's own table would give.  The solver passes one ``memo`` per
    solve, or its caller's (``driver.solve``); without one the memo lives
    for this call only.
    """
    placed = plan.placed_at(level)
    costs = _block_costs(inst, mode)
    built = {} if memo is None else memo
    keys: dict[tuple, tuple] = {}  # one _caps per distinct brick
    tables = []
    for k in range(inst.n):
        brick = (inst.blocks[k], placed[k], costs[k])
        key = keys.get(brick)
        if key is None:
            key = keys[brick] = brick + (_caps(plan.row_max[k], placed[k], hi),)
        first = built.get(key)
        if first is None:
            table = built[key] = block_base_table(
                brick[0], placed[k], block_index=k, costs=costs[k], hi=hi)
        else:
            table = PointTable(inst.r, block=k, columns=first.columns)
            table.cells, table._reach = first.cells, first.reach()
        tables.append(table)
    return tables

