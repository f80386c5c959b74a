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

``sumset`` is the one windowed Minkowski-sum kernel, ``scale*p + q`` in
``[lo, hi]``, run at scale 2 by the cross-level ``driver._combine_levels``
and at scale 1 by ``convolve``, which the in-level fold calls only above
its bitset cap; its docstring says which of its two paths runs.  Its
index path, which serves every table with values, also runs on packed
codes: a field per axis under a guard bit, so ``code(scale*p + q)`` is
one add and the window test on every middle axis is two subtractions and
an AND.  ``fold_tables`` sums the brick tables one at a time, keeping
only points that can still land inside the target window given the
summed reach of the bricks not yet folded; that window depends on which
bricks remain, not on the order.  The order is greedy, as in bucket
elimination: each step takes the brick with the smallest bound on its
output plus its probe work, computed from table sizes and reaches alone,
ties going to the lowest brick position.  Bricks that pin a shared row
thus go before bricks that spread over several, and partial sums stay
small.  Because the Minkowski sum and max-plus are associative and
commutative, and every partial sum of a surviving decomposition stays
inside its window, the point -> value map is the same in every order;
only tie witnesses follow it.  A fold runs one of two paths.  In a
frame, which every valued fold and every zero-valued fold under a cap
takes, the partial starts as the origin and stays one fold-wide code per
point: zero-valued tables (feasibility mode) as one big-int bitset whose
steps are a few shift-ORs and one AND, tables with values (optimize
mode) as one dict from packed code to value, whose steps run the index
path's probe on codes.  A zero-valued fold whose frame exceeds the cap
takes the cell chain instead: a filtered first table, then one
``convolve`` per step.

Tables carry witnesses: a base cell remembers its column-count chain, a
``sumset`` cell (of ``convolve`` or the combine) remembers the points
``p`` and ``q`` it was summed from, and its table the ``scale`` of the
sum.  A fold table in a frame stores no pairs; ``decode`` recovers the
one a ``convolve`` cell would keep.  The fold's pair tables (scale 1)
and the solver's level tables (scale 2) thus form one witness graph from
the bricks to the top level, and ``PointTable.decode`` expands any point
of it, in one walk, into per-brick count vectors, listed in brick order
whatever order the fold took.

In optimize mode each cell also carries the best objective value seen
for that point; feasibility mode is the same machinery with all-zero
values.  Pairs are visited in sorted order and only a strictly larger
value replaces a cell, so ties keep the first witness and reruns are
bit-stable, dict order included.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add, gt, le, lshift, lt, mul, sub
from typing import Iterator, Sequence

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

    ``cells`` maps an r-tuple point to ``(value, payload)``.  A table with
    ``parents`` is a pair table at ``scale`` (1 for ``convolve``, 2 for
    the cross-level combine): its payload is ``(p, q)``, points of the
    left and right parent with ``scale*p + q`` equal to the cell's point.
    A table with neither ``parents`` nor a frame is a base table over
    ``columns`` columns: its payload is the ``(prefix, column, take)``
    witness chain of ``block_base_table``, or None for no copies.  Tables
    and their parents form one witness graph, from the bricks up to a
    solve's top level, and ``decode`` expands a point of it into count
    vectors.

    A table of a fold in a frame (see ``fold_tables``) has ``strides``
    and codes its points in the fold's frame, one ``int`` per point with
    digit ``j`` in ``[0, radix_j)`` times ``strides[j]`` (axis 0 most
    significant, so codes sort like points).  A zero-valued fold keeps the
    codes as the set bits of ``bits`` (every value 0); a valued fold keeps
    ``codes``, a dict from code to value.  The fold starts at the origin,
    a frame table without parents; every later one is a scale-1 pair
    table that stores no pairs, and ``decode`` recovers them on demand.
    Only the fold's result also lists its points in ``cells``, sorted,
    each as ``(value,)``.
    """

    __slots__ = (
        "r", "cells", "block", "columns", "parents", "scale", "bits", "codes",
        "strides", "radix", "_reach",
    )

    def __init__(
        self,
        r: int,
        *,
        block: int | None = None,
        columns: int = 0,
        parents: tuple["PointTable", "PointTable"] | None = None,
        scale: int = 1,
    ) -> None:
        self.r = r
        self.block = block
        self.columns = columns
        self.parents = parents
        self.scale = scale
        self.cells: dict[tuple[int, ...], tuple] = {}
        self.bits: int | None = None
        self.codes: dict[int, int] | None = None
        self.strides: tuple[int, ...] = ()
        self.radix: tuple[int, ...] = ()
        self._reach: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __len__(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return len(self.cells if self.codes is None else self.codes)

    def points(self) -> list[tuple[int, ...]]:
        """Points in sorted (deterministic) order."""
        if not self.strides:
            return sorted(self.cells)
        codes = _set_bits(self.bits) if self.codes is None else sorted(self.codes)
        return list(map(self._point, codes))

    def _point(self, code: int) -> tuple[int, ...]:
        """The point of a code in this table's frame."""
        pt = []
        for stride in self.strides:
            digit, code = divmod(code, stride)
            pt.append(digit)
        return tuple(pt)

    def _value_at(self, code: int) -> int | None:
        """A frame table's value at ``code``; None when no point has it."""
        if self.codes is not None:
            return self.codes.get(code)
        return 0 if code >= 0 and self.bits >> code & 1 else None

    def _code(self, pt: tuple[int, ...]) -> int:
        """``pt``'s code in this table's frame; -1 when a digit is outside."""
        if min(pt) < 0 or not all(map(lt, pt, self.radix)):
            return -1
        return sum(map(mul, pt, self.strides))

    def __contains__(self, pt: tuple[int, ...]) -> bool:
        if not self.strides:
            return pt in self.cells
        return self._value_at(self._code(pt)) is not None

    def _pair(self, point: tuple[int, ...], code: int, target: int) -> tuple:
        """A frame table's ``(p, q, code(p), value(p))`` for ``point``,
        coded ``code`` and valued ``target``: see ``decode``."""
        left, right = self.parents
        value_at, brick = left._value_at, right.cells
        for p_code, q in _partners(right, self.strides, code):
            value = value_at(p_code)
            if value is not None and value + brick[q][0] == target:
                return tuple(map(sub, point, q)), q, p_code, value
        raise InternalError(f"corrupt witness: no pair for {point}")

    def _list_cells(self) -> None:
        """Fill a frame table's ``cells``: its points, sorted, as ``(value,)``."""
        if self.codes is None:
            self.cells = dict.fromkeys(self.points(), (0,))
        else:
            self.cells = {self._point(c): (self.codes[c],) for c in sorted(self.codes)}

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
        """Copy containing only the points inside [lo, hi] per axis."""
        out = PointTable(self.r, block=self.block, columns=self.columns,
                         parents=self.parents, scale=self.scale)
        for pt, cell in self.cells.items():
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi)):
                out.cells[pt] = cell
        return out

    def decode(self, pt: tuple[int, ...]) -> list[BlockWitness]:
        """Expand a point into per-brick column counts, sorted by brick.

        One walk of the witness graph down to the base tables, carrying a
        weight that starts at 1: the left parent of a scale-``s`` pair
        gets ``weight*s`` and the right parent ``weight``, and a base
        table adds ``weight*take`` into its brick's counts.  Every pair
        must satisfy ``scale*p + q == point``; a missing point or a failed
        check raises ``InternalError``: a corrupt witness is a bug, never
        an input problem.

        A frame table (a bitset or a code -> value dict) stores no pairs.
        Its pair for ``point`` is the smallest ``p`` of the left parent with
        ``q = point - p`` in the right one, the brick, and ``value(p) +
        value(q) == value(point)``: the first maximiser in sorted ``(p,
        q)`` order, which is the pair a ``convolve`` cell keeps, so a fold
        in a frame decodes to the counts of the ``convolve`` chain.  The
        search takes the brick's ``q`` in descending order, each one code
        subtraction and one lookup (``_partners``).  That lookup is exact:
        a partial point, ``point`` and ``q`` differ by less than the radix
        on every axis, so ``code(point) - code(q) == code(p)`` only for
        ``p == point - q``.  A point with no such pair raises
        ``InternalError`` too; the fold's origin, which has no parents,
        only has to hold its point.
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
                # Down the fold's frame tables to the origin; each pair
                # found is in the left parent, at the code it was found.
                while table.parents is not None:
                    point, q, code, target = table._pair(point, code, target)
                    table, right = table.parents
                    stack.append((right, q, weight))
                continue
            cell = table.cells.get(point)
            if cell is None:
                raise InternalError(f"corrupt witness: {point} missing")
            if table.parents is None:
                acc = counts.setdefault(table.block, [0] * table.columns)
                node = cell[1]
                while node is not None:
                    node, j, take = node
                    acc[j] += weight * take
                continue
            _, p, q = cell
            scale = table.scale
            if any(scale * x + y != v for x, y, v in zip(p, q, point)):
                raise InternalError(f"corrupt witness: {scale}*{p} + {q} != {point}")
            left, right = table.parents
            stack.append((right, q, weight))
            stack.append((left, p, weight * scale))
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
    first-reached order.  Points may have any sign.

    A one-point window needs no index: each ``p`` has one partner,
    ``lo - scale*p``, looked up in ``b_cells`` (the 72 such calls of the
    imbalance-opt benchmark workload, seeds 1-3, take 1.0 ms this way and
    6.5 ms through the index path).  Otherwise ``_clip_pair`` drops the
    points that cannot land in the window, and the kind of values picks
    one of two paths, which give that same dict:

    - bitset: when every value in both tables is 0, as in feasibility
      mode, ``_sumset_bits`` walks ``p`` over one big-int bitset of ``b``;
      it declines when the bitset would exceed ``_BITS_PER_POINT`` bits
      per point of ``b``, and the index path runs instead;
    - index: otherwise ``_probe_index`` packs every point into one
      ``int`` (a field per axis under a guard bit) and, for each ``p``,
      bisects the codes of ``b`` grouped by prefix.
    """
    if not a_cells or not b_cells or any(l > h for l, h in zip(lo, hi)):
        return {}
    if lo == hi:
        best = None
        for p, cell in a_cells.items():
            q = tuple(l - scale * x for x, l in zip(p, lo))
            if q in b_cells:
                value = scale * cell[0] + b_cells[q][0]
                # The largest value wins; among equals, the smallest p.
                if best is None or (-value, p) < (-best[0], best[1]):
                    best = (value, p, q)
        return {} if best is None else {tuple(lo): best}
    clipped = _clip_pair(a_cells, b_cells, scale, lo, hi)
    if clipped is None:
        return {}
    if not any(cell[0] for cell in a_cells.values()) and not any(
        cell[0] for cell in b_cells.values()
    ):
        cells = _sumset_bits(*clipped, scale, lo, hi)
        if cells is not None:
            return cells
    return _probe_index(a_cells, b_cells, *clipped, scale, lo, hi)


# Largest bitset, in bits per clipped right-table point, that the bitset
# path builds; see ``_sumset_bits``.
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
    pts = [p for p in cells if all(l <= x <= h for x, l, h in zip(p, lo, hi))]
    return pts, (_reach_of(pts) if pts else reach)


def _clip_pair(a_cells, b_cells, scale, lo, hi):
    """``(a_pts, a_reach, b_pts, b_reach)``: the points that can land in the window.

    ``a`` keeps the ``p`` with ``scale*p + q`` in ``[lo, hi]`` for some
    ``q`` in the reach of ``b``; ``b`` then keeps the ``q`` that some
    ``p`` in the reach of the kept ``a`` can carry there.  Each reach is
    the per-axis (min, max) of the kept points.  Returns None when either
    side is left empty.
    """
    a_reach, (b_lo, b_hi) = _reach_of(a_cells), _reach_of(b_cells)
    a_pts, a_reach = _clip(
        a_cells, a_reach,
        [-((bh - l) // scale) for l, bh in zip(lo, b_hi)],
        [(h - bl) // scale for h, bl in zip(hi, b_lo)],
    )
    if not a_pts:
        return None
    a_lo, a_hi = a_reach
    b_pts, b_reach = _clip(
        b_cells, (b_lo, b_hi),
        [l - scale * ah for l, ah in zip(lo, a_hi)],
        [h - scale * al for h, al in zip(hi, a_lo)],
    )
    if not b_pts:
        return None
    return a_pts, a_reach, b_pts, b_reach


def _sumset_bits(a_pts, a_reach, b_pts, b_reach, scale, lo, hi):
    """Zero-valued ``sumset`` as shifted ORs of one big-int bitset.

    ``a_pts`` and ``b_pts`` are the clipped tables of ``_clip_pair``, with
    their reaches.  ``bits`` has one bit per point of ``b``.  A point is
    coded in mixed radix, axis 0 most significant, relative to its
    table's minimum, with ``radix_j = scale*spread(a)_j + spread(b)_j +
    1``: digit sums never carry, so ``code(scale*p + q) = scale*code(p) +
    code(q)`` and bit order is lexicographic point order.  ``free`` starts
    as the window mask and holds the window codes no pair has reached yet.
    For ``p`` in sorted order, ``hit = (free >> scale*code(p)) & bits``
    holds exactly the ``q`` whose sum is first reached by ``p``; its bits,
    read in ascending order, are those ``q`` in sorted order.  That is the
    insertion order and tie witness of the index path, whose all-zero
    values never replace a cell.  The walk stops once ``free`` is empty.

    Cap: each ``p`` costs a shift, an AND and an XOR over the code space,
    ``nbits`` bits, while the range index spends at most one interpreted
    probe per point of ``b``.  The bitset thus pays only while ``nbits``
    per point of ``b`` stays small, and this returns None, before
    allocating anything, when ``nbits > _BITS_PER_POINT * |b|`` with
    ``b`` clipped.  4096 is the measured crossover, timed over 682
    zero-valued calls of the core-wide, core-deep and apps-feas benchmark
    workloads, seeds 1-3 (those whose window box held more points than
    ``b``), by bits per point of ``b``:

    - 8 to 2048: bitset 0.14 s, index 0.88 s;
    - 2048 to 4096: bitset 5.6 ms, index 6.0 ms;
    - 4096 to 8192: bitset 8.1 ms, index 6.9 ms;
    - 8192 to 16384: bitset 18.5 ms, index 14.6 ms;
    - below 8, tiny one-axis calls: bitset 23 ms, index 18 ms in all;
      since the clip skip, the 208 such calls left once the box probe was
      gone take 14.2 ms against the index's 32.6 ms.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a_reach, b_reach
    radix = [
        scale * (ah - al) + bh - bl + 1
        for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi)
    ]
    nbits = math.prod(radix)
    if nbits > _BITS_PER_POINT * len(b_pts):
        return None
    strides = [math.prod(radix[j + 1:]) for j in range(len(radix))]
    bases = [scale * al + bl for al, bl in zip(a_lo, b_lo)]
    free = _box_mask(
        strides,
        [max(l - base, 0) for l, base in zip(lo, bases)],
        [min(h - base, rd - 1) for h, base, rd in zip(hi, bases, radix)],
    )
    if not free:
        return {}

    b_base = sum(map(mul, b_lo, strides))
    by_code = {sum(map(mul, q, strides)) - b_base: q for q in b_pts}
    bits = _bitset(by_code)

    a_base = sum(map(mul, a_lo, strides))
    out: dict[tuple[int, ...], tuple] = {}
    for p in sorted(a_pts):
        shift = scale * (sum(map(mul, p, strides)) - a_base)
        hit = (free >> shift) & bits
        if not hit:
            continue
        free ^= hit << shift
        for code in _set_bits(hit):
            q = by_code[code]
            out[tuple(scale * x + y for x, y in zip(p, q))] = (0, p, q)
        if not free:
            break
    return out


def _probe_index(a_cells, b_cells, a_pts, a_reach, b_pts, b_reach, scale, lo, hi):
    """Pairwise ``sumset`` over packed codes of the clipped tables.

    A code has one field per axis under one zero guard bit, axis 0 most
    significant; field ``i`` of ``code(p)`` holds ``scale*(p_i - a_lo_i)``
    and of ``code(q)`` holds ``q_i - b_lo_i``.  Its width fits
    ``scale*spread(a)_i + spread(b)_i``, so a field of ``code(p) +
    code(q)`` never carries and that sum is the code of ``scale*p + q``;
    codes sort like points.  The window becomes ``[w_lo_i, w_hi_i]`` per
    field, and ``_index_sum`` visits the pairs inside it, ``p`` in sorted
    order.

    Cells accumulate under mixed-radix keys over the window, which are
    dense in ``[0, volume)``: the sum codes themselves leave most of each
    field unused, and as dict keys they collide on their low bits (a dense
    r=2 fold of 861 x 855 points ran 5-10% slower on them).  Tuples are
    built for the kept cells only.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a_reach, b_reach
    r = len(lo)
    shifts, bases, w_lo, w_hi = [0] * r, [0] * r, [0] * r, [0] * r
    shift = 0
    for i in range(r - 1, -1, -1):
        width = (scale * (a_hi[i] - a_lo[i]) + b_hi[i] - b_lo[i]).bit_length()
        shifts[i] = shift
        bases[i] = scale * a_lo[i] + b_lo[i]
        w_lo[i] = max(lo[i] - bases[i], 0)
        w_hi[i] = min(hi[i] - bases[i], (1 << width) - 1)
        shift += width + 1
    dims = [h - l + 1 for l, h in zip(w_lo, w_hi)]
    strides = [math.prod(dims[i + 1:]) for i in range(r)]
    key_base = sum(map(mul, map(add, bases, w_lo), strides))

    b_base = sum(map(lshift, b_lo, shifts))
    b_items = [
        (sum(map(lshift, q, shifts)) - b_base, sum(map(mul, q, strides)),
         b_cells[q][0], q)
        for q in b_pts
    ]
    a_base = sum(map(lshift, a_lo, shifts))
    a_items = sorted(
        (scale * (sum(map(lshift, p, shifts)) - a_base),
         scale * sum(map(mul, p, strides)) - key_base, scale * a_cells[p][0], p)
        for p in a_pts
    )
    values: dict[int, int] = {}
    pairs: dict[int, tuple] = {}
    _index_sum(a_items, b_items, shifts, w_lo, w_hi, values, pairs)
    return {
        tuple(scale * x + y for x, y in zip(p, q)): (values[key], p, q)
        for key, (p, q) in pairs.items()
    }


def _index_sum(a_items, b_items, shifts, w_lo, w_hi, values, pairs=None) -> None:
    """Max-plus sums of every pair of packed codes inside a window.

    Items are ``(code, key, value, point)``.  Codes share one frame: field
    ``i`` starts at bit ``shifts[i]`` (the last at 0) under one zero guard
    bit, and no field of ``code(p) + code(q)`` carries.  A pair lands when
    every field of that sum lies in ``[w_lo_i, w_hi_i]``; its cell is
    ``key(p) + key(q)`` (keys are linear, the last field with weight 1),
    whose entry in ``values`` keeps the largest ``value(p) + value(q)``.
    ``a_items`` are visited in the given order and a cell is replaced only
    by a strictly larger value, so ``pairs``, when given, maps each cell
    to its first maximising ``(p, q)``, in first-reached order.

    ``b`` is grouped by prefix code (the last field zeroed), with the last
    fields sorted inside each group.  For each ``p`` one bisect finds the
    groups whose axis-0 field lands in the window, and ``k = code(p) +
    prefix`` tests every middle field at once: ``((k | G) - LO) & G ==
    G`` and ``((HI | G) - k) & G == G``, with ``G`` the middle guard bits
    and ``LO``, ``HI`` the window bounds in the middle fields (``HI`` has
    an all-ones last field, so no borrow reaches them).  A guard bit set
    before the subtraction absorbs its own field's borrow and survives
    exactly when that field is in bounds.  A bisect on the last field then
    yields the ``q`` in sorted order.
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
    for code, key, value, q in sorted(b_items):
        prefix = code & ~last_mask
        if not prefixes or prefixes[-1] != prefix:
            prefixes.append(prefix)
            lasts, b_values, qs = [], [], []
            index.append((prefix, key - (code & last_mask), lasts, b_values, qs))
        lasts.append(code & last_mask)
        b_values.append(value)
        qs.append(q)

    get = values.get
    for pc, p_key, p_val, p in a_items:
        groups = index
        if r > 1:
            head = pc >> top << top
            g0 = bisect_left(prefixes, top_lo - head)
            groups = index[g0:bisect_left(prefixes, top_hi - head, g0)]
        k_lo, k_hi = pc + mid_lo, mid_hi - pc
        p_last = pc & last_mask
        q_lo, q_hi = w_lo[-1] - p_last, w_hi[-1] - p_last
        for prefix, q_key, lasts, b_values, qs in groups:
            if guards and (k_lo + prefix) & (k_hi - prefix) & guards != guards:
                continue
            offset = p_key + q_key
            i0 = bisect_left(lasts, q_lo)
            for i in range(i0, bisect_right(lasts, q_hi, i0)):
                key = offset + lasts[i]
                value = p_val + b_values[i]
                prev = get(key)
                if prev is None or value > prev:
                    values[key] = value
                    if pairs is not None:
                        pairs[key] = (p, qs[i])


def convolve(
    a: PointTable,
    b: PointTable,
    *,
    lo: tuple[int, ...] | None = None,
    hi: tuple[int, ...] | None = None,
) -> PointTable:
    """Minkowski sum ``a + b`` of two cell tables inside ``[lo, hi]``:
    ``sumset`` at scale 1.

    Values add; ties keep the first witness in sorted (left, right) order.
    ``sumset`` picks the path.  A missing window side defaults to
    ``reach(a) + reach(b)``.
    """
    if lo is None or hi is None:
        (a_lo, a_hi), (b_lo, b_hi) = a.reach(), b.reach()
        lo = lo if lo is not None else tuple(map(add, a_lo, b_lo))
        hi = hi if hi is not None else tuple(map(add, a_hi, b_hi))
    out = PointTable(a.r, parents=(a, b))
    out.cells = sumset(a.cells, b.cells, 1, lo, hi)
    return out


# Largest frame, in bits, in which ``fold_tables`` folds zero-valued
# tables as bitsets; larger ones take the ``convolve`` chain.  See
# ``fold_tables``.
_FOLD_FRAME_BITS = 1 << 20


def _fold_frame(tables, reaches, hi):
    """``(step, origin)`` of a fold in a frame, or None for a zero-valued
    fold whose frame exceeds ``_FOLD_FRAME_BITS`` bits.

    ``origin`` is the fold's first partial: the origin alone, coded in the
    frame.  A partial point lies in ``[0, hi]`` and a brick point in ``[0,
    reach_hi]``, so with ``top_j = max(hi_j, 0) + max_t reach_hi_j`` digit
    sums never carry.  Axis 0 is most significant, so codes sort like
    points.  Valued tables take ``_fold_packed``: digit ``j`` has ``w_j``
    bits (``radix_j = 2**w_j > top_j``) under one zero guard bit.
    Zero-valued ones take ``_fold_bits``, in mixed radix ``radix_j = top_j
    + 1``.
    """
    tops = map(max, zip(*(t_hi for _, t_hi in reaches)))
    tops = [max(h, 0) + top for h, top in zip(hi, tops)]
    origin = PointTable(len(hi))
    if any(cell[0] for t in tables for cell in t.cells.values()):
        step, origin.codes = _fold_packed, {0: 0}
        origin.radix = tuple(1 << top.bit_length() for top in tops)
        fields = [2 * rd for rd in origin.radix]  # each digit and its guard bit
    else:
        step, origin.bits = _fold_bits, 1
        origin.radix = fields = tuple(top + 1 for top in tops)
        if math.prod(fields) > _FOLD_FRAME_BITS:
            return None
    origin.strides = tuple(math.prod(fields[j + 1:]) for j in range(len(fields)))
    return step, origin


def _partners(brick: PointTable, strides, code: int) -> Iterator[tuple[int, tuple]]:
    """``(code - code(q), q)`` for every point ``q`` of ``brick``, ``q``
    descending: the code of the partial point that ``q`` carries to
    ``code`` in a fold's frame (exact, see ``PointTable.decode``)."""
    return (
        (code - sum(map(mul, q, strides)), q) for q in sorted(brick.cells, reverse=True)
    )


def _fold_step(left: PointTable, brick: PointTable) -> PointTable:
    """An empty partial ``left + brick`` in ``left``'s frame."""
    out = PointTable(left.r, parents=(left, brick))
    out.strides, out.radix = left.strides, left.radix
    return out


def _fold_bits(
    left: PointTable, brick: PointTable, lo: tuple[int, ...], hi: tuple[int, ...]
) -> PointTable:
    """Zero-valued fold step ``left + brick`` in ``[lo, hi]``, as a bitset.

    A one-point window ANDs ``left`` with the bitset of the brick's
    partner codes (``_partners``).  Otherwise the smaller side gives the
    shifts: ``min(|left|, |brick|)`` shift-ORs of the other side's bitset,
    then one AND with the window's mask.
    """
    strides = left.strides
    out = _fold_step(left, brick)
    if lo == hi:
        code = sum(map(mul, lo, strides))
        hits = _bitset([c for c, _ in _partners(brick, strides, code) if c >= 0])
        out.bits = 1 << code if hits & left.bits else 0
        return out
    out.bits = 0
    mask = _box_mask(strides, lo, hi)
    if not mask:
        return out
    brick_codes = [sum(map(mul, q, strides)) for q in brick.cells]
    if len(brick_codes) <= len(left):
        base, shifts = left.bits, brick_codes
    else:
        base, shifts = _bitset(brick_codes), _set_bits(left.bits)
    acc = 0
    for shift in shifts:
        acc |= base << shift
    out.bits = acc & mask
    return out


def _fold_packed(
    left: PointTable, brick: PointTable, lo: tuple[int, ...], hi: tuple[int, ...]
) -> PointTable:
    """Valued fold step ``left + brick`` in ``[lo, hi]``, as code -> value.

    A one-point window looks up the brick's partner codes (``_partners``)
    in ``left`` and keeps the largest sum.  Otherwise ``_index_sum`` runs
    on the fold's frame with each sum's code as its key, so the partial is
    never clipped, decoded or turned into tuples.
    """
    strides, codes = left.strides, left.codes
    out = _fold_step(left, brick)
    out.codes = {}
    if lo == hi:
        code = sum(map(mul, lo, strides))
        sums = [
            codes[c] + brick.cells[q][0]
            for c, q in _partners(brick, strides, code) if c in codes
        ]
        if sums:
            out.codes[code] = max(sums)
    elif not any(map(gt, lo, hi)):
        b = ((sum(map(mul, q, strides)), cell[0]) for q, cell in brick.cells.items())
        _index_sum(
            [(code, code, value, None) for code, value in codes.items()],
            [(code, code, value, None) for code, value in b],
            [stride.bit_length() - 1 for stride in strides], lo, hi, out.codes,
        )
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
    window in any order.  Only tie witnesses follow the order;
    ``PointTable.decode`` returns witnesses in brick order.

    Steps run one of two paths, both with the same partial point sets:

    - frame (``_fold_frame``): every valued fold, and every zero-valued
      fold whose frame has at most ``_FOLD_FRAME_BITS`` codes.  The
      partial starts as the origin in one fold-wide frame, one ``int``
      per point, and every step is ``_fold_packed`` (a dict from code to
      value, probed by ``_index_sum`` like the index path of ``sumset``)
      or ``_fold_bits`` (one bitset ``int``).  No step builds a cell;
      the result lists its points in ``cells`` as ``(value,)``, sorted,
      and ``decode`` recovers each pair as the ``convolve`` chain would
      have kept it;
    - cell chain: a zero-valued fold above the cap.  The first step
      filters its table to its window and every later one is a
      ``convolve``, whose cells store their pairs.

    Bitset cap: a step costs ``min(|P|, |t|)`` shifts over the whole
    frame, while ``convolve`` works per point, so a large frame of few
    points is slower as a bitset.  The benchmark workloads meet one fold
    above the cap per seed, the scheduling ``cmax`` fold of 3 r=4 tables
    of 399, 693 and 659 points into one point, in a frame of 1,299,480
    bits.  Timed in-process (min of 7 calls, seeds 1-3, on a shared 2-vCPU
    host), it takes 7.8 to 8.9 ms as the cell chain, 10.6 to 11.0 ms as an
    uncapped bitset (its last step the one-point lookup) and 42.4 to 44.6
    ms packed with all values 0.
    """
    if not tables:
        raise ValueError("fold_tables needs at least one table")
    r = tables[0].r
    reaches = [t.reach() for t in tables]
    step, partial = _fold_frame(tables, reaches, hi) or (None, None)
    rest_lo = [sum(axis) for axis in zip(*(t_lo for t_lo, _ in reaches))]
    rest_hi = [sum(axis) for axis in zip(*(t_hi for _, t_hi in reaches))]
    # (size, reach) -> positions, highest first, so pop() takes the lowest.
    groups: dict[tuple, list[int]] = {}
    for idx in range(len(tables) - 1, -1, -1):
        groups.setdefault((len(tables[idx]), reaches[idx]), []).append(idx)

    size, box_lo, box_hi = 1, (0,) * r, (0,) * r
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
            partial = step(partial, tables[idx], w_lo, w_hi)
        elif partial is None:
            partial = tables[idx].filtered(w_lo, w_hi)
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
