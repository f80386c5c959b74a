"""Closest string under Hamming distance.

Given ``k`` equal-length strings, find a center string minimising the
maximum Hamming distance to them.  Columns of the input matrix are grouped
by their *pattern* — which rows agree with which — since two columns with
the same agreement pattern are interchangeable.  For a distance guess
``d``, one brick per pattern chooses how many of its columns pick each
candidate letter (only letters occurring in the column matter), shared
rows cap every string's mismatch count at ``d``, and one slack brick per
string absorbs that string's gap below ``d``.  The smallest feasible
``d`` is found by binary search between half the largest pairwise
distance and the smallest radius of an input string; a witness center
is decoded from the brick solution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import NFoldInstance, STATUS_FEASIBLE, least_feasible
from .driver import solve as ilp_solve

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ColumnType:
    """Columns sharing one row-agreement pattern.

    ``pattern`` renames each column's letters to 0, 1, ... in order of
    first appearance down the rows, so "which rows match which" is kept
    and the actual letters are forgotten.  ``columns`` lists the column
    indices carrying this pattern; ``groups`` is the number of distinct
    letters in any such column.
    """

    pattern: tuple[int, ...]
    columns: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.columns)

    @property
    def groups(self) -> int:
        return max(self.pattern) + 1


def extract_column_types(strings: list[str]) -> list[ColumnType]:
    """Group the columns of equal-length strings by agreement pattern.

    Returns types ordered by the first column exhibiting each pattern.
    """
    if not strings:
        raise ValueError("need at least one string")
    length = len(strings[0])
    if any(len(s) != length for s in strings):
        raise ValueError("strings must share one length")
    found: dict[tuple[int, ...], list[int]] = {}
    order: list[tuple[int, ...]] = []
    for col in range(length):
        ids: dict[str, int] = {}
        pattern = []
        for s in strings:
            ch = s[col]
            if ch not in ids:
                ids[ch] = len(ids)
            pattern.append(ids[ch])
        key = tuple(pattern)
        if key not in found:
            found[key] = []
            order.append(key)
        found[key].append(col)
    return [ColumnType(pattern=key, columns=tuple(found[key]))
            for key in order]


def build_ilp(strings: list[str], d: int) -> tuple[NFoldInstance,
                                                   list[ColumnType]]:
    """Compile "some center is within distance d of every string".

    One brick per column type: its columns are the candidate letters (by
    first-appearance id), entries flag the rows that would mismatch.  Then
    one slack brick per row, with columns ``(e_row, 0)`` and ``d`` units,
    turns that row's cap into an equality: it reaches only the ``d + 1``
    points ``j*e_row``, where a single brick over all rows would reach
    ``(d + 1)^k``.
    """
    if d < 0:
        raise ValueError("distance bound must be nonnegative")
    types = extract_column_types(strings)
    k = len(strings)
    blocks: list[tuple[tuple[int, ...], ...]] = []
    t: list[int] = []
    b_low: list[int] = []
    for ctype in types:
        width = ctype.groups
        block = tuple(
            tuple(1 if ctype.pattern[row] != choice else 0
                  for choice in range(width))
            for row in range(k))
        blocks.append(block)
        t.append(width)
        b_low.append(ctype.count)
    for slack_row in range(k):
        blocks.append(tuple(
            (1 if row == slack_row else 0, 0) for row in range(k)))
        t.append(2)
        b_low.append(d)
    inst = NFoldInstance(n=len(blocks), r=k, t=tuple(t),
                         blocks=tuple(blocks), b_up=(d,) * k,
                         b_low=tuple(b_low))
    return inst, types


def _decode_center(strings: list[str], types: list[ColumnType],
                   x: tuple[int, ...]) -> str:
    """Rebuild a center string from the per-type letter counts."""
    length = len(strings[0])
    center = [""] * length
    offset = 0
    for ctype in types:
        counts = x[offset:offset + ctype.groups]
        offset += ctype.groups
        choices: list[int] = []
        for choice, times in enumerate(counts):
            choices.extend([choice] * times)
        if len(choices) != ctype.count:
            raise AssertionError("letter counts do not cover the columns")
        for col, choice in zip(ctype.columns, choices):
            row = ctype.pattern.index(choice)
            center[col] = strings[row][col]
    return "".join(center)


def hamming(a: str, b: str) -> int:
    """Number of positions where two equal-length strings differ."""
    if len(a) != len(b):
        raise ValueError("strings must share one length")
    return sum(1 for x, y in zip(a, b) if x != y)


def decide_distance(strings: list[str], d: int) -> str | None:
    """Return a center within distance d of every string, or None."""
    inst, types = build_ilp(strings, d)
    outcome = ilp_solve(inst, mode="feasibility")
    if outcome.status != STATUS_FEASIBLE:
        return None
    center = _decode_center(strings, types, outcome.solution.x)
    worst = max(hamming(center, s) for s in strings)
    if worst > d:
        raise AssertionError(
            f"decoded center at distance {worst}, promised {d}")
    return center


def solve_closest(strings: list[str]) -> tuple[int, str]:
    """Minimise the maximum Hamming distance from a center string.

    Returns
    -------
    (int, str)
        The optimal radius and a witness center.  Feasibility is monotone
        in the radius, so ``core.least_feasible`` bisects the radii for
        the least feasible one.  It searches only a certified bracket: no
        center beats half the largest pairwise distance (triangle
        inequality), and each input string is a center of radius its
        largest distance to the others, a 2-approximation (Li, Ma & Wang,
        J. ACM 2002).  The center returned always comes from
        ``decide_distance``.
    """
    if not strings:
        raise ValueError("need at least one string")
    length = len(strings[0])
    far = [max(hamming(s, t) for t in strings) for s in strings]
    lo, hi = (max(far) + 1) // 2, min(far)
    radius, best, decided = least_feasible(
        lo, hi, lambda d: decide_distance(strings, d))
    if best is None:
        raise AssertionError("an input string's own radius must be feasible")
    log.debug("closest string bracket [%d, %d]: %d guesses decided",
              lo, hi, decided)
    log.info("closest string radius %d for %d strings of length %d",
             radius, len(strings), length)
    return radius, best
