"""Big-int bitsets over mixed-radix code frames.

A frame codes an r-vector of digits as one ``int``, digit ``j`` times
``strides[j]``, each stride a multiple of the next and the last one 1, so
a set of points is the set bits of one ``int``.  These helpers build,
read and move such bitsets with a few whole-int operations each, and
``dp`` runs its bitset folds and level changes on them.
"""

from __future__ import annotations

from operator import gt, le


def repeat(bits: int, count: int, step: int) -> int:
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


def box_mask(strides, lo, hi) -> int:
    """Bitset of the codes of every point in ``[lo, hi]``; 0 when empty.

    Codes are mixed radix with these ``strides`` (the last one 1), and
    ``[lo, hi]`` must lie inside the frame: ``0 <= lo`` and ``hi`` below
    each axis's radix.  The last axis is one run of set bits; every other
    axis repeats the mask so far, from the last but one up, by doubling.
    """
    if any(map(gt, lo, hi)):
        return 0
    mask = ((1 << hi[-1] - lo[-1] + 1) - 1) << lo[-1]
    for j in range(len(strides) - 2, -1, -1):
        mask = repeat(mask, hi[j] - lo[j] + 1, strides[j]) << (lo[j] * strides[j])
    return mask


def bitset(codes) -> int:
    """One ``int`` with bit ``code`` set for each of the nonnegative ``codes``."""
    raw = bytearray((max(codes, default=0) >> 3) + 1)
    for code in codes:
        raw[code >> 3] |= 1 << (code & 7)
    return int.from_bytes(raw, "little")


def set_bits(bits: int) -> list[int]:
    """Positions of the set bits of ``bits >= 0``, ascending."""
    digits = bin(bits)
    top = len(digits) - 1
    out = []
    i = digits.rfind("1", 2)
    while i >= 2:
        out.append(top - i)
        i = digits.rfind("1", 2, i)
    return out


def or_slabs(bits: int, size: int) -> int:
    """OR of the ``size``-bit slabs of ``bits >= 0``, halving the number
    of slabs per step."""
    while bits >> size:
        half = ((bits.bit_length() + size - 1) // size + 1) // 2 * size
        bits = bits >> half | bits & (1 << half) - 1
    return bits


# Per byte value, its low and its high four bits moved from bit i to 2*i.
_SPREAD_LOW, _SPREAD_HIGH = (
    bytes(sum((v >> 4 * half + i & 1) << 2 * i for i in range(4)) for v in range(256))
    for half in (0, 1))


def spread(bits: int) -> int:
    """``bits >= 0`` with bit ``i`` moved to bit ``2*i``: each byte
    becomes two, by two table lookups per byte."""
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LOW)
    out[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def restride(bits: int, old, new, counts) -> int:
    """``bits`` with the point at ``sum(e_j * old[j])`` moved to
    ``sum(e_j * new[j])``, for digits ``e_j < counts[j]``.

    Both stride lists are mixed radix (each stride a multiple of the
    next) with one last stride, each axis's digits fit below its stride
    (``counts[j] * old[j] <= old[j-1]``, the same for ``new``), and
    either every ``new[j] <= old[j]`` or every ``new[j] >= old[j]``.
    Axis ``j`` moves its slabs by the bits of their digit: at bit ``b``
    every slab with that bit set moves by ``2**b * (new[j] - old[j])``
    at once, one mask, AND, XOR and shift-OR over the whole frame.
    Moving down, the inner axes go first and each axis from its lowest
    bit, so the slabs it moves already sit ``new[j]`` apart; moving up,
    the outer axes go first, from the highest bit, so the slabs it moves
    are still ``old[j]`` apart.  Either way each group of ``2**(b+1)``
    slabs keeps its lower half, the moving upper half never meets a slab
    that has not moved, and the mask covers that upper half alone, in
    every block of the outer axes: the multiples of axis ``j-1``'s
    stride as it stands.
    """
    down = all(map(le, new, old))
    for j in range(len(old) - 2, -1, -1) if down else range(len(old) - 1):
        was, now, count = old[j], new[j], counts[j]
        if was == now or count < 2:
            continue
        wide, narrow = max(was, now), min(was, now)
        period = (old if down else new)[j - 1] if j else 0
        blocks = bits.bit_length() // period + 1 if j else 1
        top = (count - 1).bit_length()
        for b in range(top) if down else range(top - 1, -1, -1):
            half = 1 << b
            # Slabs with bit b set: half of them per whole group, then
            # ``rest`` in the last one.
            full, rest = divmod(count - half, 2 * half)
            step = 2 * half * wide
            mask = repeat((1 << half * narrow) - 1, full, step)
            mask |= ((1 << min(half, rest) * narrow) - 1) << full * step
            moving = bits & repeat(mask << half * was, blocks, period)
            shift = half * (now - was)
            bits ^= moving
            bits |= moving << shift if shift > 0 else moving >> -shift
    return bits
