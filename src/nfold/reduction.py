"""Sign reduction: shift matrix entries so the engine only sees >= 0.

Adding a constant ``s`` to every matrix entry changes brick k's row
contribution by exactly ``s * b_low[k]`` (the brick's coordinates sum to
``b_low[k]`` no matter what), so shifting the shared-row targets by
``s * sum(b_low)`` preserves the solution set coordinate for coordinate.
With ``s = delta`` every shifted entry lands in ``[0, 2*delta]``.

Solutions need no mapping back: the same ``x`` solves both programs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NFoldInstance


@dataclass
class ReducedInstance:
    """A sign-free copy of an instance plus the shift that produced it."""

    instance: NFoldInstance
    shift: int


def reduce_instance(inst: NFoldInstance) -> ReducedInstance:
    """Shift entries by ``delta`` when any entry is negative; else no-op."""
    has_negative = any(
        entry < 0 for block in inst.blocks for row in block for entry in row
    )
    if not has_negative:
        return ReducedInstance(instance=inst, shift=0)
    shift = inst.delta
    total_low = sum(inst.b_low)
    blocks = tuple(
        tuple(tuple(entry + shift for entry in row) for row in block)
        for block in inst.blocks
    )
    shifted = NFoldInstance(
        n=inst.n,
        r=inst.r,
        t=inst.t,
        blocks=blocks,
        b_up=tuple(v + shift * total_low for v in inst.b_up),
        b_low=inst.b_low,
        c=inst.c,
    )
    return ReducedInstance(instance=shifted, shift=shift)
