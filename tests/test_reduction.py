"""Sign reduction: shifting entries nonnegative preserves solutions."""

from __future__ import annotations

import random

from nfold.core import NFoldInstance, verify_solution
from nfold.oracle import oracle_solve
from nfold.reduction import reduce_instance

from helpers import random_core_instance


def test_frozen_signed_example():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((-1, 2),),), b_up=(0,), b_low=(3,)
    )
    reduced = reduce_instance(inst)
    assert reduced.shift == 2
    assert reduced.instance.blocks == (((1, 4),),)
    assert reduced.instance.b_up == (6,)
    assert reduced.instance.b_low == (3,)
    # x = (2, 1): original row -2 + 2 = 0; shifted row 2 + 4 = 6
    assert verify_solution(inst, (2, 1))
    assert verify_solution(reduced.instance, (2, 1))


def test_nonnegative_instance_is_left_alone():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,)
    )
    reduced = reduce_instance(inst)
    assert reduced.shift == 0
    assert reduced.instance == inst


def test_shift_scales_with_total_brick_mass():
    # each row's target moves by delta * sum(b_low)
    inst = NFoldInstance(
        n=2,
        r=2,
        t=(1, 2),
        blocks=((((-2,), (1,))), ((0, 1), (-1, 2))),
        b_up=(3, -4),
        b_low=(2, 5),
    )
    reduced = reduce_instance(inst)
    assert reduced.shift == inst.delta == 2
    assert reduced.instance.b_up == (3 + 2 * 7, -4 + 2 * 7)


def test_zero_brick_targets_leave_b_up_unchanged():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((-1, 1),),), b_up=(0,), b_low=(0,)
    )
    reduced = reduce_instance(inst)
    assert reduced.shift == 1
    assert reduced.instance.b_up == (0,)


def test_reduced_entries_land_in_doubled_band():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_core_instance(rng, force_signed=True)
        delta = inst.delta
        reduced = reduce_instance(inst)
        for block in reduced.instance.blocks:
            for row in block:
                for entry in row:
                    assert 0 <= entry <= 2 * delta


def test_oracle_verdicts_survive_the_shift():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_core_instance(rng, force_signed=True)
        reduced = reduce_instance(inst)
        original = oracle_solve(inst)
        shifted = oracle_solve(reduced.instance)
        assert original.status == shifted.status
        if original.solution is not None:
            x = original.solution.x
            assert verify_solution(reduced.instance, x)
        if shifted.solution is not None:
            assert verify_solution(inst, shifted.solution.x)
