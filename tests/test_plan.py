"""Level planning: support bounds, halving schedules, closed forms."""

from __future__ import annotations

import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfold.core import NFoldInstance
from nfold.plan import (
    box_radius,
    build_plan,
    closed_form_target,
    iteration_count,
    lower_rhs_schedule,
    plan_to_json,
    support_bound,
    support_floor,
)


def simulate_chain(b: int, support: int) -> list[tuple[int, int, int]]:
    """Reference halving run, top down: list of (target, placed, carried)."""
    out = []
    current = b
    while current > 0:
        if current <= support:
            out.append((current, current, 0))
            current = 0
        else:
            z = (current - support) & 1
            placed = support - z
            carried = current - placed
            out.append((current, placed, carried))
            current = carried // 2
    return out


def test_support_bound_constants():
    assert support_bound(1, 1, "feasibility") == 12
    assert support_bound(1, 2, "feasibility") == 16
    assert support_bound(1, 1, "optimize") == 27


def test_box_radius_values():
    assert box_radius(2, 12, 1) == 24
    assert box_radius(1, 0, 5) == 0
    assert box_radius(3, 12, 2) == 72


@pytest.mark.parametrize("r, delta, mode, message", [
    (0, 1, "feasibility", "support_bound needs r >= 1, got 0"),
    (1, -1, "optimize", "support_bound needs delta >= 0, got -1"),
    (1, 1, "fastest", "unknown mode: 'fastest'"),
])
def test_support_bound_rejects_bad_arguments(r, delta, mode, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        support_bound(r, delta, mode)


def test_iteration_count_frozen_values():
    assert iteration_count(100, 12) == 4
    assert iteration_count(88, 12) == 4  # exact power-of-two quotient tie
    assert iteration_count(37, 12) == 3
    assert iteration_count(13, 12) == 2
    assert iteration_count(5, 12) == 1
    assert iteration_count(0, 12) == 1
    assert iteration_count(12, 12) == 1


def test_iteration_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        iteration_count(-1, 12)
    with pytest.raises(ValueError):
        iteration_count(5, 0)


def test_schedule_100_under_12():
    sched, levels = lower_rhs_schedule(100, 12)
    assert levels == 4
    assert sched.levels == 4
    assert sched.targets == (2, 16, 44, 100)
    assert sched.placed == (2, 12, 12, 12)
    assert sched.carried == (0, 4, 32, 88)
    assert sched.parity == (None, 0, 0, 0)


def test_schedule_15_under_12_needs_parity_fix():
    sched, levels = lower_rhs_schedule(15, 12)
    assert levels == 2
    assert sched.targets == (2, 15)
    assert sched.placed == (2, 11)  # top level places K - 1 to keep rest even
    assert sched.carried == (0, 4)
    assert sched.parity == (None, 1)


def test_schedule_5_under_12_is_single_level():
    sched, levels = lower_rhs_schedule(5, 12)
    assert levels == 1
    assert sched.targets == (5,)
    assert sched.placed == (5,)
    assert sched.carried == (0,)
    assert sched.parity == (None,)


def test_closed_form_matches_frozen_chain():
    for i, want in enumerate((2, 16, 44, 100), start=1):
        assert closed_form_target(100, 12, 4, i) == want


def test_closed_form_rejects_level_out_of_range():
    with pytest.raises(ValueError):
        closed_form_target(100, 12, 4, 0)
    with pytest.raises(ValueError):
        closed_form_target(100, 12, 4, 5)


def test_closed_form_agrees_with_simulation_randomly():
    rng = random.Random(7)
    for _ in range(300):
        support = rng.randint(5, 40)
        b = rng.randint(0, 10 ** 5)
        chain = simulate_chain(b, support)
        levels = iteration_count(b, support)
        assert levels == max(1, len(chain))
        targets_top_down = [step[0] for step in chain]
        targets = [0] * (levels - len(chain)) + targets_top_down[::-1]
        for i in range(1, levels + 1):
            assert closed_form_target(b, support, levels, i) == targets[i - 1]
        for target, placed, carried in chain:
            assert placed <= support
            assert carried % 2 == 0
            assert placed + carried == target


def test_build_plan_anchors_short_bricks_at_the_top():
    inst = NFoldInstance(
        n=2,
        r=1,
        t=(1, 1),
        blocks=(((1,),), ((1,),)),
        b_up=(0,),
        b_low=(100, 5),
    )
    plan = build_plan(inst, "feasibility", support=support_bound(1, 1, "feasibility"))
    assert plan.support == 12
    assert plan.levels == 4
    assert plan.block_levels == (4, 1)
    assert plan.schedules[1].placed == (0, 0, 0, 5)
    assert plan.schedules[1].targets == (0, 0, 0, 5)
    assert plan.placed_at(4) == (12, 5)
    assert plan.placed_at(1) == (2, 0)


def test_build_plan_zero_target_single_level():
    inst = NFoldInstance(
        n=1, r=1, t=(1,), blocks=(((1,),),), b_up=(0,), b_low=(0,)
    )
    plan = build_plan(inst, "feasibility")
    assert plan.levels == 1
    assert plan.schedules[0].placed == (0,)


def test_build_plan_radius_combines_n_support_delta():
    inst = NFoldInstance(
        n=2,
        r=1,
        t=(2, 2),
        blocks=(((1, 2),), ((2, 0),)),
        b_up=(4,),
        b_low=(3, 3),
    )
    plan = build_plan(inst, "feasibility", support=support_bound(1, 2, "feasibility"))
    assert plan.support == support_bound(1, 2, "feasibility") == 16
    assert plan.radius == 2 * 16 * 2


def test_plan_to_json_shape():
    inst = NFoldInstance(
        n=1, r=1, t=(1,), blocks=(((1,),),), b_up=(5,), b_low=(15,)
    )
    doc = plan_to_json(
        build_plan(inst, "feasibility", support=support_bound(1, 1, "feasibility"))
    )
    assert doc["support_bound"] == 12
    assert doc["levels"] == 2
    assert doc["mode"] == "feasibility"


def one_brick(t: int, b: int, b_up: int = 0) -> NFoldInstance:
    return NFoldInstance(
        n=1, r=1, t=(t,), blocks=((tuple(j % 3 for j in range(t)),),), b_up=(b_up,), b_low=(b,)
    )


def test_support_floor_is_the_widest_brick_that_must_split():
    inst = NFoldInstance(
        n=3, r=1, t=(3, 5, 2), blocks=(((1, 0, 1),), ((1,) * 5,), ((0, 1),)),
        b_up=(0,), b_low=(10, 4, 9),
    )
    assert support_floor(inst) == 4  # min(3, 10), min(5, 4), min(2, 9)
    assert support_floor(one_brick(3, 0)) == 1


def test_build_plan_accepts_the_paper_k_and_k_from_the_floor_up():
    inst = one_brick(3, 40)  # floor 3, paper K 16
    paper = support_bound(1, 2, "feasibility")
    for support in (3, 4, paper, 50):
        plan = build_plan(inst, "feasibility", support=support)
        assert plan.support == support
        assert plan.support_bound == paper
        assert plan.radius == box_radius(1, support, 2)
        assert all(p <= support for p in plan.placed_at(plan.levels))
    for support in (0, 1, 2):
        with pytest.raises(ValueError, match="level size K"):
            build_plan(inst, "feasibility", support=support)


def test_paper_k_below_the_floor_stays_valid():
    inst = one_brick(20, 30)  # a wide brick: floor 20 above paper K 16
    paper = support_bound(1, 2, "feasibility")
    assert paper < support_floor(inst) == 20
    assert build_plan(inst, "feasibility", support=paper).support == paper
    assert build_plan(inst, "feasibility", support=20).support == 20
    # targets above the paper's K and a floor above it: the paper's K wins
    assert build_plan(inst, "feasibility").support == paper
    with pytest.raises(ValueError, match="level size K"):
        build_plan(inst, "feasibility", support=paper + 1)


def split_along(counts: list[int], placed: tuple[int, ...]) -> list[list[int]]:
    """Split a brick vector along a schedule, top level first, the way
    the plan docstring argues: one unit from each odd coordinate, then
    pairs.  Returns the per-level vectors, bottom level first."""
    parts = []
    rest = list(counts)
    for take in reversed(placed):
        part = [v & 1 for v in rest]
        left = take - sum(part)
        assert left >= 0 and left % 2 == 0, "parity or count argument fails"
        for j, v in enumerate(rest):
            pairs = min(left // 2, (v - part[j]) // 2)
            part[j] += 2 * pairs
            left -= 2 * pairs
        assert left == 0, "not enough units left to place in pairs"
        parts.append(part)
        rest = [(v - q) // 2 for v, q in zip(rest, part)]
    assert not any(rest)
    return parts[::-1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_brick_vector_splits_along_a_valid_plan(data):
    t = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(0, 200))
    counts = [0] * t
    for j in data.draw(st.lists(st.integers(0, t - 1), min_size=b, max_size=b)):
        counts[j] += 1
    inst = one_brick(t, b)
    support = data.draw(st.integers(support_floor(inst), max(support_floor(inst), 30)))
    plan = build_plan(inst, "feasibility", support=support)
    placed = plan.schedules[0].placed
    parts = split_along(counts, placed)
    depth = plan.levels
    assert [sum(part) for part in parts] == list(placed)
    assert [
        sum(part[j] << (depth - 1 - i) for i, part in enumerate(parts))
        for j in range(t)
    ] == counts


def deep_pair() -> NFoldInstance:
    """Two r=2 bricks with b_low = 150: the paper's K needs three levels."""
    blocks = (((1, 0, 2), (1, 1, 1)), ((1, 1, 2), (1, 1, 0)))
    x = ((50, 50, 50), (50, 50, 50))
    b_up = tuple(
        sum(e * v for blk, xs in zip(blocks, x) for e, v in zip(blk[j], xs))
        for j in range(2)
    )
    return NFoldInstance(
        n=2, r=2, t=(3, 3), blocks=blocks, b_up=b_up, b_low=(150, 150)
    )


def test_default_k_is_picked_by_rule_and_reported(caplog):
    inst = deep_pair()
    paper = support_bound(2, 2, "feasibility")
    with caplog.at_level(logging.DEBUG, logger="nfold.plan"):
        plan = build_plan(inst, "feasibility")
    assert plan.support_bound == paper == 27
    assert support_floor(inst) <= plan.support < paper
    assert plan.levels > iteration_count(150, paper)
    # targets above the paper's K and a floor below it: the floor wins
    assert plan.support == support_floor(inst) == 3

    (line,) = [
        rec.getMessage() for rec in caplog.records
        if rec.getMessage().startswith("plan: paper K")
    ]
    match = re.fullmatch(
        r"plan: paper K=(\d+), floor (\d+), K=(\d+) D=(\d+) levels=(\d+) "
        r"block_levels=\((.*)\)",
        line,
    )
    assert int(match[1]) == paper and int(match[2]) == support_floor(inst)
    assert int(match[3]) == plan.support and int(match[4]) == plan.radius
    assert int(match[5]) == plan.levels
    assert tuple(map(int, match[6].split(","))) == plan.block_levels

    doc = plan_to_json(plan)
    assert doc["support_bound"] == paper
    assert doc["support"] == plan.support


def test_one_level_plans_keep_the_paper_k():
    # every target fits the floor's K too, so there is nothing to split
    inst = NFoldInstance(
        n=2, r=1, t=(2, 2), blocks=(((1, 2),), ((0, 1),)), b_up=(4,), b_low=(2, 1)
    )
    plan = build_plan(inst, "optimize")
    assert plan.support == plan.support_bound == support_bound(1, 2, "optimize")
    assert plan.levels == 1
