"""Doubling solver: frozen verdicts, witnesses, windows, determinism."""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import random
import re
import subprocess
import sys
import textwrap
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfold

from nfold.core import (
    InternalError,
    NFoldInstance,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    verify_solution,
)
from nfold import dp, driver, plan
from nfold.driver import solve, solve_with_trace
from nfold.closest_string import solve_closest
from nfold.imbalance import solve_imbalance
from nfold.oracle import oracle_solve
from nfold.plan import support_floor
from nfold.reduction import reduce_instance
from nfold.scheduling import SchedulingInstance, solve_cmax, solve_cmin

import helpers
from helpers import random_core_instance
from test_acceptance import (FEASIBILITY_TRIALS, OPTIMIZE_TRIALS,
                             SEED_FEASIBILITY, SEED_OPTIMIZE)
from test_dp import design_graph


def two_brick(c=None) -> NFoldInstance:
    return NFoldInstance(
        n=2,
        r=1,
        t=(2, 2),
        blocks=(((1, 2),), ((0, 1),)),
        b_up=(4,),
        b_low=(2, 1),
        c=c,
    )


def test_feasible_frozen_instance():
    inst = two_brick()
    out = solve(inst)
    assert out.status == STATUS_FEASIBLE
    assert verify_solution(inst, out.solution.x)


def test_optimize_frozen_instance():
    inst = two_brick(c=(0, 1, 0, 1))
    out = solve(inst, mode="optimize")
    assert out.status == STATUS_OPTIMAL
    assert out.solution.objective == 2
    assert verify_solution(inst, out.solution.x, 2)


def test_zero_instance_returns_zero_vector():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((0, 0),),), b_up=(0,), b_low=(0,)
    )
    out = solve(inst)
    assert out.status == STATUS_FEASIBLE
    assert out.solution.x == (0, 0)


def pin_support(monkeypatch, support: int) -> None:
    """Make the solver plan with level size ``support``."""
    monkeypatch.setattr(
        driver, "build_plan", functools.partial(plan.build_plan, support=support)
    )


def test_multi_level_brick_target(monkeypatch):
    # b_low = 100 forces a four-level plan under the paper's K = 12
    pin_support(monkeypatch, 12)
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    out, trace = solve_with_trace(inst)
    assert trace.plan.levels == 4
    assert out.status == STATUS_FEASIBLE
    assert out.solution.x == (40, 60)
    assert out.stats["iterations"] == 4


def test_default_level_size_solves_the_deep_target():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    out = solve(inst)
    assert out.status == STATUS_FEASIBLE
    assert out.solution.x == (40, 60)
    assert out.stats["support"] >= support_floor(inst) == 2


def test_signed_entries_are_handled_in_place():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((-1, 2),),), b_up=(0,), b_low=(3,)
    )
    out = solve(inst)
    assert out.status == STATUS_FEASIBLE
    assert verify_solution(inst, out.solution.x)


def test_unreachable_target_is_infeasible():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(99,), b_low=(2,)
    )
    assert solve(inst).status == STATUS_INFEASIBLE


def test_negative_target_after_shift_is_infeasible():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(-1,), b_low=(2,)
    )
    out, trace = solve_with_trace(inst)
    assert out.status == STATUS_INFEASIBLE
    # The level-1 window is empty, so no base table is built.
    assert out.stats["iterations"] == 1
    assert out.stats["dp_cells"] == 0
    assert out.stats["support"] == trace.plan.support


def test_mode_argument_is_checked():
    with pytest.raises(ValueError, match="unknown mode"):
        solve(two_brick(), mode="approximate")
    with pytest.raises(ValueError, match="cost vector"):
        solve(two_brick(), mode="optimize")
    with pytest.raises(ValueError, match="nonnegative costs"):
        solve(two_brick(c=(0, -1, 0, 0)), mode="optimize")


def deep_line_plan():
    """The four-level plan of ``b_low = 100`` at K = 12 on the brick (1 0).

    Levels 1-4 place 2, 12, 12, 12 units, so level j adds between 0 and
    that many on the one shared axis.
    """
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    return plan.build_plan(inst, "feasibility", support=12)


def test_level_window_collapses_at_the_top():
    lo, hi, _, _ = deep_line_plan().windows[-1]
    assert lo == hi == (40,)


def test_level_window_bottom_is_interval():
    built = deep_line_plan()
    assert built.schedules[0].placed == (2, 12, 12, 12)
    lo, hi, small_lo, small_hi = built.windows[0]
    # e = 3: lo = max(0, ceil((40 - (4+2+1)*12) / 8)) = 0 and
    # hi = min(2, 40 // 8) = 2, where the D-box gave [0, 5]
    assert (lo, hi) == ((0,), (2,))
    assert (small_lo, small_hi) == (lo, hi)


def test_trace_points_stay_inside_their_windows():
    inst = NFoldInstance(
        n=2,
        r=2,
        t=(2, 2),
        blocks=(((1, 2), (1, 0)), ((0, 1), (2, 1))),
        b_up=(20, 25),
        b_low=(9, 8),
    )
    out, trace = solve_with_trace(inst)
    want = oracle_solve(inst)
    assert out.status == want.status
    assert len(trace.plan.windows) >= len(trace.levels)
    for level, table in enumerate(trace.levels, 1):
        lo, hi, small_lo, small_hi = trace.plan.windows[level - 1]
        for pt in table.cells:
            assert inside(pt, lo, hi)
        small = table if level == 1 else table.parents[1]
        for pt in small.cells:
            assert inside(pt, small_lo, small_hi)


def inside(point, lo, hi) -> bool:
    return all(l <= v <= h for v, l, h in zip(point, lo, hi))


@pytest.mark.parametrize("b_up", [(99,), (201,)])
def test_target_out_of_reach_ends_before_any_base_table(monkeypatch, b_up):
    """The levels of ``b_low = 100`` at K = 12 add between 100 and 200 on
    the brick (1 2) (placed 2, 12, 12, 12, weights 8, 4, 2, 1); a target
    outside ``[100, 200]`` leaves level 1 an empty window."""
    pin_support(monkeypatch, 12)

    def no_base_table(*args, **kwargs):
        raise AssertionError("block_base_table called")

    monkeypatch.setattr(dp, "block_base_table", no_base_table)
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=b_up, b_low=(100,)
    )
    out = solve(inst)
    assert out.status == STATUS_INFEASIBLE
    assert out.stats["iterations"] == 1 and out.stats["dp_cells"] == 0


def test_solver_is_deterministic():
    inst = two_brick(c=(0, 1, 0, 1))
    first = solve(inst, mode="optimize")
    second = solve(inst, mode="optimize")
    assert first.status == second.status
    assert first.solution.x == second.solution.x
    assert first.solution.objective == second.solution.objective


def test_stats_shape():
    out = solve(two_brick())
    assert set(out.stats) == {"iterations", "dp_cells", "wall_time_s", "support"}
    assert out.stats["iterations"] >= 1
    assert out.stats["dp_cells"] > 0


def test_debug_log_reports_cells_per_level(caplog, monkeypatch):
    pin_support(monkeypatch, 12)
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    with caplog.at_level(logging.DEBUG, logger="nfold.driver"):
        out = solve(inst)
    line = re.compile(
        r"level \d+/4: (\d+) base cells, (\d+) small points, (\d+) retained;"
        r" window \(\d+,\)\.\.\(\d+,\), small \(\d+,\)\.\.\(\d+,\)"
    )
    counts = [
        [int(v) for v in line.fullmatch(rec.getMessage()).groups()]
        for rec in caplog.records
        if rec.name == "nfold.driver"
    ]
    assert len(counts) == out.stats["iterations"] == 4
    assert all(base > 0 for base, _, _ in counts)
    assert sum(map(sum, counts)) == out.stats["dp_cells"]


def test_quick_agreement_sweep_against_oracle():
    rng = random.Random(53)
    for _ in range(80):
        inst = random_core_instance(rng)
        got = solve(inst)
        want = oracle_solve(inst)
        assert got.status == want.status, f"disagreement on {inst}"
        if got.solution is not None:
            assert verify_solution(inst, got.solution.x)


def test_quick_optimize_sweep_against_oracle():
    rng = random.Random(59)
    for _ in range(50):
        inst = random_core_instance(rng, with_costs=True, plant=True)
        got = solve(inst, mode="optimize")
        want = oracle_solve(inst, mode="optimize")
        assert got.status == want.status == STATUS_OPTIMAL
        assert got.solution.objective == want.solution.objective


def test_thousand_brick_fold_decodes_without_recursion():
    n = 1200
    inst = NFoldInstance(
        n=n, r=1, t=(1,) * n, blocks=(((1,),),) * n, b_up=(n,), b_low=(1,) * n
    )
    out = solve(inst)
    assert out.status == STATUS_FEASIBLE
    assert verify_solution(inst, out.solution.x)


def run_optimized(script: str) -> list[str]:
    """Stdout lines of ``script`` run under ``python -O`` against this nfold."""
    src = str(Path(nfold.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_witness_check_survives_python_optimize_flag():
    script = textwrap.dedent(
        """
        import nfold.driver as driver
        from nfold.core import InternalError, NFoldInstance

        driver.verify_solution = lambda *args: False
        inst = NFoldInstance(n=2, r=1, t=(2, 2), blocks=(((1, 2),), ((0, 1),)),
                             b_up=(4,), b_low=(2, 1), c=(0, 1, 0, 1))
        print("debug", __debug__)
        for mode in ("feasibility", "optimize"):
            try:
                out = driver.solve(inst, mode)
            except InternalError as exc:
                print(mode, "internal error:", exc)
            else:
                print(mode, out.status)
        """
    )
    assert run_optimized(script) == [
        "debug False",
        "feasibility internal error: corrupt witness: bad solution",
        "optimize internal error: corrupt witness: bad solution",
    ]


def four_brick() -> NFoldInstance:
    """Four bricks, so the level-1 fold is four bitset steps from the origin."""
    return NFoldInstance(
        n=4, r=1, t=(2, 2, 2, 2), blocks=(((1, 2),), ((0, 1),)) * 2,
        b_up=(100,), b_low=(30, 30, 30, 30),
    )


def four_valued_bricks() -> NFoldInstance:
    """``four_brick`` with costs: its level-1 fold takes four packed steps."""
    return dataclasses.replace(four_brick(), c=(0, 1, 1, 0) * 2)


CORRUPT_FRAME = """
from nfold import dp
from nfold.core import InternalError
from nfold.driver import solve_with_trace


def decoded(label, table, point):
    try:
        table.decode(point)
    except InternalError as exc:
        return f"{label} internal error: {exc}"
    return f"{label} decoded"


def level_one_fold(inst, mode):
    \"\"\"The level-1 fold, its last partial before the result, its origin
    and its last point.\"\"\"
    fold = solve_with_trace(inst, mode)[1].levels[0]
    origin = fold
    while origin.parents is not None:
        origin = origin.parents[0]
    return fold, fold.parents[0], origin, fold.points()[-1]


def corrupt_bits_attempts(inst):
    \"\"\"Decode after clearing the fold's bit of its point, the partial
    below it, and the origin's bit; each is undone after.\"\"\"
    fold, partial, origin, point = level_one_fold(inst, "feasibility")
    bit = 1 << fold._code(point)
    lines = []
    fold.bits ^= bit
    lines.append(decoded("cleared bit", fold, point))
    fold.bits ^= bit
    partial.bits, bits = 0, partial.bits
    lines.append(decoded("no pair", fold, point))
    partial.bits = bits
    origin.bits = 0
    lines.append(decoded("cleared origin", origin, (0,) * len(point)))
    lines.append(decoded("above it", fold, point))
    origin.bits = 1
    lines.append(decoded("restored", fold, point))
    return lines


def corrupt_packed_attempts(inst):
    \"\"\"Decode after raising, then dropping, the fold's value of its
    point, and after dropping the origin's code; each is undone after.\"\"\"
    fold, _, origin, point = level_one_fold(inst, "optimize")
    code = fold._code(point)
    value = fold.codes[code]
    lines = []
    fold.codes[code] += 1
    lines.append(decoded("raised value", fold, point))
    del fold.codes[code]
    lines.append(decoded("dropped code", fold, point))
    fold.codes[code] = value
    origin.codes = {}
    lines.append(decoded("dropped origin", origin, (0,) * len(point)))
    lines.append(decoded("above it", fold, point))
    origin.codes = {0: 0}
    lines.append(decoded("restored", fold, point))
    return lines


def sum_pair(table, point):
    \"\"\"``(p, q, left)`` for ``point`` of a ``sumset`` table: the pair
    ``decode`` recovers and the left table that codes ``scale*p``.\"\"\"
    left, _ = table.parents
    code = table._code(point)
    scaled, q, _, _ = table._pair(point, code, table._value_at(code))
    return tuple(x // left.scale for x in scaled), q, left


def corrupt_sum_attempts(inst):
    \"\"\"Decode pairless sum tables after each corruption, undone after:
    a valued ``convolve`` table (scale 1) after raising its value of its
    last point and after dropping that point's ``p`` from its left
    operand; the top level table of ``inst`` (scale 2, a bitset) after
    emptying its left table and after dropping ``b_up``'s ``p`` from the
    level below.\"\"\"
    a = dp.block_base_table(((1, 2),), 2, block_index=0, costs=(0, 1))
    b = dp.block_base_table(((0, 1),), 1, block_index=1, costs=(1, 0))
    pair = dp.convolve(a, b)
    point = pair.points()[-1]
    p, _, _ = sum_pair(pair, point)
    lines = []
    pair.codes[pair._code(point)] += 1
    lines.append(decoded("raised value", pair, point))
    pair.codes[pair._code(point)] -= 1
    cell = a.cells.pop(p)
    lines.append(decoded("dropped operand point", pair, point))
    a.cells[p] = cell
    lines.append(decoded("restored", pair, point))

    trace = solve_with_trace(inst)[1]
    top, b_up = trace.levels[-1], tuple(trace.reduced.instance.b_up)
    p, _, left = sum_pair(top, b_up)
    below = left.parents[0]
    left.bits, bits = 0, left.bits
    lines.append(decoded("emptied left table", top, b_up))
    left.bits = bits
    bit = 1 << below._code(p)
    below.bits ^= bit
    lines.append(decoded("dropped level point", top, b_up))
    below.bits ^= bit
    lines.append(decoded("restored", top, b_up))
    return lines
"""


def check_corrupt_bits_lines(lines: list[str]) -> None:
    assert len(lines) == 5, lines
    assert re.fullmatch(
        r"cleared bit internal error: corrupt witness: \(\d+,\) missing", lines[0]
    )
    assert re.fullmatch(
        r"no pair internal error: corrupt witness: no pair for \(\d+,\)", lines[1]
    )
    assert lines[2] == "cleared origin internal error: corrupt witness: (0,) missing"
    assert re.fullmatch(
        r"above it internal error: corrupt witness: no pair for \(\d+,\)", lines[3]
    )
    assert lines[4] == "restored decoded"


def check_corrupt_packed_lines(lines: list[str]) -> None:
    assert len(lines) == 5, lines
    assert re.fullmatch(
        r"raised value internal error: corrupt witness: no pair for \(\d+,\)", lines[0]
    )
    assert re.fullmatch(
        r"dropped code internal error: corrupt witness: \(\d+,\) missing", lines[1]
    )
    assert lines[2] == "dropped origin internal error: corrupt witness: (0,) missing"
    assert re.fullmatch(
        r"above it internal error: corrupt witness: no pair for \(\d+,\)", lines[3]
    )
    assert lines[4] == "restored decoded"


def check_corrupt_sum_lines(lines: list[str]) -> None:
    assert len(lines) == 6, lines
    assert lines[:3] == [
        "raised value internal error: corrupt witness: no pair for (5,)",
        "dropped operand point internal error: corrupt witness: (4,) missing",
        "restored decoded",
    ]
    assert re.fullmatch(
        r"emptied left table internal error: corrupt witness: no pair for \(\d+,\)",
        lines[3],
    )
    assert re.fullmatch(
        r"dropped level point internal error: corrupt witness: \(\d+,\) missing",
        lines[4],
    )
    assert lines[5] == "restored decoded"


def test_corrupt_pair_raises_in_decode():
    """No sum table stores a pair, so ``decode`` must find one for every
    point: a ``convolve`` table (scale 1) and a level table (scale 2)
    raise once a value is raised or a parent point is dropped; and a
    bitset fold table must hold the point and a pair for it, down to the
    origin."""
    out, trace = solve_with_trace(four_brick())
    assert out.status == STATUS_FEASIBLE and len(trace.levels) >= 2
    top = trace.levels[-1]
    assert top.parents[0].scale == 2
    b_up = trace.reduced.instance.b_up
    assert driver.reconstruct(top, b_up)
    with pytest.raises(InternalError, match="missing"):
        driver.reconstruct(top, tuple(v + 1 for v in b_up))

    scope: dict = {}
    exec(CORRUPT_FRAME, scope)
    check_corrupt_sum_lines(scope["corrupt_sum_attempts"](four_brick()))
    check_corrupt_bits_lines(scope["corrupt_bits_attempts"](four_brick()))


def test_sum_checks_survive_python_optimize_flag():
    script = CORRUPT_FRAME + textwrap.dedent(
        f"""
        from nfold.core import NFoldInstance
        print("debug", __debug__)
        print(*corrupt_sum_attempts({four_brick()!r}), sep="\\n")
        """
    )
    lines = run_optimized(script)
    assert lines[0] == "debug False"
    check_corrupt_sum_lines(lines[1:])


def test_bitset_partial_checks_survive_python_optimize_flag():
    script = CORRUPT_FRAME + textwrap.dedent(
        f"""
        from nfold.core import NFoldInstance
        print("debug", __debug__)
        print(*corrupt_bits_attempts({four_brick()!r}), sep="\\n")
        """
    )
    lines = run_optimized(script)
    assert lines[0] == "debug False"
    check_corrupt_bits_lines(lines[1:])


def test_corrupt_packed_partial_raises_in_decode():
    """A packed fold table's value must come from a pair of its parents,
    and the point must be stored, down to the origin: each corruption
    raises ``InternalError``."""
    scope: dict = {}
    exec(CORRUPT_FRAME, scope)
    check_corrupt_packed_lines(scope["corrupt_packed_attempts"](four_valued_bricks()))


def test_packed_partial_checks_survive_python_optimize_flag():
    script = CORRUPT_FRAME + textwrap.dedent(
        f"""
        from nfold.core import NFoldInstance
        print("debug", __debug__)
        print(*corrupt_packed_attempts({four_valued_bricks()!r}), sep="\\n")
        """
    )
    lines = run_optimized(script)
    assert lines[0] == "debug False"
    check_corrupt_packed_lines(lines[1:])


# ---------------------------------------------------------------------------
# deep plans: the acceptance streams again, at the smallest valid K


def pin_floor(monkeypatch) -> list[int]:
    """Plan every solve at ``K = support_floor``; returns the level counts."""
    depths = []

    def at_floor(inst, mode):
        built = plan.build_plan(inst, mode, support=support_floor(inst))
        depths.append(built.levels)
        return built

    monkeypatch.setattr(driver, "build_plan", at_floor)
    return depths


@pytest.mark.parametrize("sweep, seed, trials", [
    (helpers.feasibility_sweep, SEED_FEASIBILITY, FEASIBILITY_TRIALS),
    (helpers.optimize_sweep, SEED_OPTIMIZE, OPTIMIZE_TRIALS),
])
def test_acceptance_streams_agree_with_brute_force_at_the_floor(
        monkeypatch, sweep, seed, trials):
    """Criteria 3 and 4 (same seeds and trials) with K pinned to the floor.

    The sweeps compare every verdict and optimum with ``oracle_solve``
    and check every witness; at the paper's K none of these trials has
    three levels, at the floor many do.
    """
    depths = pin_floor(monkeypatch)
    report = sweep(seed, trials)
    assert report["trials"] == trials
    deep = sum(levels >= 3 for levels in depths)
    helpers.REPORT_LINES.append(
        f"{report['kind']} stream at K = floor: {deep} of {len(depths)} "
        f"solves reach L >= 3, deepest L = {max(depths)}"
    )
    assert deep >= trials // 5


@st.composite
def core_cases(draw):
    mode = draw(st.sampled_from(["feasibility", "optimize"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    optimize = mode == "optimize"
    inst = random_core_instance(rng, with_costs=optimize, plant=optimize or None)
    work = reduce_instance(inst).instance
    paper = plan.support_bound(work.r, work.delta, mode)
    floor = support_floor(work)
    support = draw(st.one_of(
        st.none(), st.just(paper), st.integers(floor, max(floor, paper))
    ))
    return inst, mode, support


@settings(max_examples=300, deadline=None)
@given(core_cases())
def test_any_valid_level_size_agrees_with_brute_force(case):
    inst, mode, support = case
    with pytest.MonkeyPatch.context() as patch:
        if support is not None:
            patch.setattr(driver, "build_plan",
                          functools.partial(plan.build_plan, support=support))
        got = solve(inst, mode=mode)
    want = oracle_solve(inst, mode=mode)
    assert got.status == want.status
    if support is not None:
        assert got.stats["support"] == support
    if got.solution is not None:
        assert verify_solution(inst, got.solution.x, got.solution.objective)
        assert got.solution.objective == want.solution.objective


def d_box_windows(b_up, radius, levels):
    """The ``+-D`` box windows that the reach windows replaced, per level
    ``(lo, hi, small_lo, small_hi)``: the reference they must stay in."""
    out = []
    for level in range(1, levels + 1):
        scale = 1 << (levels - level)
        lo = tuple(max(0, -(-(v - radius * (scale - 1)) // scale)) for v in b_up)
        hi = tuple(v // scale for v in b_up)
        if out:
            below_lo, below_hi = out[-1][:2]
            small_lo = tuple(max(0, l - 2 * bh) for l, bh in zip(lo, below_hi))
            small_hi = tuple(min(radius, h - 2 * bl) for h, bl in zip(hi, below_lo))
        else:
            small_lo, small_hi = lo, tuple(min(radius, h) for h in hi)
        out.append((lo, hi, small_lo, small_hi))
    return out


@pytest.mark.parametrize("seed, trials, mode, kwargs", [
    (SEED_FEASIBILITY, FEASIBILITY_TRIALS, "feasibility", {}),
    (SEED_OPTIMIZE, OPTIMIZE_TRIALS, "optimize",
     {"with_costs": True, "plant": True}),
])
def test_reach_windows_hold_the_witness_inside_the_d_box_at_the_floor(
        monkeypatch, seed, trials, mode, kwargs):
    """Criteria 3 and 4 streams at K = floor, every solve with L >= 3.

    The returned solution's witness chain (each level's prefix and small
    point) lies in the plan's windows, and every window lies in the old
    ``+-D`` box: per axis its bounds are at least as tight.
    """
    pin_floor(monkeypatch)
    scope: dict = {}
    exec(CORRUPT_FRAME, scope)
    rng = random.Random(seed)
    deep = witnessed = 0
    for _ in range(trials):
        inst = random_core_instance(rng, **kwargs)
        out, trace = solve_with_trace(inst, mode)
        built = trace.plan
        if built.levels < 3:
            continue
        deep += 1
        b_up = trace.reduced.instance.b_up
        box = d_box_windows(b_up, built.radius, built.levels)
        for window, old in zip(built.windows, box):
            lo, hi, small_lo, small_hi = window
            old_lo, old_hi, old_small_lo, old_small_hi = old
            assert all(map(le, old_lo, lo)) and all(map(le, hi, old_hi))
            assert all(map(le, old_small_lo, small_lo))
            assert all(map(le, small_hi, old_small_hi))
        if out.solution is None:
            continue
        witnessed += 1
        target = b_up
        for level, table in reversed(list(enumerate(trace.levels, 1))):
            lo, hi, small_lo, small_hi = built.windows[level - 1]
            # Level 1 is the small table itself; above it, a sum whose
            # pair decode recovers.
            parent, small_pt = (
                (None, target) if level == 1 else scope["sum_pair"](table, target)[:2])
            assert inside(target, lo, hi) and inside(small_pt, small_lo, small_hi)
            target = parent
    assert deep >= trials // 5 and witnessed >= deep // 3


def test_one_level_programs_keep_the_single_point_window(monkeypatch):
    """Scheduling, closest-string and imbalance programs of the benchmark's
    shapes plan one level, where the window is exactly ``b_up``, as the
    ``+-D`` box made it too."""
    plans = []

    def recording(inst, mode):
        built = plan.build_plan(inst, mode)
        plans.append((built, inst.b_up))
        return built

    monkeypatch.setattr(driver, "build_plan", recording)
    jobs = SchedulingInstance.build(p=(3, 5, 7), n=(10, 8, 6), s=(1, 2, 3),
                                    m=(2, 2, 1))
    solve_cmax(jobs)
    solve_cmin(jobs)
    rng = random.Random(5)
    solve_closest(["".join(rng.choice("abc") for _ in range(8))
                   for _ in range(5)])
    solve_imbalance(design_graph(random.Random(1)))
    assert len(plans) >= 12  # the imbalance graph alone solves 12 orders
    for built, b_up in plans:
        assert built.levels == 1
        assert built.windows == ((b_up,) * 4,)
