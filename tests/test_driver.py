"""Doubling solver: frozen verdicts, witnesses, windows, determinism."""

from __future__ import annotations

import logging
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nfold

from nfold.core import (
    NFoldInstance,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    verify_solution,
)
from nfold.driver import level_window, solve, solve_with_trace
from nfold.oracle import oracle_solve

from helpers import random_core_instance


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


def test_multi_level_brick_target():
    # b_low = 100 forces a four-level plan under K = 12
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    out, trace = solve_with_trace(inst)
    assert trace.plan.levels == 4
    assert out.status == STATUS_FEASIBLE
    assert out.solution.x == (40, 60)
    assert out.stats["iterations"] == 4


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
    out = solve(inst)
    assert out.status == STATUS_INFEASIBLE
    assert out.stats["iterations"] == 0


def test_mode_argument_is_checked():
    with pytest.raises(ValueError, match="unknown mode"):
        solve(two_brick(), mode="approximate")
    with pytest.raises(ValueError, match="cost vector"):
        solve(two_brick(), mode="optimize")
    with pytest.raises(ValueError, match="nonnegative costs"):
        solve(two_brick(c=(0, -1, 0, 0)), mode="optimize")


def test_level_window_collapses_at_the_top():
    lo, hi = level_window((40,), 12, 4, 4)
    assert lo == hi == (40,)


def test_level_window_bottom_is_interval():
    lo, hi = level_window((40,), 12, 4, 1)
    # e = 3: lo = ceil((40 - 12*7)/8) clamped to 0, hi = 40 // 8
    assert lo == (0,)
    assert hi == (5,)


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
    assert len(trace.windows) >= len(trace.levels)
    for level_set in trace.levels:
        lo, hi = trace.windows[level_set.level - 1]
        for pt in level_set.cells:
            assert all(l <= v <= h for v, l, h in zip(pt, lo, hi))


def test_solver_is_deterministic():
    inst = two_brick(c=(0, 1, 0, 1))
    first = solve(inst, mode="optimize")
    second = solve(inst, mode="optimize")
    assert first.status == second.status
    assert first.solution.x == second.solution.x
    assert first.solution.objective == second.solution.objective


def test_stats_shape():
    out = solve(two_brick())
    assert set(out.stats) == {"iterations", "dp_cells", "wall_time_s"}
    assert out.stats["iterations"] >= 1
    assert out.stats["dp_cells"] > 0


def test_debug_log_reports_cells_per_level(caplog):
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    with caplog.at_level(logging.DEBUG, logger="nfold.driver"):
        out = solve(inst)
    line = re.compile(
        r"level \d+/4: (\d+) base cells, (\d+) small points, (\d+) retained"
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
    src = str(Path(nfold.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "debug False",
        "feasibility internal error: corrupt witness: bad solution",
        "optimize internal error: corrupt witness: bad solution",
    ]
