"""Doubling solver: frozen verdicts, witnesses, windows, determinism."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import os
import random
import re
import subprocess
import sys
import textwrap
from operator import le, mul
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
from nfold.imbalance import Graph, build_ordering_ilp, solve_imbalance, vertex_cover
from nfold.oracle import enumeration_size, oracle_solve
from nfold.plan import support_floor
from nfold.reduction import reduce_instance
from nfold.scheduling import SchedulingInstance, solve_cmax, solve_cmin

import helpers
from helpers import ENUMERATION_CAP, random_core_instance
from test_acceptance import (FEASIBILITY_TRIALS, OPTIMIZE_TRIALS,
                             SEED_FEASIBILITY, SEED_OPTIMIZE)
from test_dp import design_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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


def logged_levels(caplog, inst, base_memo=None):
    """Solve ``inst`` at debug level: the outcome, each driver line's
    ``(base cells, peak partial, retained)``, each fold line's peak and
    each driver line's ``(tables, bricks, built, from the memo)``."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nfold.driver"), \
            caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        out = solve(inst, base_memo=base_memo)
    folds = [
        int(re.fullmatch(r"fold order \[[\d, ]+\], peak partial (\d+) cells",
                         rec.getMessage())[1])
        for rec in caplog.records
        if rec.name == "nfold.dp"
    ]
    line = re.compile(
        r"level \d+/\d+: (\d+) base cells \((\d+) tables for (\d+) bricks,"
        r" (\d+) built, (\d+) from the memo\), peak partial (\d+), (\d+) retained;"
        r" window \(\d+,\)\.\.\(\d+,\), small \(\d+,\)\.\.\(\d+,\)"
    )
    fields = [
        [int(v) for v in line.fullmatch(rec.getMessage()).groups()]
        for rec in caplog.records
        if rec.name == "nfold.driver"
    ]
    counts = [[base, peak, kept] for base, _, _, _, _, peak, kept in fields]
    return out, counts, folds, [tuple(line[1:5]) for line in fields]


def test_debug_log_reports_cells_per_level(caplog, monkeypatch):
    """One line per level: base cells, the tables of the level's bricks,
    how many of them this solve built and how many it took from the
    memo (a solve given a memo that holds them builds none), the fold's
    peak partial (as its own fold line reports it,
    under the bitset caps or at caps 0) and the retained points; base cells,
    counted per brick, and retained points sum to ``dp_cells``."""
    pin_support(monkeypatch, 12)
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 0),),), b_up=(40,), b_low=(100,)
    )
    out, counts, folds, built = logged_levels(caplog, inst)
    assert len(counts) == out.stats["iterations"] == 4
    assert all(base > 0 and peak >= kept > 0 for base, peak, kept in counts)
    assert sum(base + kept for base, _, kept in counts) == out.stats["dp_cells"]
    assert [peak for _, peak, _ in counts] == folds
    # Level 4 places level 3's units under the same effective cap.
    assert built == [(1, 1, 1, 0)] * 3 + [(1, 1, 0, 1)]
    memo = {}
    first = logged_levels(caplog, inst, memo)
    again = logged_levels(caplog, inst, memo)
    assert first[3] == built and again[3] == [(1, 1, 0, 1)] * 4
    assert again[1:3] == first[1:3] and len(memo) == 3
    assert again[0].solution == first[0].solution
    # Four bricks, two of each kind, over several levels, and two bricks
    # whose one-point window makes the first partial the largest.
    runs = [logged_levels(caplog, four_brick()), logged_levels(caplog, two_brick())]
    monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", 0)
    monkeypatch.setattr(dp, "_BITS_PER_POINT", 0)
    runs += [logged_levels(caplog, four_brick()), logged_levels(caplog, two_brick())]
    for (out, counts, folds, built), want in zip(runs, [(2, 4), (2, 2)] * 2):
        assert len(counts) == out.stats["iterations"]
        assert [peak for _, peak, _ in counts] == folds
        assert any(peak > kept for _, peak, kept in counts)
        assert [line[:2] for line in built] == [want] * len(counts)
        assert all(new + found == tables for tables, _, new, found in built)
    four = runs[0][0]
    assert sum(base + kept for base, _, kept in runs[0][1]) == four.stats["dp_cells"]
    assert all(base % 2 == 0 for base, _, _ in runs[0][1])


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
    \"\"\"``(p, q, left)`` for ``point`` of a fold step: the pair ``decode``
    recovers and the step's left partial, which holds ``p``.\"\"\"
    left, _ = table.parents
    code = table._code(point)
    p, q, _, _ = table._pair(point, code, table._value_at(code))
    return p, q, left


def level_pair(table, point):
    \"\"\"``(p, start)`` for ``point`` of a level table above level 1,
    folded in a frame: its step chain walked down, one recovered pair at
    a time, to the start table that codes ``2*p`` for ``p`` in the level
    below.\"\"\"
    code = table._code(point)
    target = table._value_at(code)
    while table.scale != 2:
        point, _, code, target = table._pair(point, code, target)
        table = table.parents[0]
    return tuple(x // 2 for x in point), table


def corrupt_sum_attempts(inst):
    \"\"\"Decode pairless sum tables after each corruption, undone after:
    a valued fold of two tables after raising its value of its last point,
    after dropping that point's ``p`` from the last step's left partial,
    and after dropping the pair's point from either base table; the top
    level table of ``inst`` (a bitset fold started from
    ``2*prev``) after emptying its start table and after dropping
    ``b_up``'s ``p`` from the level below.\"\"\"
    a = dp.block_base_table(((1, 2),), 2, block_index=0, costs=(0, 1))
    b = dp.block_base_table(((0, 1),), 1, block_index=1, costs=(1, 0))
    pair = dp.fold_tables([a, b], (2,), (5,))
    point = pair.points()[-1]
    p, q, left = sum_pair(pair, point)
    lines = []
    pair.codes[pair._code(point)] += 1
    lines.append(decoded("raised value", pair, point))
    pair.codes[pair._code(point)] -= 1
    value = left.codes.pop(left._code(p))
    lines.append(decoded("dropped partial point", pair, point))
    left.codes[left._code(p)] = value
    # The left partial is the origin plus the table folded first, so
    # ``p`` is its point, and ``q`` is one of the table folded last.
    for table, base_point in ((left.parents[1], p), (pair.parents[1], q)):
        cell = table.cells.pop(base_point)
        lines.append(decoded(f"dropped block {table.block} point", pair, point))
        table.cells[base_point] = cell
    lines.append(decoded("restored", pair, point))

    trace = solve_with_trace(inst)[1]
    top, b_up = trace.levels[-1], tuple(trace.reduced.instance.b_up)
    p, left = level_pair(top, b_up)
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
    assert len(lines) == 8, lines
    assert lines[:5] == [
        "raised value internal error: corrupt witness: no pair for (5,)",
        "dropped partial point internal error: corrupt witness: no pair for (5,)",
        "dropped block 1 point internal error: corrupt witness: (1,) missing",
        "dropped block 0 point internal error: corrupt witness: (4,) missing",
        "restored decoded",
    ]
    assert re.fullmatch(
        r"emptied left table internal error: corrupt witness: no pair for \(\d+,\)",
        lines[5],
    )
    assert re.fullmatch(
        r"dropped level point internal error: corrupt witness: \(\d+,\) missing",
        lines[6],
    )
    assert lines[7] == "restored decoded"


def test_corrupt_pair_raises_in_decode():
    """No sum table stores a pair, so ``decode`` must find one for every
    point: a fold of two tables and a level table (a fold from
    ``2*prev``) raise once a value is raised or a parent point is
    dropped, a base table's point too; and a bitset fold table must hold the point and a pair for
    it, down to the origin."""
    scope: dict = {}
    exec(CORRUPT_FRAME, scope)
    out, trace = solve_with_trace(four_brick())
    assert out.status == STATUS_FEASIBLE and len(trace.levels) >= 2
    top = trace.levels[-1]
    b_up = trace.reduced.instance.b_up
    p, start = scope["level_pair"](top, b_up)
    assert start.scale == 2 and start.parents == (trace.levels[-2],)
    assert p in trace.levels[-2]
    assert driver.reconstruct(top, b_up)
    with pytest.raises(InternalError, match="missing"):
        driver.reconstruct(top, tuple(v + 1 for v in b_up))

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


def depth_instance(rng: random.Random, r: int, mode: str, infeasible: bool) -> NFoldInstance:
    """2 or 3 bricks of 2 or 3 columns, entries 0..2 and ``b_low`` 20..60
    per brick, a candidate count beyond the oracle's cap, and a planted
    ``b_up``.  An ``infeasible`` one has only even entries in row 0 and
    the planted row-0 target plus 1: odd, so no ``x`` reaches it.
    Optimize mode adds costs 0..3."""
    while True:
        n = rng.randint(2, 3)
        t = tuple(rng.randint(2, 3) for _ in range(n))
        b_low = tuple(rng.randint(20, 60) for _ in range(n))
        if enumeration_size(b_low, t) > ENUMERATION_CAP:
            break
    blocks = tuple(
        tuple(tuple(rng.choice((0, 2) if infeasible and row == 0 else (0, 1, 2))
                    for _ in range(t[k])) for row in range(r))
        for k in range(n))
    x = []
    for k in range(n):
        cuts = sorted(rng.randint(0, b_low[k]) for _ in range(t[k] - 1))
        x.append([b - a for a, b in zip([0, *cuts], [*cuts, b_low[k]])])
    b_up = [sum(sum(map(mul, blocks[k][row], x[k])) for k in range(n)) for row in range(r)]
    b_up[0] += infeasible
    c = tuple(rng.randint(0, 3) for _ in range(sum(t))) if mode == "optimize" else None
    return NFoldInstance(n=n, r=r, t=t, blocks=blocks, b_up=tuple(b_up), b_low=b_low, c=c)


@pytest.mark.parametrize("mode", ["feasibility", "optimize"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_level_size_does_not_change_status_or_optimum(r, mode):
    """The same program solved at K = floor, floor + 1, floor + 3 and the
    paper's K, each pinned by patching ``driver.build_plan``, has one
    status and one optimum, and every witness verifies.  The programs'
    ``b`` is beyond the oracle's range, so the solves check one another:
    the floor takes 4 or 5 levels where the paper's K takes 1 to 3.  A
    third of the targets are infeasible by parity, which no window sees
    at once: the solve folds level after level before it ends."""
    rng = random.Random(7000 + 10 * r + (mode == "optimize"))
    infeasible = depths = 0
    for trial in range(12):
        inst = depth_instance(rng, r, mode, infeasible=trial % 3 == 2)
        work = reduce_instance(inst).instance
        floor = support_floor(work)
        sizes = (floor, floor + 1, floor + 3, plan.support_bound(r, work.delta, mode))
        answers = set()
        for support in sizes:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(driver, "build_plan",
                              functools.partial(plan.build_plan, support=support))
                got = solve(inst, mode=mode)
            assert got.stats["support"] == support
            depths = max(depths, got.stats["iterations"])
            if got.solution is not None:
                assert verify_solution(inst, got.solution.x, got.solution.objective)
            answers.add((got.status, got.solution and got.solution.objective))
        assert len(answers) == 1, (trial, answers)
        infeasible += got.status == STATUS_INFEASIBLE
    assert infeasible >= 4 and depths >= 4


def repeated_core_instance(rng: random.Random, *, with_costs: bool = False,
                           plant: bool | None = None) -> NFoldInstance:
    """2 to 4 bricks, each a copy (matrix, ``b_low`` and cost slice) of a
    brick of one ``random_core_instance``, the last one a copy of an
    earlier one, so that they share one base table per level.  Each
    other copy may be a near miss that must not share: a quarter of them
    take another ``b_low``, a quarter another cost slice.  ``plant`` is
    as for ``random_core_instance``, and so is the unplanted ``b_up``;
    the oracle's enumeration stays within ``ENUMERATION_CAP``.
    """
    while True:
        inst = random_core_instance(rng, with_costs=with_costs, plant=False)
        slices = inst.brick_slices()
        bricks = []
        for _ in range(rng.randint(2, 4)):
            k = rng.randrange(inst.n)
            units = inst.b_low[k] if rng.random() < 0.75 else rng.randint(0, 6)
            costs = () if inst.c is None else inst.c[slices[k]]
            if costs and rng.random() < 0.25:
                costs = tuple(rng.randint(0, 5) for _ in costs)
            bricks.append((inst.blocks[k], units, costs))
        bricks[-1] = bricks[rng.randrange(len(bricks) - 1)]
        blocks, b_low, costs = zip(*bricks)
        t = tuple(len(block[0]) for block in blocks)
        if enumeration_size(b_low, t) <= ENUMERATION_CAP:
            break
    if plant if plant is not None else rng.random() < 0.6:
        b_up = [0] * inst.r
        for block, units in zip(blocks, b_low):
            counts = [0] * len(block[0])
            for _ in range(units):
                counts[rng.randrange(len(counts))] += 1
            for j, row in enumerate(block):
                b_up[j] += sum(map(mul, row, counts))
    else:
        b_up = [rng.randint(-6, 6) for _ in range(inst.r)]
    c = tuple(v for slice_ in costs for v in slice_) if with_costs else None
    return NFoldInstance(n=len(blocks), r=inst.r, t=t, blocks=blocks,
                         b_up=tuple(b_up), b_low=b_low, c=c)


def test_repeated_core_instances_share_base_tables():
    """Every drawn instance builds fewer base tables than it has bricks."""
    levels = []

    def recording(*args, **kwargs):
        levels.append(dp.base_tables_for_level(*args, **kwargs))
        return levels[-1]

    rng = random.Random(61)
    for _ in range(40):
        inst = repeated_core_instance(rng, with_costs=True, plant=True)
        del levels[:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver, "base_tables_for_level", recording)
            assert solve(inst, mode="optimize").status == STATUS_OPTIMAL
        assert levels
        assert all(len({id(t.cells) for t in base}) < inst.n for base in levels)


def core_deep_instance(rng: random.Random, target: int) -> NFoldInstance:
    """The benchmark's ``core-deep`` family at ``b_low = target``: its two
    bricks under one symmetry of the square, columns shuffled, ``b_up``
    planted."""
    sym = rng.choice(workloads.SQUARE_SYMMETRIES)
    sets = [[sym(*pt) for pt in brick] for brick in workloads.DEEP_BRICKS]
    for cols in sets:
        rng.shuffle(cols)
    return workloads.planted_instance(rng, sets, target)


def base_memo_cases():
    """Multi-level solves: the core-deep family up to ``b_low = 10**6``,
    and repeated-brick and random core instances planned at ``K = floor``
    in both modes; some of the random ones place a brick's units at two
    levels under two binding caps."""
    rng = random.Random(71)
    for target in (150, 10**4, 10**6):
        for _ in range(2):
            yield core_deep_instance(rng, target), "feasibility", None
    for make in (repeated_core_instance, random_core_instance):
        for trial in range(60 if make is repeated_core_instance else 120):
            mode = ("feasibility", "optimize")[trial % 2]
            inst = make(rng, with_costs=mode == "optimize", plant=True)
            yield inst, mode, support_floor(reduce_instance(inst).instance)


def effective_cap(block, placed, hi):
    """The per-axis cap ``block_base_table`` reads: ``placed * max(row)``
    cut at ``hi``, never below -1."""
    return tuple(max(min(placed * max(row), h), -1) for row, h in zip(block, hi))


def test_base_tables_are_built_once_per_key_per_solve(monkeypatch):
    """One solve calls ``block_base_table`` once per distinct ``(matrix,
    placed, cost slice, effective cap)`` over all its levels, and a second
    solve builds them all again.  Status, ``x``, objective and stats are
    those of a solve whose memo lives for one level only.  Levels whose
    windows differ only where the brick's own reach stays below both
    share a table; a binding cap difference never does."""
    built = []
    real_build = dp.block_base_table

    def counting(block, placed, **kwargs):
        built.append((block, placed, kwargs["costs"],
                      effective_cap(block, placed, kwargs["hi"])))
        return real_build(block, placed, **kwargs)

    def per_level(*args, memo=None, **kwargs):
        return dp.base_tables_for_level(*args, **kwargs)

    def outputs(out):
        stats = {k: v for k, v in out.stats.items() if k != "wall_time_s"}
        return out.status, out.solution, stats

    monkeypatch.setattr(dp, "block_base_table", counting)
    cases = reuses = cap_only = loose_cap = 0
    for inst, mode, support in base_memo_cases():
        with pytest.MonkeyPatch.context() as patch:
            if support is not None:
                patch.setattr(driver, "build_plan",
                              functools.partial(plan.build_plan, support=support))
            del built[:]
            shared, trace = solve_with_trace(inst, mode)
            first = built[:]
            del built[:]
            again, _ = solve_with_trace(inst, mode)
            assert built == first
            patch.setattr(driver, "base_tables_for_level", per_level)
            del built[:]
            alone, _ = solve_with_trace(inst, mode)
        assert shared.solution is not None
        assert outputs(shared) == outputs(again) == outputs(alone)
        work, levels = trace.reduced.instance, trace.plan.levels
        costs = dp._block_costs(work, mode)
        windows = [(work.blocks[k], trace.plan.placed_at(level)[k], costs[k],
                    trace.plan.windows[level - 1][3])
                   for level in range(1, levels + 1) for k in range(work.n)]
        keys = [key[:3] + (effective_cap(*key[:2], key[3]),) for key in windows]
        assert first == list(dict.fromkeys(keys))
        per_level_builds = sum(
            len(set(keys[i:i + work.n])) for i in range(0, len(keys), work.n))
        assert len(built) == per_level_builds
        cases += levels >= 2
        reuses += len(first) < per_level_builds
        cap_only += len(first) > len({key[:3] for key in keys})
        loose_cap += len(first) < len(set(windows))
    # Many solves reuse a table of a lower level; some place the same
    # units under another binding cap, which must not share, and some
    # under window caps that differ only above the brick's reach, which
    # share.
    assert reuses >= cases // 3 and cap_only >= 10 and loose_cap >= 1, (
        cases, reuses, cap_only, loose_cap)


def test_a_shared_memo_gives_the_outputs_of_fresh_solves(monkeypatch):
    """One memo over a run of related solves changes no output: status,
    ``x``, objective and stats are those of fresh solves.  The runs are
    ``base_memo_cases()``, each optimize case also solved for feasibility
    first, so its matrices meet zero-valued tables of the same key but
    for the cost slice; and every cover order of 24 seeded imbalance
    graphs, the design graph's shape among them.  Both runs build fewer
    tables than their fresh solves."""
    built = []
    real_build = dp.block_base_table

    def counting(*args, **kwargs):
        built.append(args[:2])
        return real_build(*args, **kwargs)

    def outputs(out):
        stats = {k: v for k, v in out.stats.items() if k != "wall_time_s"}
        return out.status, out.solution, stats

    def compare(solves):
        memo = {}
        fresh_builds = shared_builds = 0
        for inst, mode, support in solves:
            with pytest.MonkeyPatch.context() as patch:
                if support is not None:
                    patch.setattr(driver, "build_plan", functools.partial(
                        plan.build_plan, support=support))
                del built[:]
                fresh = solve(inst, mode)
                fresh_builds += len(built)
                del built[:]
                shared = solve(inst, mode, base_memo=memo)
                shared_builds += len(built)
            assert outputs(shared) == outputs(fresh)
        assert shared_builds == len(memo) < fresh_builds

    monkeypatch.setattr(dp, "block_base_table", counting)
    compare([(inst, each, support) for inst, mode, support in base_memo_cases()
             for each in dict.fromkeys(["feasibility", mode])])
    rng = random.Random(2031)
    graphs = [design_graph(random.Random(seed)) for seed in range(4)]
    while len(graphs) < 24:
        n, edges = helpers.random_small_graph(rng)
        if edges:
            graphs.append(Graph.build(range(n), edges))
    compare([(build_ordering_ilp(graph, order)[0], "optimize", None)
             for graph in graphs
             for order in itertools.permutations(vertex_cover(graph))])


def test_imbalance_builds_each_design_graph_table_once(monkeypatch):
    """``solve_imbalance`` on the imbalance-opt workload's first graph
    solves 12 cover orders of 10 bricks each and builds 12 base tables,
    one per distinct key over all 120 bricks."""
    bricks, built = [], []
    real_build, real_level = dp.block_base_table, driver.base_tables_for_level

    def counting(*args, **kwargs):
        built.append(args[:2])
        return real_build(*args, **kwargs)

    def level(*args, **kwargs):
        bricks.extend(real_level(*args, **kwargs))
        return bricks[-args[0].n:]

    monkeypatch.setattr(dp, "block_base_table", counting)
    monkeypatch.setattr(driver, "base_tables_for_level", level)
    item = workloads.build("imbalance-opt", 1)[0]
    assert item.check(item.run()) is None
    assert (len(bricks), len(built)) == (120, 12)


@st.composite
def core_cases(draw):
    mode = draw(st.sampled_from(["feasibility", "optimize"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    optimize = mode == "optimize"
    make = draw(st.sampled_from([random_core_instance, repeated_core_instance]))
    inst = make(rng, with_costs=optimize, plant=optimize or None)
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
            # Level 1 is its fold from the origin; above it, a fold from
            # 2*prev whose step chain leads down to the prefix p.
            parent = None if level == 1 else scope["level_pair"](table, target)[0]
            small_pt = target if level == 1 else tuple(
                t - 2 * v for t, v in zip(target, parent))
            assert inside(target, lo, hi) and inside(small_pt, small_lo, small_hi)
            target = parent
    assert deep >= trials // 5 and witnessed >= deep // 3


# ---------------------------------------------------------------------------
# closed forms at depth: r = 1 lattice bricks


def lattice_program(rng: random.Random, target: int):
    """``(blocks, b_low, g, low, span)`` for 2 to 4 r = 1 bricks whose
    columns are ``{a, a + g, ..., a + s*g}``, shuffled, with one ``g``
    for all.  ``m`` units of a brick reach exactly ``m*a + g*j`` for
    ``0 <= j <= s*m``, so together the bricks reach exactly ``low +
    g*J`` for ``0 <= J <= span``, with ``low = sum m*a`` and ``span =
    sum s*m``."""
    g = rng.randint(2, 4)
    blocks, b_low, low, span = [], [], 0, 0
    for _ in range(rng.randint(2, 4)):
        a, s, m = rng.randint(1, 3), rng.randint(1, 2), rng.randint(target // 2, target)
        cols = [a + g * i for i in range(s + 1)]
        rng.shuffle(cols)
        blocks.append((tuple(cols),))
        b_low.append(m)
        low += m * a
        span += s * m
    return tuple(blocks), tuple(b_low), g, low, span


def lattice_targets(rng: random.Random, g: int, low: int, span: int):
    """``(b_up, feasible)``: both ends of the range and a point inside it,
    one off the residue on either side of that point, and one step of
    ``g`` past either end."""
    inner = low + g * rng.randint(1, span - 1)
    return [(low, True), (low + g * span, True), (inner, True),
            (inner - 1, False), (inner + 1, False),
            (low - g, False), (low + g * (span + 1), False)]


@pytest.mark.parametrize("mode", ["feasibility", "optimize"])
@pytest.mark.parametrize("cap", ["shipped", "0"])
def test_lattice_programs_match_their_closed_form_at_depth(monkeypatch, mode, cap):
    """Random r = 1 lattice programs (``lattice_program``) with ``b_low``
    up to 10**6, solved at 10 or more levels: a target is feasible
    exactly when it lies in ``[low, low + g*span]`` with the residue of
    ``low`` modulo ``g``.  In optimize mode the costs ``c_j = alpha*col_j
    + beta`` give every feasible x the objective ``alpha*b_up +
    beta*sum(b_low)``, which checks the values through every doubling.
    Under the shipped caps the feasibility folds take bitset steps; with
    both caps at 0 they take zero-valued packed steps."""
    if cap == "0":
        monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", 0)
        monkeypatch.setattr(dp, "_BITS_PER_POINT", 0)
    steps = {"bits": 0, "packed": 0}

    def counted(name, fn):
        def wrapper(*args):
            steps[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dp, "_fold_bits", counted("bits", dp._fold_bits))
    monkeypatch.setattr(dp, "_fold_packed", counted("packed", dp._fold_packed))
    rng = random.Random(83)
    depths = []
    for trial in range(12):
        blocks, b_low, g, low, span = lattice_program(rng, (10**4, 10**5, 10**6)[trial % 3])
        alpha, beta = rng.randint(0, 3), rng.randint(1, 3)
        c = None
        if mode == "optimize":
            c = tuple(alpha * col + beta for (row,) in blocks for col in row)
        for b_up, feasible in lattice_targets(rng, g, low, span):
            inst = NFoldInstance(n=len(blocks), r=1, t=tuple(len(row) for (row,) in blocks),
                                 blocks=blocks, b_up=(b_up,), b_low=b_low, c=c)
            out = solve(inst, mode)
            assert (out.solution is not None) == feasible, (inst, out.status)
            if feasible:
                depths.append(out.stats["iterations"])
                assert verify_solution(inst, out.solution.x)
                if mode == "optimize":
                    assert out.solution.objective == alpha * b_up + beta * sum(b_low)
    assert min(depths) >= 10, depths
    kind, other = ("bits", "packed") if mode == "feasibility" and cap == "shipped" else (
        "packed", "bits")
    assert steps[other] == 0 and steps[kind] > 0


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
