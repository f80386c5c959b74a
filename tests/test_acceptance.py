"""Acceptance gate: the ten go/no-go checks for this package.

Each test covers one numbered criterion and appends a single pass/fail
line to the terminal summary (see conftest).  The heavyweight random
sweeps run once per session through module-scoped fixtures; the
determinism criterion re-runs them and compares bytes.
"""

from __future__ import annotations

import contextlib
import random
import time

import pytest

import helpers
from helpers import ACCEPTANCE_LINES, canonical_bytes, small_subproblem_set

from nfold.closest_string import hamming, solve_closest
from nfold.core import (
    MODE_FEASIBILITY,
    MODE_OPTIMIZE,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    verify_solution,
)
from nfold.driver import solve, solve_with_trace
from nfold.imbalance import Graph, solve_imbalance
from nfold.oracle import oracle_point_set, oracle_solve
from nfold.plan import closed_form_target, iteration_count, support_bound
from nfold.reduction import reduce_instance
from nfold.scheduling import (
    OBJECTIVE_CMAX,
    OBJECTIVE_CMIN,
    SchedulingInstance,
    solve_cmax,
    solve_cmin,
    verify_schedule,
)

SEED_FEASIBILITY = 622_541
SEED_OPTIMIZE = 916_031
SEED_SCHEDULING = 443_909
SEED_REDUCTION = 270_199
SEED_STRINGS = 151_121
SEED_GRAPHS = 808_017

FEASIBILITY_TRIALS = 500
OPTIMIZE_TRIALS = 300
SCHEDULING_TRIALS = 200


@contextlib.contextmanager
def criterion(number: int, title: str):
    """Record one pass/fail summary line for this criterion."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number:02d} FAIL — {title}")
        raise
    tail = f": {info['detail']}" if info["detail"] else ""
    ACCEPTANCE_LINES.append(f"criterion {number:02d} PASS — {title}{tail}")


@pytest.fixture(scope="module")
def feasibility_run():
    start = time.perf_counter()
    report = helpers.feasibility_sweep(SEED_FEASIBILITY, FEASIBILITY_TRIALS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def optimize_run():
    start = time.perf_counter()
    report = helpers.optimize_sweep(SEED_OPTIMIZE, OPTIMIZE_TRIALS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def scheduling_run():
    start = time.perf_counter()
    report = helpers.scheduling_sweep(SEED_SCHEDULING, SCHEDULING_TRIALS)
    return report, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_01_support_bound_constants():
    with criterion(1, "frozen per-level support bounds") as info:
        start = time.perf_counter()
        assert support_bound(1, 1, MODE_FEASIBILITY) == 12
        assert support_bound(1, 2, MODE_FEASIBILITY) == 16
        assert support_bound(1, 1, MODE_OPTIMIZE) == 27
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = "12 / 16 / 27"


# ---------------------------------------------------------------------------
# criterion 2


def _halving_rows(b: int, support: int) -> list[tuple[int, int, int]]:
    """Reference run of the halving rule: (target, placed, carried) rows,
    top level first.  Shares no code with the planner."""
    rows = []
    current = b
    while True:
        if current <= support:
            rows.append((current, current, 0))
            return rows
        parity = (current - support) % 2
        take = support - parity
        rows.append((current, take, current - take))
        current = (current - take) // 2


def test_criterion_02_closed_form_matches_step_rule():
    with criterion(2, "closed-form level targets vs step-rule run") as info:
        start = time.perf_counter()
        values: set[int] = set()
        for step in (2, 3, 5, 7):
            values.update(range(0, 2001, step))
        for step in (997, 9973, 99991):
            values.update(range(0, 1_000_001, step))
        values.add(1_000_000)
        pairs = 0
        for support in range(5, 41):
            for b in sorted(values):
                rows = _halving_rows(b, support)
                depth = len(rows)
                assert iteration_count(b, support) == depth
                for level in range(1, depth + 1):
                    target, placed, carried = rows[depth - level]
                    assert isinstance(target, int)
                    assert closed_form_target(b, support, depth,
                                              level) == target
                    assert placed <= support
                    assert carried % 2 == 0
                    assert placed + carried == target
                pairs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = f"{pairs} (target, bound) pairs, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 3 and 4 (sweeps assert agreement trial by trial)


def test_criterion_03_feasibility_agreement(feasibility_run):
    report, elapsed = feasibility_run
    with criterion(3, "feasibility verdicts vs brute force") as info:
        assert report["trials"] == FEASIBILITY_TRIALS
        assert len(report["statuses"]) == FEASIBILITY_TRIALS
        assert set(report["statuses"]) <= {STATUS_FEASIBLE,
                                           STATUS_INFEASIBLE}
        assert elapsed < 300.0
        feasible = report["statuses"].count(STATUS_FEASIBLE)
        info["detail"] = (f"{FEASIBILITY_TRIALS}/{FEASIBILITY_TRIALS} agree "
                          f"({feasible} feasible), {elapsed:.1f}s")


def test_criterion_04_optimal_objectives(optimize_run):
    report, elapsed = optimize_run
    with criterion(4, "optimal objectives vs brute force") as info:
        assert report["trials"] == OPTIMIZE_TRIALS
        assert len(report["objectives"]) == OPTIMIZE_TRIALS
        assert all(isinstance(v, int) and v >= 0
                   for v in report["objectives"])
        assert elapsed < 600.0
        info["detail"] = (f"{OPTIMIZE_TRIALS}/{OPTIMIZE_TRIALS} optima "
                          f"match, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_level_sets_boxed_and_complete():
    with criterion(5, "level sets stay boxed and match enumeration") as info:
        cells = 0
        level_sets = 0
        streams = (
            (SEED_FEASIBILITY, FEASIBILITY_TRIALS, MODE_FEASIBILITY, {}),
            (SEED_OPTIMIZE, OPTIMIZE_TRIALS, MODE_OPTIMIZE,
             {"with_costs": True, "plant": True}),
        )
        for seed, trials, mode, kwargs in streams:
            rng = random.Random(seed)
            for _ in range(trials):
                inst = helpers.random_core_instance(rng, **kwargs)
                _, trace = solve_with_trace(inst, mode=mode)
                work = trace.reduced.instance
                plan = trace.plan
                for level, table in enumerate(trace.levels, 1):
                    scale = 2 ** (plan.levels - level)
                    for point in table.cells:
                        assert all(
                            abs(bv - scale * v) <= plan.radius * scale
                            for bv, v in zip(work.b_up, point)), (
                            f"point {point} escapes the level-{level}"
                            f" box on {inst}")
                        cells += 1
                    got = set(small_subproblem_set(
                        work, plan, level, mode).points())
                    want = oracle_point_set(
                        work.blocks, plan.placed_at(level), plan.radius)
                    assert got == want, (
                        f"level {level} point set mismatch on {inst}")
                    level_sets += 1
        info["detail"] = f"{cells} cells boxed, {level_sets} level sets equal"


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_06_signed_entries_reduce_cleanly():
    with criterion(6, "signed instances survive the shift reduction") as info:
        rng = random.Random(SEED_REDUCTION)
        trials = 200
        for i in range(trials):
            inst = helpers.random_core_instance(rng, force_signed=True)
            red = reduce_instance(inst)
            work = red.instance
            assert all(0 <= e <= 2 * inst.delta
                       for block in work.blocks
                       for row in block for e in row), (
                f"trial {i}: reduced entries leave [0, 2*delta]")
            want = oracle_solve(inst, mode=MODE_FEASIBILITY)
            want_reduced = oracle_solve(work, mode=MODE_FEASIBILITY)
            assert want.status == want_reduced.status, (
                f"trial {i}: shift changed the verdict")
            got = solve(inst, mode=MODE_FEASIBILITY)
            assert got.status == want.status, (
                f"trial {i}: solver disagrees with brute force")
            if want.solution is not None:
                # witnesses transfer across the shift unchanged
                assert verify_solution(work, want.solution.x)
                assert verify_solution(inst, want_reduced.solution.x)
        info["detail"] = f"{trials}/{trials} verdicts preserved"


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_07_scheduling_optima(scheduling_run):
    report, elapsed = scheduling_run
    with criterion(7, "machine-scheduling optima vs enumeration") as info:
        assert report["trials"] == SCHEDULING_TRIALS
        assert len(report["results"]) == SCHEDULING_TRIALS
        assert elapsed < 900.0
        # instances whose optima come out of the sparse pivot path at its
        # real threshold, cross-checked against the same reference
        for p, n, s, m in helpers.SPARSE_FIXTURES:
            inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
            for objective, solver in ((OBJECTIVE_CMAX, solve_cmax),
                                      (OBJECTIVE_CMIN, solve_cmin)):
                sched, pivoted = helpers.solve_noting_pivot(solver, inst)
                assert pivoted, (
                    f"{p, n, s, m} {objective} left the sparse path")
                want = helpers.schedule_reference(
                    inst.p, inst.n, inst.s, inst.m, objective)
                assert sched.objective == want, (
                    f"sparse path wrong on {p, n, s, m} {objective}")
                verify_schedule(inst, sched, objective)
        p_maxes = sorted({max(p) for p, *_ in helpers.SPARSE_FIXTURES})
        info["detail"] = (f"{SCHEDULING_TRIALS} random instances + "
                          f"{len(helpers.SPARSE_FIXTURES)} sparse-path "
                          f"fixtures (p_max {p_maxes}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_08_closest_string_radii():
    with criterion(8, "closest-string radii vs center enumeration") as info:
        start = time.perf_counter()
        rng = random.Random(SEED_STRINGS)
        trials = 200
        for i in range(trials):
            strings = helpers.random_strings(rng)
            radius, center = solve_closest(strings)
            assert radius == helpers.closest_string_reference(strings), (
                f"trial {i}: wrong radius for {strings}")
            assert max(hamming(center, s) for s in strings) == radius, (
                f"trial {i}: decoded center does not attain the radius")
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        info["detail"] = f"{trials}/{trials} radii match, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_09_ordering_imbalance():
    with criterion(9, "ordering imbalance vs permutation search") as info:
        start = time.perf_counter()
        fixtures = [
            (3, [(0, 1), (1, 2)], 2),
            (2, [(0, 1)], 2),
            (4, [(0, 1), (0, 2), (0, 3)], 4),
        ]
        for n, edges, want in fixtures:
            graph = Graph.build(range(n), edges)
            assert solve_imbalance(graph).value == want
        rng = random.Random(SEED_GRAPHS)
        trials = 100
        for i in range(trials):
            n, edges = helpers.random_small_graph(rng)
            graph = Graph.build(range(n), edges)
            result = solve_imbalance(graph)
            assert result.value == helpers.imbalance_reference(n, edges), (
                f"trial {i}: wrong imbalance on n={n} edges={edges}")
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        info["detail"] = (f"3 fixtures + {trials}/{trials} random graphs, "
                          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10


def test_criterion_10_reruns_are_byte_identical(
        feasibility_run, optimize_run, scheduling_run, tmp_path):
    with criterion(10, "seeded sweeps re-run byte-identically") as info:
        first = {
            "feasibility": feasibility_run[0],
            "optimize": optimize_run[0],
            "scheduling": scheduling_run[0],
        }
        second = {
            "feasibility": helpers.feasibility_sweep(SEED_FEASIBILITY,
                                                     FEASIBILITY_TRIALS),
            "optimize": helpers.optimize_sweep(SEED_OPTIMIZE,
                                               OPTIMIZE_TRIALS),
            "scheduling": helpers.scheduling_sweep(SEED_SCHEDULING,
                                                   SCHEDULING_TRIALS),
        }
        for name, report in first.items():
            path_a = tmp_path / f"{name}-run1.json"
            path_b = tmp_path / f"{name}-run2.json"
            path_a.write_bytes(canonical_bytes(report))
            path_b.write_bytes(canonical_bytes(second[name]))
            assert path_a.read_bytes() == path_b.read_bytes(), (
                f"{name} sweep is not reproducible")
        info["detail"] = "three sweeps, identical result files"
