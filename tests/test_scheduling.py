"""Uniform-machine scheduling: both objectives against plain enumeration."""

from __future__ import annotations

import logging
import operator
import random
import re
from fractions import Fraction

import pytest

import nfold.dp as dp
import nfold.scheduling as scheduling
from nfold.scheduling import (
    OBJECTIVE_CMAX,
    OBJECTIVE_CMIN,
    MachineAssignment,
    Schedule,
    ScheduleError,
    SchedulingInstance,
    decide_guess,
    greedy_augment,
    solve_cmax,
    solve_cmin,
    verify_schedule,
)

from helpers import (
    SPARSE_FIXTURES,
    random_fast_scheduling_instance,
    random_scheduling_instance,
    schedule_enumeration,
    schedule_reference,
    solve_noting_pivot,
)


def test_build_merges_and_sorts():
    inst = SchedulingInstance.build(p=[3, 1, 3], n=[1, 2, 2], s=[2, 1, 2],
                                    m=[1, 1, 1])
    assert inst.p == (1, 3)
    assert inst.n == (2, 3)
    assert inst.s == (1, 2)
    assert inst.m == (1, 2)
    assert inst.num_jobs == 5
    assert inst.num_machines == 3
    assert inst.p_max == 3
    assert inst.mass == 11


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=(1, 1), n=(1, 1), s=(1,), m=(1,)),
        dict(p=(0,), n=(1,), s=(1,), m=(1,)),
        dict(p=(1,), n=(1,), s=(1, 1), m=(1, 1)),
        dict(p=(1,), n=(1,), s=(1,), m=(0,)),
        dict(p=(1,), n=(1, 2), s=(1,), m=(1,)),
    ],
)
def test_constructor_rejects_malformed_parks(kwargs):
    with pytest.raises(ValueError):
        SchedulingInstance(**kwargs)


@pytest.mark.parametrize("make", [SchedulingInstance, SchedulingInstance.build])
@pytest.mark.parametrize(
    "field, value, where",
    [
        ("p", (2.9, 3), "p[0]"),
        ("n", (1, True), "n[1]"),
        ("s", ("2",), "s[0]"),
        ("m", (1.0,), "m[0]"),
    ],
)
def test_non_int_values_are_rejected_without_coercion(make, field, value,
                                                      where):
    kwargs = dict(p=(2, 3), n=(1, 1), s=(1,), m=(1,))
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"'{re.escape(where)}'"):
        make(**kwargs)


def test_build_rejects_unpaired_counts():
    with pytest.raises(ValueError, match="must align"):
        SchedulingInstance.build(p=(5, 7), n=(1,), s=(1,), m=(1,))
    with pytest.raises(ValueError, match="must align"):
        SchedulingInstance.build(p=(5,), n=(1,), s=(1, 3), m=(1,))


def verify_on_wrong_park():
    inst = SchedulingInstance.build(p=[2], n=[1], s=[1], m=[1])
    sched = Schedule(machines=(MachineAssignment(speed=2, jobs=(2,)),),
                     objective=Fraction(1))
    verify_schedule(inst, sched, OBJECTIVE_CMAX)


@pytest.mark.parametrize("call, message", [
    (lambda: SchedulingInstance(p=(1,), n=(1,), s=(1, 2), m=(1,)),
     "speeds and machine counts must align"),
    (verify_on_wrong_park, "schedule does not use the instance's machine park"),
], ids=["park", "verify"])
def test_scheduling_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_completion_is_exact_fraction():
    mach = MachineAssignment(speed=2, jobs=(1, 4))
    assert mach.load == 5
    assert mach.completion == Fraction(5, 2)


def test_verify_schedule_rejects_wrong_multiset():
    inst = SchedulingInstance.build(p=[2], n=[2], s=[1], m=[1])
    sched = Schedule(
        machines=(MachineAssignment(speed=1, jobs=(2,)),),
        objective=Fraction(2),
    )
    with pytest.raises(ValueError, match="multiset"):
        verify_schedule(inst, sched, OBJECTIVE_CMAX)


def test_verify_schedule_rejects_wrong_objective():
    inst = SchedulingInstance.build(p=[2], n=[2], s=[1], m=[1])
    sched = Schedule(
        machines=(MachineAssignment(speed=1, jobs=(2, 2)),),
        objective=Fraction(3),
    )
    with pytest.raises(ValueError, match="objective mismatch"):
        verify_schedule(inst, sched, OBJECTIVE_CMAX)


def test_schedule_error_is_an_assertion():
    assert issubclass(ScheduleError, AssertionError)


def test_two_unit_speed_machines_split_evenly():
    inst = SchedulingInstance.build(p=[2, 3], n=[2, 2], s=[1], m=[2])
    assert solve_cmax(inst).objective == 5  # 2+3 on each machine
    assert solve_cmin(inst).objective == 5


def test_fractional_makespan_on_mixed_speeds():
    inst = SchedulingInstance.build(p=[1, 4], n=[3, 1], s=[1, 2], m=[1, 1])
    assert solve_cmax(inst).objective == Fraction(5, 2)
    assert solve_cmin(inst).objective == 2


def test_single_fast_machine():
    inst = SchedulingInstance.build(p=[1], n=[5], s=[2], m=[1])
    assert solve_cmax(inst).objective == Fraction(5, 2)
    assert solve_cmin(inst).objective == Fraction(5, 2)


def test_fewer_jobs_than_machines_covers_nothing():
    inst = SchedulingInstance.build(p=[2], n=[1], s=[1], m=[2])
    out = solve_cmin(inst)
    assert out.objective == 0
    assert sorted(out.loads()) == [0, 2]
    assert solve_cmax(inst).objective == 2


def test_decide_guess_frozen_cover_pair():
    inst = SchedulingInstance.build(p=[2, 3], n=[2, 2], s=[1], m=[2])
    got = decide_guess(inst, Fraction(5), OBJECTIVE_CMIN)
    assert got is not None
    assert got.objective >= 5
    assert decide_guess(inst, Fraction(6), OBJECTIVE_CMIN) is None


def test_decide_guess_respects_makespan_guess():
    inst = SchedulingInstance.build(p=[1, 4], n=[3, 1], s=[1, 2], m=[1, 1])
    got = decide_guess(inst, Fraction(5, 2), OBJECTIVE_CMAX)
    assert got is not None
    assert got.objective <= Fraction(5, 2)
    assert decide_guess(inst, Fraction(2), OBJECTIVE_CMAX) is None


def test_decide_guess_validates_arguments():
    inst = SchedulingInstance.build(p=[1], n=[1], s=[1], m=[1])
    with pytest.raises(ValueError, match="unknown objective"):
        decide_guess(inst, Fraction(1), "makespan")
    with pytest.raises(ValueError, match="nonnegative"):
        decide_guess(inst, Fraction(-1), OBJECTIVE_CMAX)


def test_configurations_take_at_most_the_park_filler_units(monkeypatch):
    """Every configuration of every class, dense or sparse, places at most
    the ``dummy_count`` filler units the park needs, at every guess both
    searches decide on instances of both generators."""
    build = scheduling._build_program
    programs = []

    def record(ctx):
        programs.append(ctx)
        for configs in ctx.configs:
            assert max(units for _, units in configs) <= ctx.dummy_count
        return build(ctx)

    monkeypatch.setattr(scheduling, "_build_program", record)
    rng = random.Random(31)
    for generate in (random_scheduling_instance, random_fast_scheduling_instance):
        for _ in range(60):
            inst = SchedulingInstance.build(*generate(rng))
            solve_cmax(inst)
            solve_cmin(inst)
    assert sum(ctx.pivot is None and ctx.dummy_count > 0 for ctx in programs) > 100


def test_cmin_guess_with_fillers_no_machine_absorbs_builds_no_table(
        monkeypatch):
    """Cover guess 0 for ten size-1 jobs on two machines leaves 10 filler
    units, and a cmin configuration takes at most ``p_max = 1``: the
    plan's filler window is empty, so the guess is refused before any
    base table is built."""
    built = []
    real = dp.block_base_table

    def count(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dp, "block_base_table", count)
    inst = SchedulingInstance(p=(1,), n=(10,), s=(1,), m=(2,))
    assert decide_guess(inst, Fraction(0), OBJECTIVE_CMIN) is None
    assert built == []


def augment_calls(monkeypatch, inst, guess, objective):
    """Decide ``guess``; return its schedule and the ``(ctx, x)`` of every
    ``greedy_augment`` call made on the way."""
    calls = []

    def record(ctx, x):
        calls.append((ctx, x))
        return greedy_augment(ctx, x)

    monkeypatch.setattr(scheduling, "greedy_augment", record)
    return decide_guess(inst, guess, objective), calls


# A pivot case: two speed-1 machines and one sparse speed-20 machine; at
# the makespan guess 10 its solution holds both kinds of slack bundle.
MIXED_BUNDLES = SchedulingInstance.build((1, 2), (3, 4), (1, 20), (2, 1))


@pytest.mark.parametrize("inst, guess, pivot, slack, jobs, objective", [
    # 95 filler bundles and one bundle of two size-1 jobs, one sparse machine
    (MIXED_BUNDLES, Fraction(10), 2, (1, 0, 95, 116),
     [(), (1,), (1, 1, 2, 2, 2, 2)], Fraction(1)),
    # 462 filler bundles, then three of size-2 jobs and four of size-1
    # jobs, over four sparse machines: placed in any other order, the
    # bundles give another schedule
    (SchedulingInstance.build((1, 2, 3), (13, 11, 18), (20, 150), (2, 2)),
     Fraction(87, 20), 3, (4, 3, 0, 462, 944),
     [(1, 1, 1, 2, 2, 2, 3, 3, 3, 3), (1, 1, 1, 2, 2, 2, 3, 3, 3, 3),
      (2, 2, 2, 3, 3, 3, 3, 3), (1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3)],
     Fraction(21, 20)),
], ids=["one-sparse-machine", "order-sensitive"])
def test_cmax_augment_places_filler_bundles_then_real_bundles(
        monkeypatch, inst, guess, pivot, slack, jobs, objective):
    """Under ``cmax`` filler bundles and real-job bundles go by one
    best-fit rule, each to the machine with the largest deficit that can
    absorb it: fillers first, then real sizes, largest first.  One
    augment runs both kinds; its schedule is pinned."""
    sched, [(ctx, x)] = augment_calls(monkeypatch, inst, guess, OBJECTIVE_CMAX)
    assert ctx.pivot == pivot
    # slack per program row (job sizes, then fillers), then the open column
    assert x[sum(map(len, ctx.configs)):] == slack
    assert [mach.jobs for mach in sched.machines] == jobs
    assert sched.objective == objective
    verify_schedule(inst, sched, OBJECTIVE_CMAX)


@pytest.mark.parametrize("inst, guess, objective, pivot", [
    (SchedulingInstance.build(p=[2, 3], n=[2, 2], s=[1], m=[2]), Fraction(5),
     OBJECTIVE_CMIN, None),
    (MIXED_BUNDLES, Fraction(10), OBJECTIVE_CMAX, 2),
], ids=["dense", "pivot"])
def test_greedy_augment_rejects_a_vector_that_does_not_fit(
        monkeypatch, inst, guess, objective, pivot):
    """A solution vector one entry too long, or one that gives a class
    more configurations than it has machines, is an internal error."""
    sched, [(ctx, x)] = augment_calls(monkeypatch, inst, guess, objective)
    assert sched is not None and ctx.pivot == pivot
    assert greedy_augment(ctx, x) == sched
    with pytest.raises(ScheduleError, match="length inconsistent"):
        greedy_augment(ctx, x + (0,))
    with pytest.raises(ScheduleError, match="class 0 received 3 configs for 2"):
        greedy_augment(ctx, (x[0] + 1, *x[1:]))


@pytest.mark.parametrize("p, n, s, m", SPARSE_FIXTURES)
def test_sparse_path_fixtures_match_reference(p, n, s, m):
    inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
    for objective, solver in (
        (OBJECTIVE_CMAX, solve_cmax),
        (OBJECTIVE_CMIN, solve_cmin),
    ):
        got, pivoted = solve_noting_pivot(solver, inst)
        assert pivoted, (inst, objective)
        want = schedule_reference(inst.p, inst.n, inst.s, inst.m, objective)
        assert got.objective == want
        verify_schedule(inst, got, objective)


def test_unit_jobs_on_the_sparse_path_match_reference():
    # p_max = 1 puts the threshold at 1, so most optima come from a pivot
    rng = random.Random(71)
    pivoted_count = 0
    for _ in range(25):
        count = rng.randint(1, 10)
        tau = rng.randint(1, 3)
        speeds = rng.sample([1, 2, 3], tau)
        park = [1] * tau
        for _ in range(rng.randint(0, 4 - tau)):
            park[rng.randrange(tau)] += 1
        inst = SchedulingInstance.build(p=[1], n=[count], s=speeds, m=park)
        for objective, solver in ((OBJECTIVE_CMAX, solve_cmax),
                                  (OBJECTIVE_CMIN, solve_cmin)):
            got, pivoted = solve_noting_pivot(solver, inst)
            pivoted_count += pivoted
            assert got.objective == schedule_reference(
                inst.p, inst.n, inst.s, inst.m, objective), (inst, objective)
    assert pivoted_count >= 25


def test_fast_speed_sweep_against_reference():
    # speeds up to 150 make load targets pass p_max**4, with and without
    # a pivot size
    rng = random.Random(79)
    for _ in range(80):
        p, n, s, m = random_fast_scheduling_instance(rng)
        inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
        for objective, solver in ((OBJECTIVE_CMAX, solve_cmax),
                                  (OBJECTIVE_CMIN, solve_cmin)):
            got = solver(inst)
            verify_schedule(inst, got, objective)
            assert got.objective == schedule_reference(
                inst.p, inst.n, inst.s, inst.m, objective), (inst, objective)


@pytest.mark.parametrize(
    "p, n, s, m",
    [
        ([2], [2], [1, 9], [1, 1]),
        ([2], [2], [1, 7, 150], [1, 1, 2]),
        ([2, 3], [3, 2], [1, 2, 150], [1, 1, 1]),
        ([1, 2], [1, 2], [1, 7, 150], [2, 2, 1]),
        ([1, 3], [2, 4], [2, 3, 150], [1, 1, 2]),
    ],
)
def test_makespan_guesses_are_monotone(p, n, s, m):
    # the binary search in solve_cmax needs every guess at or above the
    # optimum to be accepted
    inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
    best = schedule_reference(inst.p, inst.n, inst.s, inst.m, OBJECTIVE_CMAX)
    loads = range(inst.mass + 1)
    guesses = {Fraction(load, speed) for speed in inst.s for load in loads}
    for guess in sorted(g for g in guesses if g >= best):
        got = decide_guess(inst, guess, OBJECTIVE_CMAX)
        assert got is not None, guess
        assert best <= got.objective <= guess


def test_reference_matches_literal_enumeration():
    rng = random.Random(67)
    checked = 0
    while checked < 12:
        p, n, s, m = random_scheduling_instance(rng)
        if sum(m) ** sum(n) > 50_000:
            continue
        checked += 1
        for objective in (OBJECTIVE_CMAX, OBJECTIVE_CMIN):
            assert schedule_reference(p, n, s, m, objective) == \
                schedule_enumeration(p, n, s, m, objective)


def test_quick_sweep_against_reference():
    rng = random.Random(73)
    for _ in range(30):
        p, n, s, m = random_scheduling_instance(rng)
        inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
        got_max = solve_cmax(inst)
        got_min = solve_cmin(inst)
        verify_schedule(inst, got_max, OBJECTIVE_CMAX)
        verify_schedule(inst, got_min, OBJECTIVE_CMIN)
        assert got_max.objective == schedule_reference(
            inst.p, inst.n, inst.s, inst.m, OBJECTIVE_CMAX)
        assert got_min.objective == schedule_reference(
            inst.p, inst.n, inst.s, inst.m, OBJECTIVE_CMIN)


def fraction_candidates(inst: SchedulingInstance) -> list[Fraction]:
    """Every ``Fraction(load, speed)``, sorted: the candidate list as
    ``Fraction`` objects, to check the integer numerators against."""
    values = {Fraction(0)}
    for speed in inst.s:
        for load in range(inst.mass + 1):
            values.add(Fraction(load, speed))
    return sorted(values)


def makespan_bracket(inst: SchedulingInstance) -> tuple[Fraction, Fraction]:
    """``solve_cmax``'s search bracket, from ``Fraction`` arithmetic: the
    larger of the averaging bound and ``p_max / s_max``, and the makespan
    of the greedy LPT schedule."""
    bound = Fraction(inst.mass, sum(map(operator.mul, inst.s, inst.m)))
    floor = max(bound, Fraction(inst.p_max, max(inst.s)))
    return floor, scheduling.lpt_schedule(inst).objective


def test_candidate_guesses_equal_the_fraction_list(monkeypatch):
    """The numerators over ``lcm(s)`` list the same values as the
    ``Fraction`` list, and both searches decide the same guesses, in the
    same order, as over that list: a binary search over the values in
    ``makespan_bracket`` for ``cmax`` and a downward scan from
    ``mass / total speed`` for ``cmin``, here under a stand-in verdict
    with a random threshold.  The ``cmax`` threshold is drawn from the
    bracket, since one outside it would contradict the averaging bound
    or the greedy witness."""
    rng = random.Random(41)
    for trial in range(60):
        p, n, s, m = random_scheduling_instance(rng)
        if trial % 2:
            s = rng.sample(range(1, 8), len(s))
        inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
        numerators, denom = scheduling._candidate_values(inst)
        values = fraction_candidates(inst)
        assert [Fraction(v, denom) for v in numerators] == values

        threshold = rng.choice(values)
        floor, top = makespan_bracket(inst)
        bracket = [v for v in values if floor <= v <= top]
        cmax_threshold = rng.choice(bracket)
        lo, hi, best, want_cmax = 0, len(bracket) - 1, None, []
        while lo < hi:
            mid = (lo + hi) // 2
            want_cmax.append(bracket[mid])
            if bracket[mid] >= cmax_threshold:
                best, hi = bracket[mid], mid
            else:
                lo = mid + 1
        if best != bracket[lo]:
            want_cmax.append(bracket[lo])
        bound = Fraction(inst.mass, sum(map(operator.mul, inst.s, inst.m)))
        want_cmin = []
        if inst.num_jobs >= inst.num_machines:
            for value in reversed([v for v in values if v <= bound]):
                want_cmin.append(value)
                if value <= threshold:
                    break

        for solver, objective, feasible, want in (
            (solve_cmax, OBJECTIVE_CMAX, cmax_threshold.__le__, want_cmax),
            (solve_cmin, OBJECTIVE_CMIN, threshold.__ge__, want_cmin),
        ):
            guesses = []

            def verdict(inst, guess, obj, feasible=feasible, objective=objective):
                assert type(guess) is Fraction and obj == objective
                guesses.append(guess)
                return Schedule(machines=(), objective=guess) if feasible(guess) else None

            monkeypatch.setattr(scheduling, "decide_guess", verdict)
            solver(inst)
            assert guesses == want, (trial, objective)


def bracket_draws() -> list[SchedulingInstance]:
    rng = random.Random(83)
    draws = [random_scheduling_instance(rng) for _ in range(30)]
    draws += [random_fast_scheduling_instance(rng) for _ in range(30)]
    return [SchedulingInstance.build(p=p, n=n, s=s, m=m) for p, n, s, m in draws]


def test_lpt_schedule_is_within_twice_the_optimum():
    for inst in bracket_draws():
        greedy = scheduling.lpt_schedule(inst)
        verify_schedule(inst, greedy, OBJECTIVE_CMAX)
        best = schedule_reference(inst.p, inst.n, inst.s, inst.m, OBJECTIVE_CMAX)
        assert best <= greedy.objective <= 2 * best, inst


def test_lpt_schedule_breaks_ties_to_the_lowest_machine():
    # two jobs of size 2 on speeds 1 and 2: the first finishes earliest on
    # the fast machine 1; the second would finish at 2 on either machine
    # and takes machine 0
    inst = SchedulingInstance.build(p=[2], n=[2], s=[1, 2], m=[1, 1])
    greedy = scheduling.lpt_schedule(inst)
    assert [mach.jobs for mach in greedy.machines] == [(2,), (2,)]
    assert greedy.objective == 2


def test_solve_cmax_decides_only_inside_the_bracket(monkeypatch):
    """Every guess lies in the bracket, and the schedule returned is one
    that ``decide_guess`` built, never the greedy bound."""
    decide = scheduling.decide_guess
    for inst in bracket_draws():
        floor, top = makespan_bracket(inst)
        built = []

        def wrapped(inst, guess, objective):
            assert floor <= guess <= top, (inst, guess)
            built.append(decide(inst, guess, objective))
            return built[-1]

        monkeypatch.setattr(scheduling, "decide_guess", wrapped)
        got = solve_cmax(inst)
        assert any(got is sched for sched in built)
        assert got.objective == schedule_reference(
            inst.p, inst.n, inst.s, inst.m, OBJECTIVE_CMAX), inst


def test_benchmark_instance_searches_its_bracket(caplog):
    # the averaging bound 112/9 rounds up to the candidate 25/2 and LPT
    # reaches 13, so two guesses find the optimum 38/3
    inst = SchedulingInstance.build(p=[3, 5, 7], n=[10, 8, 6], s=[1, 2, 3],
                                    m=[2, 2, 1])
    with caplog.at_level(logging.DEBUG, logger="nfold.scheduling"):
        assert solve_cmax(inst).objective == Fraction(38, 3)
        assert solve_cmin(inst).objective == 12
    assert [rec.getMessage() for rec in caplog.records
            if rec.levelno == logging.DEBUG] == [
        "cmax bracket [25/2, 13]: 2 guesses decided",
        "cmin scan from 112/9: 2 guesses decided",
    ]
