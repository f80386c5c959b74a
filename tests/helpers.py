"""Shared test utilities: generators, reference solvers, sweep reports.

The reference solvers here are deliberately naive (plain enumeration or
tiny memoized searches) and share no code with the package's solver
path; they exist so the fast implementations have something independent
to disagree with.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

from nfold.core import (MODE_FEASIBILITY, MODE_OPTIMIZE, NFoldInstance,
                        verify_solution)
from nfold.dp import PointTable, base_tables_for_level, fold_tables
from nfold.driver import solve
from nfold.oracle import enumeration_size, oracle_solve
from nfold import scheduling
from nfold.scheduling import (OBJECTIVE_CMAX, OBJECTIVE_CMIN,
                              SchedulingInstance, solve_cmax, solve_cmin)

# One registry per process; the acceptance module appends a line per
# criterion and conftest prints them in the terminal summary.
ACCEPTANCE_LINES: list[str] = []
# Coverage notes of the deep-plan sweeps, printed the same way.
REPORT_LINES: list[str] = []

# Generator-side cap on the oracle's enumeration space.  Keeps every
# reference solve comfortably under the oracle's own refusal budget.
ENUMERATION_CAP = 150_000


def canonical_bytes(obj) -> bytes:
    """Stable byte serialization used for determinism comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def small_subproblem_set(inst, plan, level, mode=MODE_FEASIBILITY) -> PointTable:
    """Complete level point set over the box {0..D}^r.

    The level's base tables folded from the origin with no target window
    but the box of the plan's radius ``D``, so every point within it is
    kept; the solver folds the same tables under much tighter windows,
    and both agree on their common domain.  Unlike the references in this
    module it runs the package's own fold, for the tests that compare it
    with ``oracle.oracle_point_set``.
    """
    box = (plan.radius,) * inst.r
    tables = base_tables_for_level(inst, plan, level, mode)
    return fold_tables(tables, (0,) * inst.r, box)


# ---------------------------------------------------------------------------
# core-instance generation


def _random_b_low(rng: random.Random) -> int:
    """Mostly small totals, occasionally up to the 30 allowed."""
    roll = rng.random()
    if roll < 0.65:
        return rng.randint(0, 6)
    if roll < 0.90:
        return rng.randint(7, 15)
    return rng.randint(16, 30)


def random_core_instance(
    rng: random.Random,
    *,
    with_costs: bool = False,
    plant: bool | None = None,
    force_signed: bool = False,
) -> NFoldInstance:
    """Small random block program within the sweep envelope.

    Parameters
    ----------
    rng : random.Random
        Seeded stream; the sole source of randomness.
    with_costs : bool
        Attach a cost vector with entries in [0, 5].
    plant : bool or None
        Force (True) or forbid (False) a planted solution; None flips a
        biased coin.  Planted instances are guaranteed feasible.
    force_signed : bool
        Resample until at least one matrix entry is negative.

    Returns
    -------
    NFoldInstance
        Validated instance with n <= 3, r <= 2, t_i <= 3, entries in
        [-2, 2], b_low <= 30 and an enumeration space within the cap.
    """
    while True:
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        t = tuple(rng.randint(1, 3) for _ in range(n))
        blocks = tuple(
            tuple(tuple(rng.randint(-2, 2) for _ in range(t[k]))
                  for _ in range(r))
            for k in range(n)
        )
        if force_signed and not any(
                e < 0 for blk in blocks for row in blk for e in row):
            continue
        b_low = tuple(_random_b_low(rng) for _ in range(n))
        if enumeration_size(b_low, t) > ENUMERATION_CAP:
            continue
        planted = plant if plant is not None else rng.random() < 0.6
        if planted:
            x = []
            for k in range(n):
                counts = [0] * t[k]
                for _ in range(b_low[k]):
                    counts[rng.randrange(t[k])] += 1
                x.append(tuple(counts))
            b_up = tuple(
                sum(sum(col * cnt for col, cnt in zip(blocks[k][row], x[k]))
                    for k in range(n))
                for row in range(r)
            )
        else:
            b_up = tuple(rng.randint(-6, 6) for _ in range(r))
        c = tuple(rng.randint(0, 5) for _ in range(sum(t))) if with_costs else None
        return NFoldInstance(n=n, r=r, t=t, blocks=blocks, b_up=b_up,
                             b_low=b_low, c=c)


# ---------------------------------------------------------------------------
# scheduling reference


def random_scheduling_instance(
    rng: random.Random,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Raw (p, n, s, m) lists within the scheduling sweep envelope."""
    d = rng.randint(1, 3)
    sizes = rng.sample(range(1, 8), d)
    total_jobs = rng.randint(d, 10)
    counts = [1] * d
    for _ in range(total_jobs - d):
        counts[rng.randrange(d)] += 1
    tau = rng.randint(1, 3)
    speeds = rng.sample([1, 2, 3], tau)
    total_machines = rng.randint(tau, 4)
    machine_counts = [1] * tau
    for _ in range(total_machines - tau):
        machine_counts[rng.randrange(tau)] += 1
    return sizes, counts, speeds, machine_counts


# (p, n, s, m) instances whose cmax and cmin optima both come out of the
# sparse pivot path at its real threshold p_max**4, with p_max 1, 2 and 3.
# In the second, the cmax schedule places a bundle of two size-1 jobs
# beside the size-2 pivot.
SPARSE_FIXTURES = [
    ((1,), (6,), (1,), (2,)),
    ((1, 2), (2, 9), (1, 20), (2, 1)),
    ((1, 3), (1, 29), (1, 60), (2, 1)),
]


def random_fast_scheduling_instance(
    rng: random.Random,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Raw (p, n, s, m) lists with speeds up to 150, so load targets can
    pass p_max**4 and the sparse pivot path gets its turn."""
    p = sorted(rng.sample([1, 2, 3], rng.randint(1, 3)))
    n = [rng.randint(1, 5) for _ in p]
    s = sorted(rng.sample([1, 2, 3, 7, 20, 60, 150], rng.randint(1, 3)))
    m = [rng.randint(1, 2) for _ in s]
    return p, n, s, m


def solve_noting_pivot(solver, inst):
    """Run ``solver(inst)``; return its schedule and whether the sparse
    pivot path (a ``greedy_augment`` call with a pivot) built it."""
    pivoted = []
    augment = scheduling.greedy_augment

    def record(ctx, *args):
        sched = augment(ctx, *args)
        if ctx.pivot is not None:
            pivoted.append(sched)
        return sched

    scheduling.greedy_augment = record
    try:
        sched = solver(inst)
    finally:
        scheduling.greedy_augment = augment
    return sched, any(sched is seen for seen in pivoted)


def schedule_reference(p, n, s, m, objective) -> Fraction:
    """Exact optimum by memoized search over job-count splits.

    Collapses the literal machine-by-machine assignment enumeration by
    job multiplicities; ``test_scheduling`` cross-checks it against the
    uncollapsed enumeration on small cases.
    """
    machines = tuple(speed for speed, cnt in zip(s, m) for _ in range(cnt))
    sizes = tuple(p)
    last = len(machines) - 1

    @lru_cache(maxsize=None)
    def best(idx: int, rem: tuple[int, ...]) -> Fraction:
        if idx == last:
            load = sum(size * c for size, c in zip(sizes, rem))
            return Fraction(load, machines[idx])
        out = None
        for pick in itertools.product(*[range(c + 1) for c in rem]):
            load = sum(size * c for size, c in zip(sizes, pick))
            here = Fraction(load, machines[idx])
            rest = best(idx + 1, tuple(a - b for a, b in zip(rem, pick)))
            value = max(here, rest) if objective == OBJECTIVE_CMAX \
                else min(here, rest)
            if out is None:
                out = value
            elif objective == OBJECTIVE_CMAX:
                out = min(out, value)
            else:
                out = max(out, value)
        return out

    result = best(0, tuple(n))
    best.cache_clear()
    return result


def schedule_enumeration(p, n, s, m, objective) -> Fraction:
    """Literal per-job assignment enumeration (small cases only)."""
    jobs = [size for size, cnt in zip(p, n) for _ in range(cnt)]
    machines = [speed for speed, cnt in zip(s, m) for _ in range(cnt)]
    best = None
    for assign in itertools.product(range(len(machines)), repeat=len(jobs)):
        loads = [0] * len(machines)
        for size, k in zip(jobs, assign):
            loads[k] += size
        comps = [Fraction(load, speed) for load, speed in zip(loads, machines)]
        value = max(comps) if objective == OBJECTIVE_CMAX else min(comps)
        if best is None:
            best = value
        elif objective == OBJECTIVE_CMAX:
            best = min(best, value)
        else:
            best = max(best, value)
    return best


def exists_cover_witness(p, n, s, m, opt: Fraction) -> bool:
    """Is there an optimal cover schedule with every load in its window?

    The window for a speed-``s_k`` machine is ``[ceil(s_k*opt),
    ceil(s_k*opt) + p_max]``; an exchange argument says some optimal
    schedule fits, and this verifies that claim by direct search.
    """
    machines = tuple(speed for speed, cnt in zip(s, m) for _ in range(cnt))
    sizes = tuple(p)
    p_max = max(p)
    windows = [(math.ceil(speed * opt), math.ceil(speed * opt) + p_max)
               for speed in machines]
    last = len(machines) - 1

    @lru_cache(maxsize=None)
    def feasible(idx: int, rem: tuple[int, ...]) -> bool:
        lo, hi = windows[idx]
        if idx == last:
            load = sum(size * c for size, c in zip(sizes, rem))
            return lo <= load <= hi
        for pick in itertools.product(*[range(c + 1) for c in rem]):
            load = sum(size * c for size, c in zip(sizes, pick))
            if lo <= load <= hi and feasible(
                    idx + 1, tuple(a - b for a, b in zip(rem, pick))):
                return True
        return False

    result = feasible(0, tuple(n))
    feasible.cache_clear()
    return result


# ---------------------------------------------------------------------------
# closest-string reference


def random_strings(rng: random.Random) -> list[str]:
    """Random input set with k <= 4, L <= 8 over at most 3 letters."""
    k = rng.randint(1, 4)
    length = rng.randint(1, 8)
    alphabet = "abc"[: rng.randint(1, 3)]
    return ["".join(rng.choice(alphabet) for _ in range(length))
            for _ in range(k)]


def closest_string_reference(strings: list[str]) -> int:
    """Minimal worst-case Hamming radius by center enumeration.

    Only letters that occur in a column are tried there: swapping a
    never-occurring letter for an occurring one cannot raise any
    distance, so the restriction loses nothing.
    """
    length = len(strings[0])
    per_col = [sorted({s[i] for s in strings}) for i in range(length)]
    best = None
    for center in itertools.product(*per_col):
        worst = max(sum(a != b for a, b in zip(center, s)) for s in strings)
        if best is None or worst < best:
            best = worst
    return best


def closest_string_full_enumeration(strings: list[str], alphabet: str) -> int:
    """Unrestricted center enumeration over the whole alphabet."""
    length = len(strings[0])
    best = None
    for center in itertools.product(alphabet, repeat=length):
        worst = max(sum(a != b for a, b in zip(center, s)) for s in strings)
        if best is None or worst < best:
            best = worst
    return best


# ---------------------------------------------------------------------------
# imbalance reference


def random_small_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Random graph on <= 8 vertices whose minimum cover has <= 4 vertices."""
    while True:
        n = rng.randint(2, 8)
        density = rng.uniform(0.15, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        if min_cover_size(n, edges) <= 4:
            return n, edges


def min_cover_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Minimum vertex-cover size by subset enumeration."""
    if not edges:
        return 0
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable: full vertex set always covers")


def imbalance_reference(n: int, edges: list[tuple[int, int]]) -> int:
    """Minimum total imbalance over all n! orderings."""
    adj = [0] * n
    deg = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    best = None
    for perm in itertools.permutations(range(n)):
        seen = 0
        total = 0
        for v in perm:
            left = (adj[v] & seen).bit_count()
            total += abs(2 * left - deg[v])
            seen |= 1 << v
        if best is None or total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# sweep reports (criteria 3, 4, 7 share these with the determinism check)


def feasibility_sweep(seed: int, trials: int) -> dict:
    """Driver-vs-oracle agreement sweep; returns a serializable report.

    Raises AssertionError on the first disagreement or bad witness, so a
    returned report always means 100% agreement.
    """
    rng = random.Random(seed)
    statuses = []
    for i in range(trials):
        inst = random_core_instance(rng)
        got = solve(inst, mode=MODE_FEASIBILITY)
        want = oracle_solve(inst, mode=MODE_FEASIBILITY)
        assert got.status == want.status, (
            f"trial {i}: driver={got.status} oracle={want.status} inst={inst}")
        if got.solution is not None:
            assert verify_solution(inst, got.solution.x), \
                f"trial {i}: witness fails verification"
        statuses.append(got.status)
    return {
        "kind": "core-feasibility",
        "seed": seed,
        "trials": trials,
        "statuses": statuses,
    }


def optimize_sweep(seed: int, trials: int) -> dict:
    """Objective-agreement sweep on planted (hence feasible) instances."""
    rng = random.Random(seed)
    objectives = []
    for i in range(trials):
        inst = random_core_instance(rng, with_costs=True, plant=True)
        got = solve(inst, mode=MODE_OPTIMIZE)
        want = oracle_solve(inst, mode=MODE_OPTIMIZE)
        assert got.status == want.status == "optimal-with-solution", (
            f"trial {i}: driver={got.status} oracle={want.status}")
        assert got.solution.objective == want.solution.objective, (
            f"trial {i}: driver={got.solution.objective} "
            f"oracle={want.solution.objective} inst={inst}")
        value = sum(cv * xv for cv, xv in zip(inst.c, got.solution.x))
        assert value == got.solution.objective, \
            f"trial {i}: reported optimum not attained by x"
        objectives.append(got.solution.objective)
    return {
        "kind": "core-optimize",
        "seed": seed,
        "trials": trials,
        "objectives": objectives,
    }


def scheduling_sweep(seed: int, trials: int) -> dict:
    """Scheduling-vs-reference sweep including the cover-load windows."""
    rng = random.Random(seed)
    results = []
    for i in range(trials):
        p, n, s, m = random_scheduling_instance(rng)
        inst = SchedulingInstance.build(p=p, n=n, s=s, m=m)
        got_max = solve_cmax(inst)
        want_max = schedule_reference(inst.p, inst.n, inst.s, inst.m,
                                      OBJECTIVE_CMAX)
        assert got_max.objective == want_max, (
            f"trial {i} cmax: got {got_max.objective}, want {want_max}, "
            f"inst={inst}")
        got_min = solve_cmin(inst)
        want_min = schedule_reference(inst.p, inst.n, inst.s, inst.m,
                                      OBJECTIVE_CMIN)
        assert got_min.objective == want_min, (
            f"trial {i} cmin: got {got_min.objective}, want {want_min}, "
            f"inst={inst}")
        opt = got_min.objective
        for mach in got_min.machines:
            assert mach.load >= math.ceil(mach.speed * opt), (
                f"trial {i}: cover witness load {mach.load} below "
                f"ceil({mach.speed}*{opt})")
        assert exists_cover_witness(inst.p, inst.n, inst.s, inst.m, opt), (
            f"trial {i}: no optimal cover schedule fits the load windows")
        results.append({
            "p": list(inst.p), "n": list(inst.n),
            "s": list(inst.s), "m": list(inst.m),
            "cmax": str(got_max.objective),
            "cmin": str(got_min.objective),
        })
    return {
        "kind": "scheduling",
        "seed": seed,
        "trials": trials,
        "results": results,
    }
