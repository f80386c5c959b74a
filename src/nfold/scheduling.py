"""Makespan scheduling on uniformly related machines.

Jobs come in ``d`` distinct integer sizes with multiplicities, machines in
speed classes with multiplicities.  Both objectives are covered: minimise
the maximum completion time (``cmax``) or maximise the minimum completion
time (``cmin``, machine covering).

Strategy
--------
Candidate objective values are the fractions ``V / s`` with ``V`` an
integer load between 0 and the total processing mass and ``s`` a machine
speed; the optimum is always of this shape.  A guessed value ``T`` is
turned into a per-speed-class integer load target and decided exactly by
compiling the assignment problem into a block-structured integer program
(one brick per speed class whose columns are machine *configurations*)
solved by :func:`nfold.driver.solve`.  ``cmax`` binary-searches the
candidate list; ``cmin`` scans it downward from the averaging bound, which
is required because infeasible guesses below the optimum can exist.

A speed class is *big* when its load target exceeds ``p_max**4``, and a
job size is a *pivot* when it has at least ``p_max**2 * B`` jobs, ``B``
being the number of big classes.  If some class is big and some size is a
pivot, the big classes get the sparse treatment: ``p_max**2 * B`` jobs of
the pivot size are withheld from the program, configurations are thinned
to residues modulo the pivot size, and a greedy pass distributes the
withheld jobs and slack bundles afterwards; each pivot is tried in turn.
Otherwise every class is dense: its configurations are enumerated in full,
which is exact, and without a pivot every job count is below
``p_max**2 * B``, so there are at most ``prod(n_j + 1)`` of them.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .core import STATUS_FEASIBLE, NFoldInstance, _int_tuple
from .driver import solve as ilp_solve

log = logging.getLogger(__name__)

OBJECTIVE_CMAX = "cmax"
OBJECTIVE_CMIN = "cmin"


@dataclass(frozen=True)
class SchedulingInstance:
    """Job multiset plus machine park, both grouped by equal values.

    Parameters
    ----------
    p : tuple of int
        Distinct job processing times, each >= 1.
    n : tuple of int
        Multiplicity of each processing time, each >= 1.
    s : tuple of int
        Distinct machine speeds, each >= 1.
    m : tuple of int
        Machine count per speed, each >= 1.

    Every value must be an ``int``; a ``float``, ``bool`` or other value
    raises ``ValueError`` naming the field, never a silent coercion.
    """

    p: tuple[int, ...]
    n: tuple[int, ...]
    s: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("p", "n", "s", "m"):
            object.__setattr__(self, name, _int_tuple(getattr(self, name), name))
        if len(self.p) != len(self.n) or not self.p:
            raise ValueError("processing times and multiplicities must align")
        if len(self.s) != len(self.m) or not self.s:
            raise ValueError("speeds and machine counts must align")
        if len(set(self.p)) != len(self.p):
            raise ValueError("processing times must be distinct; merge counts")
        if len(set(self.s)) != len(self.s):
            raise ValueError("speeds must be distinct; merge machine counts")
        if any(v < 1 for v in self.p) or any(v < 1 for v in self.n):
            raise ValueError("job sizes and multiplicities must be positive")
        if any(v < 1 for v in self.s) or any(v < 1 for v in self.m):
            raise ValueError("speeds and machine counts must be positive")

    @classmethod
    def build(cls, p: Sequence[int], n: Sequence[int], s: Sequence[int],
              m: Sequence[int]) -> "SchedulingInstance":
        """Normalise possibly-repeated sizes/speeds by merging their counts."""
        p, n, s, m = (_int_tuple(values, name) for name, values in
                      (("p", p), ("n", n), ("s", s), ("m", m)))
        # zip would drop the unpaired tail without a word.
        if len(p) != len(n):
            raise ValueError("processing times and multiplicities must align")
        if len(s) != len(m):
            raise ValueError("speeds and machine counts must align")
        jobs: dict[int, int] = {}
        for size, count in zip(p, n):
            jobs[size] = jobs.get(size, 0) + count
        park: dict[int, int] = {}
        for speed, count in zip(s, m):
            park[speed] = park.get(speed, 0) + count
        sizes = tuple(sorted(jobs))
        speeds = tuple(sorted(park))
        return cls(p=sizes, n=tuple(jobs[v] for v in sizes),
                   s=speeds, m=tuple(park[v] for v in speeds))

    @property
    def num_jobs(self) -> int:
        return sum(self.n)

    @property
    def num_machines(self) -> int:
        return sum(self.m)

    @property
    def p_max(self) -> int:
        return max(self.p)

    @property
    def mass(self) -> int:
        """Total processing requirement across all jobs."""
        return sum(size * count for size, count in zip(self.p, self.n))


@dataclass(frozen=True)
class MachineAssignment:
    """One machine's speed and the real jobs placed on it."""

    speed: int
    jobs: tuple[int, ...]

    @property
    def load(self) -> int:
        return sum(self.jobs)

    @property
    def completion(self) -> Fraction:
        return Fraction(self.load, self.speed)


@dataclass(frozen=True)
class Schedule:
    """A complete assignment of every job to a machine."""

    machines: tuple[MachineAssignment, ...]
    objective: Fraction

    def loads(self) -> tuple[int, ...]:
        return tuple(mach.load for mach in self.machines)


class ScheduleError(AssertionError):
    """Internal inconsistency while assembling a schedule."""


def verify_schedule(inst: SchedulingInstance, sched: Schedule,
                    objective: str) -> None:
    """Check that a schedule places every job exactly once on a real machine.

    Raises
    ------
    ValueError
        If machine speeds, job counts, or the recorded objective value do
        not match the instance.
    """
    speeds = sorted(mach.speed for mach in sched.machines)
    want_speeds = sorted(
        speed for speed, count in zip(inst.s, inst.m) for _ in range(count))
    if speeds != want_speeds:
        raise ValueError("schedule does not use the instance's machine park")
    placed: dict[int, int] = {}
    for mach in sched.machines:
        for size in mach.jobs:
            placed[size] = placed.get(size, 0) + 1
    want = dict(zip(inst.p, inst.n))
    if placed != want:
        raise ValueError(f"job multiset mismatch: placed {placed}, want {want}")
    completions = [mach.completion for mach in sched.machines]
    value = max(completions) if objective == OBJECTIVE_CMAX else min(completions)
    if value != sched.objective:
        raise ValueError(
            f"objective mismatch: recorded {sched.objective}, actual {value}")


# ---------------------------------------------------------------------------
# Guess decision: compile one target value into a block program.
# ---------------------------------------------------------------------------


@dataclass
class _GuessContext:
    """Everything derived from one guessed objective value."""

    inst: SchedulingInstance
    objective: str
    targets: tuple[int, ...]          # integer load target per speed class
    dummy_count: int                  # filler units needed across the park
    small: tuple[bool, ...]           # per speed class
    pivot: Optional[int]              # pivot job size for sparse classes
    withheld: int                     # pivot jobs kept out of the program
    adjusted_n: tuple[int, ...]       # job multiplicities seen by the program
    configs: list[list[tuple[int, ...]]] = field(default_factory=list)
    dummy_per_config: list[list[int]] = field(default_factory=list)


def _class_targets(inst: SchedulingInstance, guess: Fraction,
                   objective: str) -> tuple[int, ...]:
    """Integer load target per speed class for the guessed value."""
    if objective == OBJECTIVE_CMIN:
        return tuple(math.ceil(speed * guess) for speed in inst.s)
    return tuple(math.floor(speed * guess) for speed in inst.s)


def _real_config_parts(sizes: tuple[int, ...], caps: tuple[int, ...],
                       lo: int, hi: int) -> list[tuple[int, ...]]:
    """All count vectors under per-size caps with total load in [lo, hi]."""
    out: list[tuple[int, ...]] = []
    counts = [0] * len(sizes)

    def rec(idx: int, load: int) -> None:
        if idx == len(sizes):
            if load >= lo:
                out.append(tuple(counts))
            return
        size = sizes[idx]
        limit = min(caps[idx], (hi - load) // size)
        for take in range(limit + 1):
            counts[idx] = take
            rec(idx + 1, load + take * size)
        counts[idx] = 0

    rec(0, 0)
    return out


def _enumerate_class_configs(ctx: _GuessContext, k: int) -> tuple[
        list[tuple[int, ...]], list[int]]:
    """Configurations (real-job counts) and dummy counts for speed class k."""
    inst = ctx.inst
    target = ctx.targets[k]
    has_dummy = ctx.dummy_count > 0
    if ctx.small[k]:
        if ctx.objective == OBJECTIVE_CMIN:
            # Real load may exceed the target by up to one filler per unit,
            # at most p_max filler units on one machine.
            span = inst.p_max if has_dummy else 0
            lo, hi = target, target + span
        else:
            span = 0  # filler units only ever top a machine up to the target
            lo, hi = 0, target
        caps = tuple(min(ctx.adjusted_n[j], hi // size) if size <= hi else 0
                     for j, size in enumerate(inst.p))
        reals = _real_config_parts(inst.p, caps, lo, hi)
        reals.sort()
        if ctx.objective == OBJECTIVE_CMIN:
            dummies = [sum(c * s for c, s in zip(vec, inst.p)) - target
                       for vec in reals]
        else:
            dummies = [target - sum(c * s for c, s in zip(vec, inst.p))
                       for vec in reals]
        if not has_dummy:
            keep = [i for i, dcount in enumerate(dummies) if dcount == 0]
            reals = [reals[i] for i in keep]
            dummies = [0] * len(reals)
        return reals, dummies
    # Sparse class: keep only configurations with all counts below the pivot
    # size whose signed load matches the target modulo the pivot size.
    a = ctx.pivot
    assert a is not None
    sign = -1 if ctx.objective == OBJECTIVE_CMIN else 1
    ranges = [range(min(a - 1, ctx.adjusted_n[j]) + 1) for j in range(len(inst.p))]
    dummy_range = range(min(a - 1, ctx.dummy_count) + 1) if has_dummy else range(1)
    reals: list[tuple[int, ...]] = []
    dummies: list[int] = []
    for vec in product(*ranges):
        load = sum(c * s for c, s in zip(vec, inst.p))
        for dcount in dummy_range:
            if (target - load - sign * dcount) % a == 0:
                reals.append(vec)
                dummies.append(dcount)
    order = sorted(range(len(reals)), key=lambda i: (reals[i], dummies[i]))
    return [reals[i] for i in order], [dummies[i] for i in order]


def _build_program(ctx: _GuessContext) -> NFoldInstance:
    """Assemble the block program whose bricks pick one config per machine."""
    inst = ctx.inst
    d = len(inst.p)
    has_dummy = ctx.dummy_count > 0
    rows = d + (1 if has_dummy else 0)
    blocks: list[tuple[tuple[int, ...], ...]] = []
    t: list[int] = []
    b_low: list[int] = []
    for k in range(len(inst.s)):
        reals, dummies = ctx.configs[k], ctx.dummy_per_config[k]
        cols = []
        for vec, dcount in zip(reals, dummies):
            col = list(vec)
            if has_dummy:
                col.append(dcount)
            cols.append(col)
        block = tuple(tuple(col[i] for col in cols) for i in range(rows))
        blocks.append(block)
        t.append(len(cols))
        b_low.append(inst.m[k])
    a = ctx.pivot
    if a is not None:
        # Column i bundles row i's pivot-sized chunk: one pivot job, `a`
        # jobs of another size or `a` filler units; the last column is
        # open so the brick sum is free.
        slack_cols = [[0] * rows for _ in range(rows + 1)]
        for j, size in enumerate(inst.p):
            slack_cols[j][j] = 1 if size == a else a
        if has_dummy:
            slack_cols[d][d] = a
        block = tuple(tuple(col[i] for col in slack_cols) for i in range(rows))
        blocks.append(block)
        t.append(len(slack_cols))
        b_low.append(sum(ctx.adjusted_n) + ctx.dummy_count)
    b_up = list(ctx.adjusted_n)
    if has_dummy:
        b_up.append(ctx.dummy_count)
    return NFoldInstance(n=len(blocks), r=rows, t=tuple(t),
                         blocks=tuple(blocks), b_up=tuple(b_up),
                         b_low=tuple(b_low))


def _machine_configs_from_solution(ctx: _GuessContext,
                                   x: tuple[int, ...]) -> tuple[
        list[list[tuple[tuple[int, ...], int]]], dict[int, int]]:
    """Split the flat solution vector back into per-machine configurations."""
    inst = ctx.inst
    per_class: list[list[tuple[tuple[int, ...], int]]] = []
    offset = 0
    for k in range(len(inst.s)):
        reals, dummies = ctx.configs[k], ctx.dummy_per_config[k]
        counts = x[offset:offset + len(reals)]
        offset += len(reals)
        chosen: list[tuple[tuple[int, ...], int]] = []
        for idx, times in enumerate(counts):
            for _ in range(times):
                chosen.append((reals[idx], dummies[idx]))
        if len(chosen) != inst.m[k]:
            raise ScheduleError(
                f"class {k} received {len(chosen)} configs for {inst.m[k]} machines")
        chosen.sort()
        per_class.append(chosen)
    slack: dict[int, int] = {}
    if ctx.pivot is not None:
        # One slack column per program row, then the open column.
        rows = len(inst.p) + (1 if ctx.dummy_count > 0 else 0)
        slack = dict(enumerate(x[offset:offset + rows]))
        offset += rows + 1
    if offset != len(x):
        raise ScheduleError("solution vector length inconsistent with program")
    return per_class, slack


def greedy_augment(ctx: _GuessContext,
                   per_class: list[list[tuple[tuple[int, ...], int]]],
                   slack: dict[int, int]) -> Schedule:
    """Distribute withheld pivot jobs and slack bundles onto the machines.

    The block program hands back one configuration per machine plus, for
    sparse classes, slack counts saying how many pivot-sized chunks of each
    job size remain.  This pass places those chunks: filler bundles go to a
    single sparse machine, real-job bundles best-fit into machines whose
    load deficit can absorb them, and pivot jobs (withheld plus single-unit
    slack) fill every remaining deficit exactly.

    Raises
    ------
    ScheduleError
        If the greedy placement cannot finish; the guess decision promised
        a schedule, so this indicates an internal bug.
    """
    inst = ctx.inst
    d = len(inst.p)
    a = ctx.pivot
    sign = -1 if ctx.objective == OBJECTIVE_CMIN else 1
    machines: list[dict] = []
    for k in range(len(inst.s)):
        for vec, dcount in per_class[k]:
            jobs = [0] * d
            for j, count in enumerate(vec):
                jobs[j] += count
            machines.append({
                "speed": inst.s[k],
                "jobs": jobs,
                "dummies": dcount,
                "target": ctx.targets[k],
                "big": not ctx.small[k],
            })

    def signed_load(mach: dict) -> int:
        real = sum(c * s for c, s in zip(mach["jobs"], inst.p))
        return real + sign * mach["dummies"]

    if a is not None:
        pivot_idx = inst.p.index(a)
        singles = ctx.withheld + slack.get(pivot_idx, 0)
        big_machines = [mach for mach in machines if mach["big"]]
        dummy_bundles = slack.get(d, 0) if ctx.dummy_count > 0 else 0
        if dummy_bundles and not big_machines:
            raise ScheduleError("filler bundles with no sparse machine")
        if sign < 0:
            # Extra fillers only deepen a machine's deficit, which pivot
            # jobs repair afterwards, so one machine may take them all.
            if dummy_bundles:
                big_machines[0]["dummies"] += a * dummy_bundles
        else:
            # Fillers count toward the load target here, so spread them
            # where deficits can absorb them, largest deficit first.
            for _ in range(dummy_bundles):
                best = None
                for mach in big_machines:
                    deficit = mach["target"] - signed_load(mach)
                    if deficit >= a and (best is None or deficit > best[0]):
                        best = (deficit, mach)
                if best is None:
                    raise ScheduleError("no machine can absorb a filler bundle")
                best[1]["dummies"] += a
        for j in sorted(slack, key=lambda j: -inst.p[j] if j != d else 1):
            if j in (pivot_idx, d):
                continue
            size = inst.p[j]
            for _ in range(slack[j]):
                chunk = a * size
                best = None
                for mach in big_machines:
                    deficit = mach["target"] - signed_load(mach)
                    if deficit >= chunk and (
                            best is None or deficit > best[0]):
                        best = (deficit, mach)
                if best is None:
                    raise ScheduleError(
                        f"no machine can absorb a bundle of {a} size-{size} jobs")
                best[1]["jobs"][j] += a
        for mach in big_machines:
            deficit = mach["target"] - signed_load(mach)
            if deficit < 0 or deficit % a != 0:
                raise ScheduleError(
                    f"deficit {deficit} not fillable with size-{a} jobs")
            need = deficit // a
            if need > singles:
                raise ScheduleError("ran out of pivot jobs while filling")
            mach["jobs"][pivot_idx] += need
            singles -= need
        if singles != 0:
            raise ScheduleError(f"{singles} pivot jobs left unplaced")

    for mach in machines:
        if signed_load(mach) != mach["target"]:
            raise ScheduleError(
                f"machine load {signed_load(mach)} misses target {mach['target']}")

    assignments = []
    for mach in machines:
        expanded = tuple(size for j, size in enumerate(inst.p)
                         for _ in range(mach["jobs"][j]))
        assignments.append(MachineAssignment(speed=mach["speed"], jobs=expanded))
    completions = [m.completion for m in assignments]
    if ctx.objective == OBJECTIVE_CMIN:
        value = min(completions)
    else:
        value = max(completions)
    return Schedule(machines=tuple(assignments), objective=value)


def decide_guess(inst: SchedulingInstance, guess: Fraction,
                 objective: str) -> Optional[Schedule]:
    """Decide whether the guessed objective value is achievable.

    A class whose load target exceeds ``p_max**4`` is big; with ``B`` big
    classes, a job size with at least ``p_max**2 * B`` jobs is a pivot.
    When ``B > 0`` and a pivot exists, the big classes go sparse and each
    pivot is tried in turn; otherwise every class is dense.

    Parameters
    ----------
    inst : SchedulingInstance
        Jobs and machine park.
    guess : Fraction
        Candidate objective value; for ``cmax`` we ask for a schedule whose
        makespan is at most the guess, for ``cmin`` for one whose minimum
        completion time is at least the guess.
    objective : str
        ``"cmax"`` or ``"cmin"``.

    Returns
    -------
    Schedule or None
        A verified schedule witnessing the guess, or None.
    """
    if objective not in (OBJECTIVE_CMAX, OBJECTIVE_CMIN):
        raise ValueError(f"unknown objective: {objective!r}")
    if guess < 0:
        raise ValueError("objective guesses must be nonnegative")
    targets = _class_targets(inst, guess, objective)
    mass = inst.mass
    park_load = sum(t * count for t, count in zip(targets, inst.m))
    if objective == OBJECTIVE_CMIN:
        dummy_count = mass - park_load
    else:
        dummy_count = park_load - mass
    if dummy_count < 0:
        return None
    small = tuple(t <= inst.p_max ** 4 for t in targets)
    big = small.count(False)
    withheld = inst.p_max ** 2 * big
    pivots: list[Optional[int]] = [
        size for size, count in zip(inst.p, inst.n) if big and count >= withheld]
    if not pivots:
        # Every class dense, which is exact.  A big class without a pivot
        # has every count below `withheld`, so few configurations.
        small = (True,) * len(targets)
        withheld = 0
        pivots = [None]
        if objective == OBJECTIVE_CMIN and \
                dummy_count > inst.p_max * inst.num_machines:
            # Each machine absorbs at most p_max filler units, so the
            # program cannot possibly place this many.
            return None

    for pivot in pivots:
        ctx = _GuessContext(inst=inst, objective=objective, targets=targets,
                            dummy_count=dummy_count, small=small, pivot=pivot,
                            withheld=withheld, adjusted_n=inst.n)
        if pivot is not None:
            adjusted = list(inst.n)
            adjusted[inst.p.index(pivot)] -= withheld
            ctx.adjusted_n = tuple(adjusted)
        empty_class = False
        for k in range(len(inst.s)):
            reals, dummies = _enumerate_class_configs(ctx, k)
            if not reals:
                empty_class = True
                break
            ctx.configs.append(reals)
            ctx.dummy_per_config.append(dummies)
        if empty_class:
            continue
        program = _build_program(ctx)
        outcome = ilp_solve(program, mode="feasibility")
        if outcome.status != STATUS_FEASIBLE:
            continue
        per_class, slack = _machine_configs_from_solution(
            ctx, outcome.solution.x)
        sched = greedy_augment(ctx, per_class, slack)
        verify_schedule(inst, sched, objective)
        if objective == OBJECTIVE_CMIN and sched.objective < guess:
            raise ScheduleError(
                f"augmented schedule misses the cover guess {guess}")
        if objective == OBJECTIVE_CMAX and sched.objective > guess:
            raise ScheduleError(
                f"augmented schedule exceeds the makespan guess {guess}")
        return sched
    return None


def _candidate_values(inst: SchedulingInstance) -> tuple[list[int], int]:
    """All values load/speed that an optimal objective can take, as sorted
    numerators over their common denominator ``lcm(s)``, and that
    denominator.  A search builds a ``Fraction`` only for a guess it
    decides."""
    denom = math.lcm(*inst.s)
    steps = [denom // speed for speed in inst.s]
    return sorted({load * step for step in steps for load in range(inst.mass + 1)}), denom


def solve_cmax(inst: SchedulingInstance) -> Schedule:
    """Minimise the makespan; returns an optimal schedule.

    Feasibility of a makespan guess is monotone (any schedule for T also
    witnesses every T' >= T), so binary search over the candidate values
    finds the least feasible one.
    """
    candidates, denom = _candidate_values(inst)
    lo, hi = 0, len(candidates) - 1
    best: Optional[Schedule] = None
    while lo < hi:
        mid = (lo + hi) // 2
        sched = decide_guess(inst, Fraction(candidates[mid], denom), OBJECTIVE_CMAX)
        if sched is not None:
            best = sched
            hi = mid
        else:
            lo = mid + 1
    least = Fraction(candidates[lo], denom)
    if best is None or best.objective != least:
        best = decide_guess(inst, least, OBJECTIVE_CMAX)
    if best is None:
        raise ScheduleError("no feasible makespan among candidate values")
    log.info("cmax optimum %s over %d candidates", best.objective,
             len(candidates))
    return best


def solve_cmin(inst: SchedulingInstance) -> Schedule:
    """Maximise the minimum machine completion time.

    Guess feasibility is *not* monotone below the optimum here (a smaller
    cover target changes the rounding of every class target), so instead of
    binary search we scan candidates downward starting at the averaging
    bound mass / (total speed), which no cover value can exceed.
    """
    if inst.num_jobs < inst.num_machines:
        # Some machine inevitably stays empty.
        machines = []
        first = True
        for speed, count in zip(inst.s, inst.m):
            for _ in range(count):
                if first:
                    jobs = tuple(size for size, cnt in zip(inst.p, inst.n)
                                 for _ in range(cnt))
                    machines.append(MachineAssignment(speed=speed, jobs=jobs))
                    first = False
                else:
                    machines.append(MachineAssignment(speed=speed, jobs=()))
        return Schedule(machines=tuple(machines), objective=Fraction(0))
    total_speed = sum(speed * count for speed, count in zip(inst.s, inst.m))
    bound = Fraction(inst.mass, total_speed)
    candidates, denom = _candidate_values(inst)
    # num / denom <= mass / total_speed, on integers
    top = bisect_right(candidates, inst.mass * denom // total_speed)
    for num in reversed(candidates[:top]):
        sched = decide_guess(inst, Fraction(num, denom), OBJECTIVE_CMIN)
        if sched is not None:
            log.info("cmin optimum %s after scanning from %s", sched.objective,
                     bound)
            return sched
    raise ScheduleError("cover value 0 must always be achievable")
