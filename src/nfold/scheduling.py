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
candidates between the averaging bound and the makespan of a greedy LPT
schedule, which is at most twice the optimum, so no guess it decides is
more than twice the optimum; ``cmin`` scans the list downward from the
averaging bound, which is required because infeasible guesses below the
optimum can exist.

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

Filler units make up the gap between the park's targets and the job
mass.  Each class keeps one ascending list of ``(real-job counts, filler
units)`` configurations (``_class_configs``), none with more filler units
than the park has; ``_build_program`` makes its brick from it, and
``greedy_augment`` reads the solution vector straight into machines,
placing slack bundles in one best-fit loop.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Optional, Sequence

from .core import STATUS_FEASIBLE, NFoldInstance, _int_tuple, least_feasible
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
    # per speed class, its sorted (real-job counts, filler units) pairs
    configs: list[list[tuple[tuple[int, ...], int]]] = field(default_factory=list)


def _class_targets(inst: SchedulingInstance, guess: Fraction,
                   objective: str) -> tuple[int, ...]:
    """Integer load target per speed class for the guessed value."""
    if objective == OBJECTIVE_CMIN:
        return tuple(math.ceil(speed * guess) for speed in inst.s)
    return tuple(math.floor(speed * guess) for speed in inst.s)


def _real_config_parts(sizes: tuple[int, ...], caps: tuple[int, ...],
                       lo: int, hi: int) -> list[tuple[int, ...]]:
    """All count vectors under per-size caps with total load in [lo, hi],
    in ascending order."""
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


def _class_configs(ctx: _GuessContext,
                   k: int) -> list[tuple[tuple[int, ...], int]]:
    """Configurations of speed class k, ascending: ``(counts, units)``
    pairs whose real load ``counts . p`` plus ``sign * units`` filler
    load meets the class target (modulo the pivot size in a sparse
    class), ``sign`` being +1 for ``cmax`` and -1 for ``cmin``.  Both
    enumerations list their count vectors in ascending order."""
    inst = ctx.inst
    target = ctx.targets[k]
    sign = -1 if ctx.objective == OBJECTIVE_CMIN else 1
    if ctx.small[k]:
        # Filler units top a cmax machine up to the target; a cmin machine
        # may exceed it by up to p_max of them.  No machine takes more
        # units than the park has, so without fillers the real load is
        # the target.
        span = min(inst.p_max if sign < 0 else target, ctx.dummy_count)
        lo, hi = (target, target + span) if sign < 0 else (target - span, target)
        caps = tuple(min(count, hi // size)
                     for count, size in zip(ctx.adjusted_n, inst.p))
        return [(vec, sign * (target - sum(map(mul, vec, inst.p))))
                for vec in _real_config_parts(inst.p, caps, lo, hi)]
    # Sparse class: every count and the filler units below the pivot size
    # a, the signed load matching the target modulo a; the units are the
    # one residue that does, if there are that many fillers.
    a = ctx.pivot
    ranges = [range(min(a - 1, count) + 1) for count in ctx.adjusted_n]
    configs = [(vec, sign * (target - sum(map(mul, vec, inst.p))) % a)
               for vec in product(*ranges)]
    return [(vec, units) for vec, units in configs if units <= ctx.dummy_count]


def _build_program(ctx: _GuessContext) -> NFoldInstance:
    """Assemble the block program whose bricks pick one config per machine:
    one row per job size, then a filler row when fillers are needed."""
    inst = ctx.inst
    rows = len(inst.p) + (ctx.dummy_count > 0)
    blocks = [tuple(zip(*[(*vec, units)[:rows] for vec, units in configs]))
              for configs in ctx.configs]
    t = [len(configs) for configs in ctx.configs]
    b_low = list(inst.m)
    a = ctx.pivot
    if a is not None:
        # Column i bundles row i's pivot-sized chunk: one pivot job, `a`
        # jobs of another size or `a` filler units; the last column is
        # open so the brick sum is free.
        chunk = [1 if size == a else a for size in inst.p] + [a]
        blocks.append(tuple(tuple(chunk[i] if col == i else 0
                                  for col in range(rows + 1))
                            for i in range(rows)))
        t.append(rows + 1)
        b_low.append(sum(ctx.adjusted_n) + ctx.dummy_count)
    return NFoldInstance(n=len(blocks), r=rows, t=tuple(t),
                         blocks=tuple(blocks),
                         b_up=(*ctx.adjusted_n, ctx.dummy_count)[:rows],
                         b_low=tuple(b_low))


def greedy_augment(ctx: _GuessContext, x: tuple[int, ...]) -> Schedule:
    """Read a solution ``x`` of the block program into a schedule.

    ``x`` holds, class by class, how many machines take each
    configuration and, when there is a pivot ``a``, then the slack
    brick: per program row how many pivot-sized bundles of it remain,
    then the open column.  The bundles go to the sparse machines.  Under
    ``cmin`` every filler bundle goes to the first sparse machine, since
    extra fillers only deepen a deficit that pivot jobs repair.  Then,
    one at a time, each bundle of ``a`` units of size ``w`` goes to the
    machine with the largest deficit that can absorb ``a*w``: the filler
    bundles first under ``cmax`` (size 1), then the real-job bundles,
    largest size first.  Pivot jobs (withheld plus single-unit slack)
    fill every remaining deficit exactly.

    Raises
    ------
    ScheduleError
        If ``x`` has the wrong length or gives a class the wrong number of
        configurations, or the greedy placement cannot finish; the guess
        decision promised a schedule, so this indicates an internal bug.
    """
    inst, a = ctx.inst, ctx.pivot
    d = len(inst.p)
    sign = -1 if ctx.objective == OBJECTIVE_CMIN else 1
    weights = (*inst.p, sign)  # load of one unit of each row, fillers last
    machines: list[tuple[int, list[int]]] = []  # (class, units per row)
    offset = 0
    for k, configs in enumerate(ctx.configs):
        counts = x[offset:offset + len(configs)]
        offset += len(configs)
        if sum(counts) != inst.m[k]:
            raise ScheduleError(
                f"class {k} received {sum(counts)} configs for {inst.m[k]} machines")
        machines += [(k, [*vec, units])
                     for (vec, units), times in zip(configs, counts)
                     for _ in range(times)]
    rows = d + (ctx.dummy_count > 0)
    if len(x) != (offset if a is None else offset + rows + 1):
        raise ScheduleError("solution vector length inconsistent with program")

    def deficit(mach: tuple[int, list[int]]) -> int:
        return ctx.targets[mach[0]] - sum(map(mul, mach[1], weights))

    if a is not None:
        slack = (*x[offset:offset + rows], 0)  # no filler row: no fillers
        pivot = inst.p.index(a)
        singles = ctx.withheld + slack[pivot]
        big = [mach for mach in machines if not ctx.small[mach[0]]]
        largest_first = sorted(range(d), key=inst.p.__getitem__, reverse=True)
        bundles = [(j, slack[j]) for j in largest_first if j != pivot]
        if sign < 0:
            big[0][1][d] += a * slack[d]
        else:
            bundles.insert(0, (d, slack[d]))
        for j, count in bundles:
            for _ in range(count):
                best = max(big, key=deficit)
                if deficit(best) < a * weights[j]:
                    raise ScheduleError(f"no machine can absorb a bundle "
                                        f"of {a} size-{weights[j]} units")
                best[1][j] += a
        for mach in big:
            need, rest = divmod(deficit(mach), a)
            if need < 0 or rest:
                raise ScheduleError(
                    f"deficit {deficit(mach)} not fillable with size-{a} jobs")
            if need > singles:
                raise ScheduleError("ran out of pivot jobs while filling")
            mach[1][pivot] += need
            singles -= need
        if singles != 0:
            raise ScheduleError(f"{singles} pivot jobs left unplaced")

    for mach in machines:
        if deficit(mach):
            target = ctx.targets[mach[0]]
            raise ScheduleError(
                f"machine load {target - deficit(mach)} misses target {target}")
    assignments = tuple(
        MachineAssignment(speed=inst.s[k], jobs=tuple(
            size for size, count in zip(inst.p, counts) for _ in range(count)))
        for k, counts in machines)
    completions = [mach.completion for mach in assignments]
    value = min(completions) if sign < 0 else max(completions)
    return Schedule(machines=assignments, objective=value)


def decide_guess(inst: SchedulingInstance, guess: Fraction,
                 objective: str) -> Optional[Schedule]:
    """Decide whether the guessed objective value is achievable.

    A class whose load target exceeds ``p_max**4`` is big; with ``B`` big
    classes, a job size with at least ``p_max**2 * B`` jobs is a pivot.
    When ``B > 0`` and a pivot exists, the big classes go sparse and each
    pivot is tried in turn; otherwise every class is dense.  A guess whose
    filler units the machines cannot absorb (under ``cmin`` at most
    ``p_max`` per machine) is refused by the engine's plan, whose filler
    window is then empty, before any base table is built.

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

    for pivot in pivots:
        adjusted_n = list(inst.n)
        if pivot is not None:
            adjusted_n[inst.p.index(pivot)] -= withheld
        ctx = _GuessContext(inst=inst, objective=objective, targets=targets,
                            dummy_count=dummy_count, small=small, pivot=pivot,
                            withheld=withheld, adjusted_n=tuple(adjusted_n))
        ctx.configs = [_class_configs(ctx, k) for k in range(len(inst.s))]
        if not all(ctx.configs):
            continue
        outcome = ilp_solve(_build_program(ctx), mode="feasibility")
        if outcome.status != STATUS_FEASIBLE:
            continue
        sched = greedy_augment(ctx, outcome.solution.x)
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


def lpt_schedule(inst: SchedulingInstance) -> Schedule:
    """Greedy LPT schedule: jobs by size, descending, each on the machine
    where it finishes earliest, ties to the lowest index.  On uniform
    machines its makespan is at most twice the optimum (Gonzalez, Ibarra &
    Sahni, SIAM J. Comput. 1977).  Finish times compare as integers over
    ``lcm(s)``."""
    denom = math.lcm(*inst.s)
    speeds = [speed for speed, count in zip(inst.s, inst.m) for _ in range(count)]
    steps = [denom // speed for speed in speeds]
    loads = [0] * len(speeds)
    jobs: list[list[int]] = [[] for _ in speeds]
    for size, count in sorted(zip(inst.p, inst.n), reverse=True):
        for _ in range(count):
            k = min(range(len(speeds)), key=lambda i: (loads[i] + size) * steps[i])
            loads[k] += size
            jobs[k].append(size)
    machines = tuple(MachineAssignment(speed=speed, jobs=tuple(placed))
                     for speed, placed in zip(speeds, jobs))
    return Schedule(machines=machines,
                    objective=max(mach.completion for mach in machines))


def solve_cmax(inst: SchedulingInstance) -> Schedule:
    """Minimise the makespan; returns an optimal schedule.

    Feasibility of a makespan guess is monotone (any schedule for T also
    witnesses every T' >= T), so ``core.least_feasible`` bisects the
    candidates for the least feasible one and returns the schedule
    decided there.  It searches only a certified bracket: from the first
    candidate at or above ``max(mass / total speed, p_max / s_max)``,
    which no schedule beats, up to the makespan of ``lpt_schedule``,
    which is feasible and at most twice the optimum.  The greedy schedule
    is a bound only; the answer always comes from ``decide_guess``.
    """
    candidates, denom = _candidate_values(inst)
    total_speed = sum(speed * count for speed, count in zip(inst.s, inst.m))
    floor = max(-(-inst.mass * denom // total_speed),
                inst.p_max * (denom // max(inst.s)))
    greedy = lpt_schedule(inst)
    verify_schedule(inst, greedy, OBJECTIVE_CMAX)
    top = max(mach.load * (denom // mach.speed) for mach in greedy.machines)
    lo = bisect_left(candidates, floor)
    _, best, decided = least_feasible(
        lo, bisect_left(candidates, top), lambda i: decide_guess(
            inst, Fraction(candidates[i], denom), OBJECTIVE_CMAX))
    if best is None:
        raise ScheduleError("no feasible makespan among candidate values")
    log.debug("cmax bracket [%s, %s]: %d guesses decided",
              Fraction(candidates[lo], denom), Fraction(top, denom), decided)
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
    for decided, num in enumerate(reversed(candidates[:top]), 1):
        sched = decide_guess(inst, Fraction(num, denom), OBJECTIVE_CMIN)
        if sched is not None:
            log.debug("cmin scan from %s: %d guesses decided", bound, decided)
            log.info("cmin optimum %s after scanning from %s", sched.objective,
                     bound)
            return sched
    raise ScheduleError("cover value 0 must always be achievable")
