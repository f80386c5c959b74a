"""Seeded workloads for the nfold benchmark.

Each workload is a fixed list of items built from ``--seed``.  An item is
one library call (the timed part) plus an answer check that runs outside
the timing.  The library only ever sees the generated inputs.

Why the generators look the way they do: the benchmark compares runs
made with different seeds, so a seed must change the inputs without
changing how much work they take.  Fully random matrices do not do
that (a random 2x3 brick pair ranges over 1.6 s to 9.8 s of solve
time), so every generator draws from a family whose instances cost the
same: the seed picks orientations, column orders, labels and the
planted point, never the shape of the search.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from nfold.closest_string import solve_closest
from nfold.core import STATUS_FEASIBLE, NFoldInstance, verify_solution
from nfold.driver import solve
from nfold.imbalance import Graph, ordering_imbalance, solve_imbalance
from nfold.scheduling import (
    OBJECTIVE_CMAX,
    OBJECTIVE_CMIN,
    SchedulingInstance,
    solve_cmax,
    solve_cmin,
    verify_schedule,
)


@dataclass
class Item:
    """One timed library call and the check of its answer.

    ``layer`` names the front end the call enters (``None`` for a bare
    engine solve); ``check`` returns an error message or ``None`` and
    ``summary`` the exact optimum that goes into the answer digest.
    """

    name: str
    layer: str | None
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    summary: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# core-wide / core-deep: planted feasibility programs
# ---------------------------------------------------------------------------

WIDE_BRICKS = 24
# Both targets give three levels: with delta = 2 the support bound is
# K = 16 for r = 1 (three levels for b in 49..112) and K = 27 for r = 2
# (three levels for b in 82..189).
WIDE_TARGET = 100
DEEP_TARGET = 150
PLANT_MOVES = 30

# The two bricks of a deep instance: a line of columns and a brick with a
# repeated column.  Its level sets are wide enough that the cross-level
# combine scans, which is what this workload is for.  The seed applies one
# of the eight symmetries of the square {0,1,2}^2 to both bricks (mixing
# orientations within an instance moves the cost by several times).
DEEP_BRICKS = (((1, 1), (0, 1), (2, 1)), ((1, 1), (1, 1), (2, 0)))
SQUARE_SYMMETRIES = (
    lambda x, y: (x, y),
    lambda x, y: (2 - x, y),
    lambda x, y: (x, 2 - y),
    lambda x, y: (2 - x, 2 - y),
    lambda x, y: (y, x),
    lambda x, y: (2 - y, x),
    lambda x, y: (y, 2 - x),
    lambda x, y: (2 - y, 2 - x),
)


def _interior_counts(rng: random.Random, total: int, width: int) -> list[int]:
    """A brick vector near the centre of its simplex.

    Planting near the centre keeps ``b_up`` away from the edge of the
    reachable region, where the retained level sets (and the cost) shrink.
    """
    counts = [total // width] * width
    for i in range(total - sum(counts)):
        counts[i] += 1
    for _ in range(PLANT_MOVES):
        i, j = rng.sample(range(width), 2)
        if counts[i] > 0:
            counts[i] -= 1
            counts[j] += 1
    return counts


def planted_instance(
    rng: random.Random, column_sets: list[list[tuple[int, ...]]], target: int
) -> NFoldInstance:
    """Feasible program: one brick per column set, ``b_up`` from a planted x."""
    r = len(column_sets[0][0])
    blocks, x = [], []
    for cols in column_sets:
        blocks.append(tuple(tuple(col[j] for col in cols) for j in range(r)))
        x.extend(_interior_counts(rng, target, len(cols)))
    b_up = [0] * r
    offset = 0
    for block in blocks:
        for j in range(r):
            b_up[j] += sum(e * v for e, v in zip(block[j], x[offset:]))
        offset += len(block[0])
    return NFoldInstance(
        n=len(blocks),
        r=r,
        t=tuple(len(cols) for cols in column_sets),
        blocks=tuple(blocks),
        b_up=tuple(b_up),
        b_low=(target,) * len(blocks),
    )


def _wide_instance(rng: random.Random) -> NFoldInstance:
    sets = []
    for _ in range(WIDE_BRICKS):
        cols = [(0,), (1,), (2,)]
        rng.shuffle(cols)
        sets.append(cols)
    return planted_instance(rng, sets, WIDE_TARGET)


def _deep_instance(rng: random.Random) -> NFoldInstance:
    sym = rng.choice(SQUARE_SYMMETRIES)
    sets = []
    for brick in DEEP_BRICKS:
        cols = [sym(*pt) for pt in brick]
        rng.shuffle(cols)
        sets.append(cols)
    return planted_instance(rng, sets, DEEP_TARGET)


def _feasibility_item(name: str, inst: NFoldInstance) -> Item:
    def check(outcome) -> str | None:
        if outcome.status != STATUS_FEASIBLE:
            return f"planted program reported {outcome.status}"
        if not verify_solution(inst, outcome.solution.x):
            return "witness fails verify_solution"
        return None

    return Item(
        name=name,
        layer=None,
        run=lambda: solve(inst, mode="feasibility"),
        check=check,
        summary=lambda outcome: outcome.status,
    )


# ---------------------------------------------------------------------------
# apps-feas: scheduling and closest string
# ---------------------------------------------------------------------------

SCHEDULING = dict(p=(3, 5, 7), n=(10, 8, 6), s=(1, 2, 3), m=(2, 2, 1))
# Optima of the fixed SCHEDULING instance, pinned from the seed code.
SCHEDULING_OPTIMA = {OBJECTIVE_CMAX: Fraction(38, 3), OBJECTIVE_CMIN: Fraction(12)}
STRINGS, STRING_LENGTH, ALPHABET = 5, 8, "abc"
# Radius 5 makes the front end try d = 4, 6, 5 and build the large slack
# brick; radius 4 tries 4, 2, 3.  One of each keeps that mix fixed.
STRING_RADII = (5, 4)


def min_radius(strings: list[str]) -> int:
    """Exact closest-string radius by branch and bound over centres."""
    length = len(strings[0])
    best = length

    def search(pos: int, dist: list[int]) -> None:
        nonlocal best
        if max(dist) >= best:
            return
        if pos == length:
            best = max(dist)
            return
        for ch in ALPHABET:
            search(pos + 1, [d + (s[pos] != ch) for d, s in zip(dist, strings)])

    search(0, [0] * len(strings))
    return best


def _strings_with_radius(rng: random.Random, radius: int) -> list[str]:
    while True:
        strings = [
            "".join(rng.choice(ALPHABET) for _ in range(STRING_LENGTH))
            for _ in range(STRINGS)
        ]
        if min_radius(strings) == radius:
            return strings


def _scheduling_item(objective: str) -> Item:
    inst = SchedulingInstance.build(**SCHEDULING)
    solver = solve_cmax if objective == OBJECTIVE_CMAX else solve_cmin

    def check(sched) -> str | None:
        try:
            verify_schedule(inst, sched, objective)
        except ValueError as exc:
            return f"verify_schedule: {exc}"
        if sched.objective != SCHEDULING_OPTIMA[objective]:
            return f"{objective} {sched.objective} != pinned {SCHEDULING_OPTIMA[objective]}"
        return None

    return Item(
        name=f"schedule-{objective}",
        layer="scheduling",
        run=lambda: solver(inst),
        check=check,
        summary=lambda sched: str(sched.objective),
    )


def _closest_item(strings: list[str], radius: int) -> Item:
    def check(answer) -> str | None:
        d, center = answer
        if len(center) != STRING_LENGTH or set(center) - set(ALPHABET):
            return f"centre {center!r} is not a length-{STRING_LENGTH} string over {ALPHABET}"
        worst = max(sum(a != b for a, b in zip(center, s)) for s in strings)
        if worst != d:
            return f"centre has Hamming radius {worst}, reported {d}"
        if d != radius:
            return f"radius {d} != exact radius {radius}"
        return None

    return Item(
        name=f"closest-r{radius}",
        layer="closest_string",
        run=lambda: solve_closest(strings),
        check=check,
        summary=lambda answer: answer[0],
    )


# ---------------------------------------------------------------------------
# imbalance-opt: minimum imbalance, vertex cover k = 4 on 16 vertices
# ---------------------------------------------------------------------------

GRAPHS, COVER, VERTICES = 2, 4, 16
# Every pair of cover vertices shares two private neighbours, and the
# cover carries a perfect matching: all such graphs are isomorphic, so
# the optimum is fixed.  Pinned from the seed code.
IMBALANCE_OPTIMUM = 16


def _design_graph(rng: random.Random) -> Graph:
    labels = list(range(VERTICES))
    rng.shuffle(labels)
    cover, others = labels[:COVER], labels[COVER:]
    hoods = list(itertools.combinations(range(COVER), 2)) * 2
    rng.shuffle(hoods)
    edges = [(cover[i], w) for w, hood in zip(others, hoods) for i in hood]
    order = rng.sample(cover, COVER)
    edges += [(order[0], order[1]), (order[2], order[3])]
    return Graph.build(labels, edges)


def _imbalance_item(name: str, graph: Graph) -> Item:
    def check(result) -> str | None:
        if len(result.cover) != COVER:
            return f"cover of size {len(result.cover)}, expected {COVER}"
        try:
            actual = ordering_imbalance(graph, result.ordering)
        except ValueError as exc:
            return f"ordering: {exc}"
        if actual != result.value:
            return f"ordering scores {actual}, reported {result.value}"
        if result.value != IMBALANCE_OPTIMUM:
            return f"imbalance {result.value} != pinned {IMBALANCE_OPTIMUM}"
        return None

    return Item(
        name=name,
        layer="imbalance",
        run=lambda: solve_imbalance(graph),
        check=check,
        summary=lambda result: result.value,
    )


# ---------------------------------------------------------------------------


def _core_wide(rng: random.Random) -> list[Item]:
    return [_feasibility_item("wide-0", _wide_instance(rng))]


def _core_deep(rng: random.Random) -> list[Item]:
    return [_feasibility_item("deep-0", _deep_instance(rng))]


def _apps_feas(rng: random.Random) -> list[Item]:
    items = [_scheduling_item(OBJECTIVE_CMAX), _scheduling_item(OBJECTIVE_CMIN)]
    for radius in STRING_RADII:
        items.append(_closest_item(_strings_with_radius(rng, radius), radius))
    return items


def _imbalance_opt(rng: random.Random) -> list[Item]:
    return [_imbalance_item(f"graph-{i}", _design_graph(rng)) for i in range(GRAPHS)]


WORKLOADS: dict[str, Callable[[random.Random], list[Item]]] = {
    "core-wide": _core_wide,
    "core-deep": _core_deep,
    "apps-feas": _apps_feas,
    "imbalance-opt": _imbalance_opt,
}


def build(workload: str, seed: int) -> list[Item]:
    """The item list of ``workload`` for ``seed``; equal seeds, equal inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
