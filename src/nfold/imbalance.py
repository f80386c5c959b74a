"""Minimum imbalance vertex ordering for small-cover graphs.

The imbalance of an ordering is the sum over vertices of the absolute
difference between neighbours placed earlier and neighbours placed later.
With a vertex cover ``C`` of size ``k`` in hand, every optimal ordering is
determined up to (a) the relative order of the cover vertices and (b) the
slot — one of the ``k + 1`` gaps around them — that each remaining vertex
lands in, because the remainder is an independent set whose members never
see each other.

For each of the ``k!`` cover orders we compile slot assignment into a
block program: one brick per *neighbourhood type* (distinct ``N(w)`` over
independent vertices) selecting slot counts, plus one brick per cover
vertex splitting its signed imbalance into positive and negative parts
whose sum is the absolute value once minimised.  The engine maximises, so
costs are flipped against a constant ceiling and the true minimum is
recovered afterwards.  Reversing a full ordering never changes its score,
so only half the cover orders need solving.  The best value over them is
exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import permutations
from typing import Hashable, Iterable, Optional, Sequence

from .core import NFoldInstance, STATUS_OPTIMAL
from .driver import solve as ilp_solve

log = logging.getLogger(__name__)

Vertex = Hashable

DEFAULT_COVER_LIMIT = 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over sortable vertex labels."""

    vertices: tuple[Vertex, ...]
    edges: frozenset[tuple[Vertex, Vertex]]

    _adjacency: dict[Vertex, tuple[Vertex, ...]] = field(
        init=False, repr=False, compare=False)

    @classmethod
    def build(cls, vertices: Iterable[Vertex],
              edges: Iterable[Sequence[Vertex]]) -> "Graph":
        """Normalise labels and edges; rejects loops and unknown endpoints."""
        verts = tuple(sorted(set(vertices)))
        known = set(verts)
        norm = set()
        for edge in edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on {u!r} not allowed")
            if u not in known or v not in known:
                raise ValueError(f"edge {edge!r} uses unknown vertices")
            norm.add((u, v) if u <= v else (v, u))
        return cls(vertices=verts, edges=frozenset(norm))

    def __post_init__(self) -> None:
        # Built once, with the graph; kept as tuples, since a set of more
        # than four members is a separate heap block, and holding one per
        # vertex raised the peak RSS of the imbalance benchmark.
        adjacent: dict[Vertex, set[Vertex]] = {}
        for a, b in self.edges:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
        object.__setattr__(self, "_adjacency", {
            v: tuple(ws) for v, ws in adjacent.items()})

    def neighbours(self, v: Vertex) -> set[Vertex]:
        return set(self._adjacency.get(v, ()))


def _cover_branch(edges: list[tuple[Vertex, Vertex]], budget: int,
                  chosen: tuple[Vertex, ...]) -> Optional[tuple[Vertex, ...]]:
    """Branch on an uncovered edge's two endpoints."""
    if not edges:
        return chosen
    if budget == 0:
        return None
    u, v = min(edges)
    for pick in (u, v):
        rest = [e for e in edges if pick not in e]
        got = _cover_branch(rest, budget - 1, chosen + (pick,))
        if got is not None:
            return got
    return None


def vertex_cover(graph: Graph, k_max: int = DEFAULT_COVER_LIMIT) -> tuple[
        Vertex, ...]:
    """Smallest vertex cover, found by deepening the branching budget.

    Raises
    ------
    ValueError
        If no cover of size at most ``k_max`` exists.
    """
    edges = sorted(graph.edges)
    for budget in range(k_max + 1):
        got = _cover_branch(edges, budget, ())
        if got is not None:
            return tuple(sorted(got))
    raise ValueError(f"graph has no vertex cover of size <= {k_max}")


def ordering_imbalance(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """Exact imbalance of a complete vertex ordering."""
    if sorted(ordering) != list(graph.vertices):
        raise ValueError("ordering must list every vertex exactly once")
    position = {v: i for i, v in enumerate(ordering)}
    total = 0
    for v in graph.vertices:
        before = after = 0
        for w in graph.neighbours(v):
            if position[w] < position[v]:
                before += 1
            else:
                after += 1
        total += abs(before - after)
    return total


def build_ordering_ilp(graph: Graph, cover_order: Sequence[Vertex]) -> tuple[
        NFoldInstance, list[tuple[tuple[int, ...], int]], int, int]:
    """Compile slot assignment for one fixed order of the cover vertices.

    Row ``i`` tracks the signed imbalance of the i-th cover vertex: slot
    columns contribute +1 per earlier neighbour and -1 per later one, and
    the vertex's own brick splits the total into a positive and a negative
    part.  Since both parts cost one unit apiece, minimisation drives one
    of them to zero, leaving their sum equal to the absolute imbalance.

    Returns the program, the neighbourhood types as (cover-index tuple,
    multiplicity) pairs in brick order, the cost ceiling used to flip
    minimisation into maximisation, and the total brick mass (the sum of
    all per-brick totals, needed to invert the flip).
    """
    k = len(cover_order)
    if k == 0:
        raise ValueError("cover order must be nonempty")
    cover_pos = {v: i + 1 for i, v in enumerate(cover_order)}  # 1-based
    independents = [v for v in graph.vertices if v not in cover_pos]

    # e_i: signed count of cover neighbours before/after cover vertex i.
    e = []
    degrees = []
    for i, v in enumerate(cover_order, start=1):
        balance = 0
        for w in graph.neighbours(v):
            j = cover_pos.get(w)
            if j is None:
                continue
            balance += 1 if j < i else -1
        e.append(balance)
        degrees.append(len(graph.neighbours(v)))

    types: dict[tuple[int, ...], int] = {}
    for w in independents:
        hood = tuple(sorted(cover_pos[u] for u in graph.neighbours(w)))
        types[hood] = types.get(hood, 0) + 1
    type_list = sorted(types.items())

    blocks: list[tuple[tuple[int, ...], ...]] = []
    widths: list[int] = []
    b_low: list[int] = []
    costs: list[list[int]] = []
    for hood, count in type_list:
        cols: list[list[int]] = []
        cost_row: list[int] = []
        members = set(hood)
        for slot in range(k + 1):
            col = [0] * k
            for i in members:
                col[i - 1] = 1 if slot < i else -1
            cols.append(col)
            before = sum(1 for i in members if i <= slot)
            cost_row.append(abs(before - (len(members) - before)))
        blocks.append(tuple(tuple(col[r] for col in cols) for r in range(k)))
        widths.append(k + 1)
        b_low.append(count)
        costs.append(cost_row)
    for i in range(1, k + 1):
        # Positive part, negative part, and an open column up to the
        # vertex's degree, which its imbalance can never exceed.
        cols = [[0] * k, [0] * k, [0] * k]
        cols[0][i - 1] = -1
        cols[1][i - 1] = 1
        blocks.append(tuple(tuple(c[r] for c in cols) for r in range(k)))
        widths.append(3)
        b_low.append(degrees[i - 1])
        costs.append([1, 1, 0])

    ceiling = max(value for cost_row in costs for value in cost_row)
    flat_costs = tuple(ceiling - value
                       for cost_row in costs for value in cost_row)
    inst = NFoldInstance(n=len(blocks), r=k, t=tuple(widths),
                         blocks=tuple(blocks), b_up=tuple(-v for v in e),
                         b_low=tuple(b_low), c=flat_costs)
    return inst, type_list, ceiling, sum(b_low)


def _ordering_from_solution(graph: Graph, cover_order: Sequence[Vertex],
                            type_list: list[tuple[tuple[int, ...], int]],
                            x: tuple[int, ...]) -> list[Vertex]:
    """Expand slot counts back into a concrete vertex ordering."""
    k = len(cover_order)
    cover_pos = {v: i + 1 for i, v in enumerate(cover_order)}
    by_type: dict[tuple[int, ...], list[Vertex]] = {}
    for w in graph.vertices:
        if w in cover_pos:
            continue
        hood = tuple(sorted(cover_pos[u] for u in graph.neighbours(w)))
        by_type.setdefault(hood, []).append(w)
    buckets: list[list[Vertex]] = [[] for _ in range(k + 1)]
    offset = 0
    for hood, count in type_list:
        counts = x[offset:offset + k + 1]
        offset += k + 1
        pool = sorted(by_type.get(hood, []))
        if sum(counts) != len(pool):
            raise AssertionError("slot counts do not cover a type's vertices")
        at = 0
        for slot, times in enumerate(counts):
            for _ in range(times):
                buckets[slot].append(pool[at])
                at += 1
    ordering: list[Vertex] = []
    for slot in range(k + 1):
        ordering.extend(sorted(buckets[slot]))
        if slot < k:
            ordering.append(cover_order[slot])
    return ordering


def _best_for_cover_order(graph: Graph,
                          cover_order: tuple[Vertex, ...]) -> tuple[
        int, list[Vertex]]:
    """Optimal imbalance achievable with this relative cover order."""
    inst, type_list, ceiling, brick_mass = build_ordering_ilp(
        graph, cover_order)
    outcome = ilp_solve(inst, mode="optimize")
    if outcome.status != STATUS_OPTIMAL:
        raise AssertionError(
            "slot assignment program must always be feasible")
    predicted = ceiling * brick_mass - outcome.solution.objective
    ordering = _ordering_from_solution(graph, cover_order, type_list,
                                       outcome.solution.x)
    actual = ordering_imbalance(graph, ordering)
    if actual != predicted:
        raise AssertionError(
            f"decoded ordering scores {actual}, program promised {predicted}")
    return actual, ordering


@dataclass(frozen=True)
class ImbalanceResult:
    value: int
    ordering: tuple[Vertex, ...]
    cover: tuple[Vertex, ...]


def solve_imbalance(graph: Graph, *,
                    k_max: int = DEFAULT_COVER_LIMIT) -> ImbalanceResult:
    """Minimum imbalance over all vertex orderings, with a witness.

    Cover orders are solved one after another, one exact optimize-mode
    solve each: the engine is pure Python, and the interpreter lock lets
    only one thread run Python code at a time.  Among equal values the
    smallest ordering wins, so every run returns the same result.

    Parameters
    ----------
    graph : Graph
        Input graph; needs a vertex cover of size at most ``k_max``.
    k_max : int
        Cover size budget for the branching search.
    """
    if not graph.edges:
        return ImbalanceResult(value=0, ordering=graph.vertices, cover=())
    cover = vertex_cover(graph, k_max=k_max)
    # Reversing an ordering reverses every before/after pair, so the score
    # is unchanged; one cover order per reversal class suffices.
    orders = [order for order in permutations(cover)
              if order <= tuple(reversed(order))]
    best_value, best_ordering = None, None
    for order in orders:
        value, ordering = _best_for_cover_order(graph, order)
        if best_value is None or value < best_value or (
                value == best_value and ordering < best_ordering):
            best_value, best_ordering = value, ordering
    log.info("imbalance %d via cover %r over %d cover orders", best_value,
             cover, len(orders))
    return ImbalanceResult(value=best_value, ordering=tuple(best_ordering),
                           cover=cover)
