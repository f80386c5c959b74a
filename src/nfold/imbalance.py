"""Minimum imbalance vertex ordering for small-cover graphs.

The imbalance of an ordering is the sum over vertices of the absolute
difference between neighbours placed earlier and neighbours placed later.
With a vertex cover ``C`` of size ``k`` in hand, every optimal ordering is
determined up to (a) the relative order of the cover vertices and (b) the
slot — one of the ``k + 1`` gaps around them — that each remaining vertex
lands in, because the remainder is an independent set whose members never
see each other.

For each of the ``k!`` cover orders we compile slot assignment into a
block program with no negative entry: one brick per *neighbourhood type*
(distinct ``N(w)`` over independent vertices) selecting slot counts, plus
one brick per cover vertex ``i`` whose ``deg(i)`` units split into
``pos + neg + open``.  Row ``i`` reads ``2·(earlier independent
neighbours) + 2·neg + open = 2·(deg(i) − earlier cover neighbours)``,
which with the unit count gives ``pos − neg = earlier − later``; both
parts cost one unit apiece, so once minimised their sum is the absolute
imbalance.  The engine maximises, so costs are flipped against a
constant ceiling and the true minimum is ``offset − objective``.
Reversing a full ordering never changes its score, so only half the
cover orders need solving.  The best value over them is exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice, permutations
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
        """Normalise labels and edges; rejects loops and unknown endpoints.

        An endpoint must be a vertex label itself, of the same type: ``1.0``
        or ``True`` does not name the vertex ``1``.
        """
        verts = tuple(sorted(set(vertices)))
        label = {v: v for v in verts}
        norm = set()
        for edge in edges:
            u, v = edge
            if not all(end in label and type(label[end]) is type(end)
                       for end in (u, v)):
                raise ValueError(f"edge {edge!r} uses unknown vertices")
            if u == v:
                raise ValueError(f"self-loop on {u!r} not allowed")
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
        NFoldInstance, list[tuple[tuple[int, ...], list[Vertex]]], int]:
    """Compile slot assignment for one fixed order of the cover vertices.

    Slot column ``s`` of a type has entry 2 on row ``i`` when cover vertex
    ``i`` (1-based) is in the type's neighbourhood and ``s < i``, else 0.
    Cover vertex ``i``'s brick places ``deg(i)`` units on its columns
    ``(pos, neg, open)``, which are ``(0, 2, 1)`` on row ``i`` and 0 on
    every other row; row ``i`` targets ``2·(deg(i) − earlier cover
    neighbours)``.

    Returns the program, the neighbourhood types in brick order as
    (cover-position tuple, sorted independent members) pairs, and the
    offset that undoes the cost flip: the imbalance is ``offset −
    objective``.
    """
    k = len(cover_order)
    if k == 0:
        raise ValueError("cover order must be nonempty")
    cover_pos = {v: i for i, v in enumerate(cover_order, start=1)}
    by_hood: dict[tuple[int, ...], list[Vertex]] = {}
    for w in graph.vertices:
        if w not in cover_pos:
            hood = tuple(sorted(cover_pos[u] for u in graph.neighbours(w)))
            by_hood.setdefault(hood, []).append(w)
    types = sorted(by_hood.items())

    blocks: list[tuple[tuple[int, ...], ...]] = []
    b_low: list[int] = []
    costs: list[list[int]] = []
    for hood, members in types:
        blocks.append(tuple(
            tuple(2 if i in hood and slot < i else 0 for slot in range(k + 1))
            for i in range(1, k + 1)))
        b_low.append(len(members))
        costs.append([abs(len(hood) - 2 * sum(i <= slot for i in hood))
                      for slot in range(k + 1)])
    b_up: list[int] = []
    for i, v in enumerate(cover_order, start=1):
        around = graph.neighbours(v)
        earlier = sum(1 for u in around
                      if u in cover_pos and cover_pos[u] < i)
        b_up.append(2 * (len(around) - earlier))
        # Positive part, negative part, and an open column up to the
        # vertex's degree, which its imbalance can never exceed.
        blocks.append(tuple((0, 2, 1) if row == i else (0, 0, 0)
                            for row in range(1, k + 1)))
        b_low.append(len(around))
        costs.append([1, 1, 0])

    ceiling = max(max(cost_row) for cost_row in costs)
    inst = NFoldInstance(n=len(blocks), r=k,
                         t=tuple(len(cost_row) for cost_row in costs),
                         blocks=tuple(blocks), b_up=tuple(b_up),
                         b_low=tuple(b_low),
                         c=tuple(ceiling - value for cost_row in costs
                                 for value in cost_row))
    return inst, types, ceiling * sum(b_low)


def _ordering_from_solution(cover_order: Sequence[Vertex],
                            types: list[tuple[tuple[int, ...], list[Vertex]]],
                            x: tuple[int, ...]) -> list[Vertex]:
    """Expand slot counts back into a concrete vertex ordering."""
    k = len(cover_order)
    buckets: list[list[Vertex]] = [[] for _ in range(k + 1)]
    for start, (_, members) in zip(range(0, len(x), k + 1), types):
        counts = x[start:start + k + 1]
        if sum(counts) != len(members):
            raise AssertionError("slot counts do not cover a type's vertices")
        pool = iter(members)
        for slot, times in enumerate(counts):
            buckets[slot].extend(islice(pool, times))
    ordering: list[Vertex] = []
    for slot in range(k + 1):
        ordering.extend(sorted(buckets[slot]))
        if slot < k:
            ordering.append(cover_order[slot])
    return ordering


def _best_for_cover_order(graph: Graph, cover_order: tuple[Vertex, ...], *,
                          base_memo: dict | None = None) -> tuple[
        int, list[Vertex]]:
    """Optimal imbalance achievable with this relative cover order."""
    inst, types, offset = build_ordering_ilp(graph, cover_order)
    outcome = ilp_solve(inst, mode="optimize", base_memo=base_memo)
    if outcome.status != STATUS_OPTIMAL:
        raise AssertionError(
            "slot assignment program must always be feasible")
    predicted = offset - outcome.solution.objective
    ordering = _ordering_from_solution(cover_order, types, outcome.solution.x)
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
    only one thread run Python code at a time.  They share one
    base-table memo, which never changes the witness a solve returns.

    Ties: within a cover order they follow the engine's fold order, and
    among equal values the smallest per-order witness wins.  Every run
    returns the same result, though not always the smallest optimal
    ordering.

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
    base_memo: dict = {}
    for order in orders:
        value, ordering = _best_for_cover_order(graph, order,
                                                base_memo=base_memo)
        if best_value is None or value < best_value or (
                value == best_value and ordering < best_ordering):
            best_value, best_ordering = value, ordering
    log.info("imbalance %d via cover %r over %d cover orders", best_value,
             cover, len(orders))
    return ImbalanceResult(value=best_value, ordering=tuple(best_ordering),
                           cover=cover)
