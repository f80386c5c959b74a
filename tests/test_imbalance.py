"""Tests for the minimum-imbalance ordering front end."""

from __future__ import annotations

import itertools
import random

import pytest

import nfold.imbalance
from nfold.core import STATUS_OPTIMAL, NFoldInstance
from nfold.driver import solve as ilp_solve
from nfold.imbalance import (
    Graph,
    build_ordering_ilp,
    ordering_imbalance,
    solve_imbalance,
    vertex_cover,
)
from nfold.reduction import reduce_instance

from helpers import imbalance_reference, min_cover_size, random_small_graph


def path3() -> Graph:
    return Graph.build("abc", [("a", "b"), ("b", "c")])


def star4() -> Graph:
    return Graph.build(range(4), [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# graph plumbing


def test_build_normalises_edges():
    g = Graph.build([2, 0, 1], [(1, 0), (0, 1), (2, 1)])
    assert g.vertices == (0, 1, 2)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.build([0, 1], [(0, 0)])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="unknown"):
        Graph.build([0, 1], [(0, 2)])


@pytest.mark.parametrize("edge", [(0, 1.0), (0, True), (1.0, 2), (True, 0)])
def test_build_rejects_an_endpoint_only_equal_to_a_label(edge):
    # 1.0 == True == 1, but none of them is the vertex 1
    with pytest.raises(ValueError, match="unknown"):
        Graph.build(range(3), [edge])


def test_neighbours():
    g = path3()
    assert g.neighbours("b") == {"a", "c"}
    assert g.neighbours("a") == {"b"}


# ---------------------------------------------------------------------------
# vertex cover


def test_cover_of_path_is_middle_vertex():
    assert vertex_cover(path3()) == ("b",)


def test_cover_of_triangle_has_two_vertices():
    g = Graph.build(range(3), [(0, 1), (1, 2), (0, 2)])
    cover = vertex_cover(g)
    assert len(cover) == 2
    assert all(u in cover or v in cover for u, v in g.edges)


def test_cover_respects_budget():
    # K5 needs 4 cover vertices.
    g = Graph.build(range(5), [(u, v) for u in range(5)
                               for v in range(u + 1, 5)])
    with pytest.raises(ValueError, match="no vertex cover of size <= 2"):
        vertex_cover(g, k_max=2)
    assert len(vertex_cover(g, k_max=4)) == 4


def test_cover_is_minimum_on_random_graphs():
    rng = random.Random(424)
    for _ in range(20):
        n, edges = random_small_graph(rng)
        g = Graph.build(range(n), edges)
        cover = vertex_cover(g, k_max=n)
        assert all(u in cover or v in cover for u, v in edges)
        assert len(cover) == min_cover_size(n, edges)


# ---------------------------------------------------------------------------
# scoring


def test_ordering_imbalance_path():
    g = path3()
    # endpoints each see one lopsided neighbour; the middle is balanced
    assert ordering_imbalance(g, ["a", "b", "c"]) == 2
    # now "a" sits between nothing and "b"; "b" has both neighbours after?
    # b,a,c: a sees b earlier (1), b sees a and c later (2), c sees b
    # earlier (1) -> total 4.
    assert ordering_imbalance(g, ["b", "a", "c"]) == 4


def test_ordering_imbalance_requires_permutation():
    with pytest.raises(ValueError):
        ordering_imbalance(path3(), ["a", "b"])
    with pytest.raises(ValueError):
        ordering_imbalance(path3(), ["a", "b", "b"])


# ---------------------------------------------------------------------------
# slot-assignment compilation


def test_build_ordering_ilp_path_shape():
    g = path3()
    inst, types, offset = build_ordering_ilp(g, ("b",))
    # both leaves share the neighbourhood {b}, so one type with both of
    # them, plus the single cover vertex's split brick
    assert types == [((1,), ["a", "c"])]
    assert inst.n == 2
    assert inst.r == 1
    # a leaf in slot 0 sits before b; b's brick is (pos, neg, open)
    assert inst.blocks == (((2, 0),), ((0, 2, 1),))
    assert inst.b_up == (4,)  # 2 * deg(b): no earlier cover neighbour
    assert inst.t == (2, 3)
    assert inst.b_low == (2, 2)  # two leaves; degree of b
    assert offset == 4  # ceiling 1 times the four units


def test_compiled_program_value_matches_direct_score():
    # solve the compiled program for a fixed cover order and undo the
    # cost flip; the result must equal the best direct score with "b"
    # second (or its reverse)
    g = path3()
    inst, _, offset = build_ordering_ilp(g, ("b",))
    outcome = ilp_solve(inst, mode="optimize")
    assert outcome.status == STATUS_OPTIMAL
    assert offset - outcome.solution.objective == 2


def test_slot_program_is_nonnegative_and_built_once_per_cover_order(monkeypatch):
    """The program reaches the engine as built: no entry is negative, so
    the sign reduction hands it through, and a solve builds exactly one
    ``NFoldInstance`` per cover order."""
    graph = Graph.build(range(9), [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4),
                                   (2, 5), (3, 6), (0, 7), (3, 7), (1, 8)])
    for order in itertools.permutations(vertex_cover(graph)):
        inst, _, _ = build_ordering_ilp(graph, order)
        assert all(entry >= 0 for block in inst.blocks for row in block
                   for entry in row)
        assert reduce_instance(inst).instance is inst

    built, orders = [], []
    real_init = NFoldInstance.__post_init__
    real_best = nfold.imbalance._best_for_cover_order

    def counting_init(self):
        built.append(self)
        real_init(self)

    def counting_best(graph, order, **kwargs):
        orders.append(order)
        return real_best(graph, order, **kwargs)

    monkeypatch.setattr(NFoldInstance, "__post_init__", counting_init)
    monkeypatch.setattr(nfold.imbalance, "_best_for_cover_order", counting_best)
    solve_imbalance(graph)
    assert len(orders) == 12  # 4! cover orders, one per reversal pair
    assert len(built) == len(orders)


def test_each_cover_order_optimum_matches_brute_force():
    """``offset - objective`` is the least imbalance over the orderings
    that keep the cover vertices in the given relative order, for every
    cover order, not only the best one."""
    rng = random.Random(2718)
    graphs = 0
    while graphs < 20:
        n, edges = random_small_graph(rng)
        if n > 7 or not edges:
            continue
        graphs += 1
        graph = Graph.build(range(n), edges)
        cover = vertex_cover(graph, k_max=n)
        best: dict[tuple[int, ...], int] = {}
        for perm in itertools.permutations(range(n)):
            order = tuple(v for v in perm if v in cover)
            score = ordering_imbalance(graph, perm)
            best[order] = min(score, best.get(order, score))
        for order, want in best.items():
            inst, _, offset = build_ordering_ilp(graph, order)
            outcome = ilp_solve(inst, mode="optimize")
            assert outcome.status == STATUS_OPTIMAL
            assert offset - outcome.solution.objective == want, (n, edges, order)


def test_build_ordering_ilp_rejects_empty_cover():
    with pytest.raises(ValueError):
        build_ordering_ilp(path3(), ())


# ---------------------------------------------------------------------------
# end-to-end fixtures


def test_path_imbalance_is_two():
    result = solve_imbalance(path3())
    assert result.value == 2
    assert result.cover == ("b",)
    assert ordering_imbalance(path3(), result.ordering) == 2


def test_single_edge_imbalance_is_two():
    g = Graph.build([0, 1], [(0, 1)])
    result = solve_imbalance(g)
    assert result.value == 2
    assert ordering_imbalance(g, result.ordering) == 2


def test_star_imbalance_is_four():
    result = solve_imbalance(star4())
    assert result.value == 4
    assert ordering_imbalance(star4(), result.ordering) == 4


def test_triangle_imbalance_is_four():
    g = Graph.build(range(3), [(0, 1), (1, 2), (0, 2)])
    result = solve_imbalance(g)
    assert result.value == 4


def test_edgeless_graph_is_free():
    g = Graph.build(range(4), [])
    result = solve_imbalance(g)
    assert result.value == 0
    assert result.cover == ()
    assert result.ordering == (0, 1, 2, 3)


def test_witness_always_scores_the_reported_value():
    rng = random.Random(97)
    for _ in range(10):
        n, edges = random_small_graph(rng)
        g = Graph.build(range(n), edges)
        result = solve_imbalance(g, k_max=n)
        assert ordering_imbalance(g, result.ordering) == result.value


def test_random_graphs_match_reference():
    rng = random.Random(5050)
    for _ in range(25):
        n, edges = random_small_graph(rng)
        g = Graph.build(range(n), edges)
        result = solve_imbalance(g, k_max=n)
        assert result.value == imbalance_reference(n, edges)


def test_rerun_gives_the_same_answer():
    rng = random.Random(31)
    for _ in range(5):
        n, edges = random_small_graph(rng)
        g = Graph.build(range(n), edges)
        first = solve_imbalance(g, k_max=n)
        again = solve_imbalance(g, k_max=n)
        assert first == again
