"""Point-table engine: base tables, folds and their steps, level sets."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import operator
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import nfold.dp as dp
import nfold.driver
from nfold.bits import bitset, box_mask
from nfold.core import NFoldInstance
from nfold.dp import (
    BlockWitness,
    FrameTable,
    PointTable,
    base_tables_for_level,
    block_base_table,
    fold_tables,
)
from nfold.driver import solve
from nfold.imbalance import Graph, build_ordering_ilp, solve_imbalance
from nfold.oracle import oracle_point_set
from nfold.plan import build_plan
from nfold.scheduling import OBJECTIVE_CMAX, SchedulingInstance, decide_guess

from helpers import small_subproblem_set


def points_of(table: PointTable) -> set[tuple[int, ...]]:
    return set(table.cells)


def decoded_cells(table: PointTable) -> list:
    """A base table's ``(point, (value, counts))`` in dict order."""
    return [
        (pt, (cell[0], table.decode(pt)[0].counts)) for pt, cell in table.cells.items()
    ]


def test_base_table_frozen_points():
    table = block_base_table(((1, 2),), 2)
    assert points_of(table) == {(2,), (3,), (4,)}


def test_base_table_zero_units_is_origin():
    table = block_base_table(((1, 2),), 0)
    assert points_of(table) == {(0,)}
    assert table.value((0,)) == 0


def test_base_table_optimize_values():
    table = block_base_table(((1, 2),), 2, costs=(0, 1))
    assert table.value((3,)) == 1  # one unit on the cost-1 column
    assert table.value((4,)) == 2
    assert table.value((2,)) == 0


def test_base_table_hi_cap_prunes_points():
    table = block_base_table(((1, 2),), 2, hi=(3,))
    assert points_of(table) == {(2,), (3,)}


def test_base_table_rejects_negative_entries():
    with pytest.raises(ValueError, match=">= 0"):
        block_base_table(((-1, 1),), 2, hi=(5,))


def test_base_table_needs_a_column():
    with pytest.raises(ValueError, match="at least one column"):
        block_base_table(((),), 0)


def test_base_table_decode_recovers_counts():
    table = block_base_table(((1, 2),), 2, block_index=4)
    for pt in table.points():
        (witness,) = table.decode(pt)
        assert witness.block == 4
        assert sum(witness.counts) == 2
        assert (sum(c * e for c, e in zip(witness.counts, (1, 2))),) == pt


def fold_pair(a: PointTable, b: PointTable, lo=None, hi=None) -> PointTable:
    """``a + b`` inside ``[lo, hi]``, by default ``reach(a) + reach(b)``:
    a fold of the two tables from the origin, whose steps are
    ``dp.convolve``."""
    (a_lo, a_hi), (b_lo, b_hi) = a.reach(), b.reach()
    lo = tuple(map(operator.add, a_lo, b_lo)) if lo is None else lo
    hi = tuple(map(operator.add, a_hi, b_hi)) if hi is None else hi
    return fold_tables([a, b], lo, hi)


def reference_chain(tables, lo=None, hi=None) -> dict:
    """Every ``q_1 + ... + q_n`` in ``[lo, hi]`` (by default the box of
    the summed reaches) with its best value: a chain of double loops
    (``reference_sumset``) from the first table."""
    r = tables[0].r
    lo = (0,) * r if lo is None else lo
    hi = tuple(map(sum, zip(*(t.reach()[1] for t in tables)))) if hi is None else hi
    partial = {(0,) * r: (0,)}
    for t in tables:
        partial = reference_sumset(partial, t.cells, 1, (0,) * r, hi)
    return {pt: cell[0] for pt, cell in partial.items()
            if all(map(operator.le, lo, pt))}


def test_convolve_frozen_sets():
    a = block_base_table(((0, 1),), 1)  # points {0, 1}
    b = block_base_table(((2,),), 1)  # point {2}
    got = fold_pair(a, b)
    assert points_of(got) == {(2,), (3,)} == set(reference_chain([a, b]))


def test_convolve_with_origin_is_identity_on_points():
    a = block_base_table(((1, 2),), 2)
    origin = block_base_table(((0,),), 0)
    assert points_of(fold_pair(a, origin)) == points_of(a)


def test_convolve_adds_values_max_plus():
    a = block_base_table(((0, 1),), 1, costs=(0, 5))  # {0: 0, 1: 5}
    b = block_base_table(((2,),), 1, costs=(1,))  # {2: 1}
    got = fold_pair(a, b)
    assert got.value((2,)) == 1
    assert got.value((3,)) == 6
    assert value_map(got) == reference_chain([a, b])


def test_convolve_window_filters_results():
    a = block_base_table(((1, 2),), 2)
    b = block_base_table(((1, 2),), 2)
    got = fold_pair(a, b, lo=(5,), hi=(6,))
    assert points_of(got) == {(5,), (6,)}


def test_convolve_window_agrees_with_filtered_full_sum():
    rng = random.Random(17)
    for _ in range(40):
        r = rng.randint(1, 2)
        mk = lambda: block_base_table(
            tuple(tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(r)),
            rng.randint(0, 4),
            costs=tuple(rng.randint(0, 3) for _ in range(2)),
        )
        a, b = mk(), mk()
        lo = (0,) * r
        hi = (rng.randint(2, 9),) * r
        windowed = fold_pair(a, b, lo=lo, hi=hi)
        full = fold_pair(a, b)
        assert value_map(full) == reference_chain([a, b])
        want = {
            pt: cell[0]
            for pt, cell in full.cells.items()
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi))
        }
        assert value_map(windowed) == want == reference_chain([a, b], lo, hi)


def test_convolve_is_commutative_and_associative_on_values():
    """Either table order and either grouping of three tables, each sum
    a fold, has the double loop's point -> value map."""
    rng = random.Random(29)
    for _ in range(25):
        tables = [
            block_base_table(
                ((rng.randint(0, 2), rng.randint(0, 2)),),
                rng.randint(0, 3),
                costs=(rng.randint(0, 3), rng.randint(0, 3)),
            )
            for _ in range(3)
        ]
        a, b, c = tables
        want = reference_chain([a, b])
        assert value_map(fold_pair(a, b)) == want == value_map(fold_pair(b, a))
        want = reference_chain(tables)
        assert value_map(fold_pair(fold_pair(a, b), c)) == want
        assert value_map(fold_pair(a, fold_pair(b, c))) == want


def test_decode_through_pair_tables_recombines():
    a = block_base_table(((1, 2),), 2, block_index=0)
    b = block_base_table(((0, 1),), 1, block_index=1)
    got = fold_pair(a, b)
    for pt in got.points():
        witnesses = got.decode(pt)
        assert [w.block for w in witnesses] == [0, 1]
        total = sum(
            sum(c * e for c, e in zip(w.counts, cols))
            for w, cols in zip(witnesses, ((1, 2), (0, 1)))
        )
        assert (total,) == pt


def test_fold_tables_window_matches_direct_product():
    a = block_base_table(((1, 2),), 2)
    b = block_base_table(((0, 1),), 1)
    folded = fold_tables([a, b], (0,), (10,))
    assert points_of(folded) == {(2,), (3,), (4,), (5,)}


def test_fold_tables_zero_everything_is_origin():
    tables = [block_base_table(((1, 2),), 0), block_base_table(((0, 1),), 0)]
    folded = fold_tables(tables, (0,), (10,))
    assert points_of(folded) == {(0,)}


def test_fold_tables_take_tied_tables_in_position_order(caplog):
    # Points {4, 5, 6}, {0, 1, 2}, {4, 5, 6}: every step ties on cost.
    bricks = (((2, 3),), ((0, 1),), ((2, 3),))
    tables = [block_base_table(b, 2, block_index=k) for k, b in enumerate(bricks)]
    with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        fold_tables(tables, (0,), (20,))
        fold_tables(tables[::2], (0,), (20,))
    assert [rec.getMessage() for rec in caplog.records] == [
        "fold order [0, 1, 2], peak partial 7 cells",
        "fold order [0, 1], peak partial 5 cells",
    ]


def test_fold_tables_empty_window_short_circuits():
    a = block_base_table(((1, 2),), 2)  # min point 2
    b = block_base_table(((1, 2),), 2)
    folded = fold_tables([a, b], (0,), (1,))
    assert len(folded) == 0


@st.composite
def fold_cases(draw):
    """Brick tables, a target window and a permutation of the tables.

    Bricks either vary on all axes or each on its own subset of axes (the
    imbalance shape: shared rows pinned by single-axis bricks); costs in
    0..1 force value ties; ``hi < lo`` on an axis makes the window empty.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    disjoint = draw(st.booleans())
    tables, columns = [], []
    for k in range(n):
        t = draw(st.integers(1, 3))
        axes = (
            draw(st.sets(st.integers(0, r - 1), max_size=2)) if disjoint
            else range(r)
        )
        block = tuple(
            tuple(draw(st.integers(0, 2)) if j in axes else 0 for _ in range(t))
            for j in range(r)
        )
        costs = tuple(draw(st.integers(0, 1)) for _ in range(t))
        placed = draw(st.integers(0, 3))
        tables.append(block_base_table(block, placed, block_index=k, costs=costs))
        columns.append((tuple(zip(*block)), costs))
    lo = tuple(draw(st.integers(0, 6)) for _ in range(r))
    hi = tuple(draw(st.integers(l - 1, l + 8)) for l in lo)
    order = draw(st.permutations(range(n)))
    return tables, columns, lo, hi, order


@settings(max_examples=300, deadline=None)
@given(fold_cases())
def test_fold_value_map_is_independent_of_table_order(case):
    tables, columns, lo, hi, order = case
    want = {
        pt: value
        for pt, value in reference_chain(tables).items()
        if all(l <= v <= h for v, l, h in zip(pt, lo, hi))
    }
    folded = fold_tables([tables[k] for k in order], lo, hi)
    assert {pt: cell[0] for pt, cell in folded.cells.items()} == want
    for pt, (value, *_) in folded.cells.items():
        witnesses = folded.decode(pt)
        assert [w.block for w in witnesses] == list(range(len(tables)))
        total, gain = [0] * len(pt), 0
        for w in witnesses:
            cols, costs = columns[w.block]
            for count, col, cost in zip(w.counts, cols, costs):
                total = [v + count * e for v, e in zip(total, col)]
                gain += count * cost
        assert tuple(total) == pt and gain == value


def test_fold_pins_shared_rows_before_the_partial_grows(caplog, monkeypatch):
    """Largest intermediate partial on one k = 4 imbalance program.

    Cover order (0, 1, 2, 3) of the 16-vertex design graph: every pair of
    cover vertices shares two private neighbours, plus the edges 0-1 and
    2-3.  The six 2-axis neighbourhood-type bricks come first in brick
    order; folded left to right the partial grows to 1,530 points before
    the four 1-axis cover bricks pin each row.  Taking the cheapest step
    first keeps the largest partial at 75 points.  The optimum (16) is
    the same either way.
    """
    cover, others = range(4), range(4, 16)
    hoods = list(itertools.combinations(cover, 2)) * 2
    edges = [(i, w) for w, hood in zip(others, hoods) for i in hood]
    graph = Graph.build(range(16), edges + [(0, 1), (2, 3)])
    inst, _, offset = build_ordering_ilp(graph, (0, 1, 2, 3))

    sizes = []

    def counting(real):
        def step(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.append(len(out))
            return out
        return step

    # Every fold step is a packed step, from the origin.
    monkeypatch.setattr(dp, "_fold_packed", counting(dp._fold_packed))
    with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        out = solve(inst, mode="optimize")
    assert offset - out.solution.objective == 16
    assert len(sizes) == inst.n
    assert max(sizes) <= 1530 // 10

    line = re.compile(r"fold order \[([\d, ]+)\], peak partial (\d+) cells")
    (match,) = [
        line.fullmatch(rec.getMessage())
        for rec in caplog.records
        if rec.name == "nfold.dp"
    ]
    assert sorted(map(int, match[1].split(", "))) == list(range(inst.n))
    assert int(match[2]) == max(sizes)


def design_graph(rng: random.Random) -> Graph:
    """A 16-vertex graph with a 4-vertex cover, shaped like the design graph."""
    labels = list(range(16))
    rng.shuffle(labels)
    cover, others = labels[:4], labels[4:]
    hoods = list(itertools.combinations(range(4), 2)) * 2
    rng.shuffle(hoods)
    edges = [(cover[i], w) for w, hood in zip(others, hoods) for i in hood]
    order = rng.sample(cover, 4)
    edges += [(order[0], order[1]), (order[2], order[3])]
    return Graph.build(labels, edges)


def wide_instance(rng: random.Random, bricks: int = 24, target: int = 100):
    """r = 1 bricks with the columns 0, 1, 2 shuffled; b_up from a planted x."""
    blocks, b_up = [], 0
    for _ in range(bricks):
        cols = [0, 1, 2]
        rng.shuffle(cols)
        blocks.append((tuple(cols),))
        cut = sorted(rng.sample(range(target + 2), 2))
        x = (cut[0], cut[1] - cut[0] - 1, target + 1 - cut[1])
        b_up += sum(c * v for c, v in zip(cols, x))
    return NFoldInstance(
        n=bricks, r=1, t=(3,) * bricks, blocks=tuple(blocks),
        b_up=(b_up,), b_low=(target,) * bricks,
    )


def test_fold_order_and_cells_are_pinned(caplog, monkeypatch):
    """Every ``fold_tables`` call of two solves: its order and its points.

    The twelve cover-order programs of one seeded imbalance graph (optimize
    mode) and one 24-brick r = 1 feasibility instance, whose levels above
    the first fold their bricks onto ``2*prev``.  Each call is pinned
    by a digest of its ``fold order`` debug line and its sorted ``(point,
    value, decode(point))`` list, which does not depend on how the result
    stores its points; any change to the scoring of fold steps or to the
    tie order of a witness shows here.
    """
    calls = []
    real = nfold.driver.fold_tables

    def recording(tables, lo, hi, prev=None):
        before = len(caplog.records)
        out = real(tables, lo, hi, prev)
        (line,) = [rec.getMessage() for rec in caplog.records[before:]]
        cells = sorted((pt, cell[0], out.decode(pt)) for pt, cell in out.cells.items())
        digest = hashlib.sha256(repr((line, cells)).encode()).hexdigest()[:16]
        calls.append((line, digest))
        return out

    monkeypatch.setattr(nfold.driver, "fold_tables", recording)
    with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        assert solve_imbalance(design_graph(random.Random(1))).value == 16
        imbalance_calls = calls[:]
        del calls[:]
        assert solve(wide_instance(random.Random(3))).solution is not None

    hood_line = "fold order [0, 1, 6, 2, 3, 7, 4, 8, 5, 9], peak partial 75 cells"
    assert [line for line, _ in imbalance_calls] == [hood_line] * 12
    assert [digest for _, digest in imbalance_calls] == [
        "0908e56a4115f986", "0908e56a4115f986", "bee4af2301cf7980",
        "bee4af2301cf7980", "0908e56a4115f986", "0908e56a4115f986",
        "0908e56a4115f986", "0908e56a4115f986", "0908e56a4115f986",
        "bee4af2301cf7980", "bee4af2301cf7980", "0908e56a4115f986",
    ]
    wide_order = f"fold order {list(range(24))}, peak partial"
    assert calls == [
        (f"{wide_order} 49 cells", "4c89a1e1a93c8e9e"),
        (f"{wide_order} 144 cells", "cb14c8a522e9c1e9"),
        (f"{wide_order} 212 cells", "cf3d829826ea5d85"),
        (f"{wide_order} 234 cells", "b9d7aa4ed4f37162"),
        (f"{wide_order} 186 cells", "c41aa570b393e60b"),
        (f"{wide_order} 93 cells", "ce198087246540e0"),
    ]


@st.composite
def zero_fold_cases(draw):
    """1 to 8 zero-valued brick tables and a window around a reachable sum.

    Half of the windows are the one point itself; the others reach up to
    3 past it on each side of each axis.
    """
    r = draw(st.integers(1, 3))
    tables = []
    for k in range(draw(st.integers(1, 8))):
        t = draw(st.integers(1, 3))
        block = tuple(
            tuple(draw(st.integers(0, 2)) for _ in range(t)) for _ in range(r)
        )
        tables.append(block_base_table(block, draw(st.integers(0, 3)), block_index=k))
    picks = [draw(st.sampled_from(sorted(t.cells))) for t in tables]
    center = tuple(map(sum, zip(*picks)))
    if draw(st.booleans()):
        return tables, center, center
    lo = tuple(c - draw(st.integers(0, 3)) for c in center)
    hi = tuple(c + draw(st.integers(0, 3)) for c in center)
    return tables, lo, hi


def fold_steps(folded: PointTable, tables) -> list[tuple[int, PointTable]]:
    """``(position in tables, partial after the step)`` for each step of a
    fold from the origin, read off its witness graph down to the origin,
    which is no step."""
    steps = []
    while folded.parents is not None:
        left, brick = folded.parents
        steps.append((next(k for k, t in enumerate(tables) if t is brick), folded))
        folded = left
    assert folded.points() == [(0,) * folded.r] and folded.value((0,) * folded.r) == 0
    return steps[::-1]


def value_map(table: PointTable) -> dict:
    return {pt: cell[0] for pt, cell in table.cells.items()}


def convolve_chain(tables, order, lo, hi, prev=None) -> list[dict]:
    """The partials of a fold taken in ``order``, each step a double loop
    (``reference_sumset``) under the fold's window, from the origin or
    from ``2*prev``: ``{point: (value, p, q)}`` per step, ``p`` in the
    partial before it and ``q`` in its table.  An empty partial ends the
    chain."""
    r = tables[0].r
    rest_lo = [sum(axis) for axis in zip(*(t.reach()[0] for t in tables))]
    rest_hi = [sum(axis) for axis in zip(*(t.reach()[1] for t in tables))]
    if prev is None:
        partial = {(0,) * r: (0,)}
    else:
        partial = {tuple(2 * x for x in p): (2 * cell[0],)
                   for p, cell in prev.cells.items()}
    partials = []
    for k in order:
        t_lo, t_hi = tables[k].reach()
        rest_lo = [v - x for v, x in zip(rest_lo, t_lo)]
        rest_hi = [v - x for v, x in zip(rest_hi, t_hi)]
        w_lo = tuple(max(0, l - v) for l, v in zip(lo, rest_hi))
        w_hi = tuple(h - v for h, v in zip(hi, rest_lo))
        partial = reference_sumset(partial, tables[k].cells, 1, w_lo, w_hi)
        partials.append(partial)
        if not partial:
            break
    return partials


def step_kinds(steps) -> list[str]:
    """``bits`` or ``packed`` for each fold step's partial."""
    return ["bits" if p.bits is not None else "packed" for _, p in steps]


@pytest.mark.parametrize("cap", [dp._FOLD_FRAME_BITS, 0], ids=["bitset", "fallback"])
@settings(max_examples=150, deadline=None)
@given(case=zero_fold_cases())
def test_zero_valued_fold_matches_the_convolve_chain(cap, case):
    """Bitset steps or not, a zero-valued fold has the double-loop chain's
    partials, and decodes every point to the chain's first maximisers.
    Under the cap every step is a bitset step in the fold's frame; at cap
    0 every step is a zero-valued packed step in that frame."""
    tables, lo, hi = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_FOLD_FRAME_BITS", cap)
        folded = fold_tables(tables, lo, hi)
    steps = fold_steps(folded, tables)
    order = [k for k, _ in steps]
    chain = convolve_chain(tables, order, lo, hi)
    assert [p.points() for _, p in steps] == [sorted(p) for p in chain]
    assert value_map(folded) == {pt: 0 for pt in chain[-1]}
    want = reference_fold(tables, order, lo, hi)
    for pt in folded.cells:
        assert folded.decode(pt) == want[pt][1]
    assert step_kinds(steps) == ["bits" if cap else "packed"] * len(chain)
    assert all(not any(p.codes.values()) for _, p in steps if p.codes is not None)


@st.composite
def valued_fold_cases(draw):
    """1 to 9 brick tables with costs in 0..3 (ties are common), at least
    one nonzero value, and a window around a reachable sum.

    A third of the windows are the one point itself; the others reach up
    to 3 past it on each side of each axis, so they cut the partials.
    """
    r = draw(st.integers(1, 4))
    tables = []
    for k in range(draw(st.integers(1, 9))):
        t = draw(st.integers(1, 3))
        block = tuple(
            tuple(draw(st.integers(0, 2)) for _ in range(t)) for _ in range(r)
        )
        costs = tuple(draw(st.integers(0, 3)) for _ in range(t))
        tables.append(block_base_table(
            block, draw(st.integers(0, 3)), block_index=k, costs=costs
        ))
    assume(any(cell[0] for t in tables for cell in t.cells.values()))
    picks = [draw(st.sampled_from(sorted(t.cells))) for t in tables]
    center = tuple(map(sum, zip(*picks)))
    if draw(st.integers(0, 2)) == 0:
        return tables, center, center
    lo = tuple(c - draw(st.integers(0, 3)) for c in center)
    hi = tuple(c + draw(st.integers(0, 3)) for c in center)
    return tables, lo, hi


@settings(max_examples=150, deadline=None)
@given(case=valued_fold_cases())
def test_valued_fold_matches_the_convolve_chain(case):
    """A valued fold, all packed steps, has the double-loop chain's
    partials with their values, and decodes every point to the chain's
    first maximisers."""
    tables, lo, hi = case
    folded = fold_tables(tables, lo, hi)
    steps = fold_steps(folded, tables)
    order = [k for k, _ in steps]
    chain = convolve_chain(tables, order, lo, hi)
    assert [[(pt, p.value(pt)) for pt in p.points()] for _, p in steps] == [
        [(pt, p[pt][0]) for pt in sorted(p)] for p in chain
    ]
    for _, p in steps:
        assert all(pt in p for pt in p.points())
        assert (-1,) * len(lo) not in p and tuple(h + 1 for h in hi) not in p
    want = reference_fold(tables, order, lo, hi)
    assert value_map(folded) == {pt: value for pt, (value, _) in want.items()}
    for pt in folded.cells:
        assert folded.decode(pt) == want[pt][1]
    assert step_kinds(steps) == ["packed"] * len(steps)


@st.composite
def prev_fold_cases(draw):
    """Brick tables, a table of the level below and a window around one
    of their sums ``2*p + q_1 + ... + q_n``.

    The tables are all zero-valued or carry costs in 0..1 (ties are
    common); the level below is one more base table, block ``n``.  A
    third of the windows are the one point itself; the others reach up
    to 3 past it on each side of each axis.
    """
    r = draw(st.integers(1, 3))
    valued = draw(st.booleans())
    tables, columns = [], []
    for k in range(draw(st.integers(1, 5)) + 1):
        t = draw(st.integers(1, 3))
        block = tuple(
            tuple(draw(st.integers(0, 2)) for _ in range(t)) for _ in range(r)
        )
        costs = tuple(draw(st.integers(0, 1)) if valued else 0 for _ in range(t))
        tables.append(block_base_table(
            block, draw(st.integers(0, 3)), block_index=k, costs=costs
        ))
        columns.append((tuple(zip(*block)), costs))
    picks = [draw(st.sampled_from(sorted(t.cells))) for t in tables]
    center = tuple(x + sum(axis) for x, axis in zip(picks[-1], zip(*picks)))
    if draw(st.integers(0, 2)) == 0:
        return tables[:-1], tables[-1], columns, center, center
    lo = tuple(c - draw(st.integers(0, 3)) for c in center)
    hi = tuple(c + draw(st.integers(0, 3)) for c in center)
    return tables[:-1], tables[-1], columns, lo, hi


@pytest.mark.parametrize("cap", [None, 0], ids=["frame", "packed"])
@settings(max_examples=150, deadline=None)
@given(case=prev_fold_cases())
def test_fold_from_prev_is_the_doubled_level_sum(cap, case):
    """A fold started from ``2*prev`` holds every ``2*p + q_1 + ... + q_n``
    in its window, valued ``2*value(p) + sum value(q_k)`` at best, and
    decodes every point to counts that rebuild it, ``p``'s counted twice.
    Its first partial codes ``2*p`` with ``prev`` as its one parent, at
    scale 2.  Under the caps a zero-valued fold takes bitset steps; with
    both caps at 0 every step, valued or not, is a packed step."""
    tables, prev, columns, lo, hi = case
    with pytest.MonkeyPatch.context() as patch:
        hits = count_steps(patch)
        if cap is not None:
            patch.setattr(dp, "_FOLD_FRAME_BITS", cap)
            patch.setattr(dp, "_BITS_PER_POINT", cap)
        folded = fold_tables(tables, lo, hi, prev)
    level = reference_chain(tables)
    want: dict = {}
    for p, (p_value, *_) in prev.cells.items():
        for q, q_value in level.items():
            pt = tuple(2 * x + y for x, y in zip(p, q))
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi)):
                want[pt] = max(want.get(pt, 0), 2 * p_value + q_value)
    assert value_map(folded) == want
    for pt, value in want.items():
        witnesses = folded.decode(pt)
        assert [w.block for w in witnesses] == list(range(len(tables) + 1))
        total, gain = [0] * len(pt), 0
        for w in witnesses:
            cols, costs = columns[w.block]
            for count, col, cost in zip(w.counts, cols, costs):
                total = [v + count * e for v, e in zip(total, col)]
                gain += count * cost
        assert tuple(total) == pt and gain == value
    start = folded
    while start.parents is not None and start.scale != 2:
        start = start.parents[0]
    if start.parents is not None:
        assert start.parents == (prev,) and sum(hits.values()) > 0
    valued = any(cell[0] for t in [*tables, prev] for cell in t.cells.values())
    kind = "packed" if cap == 0 or valued else "bits"
    assert hits[{"packed": "bits", "bits": "packed"}[kind]] == 0


def coded_level(rng: random.Random, r: int, kind: str):
    """A level table as a fold leaves it, built straight in its frame: up
    to 40 random points of a frame with room on every side, as a bitset
    (``kind`` "bits") or as packed codes, zero-valued ("packed") or
    valued 0..3, one value at least 1 ("valued"); returns it and its
    ``{point: value}``."""
    low = tuple(rng.randint(-4, 4) for _ in range(r))
    tops = [rng.choice((0, 1, 3, 7, 12)) for _ in range(r)]
    table = dp._frame(low, tops, kind == "bits")
    want = {}
    for _ in range(rng.randint(1, 40)):
        pt = tuple(x + rng.randint(0, top) for x, top in zip(low, tops))
        want[pt] = rng.randint(0, 3) if kind == "valued" else 0
    if kind == "valued":
        want[pt] = rng.randint(1, 3)
    codes = [table._code(pt) for pt in want]
    if kind == "bits":
        table.bits = bitset(codes)
    else:
        table.codes = dict(zip(codes, want.values()))
    return table, want


def level_window(rng: random.Random, table, points, reach_hi, outcome: str):
    """A fold window ``[lo, hi]`` over one brick of reach ``[0, reach_hi]``
    whose clip of ``table``, ``[ceil((lo - reach_hi) / 2), floor(hi /
    2)]``, holds its whole frame ("whole"), misses every point on one
    axis ("miss") or cuts the points' box on every axis ("cut")."""
    r = len(reach_hi)
    top = [x + radix - 1 for x, radix in zip(table.low, table.radix)]
    c_lo, c_hi = list(table.low), top
    if outcome == "cut":
        axes = list(zip(*points))
        c_lo = [rng.randint(min(a), max(a)) for a in axes]
        c_hi = [rng.randint(x, max(a)) for x, a in zip(c_lo, axes)]
    elif outcome == "miss":
        j = rng.randrange(r)
        axis = [pt[j] for pt in points]
        if rng.random() < 0.5:
            c_lo[j] = c_hi[j] = max(axis) + rng.randint(1, 3)
        else:
            c_lo[j] = c_hi[j] = min(axis) - rng.randint(1, 3)
    lo = tuple(2 * x + e - rng.randint(0, 1) for x, e in zip(c_lo, reach_hi))
    hi = tuple(2 * x + rng.randint(0, 1) for x in c_hi)
    return lo, hi


@pytest.mark.parametrize("cap", [None, 0], ids=["caps", "packed start"])
def test_level_start_is_the_doubled_clip_of_the_level_below(monkeypatch, cap):
    """A fold from ``2*prev`` starts from ``{2*p : p in prev, p in the
    clip}`` valued ``2*value(p)``, the tuple reference, for a bitset, a
    zero-valued packed and a valued packed level below at r = 1..4, under
    clips that hold its whole frame, miss every point or cut its box.
    Under the caps the start is a bitset unless a value is nonzero; at
    cap 0 it is packed, so each level kind meets each start kind.  The
    level below's ``reach`` (from its codes) is its points' box."""
    if cap is not None:
        monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", cap)
        monkeypatch.setattr(dp, "_BITS_PER_POINT", cap)
    rng = random.Random(1103)
    seen: dict = {}
    for trial in range(600):
        r = 1 + trial % 4
        kind = ("bits", "packed", "valued")[trial // 4 % 3]
        prev, points = coded_level(rng, r, kind)
        assert prev.reach() == dp._reach_of(points)
        reach_hi = tuple(rng.randint(0, 5) for _ in range(r))
        brick = block_base_table(tuple((0, e) for e in reach_hi), 1, block_index=0)
        outcome = ("whole", "miss", "cut")[trial // 12 % 3]
        lo, hi = level_window(rng, prev, points, reach_hi, outcome)
        c_lo = [-((e - x) // 2) for x, e in zip(lo, reach_hi)]
        c_hi = [x // 2 for x in hi]
        want = {tuple(2 * x for x in p): 2 * value for p, value in points.items()
                if all(a <= x <= b for a, x, b in zip(c_lo, p, c_hi))}
        folded = fold_tables([brick], lo, hi, prev)
        if not want:
            assert len(folded) == 0 and folded.parents is None
            seen[kind, "none kept"] = seen.get((kind, "none kept"), 0) + 1
            continue
        start = folded.parents[0]
        assert start.parents == (prev,) and start.scale == 2
        assert start._cells is None
        assert {pt: value for pt, (value,) in start.cells.items()} == want
        assert start.points() == sorted(want)
        start_kind = "bits" if start.bits is not None else "packed"
        valued = any(points.values())
        assert start_kind == ("bits" if cap is None and not valued else "packed")
        kept = "all kept" if len(want) == len(points) else "some dropped"
        seen[kind, kept] = seen.get((kind, kept), 0) + 1
        seen[kind, start_kind] = seen.get((kind, start_kind), 0) + 1
    outcomes = ("none kept", "some dropped", "all kept")
    assert all(seen.get((kind, o), 0) > 20 for kind in ("bits", "packed", "valued")
               for o in outcomes), seen


@pytest.mark.parametrize("mode, b_low", [("feasibility", 40), ("optimize", 100)])
def test_a_solve_never_lists_its_level_cells(mode, b_low):
    """A solve reads its level tables' codes alone: afterwards no level
    table has listed its ``cells``, and the first read lists
    ``points()``, in order, each valued as ``value`` reads it."""
    rng = random.Random(b_low)
    blocks = tuple(tuple(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(2))
                   for _ in range(3))
    x = [[rng.randint(0, b_low) for _ in range(2)] for _ in range(3)]
    x = [(a, b - a, b_low - b) if a <= b else (b, a - b, b_low - a) for a, b in x]
    b_up = tuple(sum(e * c for blk, xs in zip(blocks, x) for e, c in zip(blk[row], xs))
                 for row in range(2))
    inst = NFoldInstance(n=3, r=2, t=(3, 3, 3), blocks=blocks, b_up=b_up,
                         b_low=(b_low,) * 3, c=tuple(range(9)))
    outcome, trace = nfold.driver.solve_with_trace(inst, mode)
    assert outcome.solution is not None and len(trace.levels) >= 4
    assert all(table._cells is None for table in trace.levels)
    for table in trace.levels:
        assert list(table.cells) == table.points()
        assert all(table.value(pt) == value for pt, (value,) in table.cells.items())


def test_optimize_mode_folds_never_take_the_bitset_path(monkeypatch):
    """Tables with values never become bitsets: the twelve cover-order
    programs of one imbalance graph fold without a bitset step, every
    ``convolve`` step a packed one."""
    hits = count_steps(monkeypatch)
    calls = []
    real = dp.convolve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dp, "convolve", counted)
    assert solve_imbalance(design_graph(random.Random(1))).value == 16
    assert hits["bits"] == 0 and hits["packed"] == len(calls) > 12


def small_instance() -> NFoldInstance:
    return NFoldInstance(
        n=2,
        r=1,
        t=(2, 2),
        blocks=(((1, 2),), ((0, 1),)),
        b_up=(4,),
        b_low=(2, 1),
    )


def test_small_subproblem_set_matches_oracle_per_level():
    inst = small_instance()
    plan = build_plan(inst, "feasibility")
    for level in range(1, plan.levels + 1):
        placed = plan.placed_at(level)
        table = small_subproblem_set(inst, plan, level)
        want = oracle_point_set(inst.blocks, placed, plan.radius)
        assert points_of(table) == want


def test_small_subproblem_set_random_instances():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        t = tuple(rng.randint(1, 3) for _ in range(n))
        blocks = tuple(
            tuple(tuple(rng.randint(0, 2) for _ in range(t[k])) for _ in range(r))
            for k in range(n)
        )
        b_low = tuple(rng.randint(0, 6) for _ in range(n))
        inst = NFoldInstance(
            n=n, r=r, t=t, blocks=blocks, b_up=(0,) * r, b_low=b_low
        )
        plan = build_plan(inst, "feasibility")
        for level in range(1, plan.levels + 1):
            table = small_subproblem_set(inst, plan, level)
            want = oracle_point_set(
                inst.blocks, plan.placed_at(level), plan.radius
            )
            assert points_of(table) == want


def test_base_tables_for_level_respect_plan_and_costs():
    inst = NFoldInstance(
        n=2,
        r=1,
        t=(2, 2),
        blocks=(((1, 2),), ((0, 1),)),
        b_up=(4,),
        b_low=(2, 1),
        c=(0, 1, 0, 1),
    )
    plan = build_plan(inst, "optimize")
    assert plan.levels == 1
    tables = base_tables_for_level(inst, plan, 1, "optimize")
    assert len(tables) == 2
    assert tables[0].value((4,)) == 2
    assert tables[1].value((1,)) == 1


def repeating_instance() -> NFoldInstance:
    """Seven bricks of two kinds with near misses, and a planted ``b_up``.

    Bricks 0, 2 and 5 repeat brick 0 (matrix, ``b_low`` and cost slice),
    and brick 6 repeats brick 4.  Brick 1 has brick 0's matrix and cost
    slice but another ``b_low``; brick 3 its matrix and ``b_low`` but
    another cost slice, so it shares only in feasibility mode.
    """
    a, b = ((1, 0, 2), (0, 1, 1)), ((2, 1), (0, 1))
    blocks = (a, a, a, a, b, a, b)
    b_low = (9, 8, 9, 9, 6, 9, 6)
    c = (0, 1, 2) * 3 + (1, 1, 0) + (1, 0) + (0, 1, 2) + (1, 0)
    rng = random.Random(5)
    b_up = [0, 0]
    for block, units in zip(blocks, b_low):
        x = [0] * len(block[0])
        for _ in range(units):
            x[rng.randrange(len(x))] += 1
        for j, row in enumerate(block):
            b_up[j] += sum(e * v for e, v in zip(row, x))
    return NFoldInstance(n=7, r=2, t=tuple(len(blk[0]) for blk in blocks),
                         blocks=blocks, b_up=tuple(b_up), b_low=b_low, c=c)


def per_brick_tables(inst, plan, level, mode, hi) -> list[PointTable]:
    """One ``block_base_table`` per brick: the tables before sharing."""
    placed = plan.placed_at(level)
    costs = dp._block_costs(inst, mode)
    return [
        block_base_table(inst.blocks[k], placed[k], block_index=k,
                         costs=costs[k], hi=hi)
        for k in range(inst.n)
    ]


def fold_points(table: PointTable) -> list:
    """Every ``(point, value, decode(point))`` of a fold result, sorted."""
    return [(pt, cell[0], table.decode(pt)) for pt, cell in sorted(table.cells.items())]


@pytest.mark.parametrize("mode", ["feasibility", "optimize"])
@pytest.mark.parametrize("floor", [False, True])
@pytest.mark.parametrize("frame", [True, False])
def test_repeated_bricks_share_one_base_table(monkeypatch, mode, floor, frame):
    """Bricks with one ``(matrix, placed, cost slice)`` share one built
    table: each has its own ``block`` and ``columns``, and the same cells,
    in the same order, and reach as its own ``block_base_table``.  Near
    misses (another placed count or cost slice) build their own.  Every
    level's fold, from the origin or from ``2*prev``, under the bitset
    caps or, with both caps at 0, in zero-valued packed frames, has the
    point -> value map and decodes of a fold over tables built brick by
    brick."""
    inst = repeating_instance()
    plan = build_plan(inst, mode, support=3 if floor else None)
    assert plan.levels == (2 if floor else 1)
    if not frame:
        monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", 0)
        monkeypatch.setattr(dp, "_BITS_PER_POINT", 0)
    built = []
    real = dp.block_base_table

    def counting(block, placed, **kwargs):
        built.append((block, placed, kwargs["costs"]))
        return real(block, placed, **kwargs)

    monkeypatch.setattr(dp, "block_base_table", counting)
    costs = dp._block_costs(inst, mode)
    shared_prev = alone_prev = None
    for level, (lo, hi, _, small_hi) in enumerate(plan.windows, 1):
        placed = plan.placed_at(level)
        keys = [(inst.blocks[k], placed[k], costs[k]) for k in range(inst.n)]
        del built[:]
        shared = base_tables_for_level(inst, plan, level, mode, hi=small_hi)
        assert built == list(dict.fromkeys(keys))
        alone = per_brick_tables(inst, plan, level, mode, small_hi)
        for k, (table, want) in enumerate(zip(shared, alone)):
            assert (table.block, table.columns) == (k, want.columns)
            assert list(table.cells.items()) == list(want.cells.items())
            assert table.reach() == want.reach()
            first = keys.index(keys[k])
            assert table.cells is shared[first].cells
            assert decoded_cells(table) == decoded_cells(want)
        # Brick 3 differs from brick 0 by its cost slice alone; brick 1 by
        # its placed count, which both plans tell apart at some level.
        assert (shared[3].cells is shared[0].cells) == (mode == "feasibility")
        if level == plan.levels:
            assert shared[1].cells is not shared[0].cells
        assert len({id(t.cells) for t in shared}) == len(set(keys)) < inst.n
        shared_prev = fold_tables(shared, lo, hi, shared_prev)
        alone_prev = fold_tables(alone, lo, hi, alone_prev)
        assert fold_points(shared_prev) == fold_points(alone_prev)
        assert len(shared_prev) > 0
        # A box fold from the origin, so that many points decode.
        box = tuple(map(sum, zip(*(t.reach()[1] for t in shared))))
        assert fold_points(fold_tables(shared, (0, 0), box)) == fold_points(
            fold_tables(alone, (0, 0), box))


# ---------------------------------------------------------------------------
# the fold's windowed sum steps against a plain double loop


def reference_sumset(a_cells, b_cells, scale, lo, hi):
    """Every scale*p + q in [lo, hi]; larger value wins, first pair on ties."""
    out = {}
    for p in sorted(a_cells):
        for q in sorted(b_cells):
            total = tuple(scale * x + y for x, y in zip(p, q))
            if any(v < l or v > h for v, l, h in zip(total, lo, hi)):
                continue
            value = scale * a_cells[p][0] + b_cells[q][0]
            prev = out.get(total)
            if prev is None or value > prev[0]:
                out[total] = (value, p, q)
    return out


def witness_table(cells: dict, block: int) -> PointTable:
    """A base table of ``cells``' points and values, listed in ascending
    point order, whose ``i``-th point decodes to one unit of column ``i``:
    ``decode`` of a sum over it names the point its pair used."""
    table = PointTable(len(next(iter(cells))), block=block, columns=len(cells))
    table.cells = {pt: (cells[pt][0], (None, i, 1)) for i, pt in enumerate(sorted(cells))}
    return table


def sum_pairs(out: PointTable, a: PointTable, b: PointTable, scale: int) -> dict:
    """``{point: (value, p, q)}`` of a sum ``scale*p + q`` of two
    ``witness_table``s, each pair read off ``out.decode``; ``out`` must
    list its points in ascending order, and no cell may hold more than
    its value."""
    assert list(out.cells) == sorted(out.cells)
    a_pts, b_pts = list(a.cells), list(b.cells)
    got = {}
    for pt, (value,) in out.cells.items():
        counts = {w.block: w.counts for w in out.decode(pt)}
        assert sum(counts[a.block]) == scale and sum(counts[b.block]) == 1
        p = a_pts[counts[a.block].index(scale)]
        got[pt] = (value, p, b_pts[counts[b.block].index(1)])
    return got


def check_sumset(a_cells, b_cells, scale, lo, hi) -> PointTable:
    """Every ``scale*p + q`` in ``[lo, hi]`` for ``p`` of ``a_cells`` and
    ``q`` of ``b_cells``, by ``fold_tables`` over witness tables of the
    cells: both tables from the origin at scale 1, ``b`` from ``2*a`` at
    scale 2.  Checks its point -> value map and every recovered pair
    against ``reference_sumset`` in the fold's order (the first table
    folded gives the ``p`` side of the last step); returns the result.

    Brick tables are nonnegative, so ``b``'s points are, and ``a``'s at
    scale 1; the level below, ``a`` at scale 2, may have any sign.
    """
    a, b = witness_table(a_cells, 0), witness_table(b_cells, 1)
    assert min(map(min, b_cells)) >= 0 and (scale == 2 or min(map(min, a_cells)) >= 0)
    if scale == 1:
        out = fold_tables([a, b], lo, hi)
    else:
        out = fold_tables([b], lo, hi, a)
    if scale == 1 and out.parents is not None and out.parents[1] is a:
        swapped = reference_sumset(b_cells, a_cells, 1, lo, hi)
        want = {pt: (value, p, q) for pt, (value, q, p) in swapped.items()}
    else:
        want = reference_sumset(a_cells, b_cells, scale, lo, hi)
    assert sum_pairs(out, a, b, scale) == want, (scale, lo, hi)
    return out


def random_cells(
    rng: random.Random, r: int, size: int, span: int, low: int = 0
) -> dict:
    """Points in ``[low, span]`` in shuffled key order; values 1..3 force ties."""
    points = {tuple(rng.randint(low, span) for _ in range(r)) for _ in range(size)}
    points = list(points)
    rng.shuffle(points)
    return {pt: (rng.randint(1, 3), ()) for pt in points}


def kernel_windows(rng: random.Random, a_cells, b_cells, scale):
    """Empty, single-point, wider-than-reach and random windows."""
    r = len(next(iter(a_cells)))
    reach_lo = [
        scale * min(p[j] for p in a_cells) + min(q[j] for q in b_cells)
        for j in range(r)
    ]
    reach_hi = [
        scale * max(p[j] for p in a_cells) + max(q[j] for q in b_cells)
        for j in range(r)
    ]
    empty_hi = list(reach_hi)
    axis = rng.randrange(r)
    empty_hi[axis] = reach_lo[axis] - 1
    single = tuple(rng.randint(l, h) for l, h in zip(reach_lo, reach_hi))
    yield tuple(reach_lo), tuple(empty_hi)
    yield single, single
    yield tuple(l - 3 for l in reach_lo), tuple(h + 3 for h in reach_hi)
    for _ in range(3):
        lo = tuple(rng.randint(l, h) for l, h in zip(reach_lo, reach_hi))
        hi = tuple(rng.randint(l, rh) for l, rh in zip(lo, reach_hi))
        yield lo, hi


def test_sumset_kernel_matches_double_loop_in_both_callers():
    """Both ways a fold starts: from the origin, summing two tables
    (scale 1), and from ``2*prev`` with one table (scale 2), in empty,
    one-point, wider-than-reach and random windows.  In a third of the
    trials the level below has negative points; those run at scale 2."""
    rng = random.Random(2024)
    windows = {"volume <= |b|": 0, "volume > |b|": 0}
    for trial in range(120):
        r = rng.randint(1, 4)
        span = rng.choice((2, 4, 8))
        low = -span if trial % 3 == 0 else 0
        a_cells = random_cells(rng, r, rng.randint(1, 30), span, low)
        b_cells = random_cells(rng, r, rng.randint(1, 60), span)
        scales = (2,) if low else (1, 2)
        if not low:
            check_sumset(a_cells, b_cells, 1, (-10 * span,) * r, (10 * span,) * r)
        for scale in scales:
            for lo, hi in kernel_windows(rng, a_cells, b_cells, scale):
                volume = 1
                for l, h in zip(lo, hi):
                    volume *= max(h - l + 1, 0)
                if volume:
                    small = volume <= len(b_cells)
                    windows["volume <= |b|" if small else "volume > |b|"] += 1
                check_sumset(a_cells, b_cells, scale, lo, hi)
    assert min(windows.values()) > 50, windows


def grouped_cells(
    rng: random.Random, r: int, size: int, span: int, offset: int, dense: bool
) -> dict:
    """Points with values 1..3 (ties), shifted by ``offset`` on every axis.

    ``dense`` puts every point on one of three prefixes (axes 0..r-2), so
    each prefix group of the index holds many points; otherwise the points
    spread over ``span`` per axis, about one per prefix.
    """
    if dense:
        prefixes = [tuple(rng.randint(0, span) for _ in range(r - 1)) for _ in range(3)]
        points = {rng.choice(prefixes) + (rng.randint(0, span),) for _ in range(size)}
    else:
        points = {tuple(rng.randint(0, span) for _ in range(r)) for _ in range(size)}
    points = [tuple(x + offset for x in pt) for pt in points]
    rng.shuffle(points)
    return {pt: (rng.randint(1, 3), ()) for pt in points}


def pair_windows(rng: random.Random, a_cells, b_cells, scale):
    """The full reach, the reach with one middle axis pinned, a box around
    one reached sum, and that sum alone."""
    r = len(next(iter(a_cells)))
    reach_lo = tuple(
        scale * min(p[j] for p in a_cells) + min(q[j] for q in b_cells)
        for j in range(r)
    )
    reach_hi = tuple(
        scale * max(p[j] for p in a_cells) + max(q[j] for q in b_cells)
        for j in range(r)
    )
    p, q = rng.choice(list(a_cells)), rng.choice(list(b_cells))
    hit = tuple(scale * x + y for x, y in zip(p, q))
    yield reach_lo, reach_hi
    if r > 2:
        axis = rng.randint(1, r - 2)
        pin_lo, pin_hi = list(reach_lo), list(reach_hi)
        pin_lo[axis] = pin_hi[axis] = hit[axis]
        yield tuple(pin_lo), tuple(pin_hi)
    width = rng.choice((1, 4, 2**34))
    yield (
        tuple(v - rng.randint(0, width) for v in hit),
        tuple(v + rng.randint(0, width) for v in hit),
    )
    yield hit, hit


def test_sumset_index_matches_double_loop_on_packed_code_cases(monkeypatch):
    """r up to 5 at scales 1 and 2, valued cells with ties, dense and
    sparse prefix groups, windows narrow on a middle axis only, and
    coordinates past +-2**31 whose code fields span several int digits.
    A negative offset moves only the level below, at scale 2."""
    hits = count_steps(monkeypatch)
    rng = random.Random(2026)
    seen = {"r=5": 0, "pinned middle": 0, "wide fields": 0, "dense": 0}
    for trial in range(160):
        r = 5 if trial % 2 else rng.randint(1, 4)
        dense = trial % 4 < 2
        wide = trial % 8 >= 4
        span = 2**33 if wide else rng.choice((3, 12))
        offset = rng.choice((-(2**40), 2**35)) if wide else rng.choice((0, -5))
        a_cells = grouped_cells(rng, r, rng.randint(1, 30), span, offset, dense)
        b_cells = grouped_cells(rng, r, rng.randint(1, 50), span, abs(offset), dense)
        for scale in (1, 2) if offset >= 0 else (2,):
            for lo, hi in pair_windows(rng, a_cells, b_cells, scale):
                got = check_sumset(a_cells, b_cells, scale, lo, hi)
                seen["r=5"] += r == 5
                seen["pinned middle"] += r > 2 and any(
                    l == h for l, h in zip(lo[1:-1], hi[1:-1])
                ) and lo[0] < hi[0]
                seen["wide fields"] += wide and bool(got)
                seen["dense"] += dense and r > 1 and len(got) > len(b_cells)
    assert min(seen.values()) > 40, seen
    assert hits["packed"] > 400 and hits["bits"] == 0, hits


def brick_cells(
    rng: random.Random, r: int, groups: int, per_group: int, span: int, offset: int
) -> dict:
    """About ``groups`` prefix groups (axes 0..r-2) of ``per_group`` points
    each, last digits in ``[0, max(span, per_group)]``, values 1..3
    (ties), shifted by ``offset`` on every axis."""
    last = max(span, per_group)
    prefixes = {tuple(rng.randint(0, span) for _ in range(r - 1)) for _ in range(groups)}
    points = {
        pre + (x,) for pre in prefixes for x in rng.sample(range(last + 1), per_group)
    }
    points = [tuple(x + offset for x in pt) for pt in points]
    rng.shuffle(points)
    return {pt: (rng.randint(1, 3), ()) for pt in points}


def pinned_windows(rng: random.Random, a_cells, b_cells, scale):
    """The full reach, the reach with axis 0, a middle axis or the last
    axis pinned to a reached sum, and a box around that sum."""
    r = len(next(iter(a_cells)))
    reach = [
        (scale * min(p[j] for p in a_cells) + min(q[j] for q in b_cells),
         scale * max(p[j] for p in a_cells) + max(q[j] for q in b_cells))
        for j in range(r)
    ]
    p, q = rng.choice(list(a_cells)), rng.choice(list(b_cells))
    hit = [scale * x + y for x, y in zip(p, q)]
    yield "full", tuple(l for l, _ in reach), tuple(h for _, h in reach)
    pins = {"axis 0": 0, "middle axis": rng.randint(1, r - 2) if r > 2 else None,
            "last axis": r - 1}
    for name, axis in pins.items():
        if r > 1 and axis is not None:
            lo, hi = [l for l, _ in reach], [h for _, h in reach]
            lo[axis] = hi[axis] = hit[axis]
            yield name, tuple(lo), tuple(hi)
    width = rng.choice((2, 8))
    yield "box", tuple(v - rng.randint(0, width) for v in hit), tuple(
        v + rng.randint(0, width) for v in hit)


def test_both_packed_paths_match_double_loop(monkeypatch):
    """Sparse and dense right tables at r = 1..5, on both sides of the
    points-per-group and the bisect-size crossovers, in windows that pin
    axis 0, a middle axis or the last axis, with 2**33-wide fields and
    a level below at negative offsets (scale 2): every step of either
    packed path matches the double loop, and each path runs many times
    in every kind of case."""
    steps = []

    def counted(name, fn):
        def wrapper(a_items, b_items, *args):
            bisect = name == "pairs" and len(b_items) > dp._PAIR_BISECT_POINTS
            steps.append(f"{name}, bisect" if bisect else name)
            return fn(a_items, b_items, *args)
        return wrapper

    monkeypatch.setattr(dp, "_pair_sum", counted("pairs", dp._pair_sum))
    monkeypatch.setattr(dp, "_index_sum", counted("grouped", dp._index_sum))
    rng = random.Random(23)
    paths = ("pairs", "pairs, bisect", "grouped")
    kinds = ("r=5", "axis 0", "middle axis", "last axis", "wide", "negative")
    seen = {(path, kind): 0 for path in paths for kind in kinds}
    for trial in range(240):
        r = 1 + trial % 5
        shape = trial // 5 % 3
        wide = trial // 15 % 2 == 1
        span = 2**33 if wide else rng.choice((3, 12))
        offset = rng.choice((-(2**40), 2**35, -5, 0)) if wide else rng.choice((-5, 0))
        groups, per_group = [
            (rng.randint(2, 8), rng.randint(1, 3)),  # sparse, at most 24 points
            (rng.randint(9, 14), rng.randint(3, 6)),  # sparse, 27..84 points
            (rng.randint(1, 4), rng.randint(9, 14)),  # dense
        ][shape]
        a_cells = random_cells(rng, r, rng.randint(1, 20), span if wide else 12)
        a_cells = {tuple(x + offset for x in p): v for p, v in a_cells.items()}
        b_cells = brick_cells(rng, r, groups, per_group, span, abs(offset))
        for scale in (1, 2) if offset >= 0 else (2,):
            for kind, lo, hi in pinned_windows(rng, a_cells, b_cells, scale):
                del steps[:]
                check_sumset(a_cells, b_cells, scale, lo, hi)
                features = {"r=5": r == 5, "wide": wide, "negative": offset < 0}
                features[kind] = True
                for path in set(steps):
                    for name, hit in features.items():
                        if hit and (path, name) in seen:
                            seen[path, name] += 1
    assert min(seen.values()) > 15, seen


def zero_cells(rng: random.Random, r: int, size: int, span: int) -> dict:
    return {pt: (0, ()) for pt in random_cells(rng, r, size, span)}


def count_steps(monkeypatch) -> dict[str, int]:
    """Count the bitset and packed fold steps."""
    hits = {"packed": 0, "bits": 0}

    def counted(name, fn):
        def wrapper(*args):
            hits[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dp, "_fold_packed", counted("packed", dp._fold_packed))
    monkeypatch.setattr(dp, "_fold_bits", counted("bits", dp._fold_bits))
    return hits


def test_zero_valued_sumset_matches_double_loop_on_every_path(monkeypatch):
    hits = count_steps(monkeypatch)
    # The clip of the level below takes it whole when the clip bounds
    # hold its whole frame; count both branches.
    clips = {"skip": 0, "clip": 0}
    clip = dp._clip

    def counted_clip(table, lo, hi):
        out = clip(table, lo, hi)
        clips["skip" if out is table else "clip"] += 1
        return out

    monkeypatch.setattr(dp, "_clip", counted_clip)
    # One-point windows are lookups, in either kind of partial.
    lookups = {"bits": 0, "packed": 0}
    step = dp.convolve

    def counted_step(left, right, added, keys, lo, hi):
        if lo == hi:
            lookups["bits" if left.codes is None else "packed"] += 1
        return step(left, right, added, keys, lo, hi)

    monkeypatch.setattr(dp, "convolve", counted_step)
    rng = random.Random(2025)
    for trial in range(150):
        r = 1 + trial % 5
        span = rng.choice((1, 2, 4, 8, 10**4))
        a_cells = zero_cells(rng, r, rng.randint(1, 25), span)
        b_cells = zero_cells(rng, r, rng.randint(1, 50), span)
        for scale in (1, 2):
            windows = list(kernel_windows(rng, a_cells, b_cells, scale))
            # a window past the reach on one axis
            (wide_lo, wide_hi), axis = windows[2], rng.randrange(r)
            out_lo, out_hi = list(wide_lo), list(wide_hi)
            out_lo[axis], out_hi[axis] = wide_hi[axis] - 2, wide_hi[axis] + 2
            windows.append((tuple(out_lo), tuple(out_hi)))
            for lo, hi in windows:
                check_sumset(a_cells, b_cells, scale, lo, hi)
    assert min(hits.values()) > 20, hits
    assert min(clips.values()) > 20, clips
    assert min(lookups.values()) > 20, lookups


def test_one_nonzero_value_never_takes_the_bitset_path(monkeypatch):
    hits = count_steps(monkeypatch)
    rng = random.Random(31)
    for trial in range(40):
        r = 1 + trial % 3
        a_cells = zero_cells(rng, r, rng.randint(2, 20), 4)
        b_cells = zero_cells(rng, r, rng.randint(2, 30), 4)
        side = a_cells if trial % 2 else b_cells
        side[rng.choice(sorted(side))] = (1, ())
        got = check_sumset(a_cells, b_cells, 1, (0,) * r, (12,) * r)
        assert any(cell[0] for cell in got.cells.values())
    # Two steps per fold: the origin plus one table, then the other.
    assert hits["bits"] == 0 and hits["packed"] == 2 * 40, hits


def test_widely_spread_zero_tables_fall_back_without_a_huge_bitset(monkeypatch):
    """A zero-valued fold from ``2*prev`` whose frame far exceeds the
    bitset cap takes one packed step and builds no bitset."""
    hits = count_steps(monkeypatch)
    rng = random.Random(5)
    a = witness_table(zero_cells(rng, 3, 30, 10**6), 0)
    b = witness_table(zero_cells(rng, 3, 30, 10**6), 1)
    lo, hi = (0,) * 3, (3 * 10**6,) * 3
    tracemalloc.start()
    try:
        got = fold_tables([b], lo, hi, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == {"packed": 1, "bits": 0}
    assert peak < 1 << 20, peak  # the code space is ~10^19 bits
    assert sum_pairs(got, a, b, 2) == reference_sumset(a.cells, b.cells, 2, lo, hi)


def test_box_mask_matches_code_enumeration():
    """``bits.box_mask`` sets exactly the codes of the window's points, for
    r = 1..4 and random radices, in random, empty, one-digit (one axis or
    every axis pinned) and full windows."""
    rng = random.Random(17)
    seen = dict.fromkeys(("random", "empty", "one digit", "one point", "full"), 0)
    for trial in range(400):
        r = 1 + trial % 4
        radix = [rng.randint(1, 7) for _ in range(r)]
        strides = tuple(math.prod(radix[j + 1:]) for j in range(r))
        kind = list(seen)[trial // 4 % len(seen)]
        lo = [rng.randrange(rd) for rd in radix]
        hi = [rng.randint(l, rd - 1) for l, rd in zip(lo, radix)]
        if kind == "empty":
            axis = rng.randrange(r)
            hi[axis] = lo[axis] - 1
        elif kind == "one digit":
            axis = rng.randrange(r)
            hi[axis] = lo[axis]
        elif kind == "one point":
            hi = list(lo)
        elif kind == "full":
            lo, hi = [0] * r, [rd - 1 for rd in radix]
        want = 0
        for pt in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            want |= 1 << sum(map(operator.mul, pt, strides))
        assert box_mask(strides, tuple(lo), tuple(hi)) == want, (radix, lo, hi)
        if kind == "full":
            assert want == (1 << math.prod(radix)) - 1
        seen[kind] += 1
    assert min(seen.values()) == 80, seen


def reference_fold(tables, order, lo, hi, prev=None) -> dict:
    """``{point: witnesses}`` of a fold taken in ``order``, each step a
    double loop (``convolve_chain``) under the fold's window, from the
    origin or from ``2*prev``: every point with its value and the
    ``BlockWitness`` list its first maximisers in sorted ``(p, q)`` order
    decode to, ``prev``'s counts twice."""
    chain = convolve_chain(tables, order, lo, hi, prev)
    out = {}
    for pt, (value, *_) in chain[-1].items():
        counts, point = {}, pt
        for k, step in reversed(list(zip(order, chain))):
            _, point, q = step[point]
            counts[k] = tables[k].decode(q)[0].counts
        if prev is not None:
            p = tuple(x // 2 for x in point)
            counts[prev.block] = tuple(2 * c for c in prev.decode(p)[0].counts)
        out[pt] = (value, [BlockWitness(block=k, counts=counts[k]) for k in sorted(counts)])
    return out


# One (size, reach) for every table: the points {(0, 0), (2, 2)} or
# {(2, 0), (0, 2)}, with other costs and columns.
FORCED_ALL = (
    (((0, 2), (0, 2)), 1, (0, 3)),
    (((2, 0), (0, 2)), 1, (1, 1)),
    (((0, 2), (0, 2)), 1, (2, 0)),
    (((2, 0), (0, 2)), 1, (0, 2)),
    (((2, 0), (2, 0)), 1, (1, 0)),
)
# Four tables of the points {2, 3, 4} (other costs and columns) among two
# smaller ones, {0, 3} and {0, 1}, that the scorer takes first; then one
# group is left.
FORCED_MID = (
    (((1, 2),), 2, (1, 0)),
    (((0, 3),), 1, (0, 1)),
    (((1, 2),), 2, (0, 2)),
    (((2, 1),), 2, (1, 1)),
    (((0, 1),), 1, (2, 0)),
    (((2, 1, 1),), 2, (0, 1, 1)),
)


@pytest.mark.parametrize("valued", [True, False], ids=["packed", "bits"])
@pytest.mark.parametrize("start", ["origin", "prev"])
@pytest.mark.parametrize("bricks, lo, hi, want_orders", [
    (FORCED_ALL, (2, 2), (6, 7), {"origin": "[0, 1, 2, 3, 4], peak partial 7",
                                  "prev": "[0, 1, 2, 3, 4], peak partial 15"}),
    (FORCED_MID, (9,), (14,), {"origin": "[1, 4, 0, 2, 3, 5], peak partial 7",
                               "prev": "[1, 4, 0, 2, 3, 5], peak partial 13"}),
], ids=["one group", "collapse mid-fold"])
def test_forced_fold_steps_take_the_lowest_position(
        caplog, valued, start, bricks, lo, hi, want_orders):
    """Once every table left shares one ``(size, reach)``, the fold takes
    them by position without scoring, as the scorer's ties would: the
    order line, the point -> value map and every decode are those of the
    double-loop reference taken in that order."""
    tables = [block_base_table(block, placed, block_index=k,
                               costs=costs if valued else None)
              for k, (block, placed, costs) in enumerate(bricks)]
    prev = None
    if start == "prev":
        block, _, costs = bricks[0]
        prev = block_base_table(block, 3, block_index=len(bricks),
                                costs=costs if valued else None)
        lo, hi = tuple(2 * v + 2 for v in lo), tuple(2 * v + 3 for v in hi)
    with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        folded = fold_tables(tables, lo, hi, prev)
    (line,) = [rec.getMessage() for rec in caplog.records]
    assert line == f"fold order {want_orders[start]} cells"
    order = json.loads(line[len("fold order "):line.index("]") + 1])
    want = reference_fold(tables, order, lo, hi, prev)
    assert len(want) > 1
    assert value_map(folded) == {pt: value for pt, (value, _) in want.items()}
    for pt, (_, witnesses) in want.items():
        assert folded.decode(pt) == witnesses
    assert (folded.codes is not None) == valued


def test_forced_fold_steps_match_the_reference_on_repeated_groups(caplog):
    """Random folds over tables drawn from a few bricks, with other cost
    slices, so that groups repeat and collapse: each one's order takes
    the last group by position, and its map and decodes are the
    reference's in its order."""
    rng = random.Random(29)
    forced = 0
    for trial in range(80):
        r = 1 + trial % 2
        valued = trial % 4 < 2
        pool = [tuple(tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(r))
                for _ in range(rng.randint(1, 3))]
        tables = []
        for k in range(rng.randint(2, 7)):
            costs = tuple(rng.randint(0, 2) for _ in range(2)) if valued else None
            tables.append(block_base_table(rng.choice(pool), rng.randint(1, 2),
                                           block_index=k, costs=costs))
        picks = [rng.choice(sorted(t.cells)) for t in tables]
        center = tuple(map(sum, zip(*picks)))
        lo = tuple(c - rng.randint(0, 2) for c in center)
        hi = tuple(c + rng.randint(0, 2) for c in center)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
            folded = fold_tables(tables, lo, hi)
        (line,) = [rec.getMessage() for rec in caplog.records]
        order = json.loads(line[len("fold order "):line.index("]") + 1])
        keys = [(len(t), t.reach()) for t in tables]
        tail = next(i for i in range(len(order))
                    if len({keys[k] for k in order[i:]}) == 1)
        if len(order) == len(tables):
            assert order[tail:] == sorted(order[tail:])
            forced += len(order) - tail - 1 > 0
        want = reference_fold(tables, order, lo, hi)
        assert value_map(folded) == {pt: value for pt, (value, _) in want.items()}
        for pt, (_, witnesses) in want.items():
            assert folded.decode(pt) == witnesses
    assert forced >= 20, forced


# ---------------------------------------------------------------------------
# base tables against a plain enumeration of count vectors


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints summing to ``total``."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def reference_base_table(block, placed, costs, hi):
    """Kept points in sorted order, each with its max value and the
    reverse-lexicographically largest maximising count vector."""
    best = {}
    for counts in compositions(placed, len(block[0])):
        pt = tuple(sum(c * e for c, e in zip(counts, row)) for row in block)
        if any(v < 0 for v in pt):
            continue
        if hi is not None and any(v > h for v, h in zip(pt, hi)):
            continue
        value = sum(c * w for c, w in zip(counts, costs)) if costs else 0
        rank = (value, counts[::-1])
        if pt not in best or rank > best[pt]:
            best[pt] = rank
    return [(pt, (best[pt][0], best[pt][1][::-1])) for pt in sorted(best)]


def random_base_case(rng: random.Random):
    r = rng.randint(1, 3)
    t = rng.randint(1, 5)
    low = rng.choice((0, -2))
    cols = [tuple(rng.randint(low, 2) for _ in range(r)) for _ in range(t)]
    if rng.random() < 0.4:
        cols[rng.randrange(t)] = (0,) * r
    if rng.random() < 0.3:
        cols[rng.randrange(t)] = cols[rng.randrange(t)]
    block = tuple(tuple(col[j] for col in cols) for j in range(r))
    costs = rng.choice(
        (None, tuple(rng.randint(0, 1) for _ in range(t)),
         tuple(rng.randint(-2, 3) for _ in range(t)))
    )
    hi = rng.choice(
        (None, tuple(rng.randint(-1, 8) for _ in range(r)),
         tuple(rng.randint(-1, 0) for _ in range(r)))
    )
    return block, rng.randint(0, 6), costs, hi


def codec_edge_cases(rng: random.Random) -> list:
    """Cases for the packed point codes of ``block_base_table``."""
    cases = []
    for _ in range(150):  # entries up to 9 against caps 0..3
        r, t = rng.randint(1, 4), rng.randint(1, 5)
        block = tuple(
            tuple(rng.choice((0, 0, 1, 2, 3, 9)) for _ in range(t)) for _ in range(r)
        )
        hi = tuple(rng.randint(0, 3) for _ in range(r))
        cases.append((block, rng.randint(1, 4), None, hi))
    for _ in range(30):  # r=4: three narrow axes and one wide axis
        t = rng.randint(3, 8)
        block = tuple(tuple(rng.randint(0, 1) for _ in range(t)) for _ in range(3))
        block += (tuple(rng.randint(0, 60) for _ in range(t)),)
        hi = tuple(rng.randint(0, 3) for _ in range(3)) + (rng.randint(40, 200),)
        costs = tuple(rng.randint(-1, 2) for _ in range(t))
        cases.append((block, rng.randint(1, 3), costs, hi))
    cases += [
        (((1, 2),), 3, None, (4,)),  # last-column takes 3*2 past the cap
        (((0, 1), (1, 3)), 4, None, (4, 5)),  # take 4*3 past a 3-bit field
        (((9, 0, 1), (0, 9, 1)), 3, None, (2, 2)),  # no column but the last fits
        (((0, 1, 1), (1, 0, 1)), 2, None, (0, 2)),  # cap 0
        (((0, 1), (2, 0)), 2, (1, 0), (-1, 3)),  # a cap below 0
        (((0, 1), (2, 0)), 0, None, (-1, 3)),  # the origin above a cap below 0
        (((3, 5),), 0, None, (7,)),  # placed=0, cap above placed*max
        (((3, 5), (1, 0)), 0, (2, 1), (0, 0)),  # placed=0, cap 0
        (((-2, 1, 3), (2, -1, 0)), 3, (1, 0, -1), None),  # negative: rejected
        (((-1, 0), (4, -2)), 4, None, None),
        (((-1, 2, 9), (0, 0, 1)), 3, None, (5, 1)),
    ]
    return cases


def test_base_table_matches_composition_enumeration():
    rng = random.Random(733)
    cases = [random_base_case(rng) for _ in range(400)]
    cases += codec_edge_cases(random.Random(17))
    k = 3
    slack = tuple(
        tuple(1 if row == col else 0 for col in range(k)) + (0,) for row in range(k)
    )
    cases += [
        (slack, 3 * k, None, (3,) * k),
        (slack, 3 * k, (1, 0, 1, 0), (2, 3, 3)),
        (((1, 1, 0, 2, 1),), 4, (0, 0, 0, 0, 1), None),  # repeated columns tie
        (((0, 1, 2), (0, 0, 0)), 3, None, (4, 0)),  # leading zero column
        # The witness of (2,) takes only column 0: its chain never names
        # the two trailing columns, and decode must still give t counts.
        (((1, 0, 0),), 2, (0, 1, 0), None),
    ]
    wide = random.Random(9)
    for r in (1, 2):
        block = tuple(tuple(wide.randint(0, 3) for _ in range(40)) for _ in range(r))
        cases.append((block, 2, tuple(wide.randint(0, 1) for _ in range(40)), (4,) * r))
    rejected = 0
    for block, placed, costs, hi in cases:
        if min(map(min, block)) < 0:
            with pytest.raises(ValueError, match=">= 0"):
                block_base_table(block, placed, block_index=2, costs=costs, hi=hi)
            rejected += 1
            continue
        got = block_base_table(block, placed, block_index=2, costs=costs, hi=hi)
        want = reference_base_table(block, placed, costs, hi)
        assert decoded_cells(got) == want, (block, placed, costs, hi)
        assert got.block == 2
    assert 0 < rejected < len(cases) // 2, rejected


def pairwise_base_table(block, placed, costs, hi):
    """``reference_base_table`` for ``placed <= 2``, over picks of columns.

    A pick ``(j, k)`` with ``j <= k`` ranks by ``(value, k, j)``: that is
    the reverse-lexicographic order of the count vectors, and no dense
    count vector is built for a pick that is not kept.
    """
    cols = list(zip(*block))
    costs = costs or (0,) * len(cols)
    picks = itertools.combinations_with_replacement(range(len(cols)), placed)
    best = {}
    for pick in picks:
        pt = tuple(map(sum, zip((0,) * len(block), *(cols[j] for j in pick))))
        if min(pt) < 0 or (hi is not None and any(v > h for v, h in zip(pt, hi))):
            continue
        rank = (sum(costs[j] for j in pick), pick[::-1])
        if pt not in best or rank > best[pt]:
            best[pt] = rank
    out = []
    for pt in sorted(best):
        value, pick = best[pt]
        counts = [0] * len(cols)
        for j in pick:
            counts[j] += 1
        out.append((pt, (value, tuple(counts))))
    return out


def test_scheduling_configuration_brick_matches_pairwise_reference(monkeypatch):
    # The largest base table of the benchmark's scheduling items: the
    # configuration brick of speed class 2 at the cmax guess 91/3.
    calls = []
    real = dp.block_base_table

    def spy(block, placed, **kwargs):
        calls.append((block, placed, kwargs))
        return real(block, placed, **kwargs)

    monkeypatch.setattr(dp, "block_base_table", spy)
    inst = SchedulingInstance.build(p=(3, 5, 7), n=(10, 8, 6), s=(1, 2, 3), m=(2, 2, 1))
    decide_guess(inst, Fraction(91, 3), OBJECTIVE_CMAX)
    block, placed, kwargs = calls[1]
    assert (len(block[0]), placed, kwargs["hi"]) == (401, 2, (10, 8, 6, 159))
    for placed in (0, 1, 2):
        got = real(block, placed, block_index=1, hi=kwargs["hi"])
        want = pairwise_base_table(block, placed, None, kwargs["hi"])
        assert decoded_cells(got) == want, placed
    assert len(got) == 693


def test_pair_search_tries_only_added_points_at_most_the_code(monkeypatch):
    """``FrameTable._pair`` skips the added ``q`` coded above the point's
    code, whose partner code would be negative.  On the scheduling ``cmax``
    guess 91/3, whose fold runs in one zero-valued packed frame above its
    bitset cap, the fold's 693-point step tried 690 candidates and its
    399-point step 399 under a scan of every added point; the witnesses
    stay those of that scan."""
    real_pair, real_value_at = FrameTable._pair, FrameTable._value_at
    count = {"on": False, "tries": 0}

    def full_scan(self, point, code, target):
        left, right = self.parents
        for q_code, q in reversed(self.added):
            value = left._value_at(code - q_code)
            if value is not None and value + right.cells[q][0] == target:
                return tuple(x - y for x, y in zip(point, q)), q, code - q_code, value
        raise AssertionError(f"no pair for {point}")

    def value_at(self, code):
        count["tries"] += count["on"]
        return real_value_at(self, code)

    def counted(search, steps):
        def pair(self, point, code, target):
            count["on"], count["tries"] = True, 0
            found = search(self, point, code, target)
            count["on"] = False
            steps.append((len(self.added), count["tries"], found))
            return found
        return pair

    inst = SchedulingInstance.build(p=(3, 5, 7), n=(10, 8, 6), s=(1, 2, 3), m=(2, 2, 1))
    monkeypatch.setattr(FrameTable, "_value_at", value_at)
    runs = {}
    for name, search in (("bisect", real_pair), ("full scan", full_scan)):
        steps = []
        monkeypatch.setattr(FrameTable, "_pair", counted(search, steps))
        runs[name] = decide_guess(inst, Fraction(91, 3), OBJECTIVE_CMAX), steps
    (schedule, fast), (want, slow) = runs["bisect"], runs["full scan"]
    assert schedule is not None and schedule == want
    assert [found for *_, found in fast] == [found for *_, found in slow]
    assert [(size, tried) for size, tried, _ in slow] == [(659, 1), (693, 690), (399, 399)]
    assert [(size, tried) for size, tried, _ in fast] == [(659, 1), (693, 1), (399, 1)]
