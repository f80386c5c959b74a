"""Point-table engine: base tables, convolution, level sets."""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import nfold.dp as dp
import nfold.driver
from nfold.core import NFoldInstance
from nfold.dp import (
    PointTable,
    base_tables_for_level,
    block_base_table,
    convolve,
    fold_tables,
    small_subproblem_set,
)
from nfold.driver import _combine_levels, solve
from nfold.imbalance import Graph, build_ordering_ilp, solve_imbalance
from nfold.oracle import oracle_point_set
from nfold.plan import build_plan
from nfold.scheduling import OBJECTIVE_CMAX, SchedulingInstance, decide_guess


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


def test_convolve_frozen_sets():
    a = block_base_table(((0, 1),), 1)  # points {0, 1}
    b = block_base_table(((2,),), 1)  # point {2}
    got = convolve(a, b)
    assert points_of(got) == {(2,), (3,)}


def test_convolve_with_origin_is_identity_on_points():
    a = block_base_table(((1, 2),), 2)
    origin = block_base_table(((0,),), 0)
    assert points_of(convolve(a, origin)) == points_of(a)


def test_convolve_adds_values_max_plus():
    a = block_base_table(((0, 1),), 1, costs=(0, 5))  # {0: 0, 1: 5}
    b = block_base_table(((2,),), 1, costs=(1,))  # {2: 1}
    got = convolve(a, b)
    assert got.value((2,)) == 1
    assert got.value((3,)) == 6


def test_convolve_window_filters_results():
    a = block_base_table(((1, 2),), 2)
    b = block_base_table(((1, 2),), 2)
    got = convolve(a, b, lo=(5,), hi=(6,))
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
        windowed = convolve(a, b, lo=lo, hi=hi)
        full = convolve(a, b)
        want = {
            pt: cell[0]
            for pt, cell in full.cells.items()
            if all(l <= v <= h for v, l, h in zip(pt, lo, hi))
        }
        assert {pt: cell[0] for pt, cell in windowed.cells.items()} == want


def test_convolve_is_commutative_and_associative_on_values():
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

        def as_map(t: PointTable) -> dict:
            return {pt: cell[0] for pt, cell in t.cells.items()}

        assert as_map(convolve(a, b)) == as_map(convolve(b, a))
        assert as_map(convolve(convolve(a, b), c)) == as_map(
            convolve(a, convolve(b, c))
        )


def test_decode_through_pair_tables_recombines():
    a = block_base_table(((1, 2),), 2, block_index=0)
    b = block_base_table(((0, 1),), 1, block_index=1)
    got = convolve(a, b)
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
    full = functools.reduce(convolve, tables)
    want = {
        pt: cell[0]
        for pt, cell in full.cells.items()
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
    inst, _, ceiling, mass = build_ordering_ilp(graph, (0, 1, 2, 3))

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
    assert ceiling * mass - out.solution.objective == 16
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
        "aa6f22a6fe431fbc", "aa6f22a6fe431fbc", "88d4cb770ea5bcef",
        "88d4cb770ea5bcef", "aa6f22a6fe431fbc", "aa6f22a6fe431fbc",
        "aa6f22a6fe431fbc", "aa6f22a6fe431fbc", "aa6f22a6fe431fbc",
        "88d4cb770ea5bcef", "88d4cb770ea5bcef", "aa6f22a6fe431fbc",
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


def is_convolve(table: PointTable) -> bool:
    """Whether a sum table was made by ``sumset``, whose left parent codes
    its left operand (one parent) rather than being a fold partial."""
    return len(table.parents[0].parents or ()) == 1


def fold_steps(folded: PointTable, tables) -> list[tuple[int, PointTable]]:
    """``(position in tables, partial after the step)`` for each step of a
    fold, read off its witness graph.  A fold in a frame starts from the
    origin, which is no step; the cell chain's first partial is a filtered
    copy of its table, and each later step a ``convolve``."""
    steps = []
    while folded.parents is not None:
        left, brick = folded.parents
        steps.append((next(k for k, t in enumerate(tables) if t is brick), folded))
        folded = left.parents[0] if is_convolve(folded) else left
    if folded.strides:
        assert folded.points() == [(0,) * folded.r] and folded.value((0,) * folded.r) == 0
    else:
        steps.append((folded.block, folded))
    return steps[::-1]


def value_map(table: PointTable) -> dict:
    return {pt: cell[0] for pt, cell in table.cells.items()}


def convolve_chain(tables, order, lo, hi) -> list[PointTable]:
    """The partials of ``convolve`` over the tables in ``order``, under the
    fold's windows; an empty partial ends the chain."""
    rest_lo = [sum(axis) for axis in zip(*(t.reach()[0] for t in tables))]
    rest_hi = [sum(axis) for axis in zip(*(t.reach()[1] for t in tables))]
    partials = []
    for k in order:
        t_lo, t_hi = tables[k].reach()
        rest_lo = [v - x for v, x in zip(rest_lo, t_lo)]
        rest_hi = [v - x for v, x in zip(rest_hi, t_hi)]
        w_lo = tuple(max(0, l - v) for l, v in zip(lo, rest_hi))
        w_hi = tuple(h - v for h, v in zip(hi, rest_lo))
        if not partials:
            partials.append(tables[k].filtered(w_lo, w_hi))
        else:
            partials.append(convolve(partials[-1], tables[k], lo=w_lo, hi=w_hi))
        if not partials[-1]:
            break
    return partials


@pytest.mark.parametrize("cap", [dp._FOLD_FRAME_BITS, 0], ids=["bitset", "fallback"])
@settings(max_examples=150, deadline=None)
@given(case=zero_fold_cases())
def test_zero_valued_fold_matches_the_convolve_chain(cap, case):
    """Bitset steps or not, a zero-valued fold has the chain's partials,
    lists the chain's points, and decodes every point to the same counts."""
    tables, lo, hi = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_FOLD_FRAME_BITS", cap)
        folded = fold_tables(tables, lo, hi)
    steps = fold_steps(folded, tables)
    chain = convolve_chain(tables, [k for k, _ in steps], lo, hi)
    assert [p.points() for _, p in steps] == [p.points() for p in chain]
    assert value_map(folded) == value_map(chain[-1])
    for pt in folded.cells:
        assert folded.decode(pt) == chain[-1].decode(pt)
    # Under the cap every step is a bitset step in the fold's frame; above
    # it the first partial is filtered and every later one a convolve.
    kinds = [
        "filtered" if p.parents is None else "convolve" if is_convolve(p)
        else "bits" if p.bits is not None else "packed"
        for _, p in steps
    ]
    want = ["bits"] * len(chain) if cap else ["filtered"] + ["convolve"] * (len(chain) - 1)
    assert kinds == want


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
    """A valued fold, all packed steps, has the chain's partials with
    their values, lists the chain's points with their values, and decodes
    every point to the same counts."""
    tables, lo, hi = case
    folded = fold_tables(tables, lo, hi)
    steps = fold_steps(folded, tables)
    chain = convolve_chain(tables, [k for k, _ in steps], lo, hi)
    assert [[(pt, p.value(pt)) for pt in p.points()] for _, p in steps] == [
        [(pt, p.value(pt)) for pt in p.points()] for p in chain
    ]
    for _, p in steps:
        assert all(pt in p for pt in p.points())
        assert (-1,) * len(lo) not in p and tuple(h + 1 for h in hi) not in p
    assert value_map(folded) == value_map(chain[-1])
    for pt in folded.cells:
        assert folded.decode(pt) == chain[-1].decode(pt)
    assert all(p.codes is not None for _, p in steps)


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


@pytest.mark.parametrize("cap", [None, 0], ids=["frame", "chain"])
@settings(max_examples=150, deadline=None)
@given(case=prev_fold_cases())
def test_fold_from_prev_is_the_doubled_level_sum(cap, case):
    """A fold started from ``2*prev`` holds every ``2*p + q_1 + ... + q_n``
    in its window, valued ``2*value(p) + sum value(q_k)`` at best, and
    decodes every point to counts that rebuild it, ``p``'s counted twice.
    With both bitset caps at 0 a zero-valued fold takes the ``convolve``
    chain, whose first step is one ``sumset`` of ``prev`` at scale 2."""
    tables, prev, columns, lo, hi = case
    scales = []
    real_sumset = dp.sumset

    def spied(a, b, scale, *window):
        scales.append(scale)
        return real_sumset(a, b, scale, *window)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "sumset", spied)
        if cap is not None:
            patch.setattr(dp, "_FOLD_FRAME_BITS", cap)
            patch.setattr(dp, "_BITS_PER_POINT", cap)
        folded = fold_tables(tables, lo, hi, prev)
    level = functools.reduce(convolve, tables)
    want: dict = {}
    for p, (p_value, *_) in prev.cells.items():
        for q, (q_value, *_) in level.cells.items():
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
    valued = any(cell[0] for t in [*tables, prev] for cell in t.cells.values())
    if cap is None or valued:
        assert scales == []
    else:
        assert scales[:1] == [2] and set(scales[1:]) <= {1} and (scales or not want)


def test_optimize_mode_folds_never_take_the_bitset_path(monkeypatch):
    """Tables with values never become bitsets: the twelve cover-order
    programs of one imbalance graph fold without a bitset step or a
    ``convolve``, every step a packed one."""
    other_steps = []
    monkeypatch.setattr(dp, "_fold_bits", lambda *args: other_steps.append(args))
    steps = []

    def counted(real):
        def step(*args, **kwargs):
            steps.append(args)
            return real(*args, **kwargs)
        return step

    monkeypatch.setattr(dp, "convolve", lambda *args, **kwargs: other_steps.append(args))
    monkeypatch.setattr(dp, "_fold_packed", counted(dp._fold_packed))
    assert solve_imbalance(design_graph(random.Random(1))).value == 16
    assert other_steps == [] and len(steps) > 12


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


# ---------------------------------------------------------------------------
# the windowed sumset kernel against a plain double loop


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
    """``{point: (value, p, q)}`` of a ``sumset`` of two ``witness_table``s,
    each pair read off ``out.decode``; ``out`` must list its points in
    ascending order, and no cell may hold more than its value."""
    assert list(out.cells) == sorted(out.cells)
    a_pts, b_pts = list(a.cells), list(b.cells)
    got = {}
    for pt, (value,) in out.cells.items():
        counts = {w.block: w.counts for w in out.decode(pt)}
        assert sum(counts[a.block]) == scale and sum(counts[b.block]) == 1
        p = a_pts[counts[a.block].index(scale)]
        got[pt] = (value, p, b_pts[counts[b.block].index(1)])
    return got


def check_sumset(a_cells, b_cells, scale, lo, hi, run=None) -> PointTable:
    """Run ``dp.sumset`` (or ``run(a, b)``) on witness tables of the cells
    and check its point -> value map and every recovered pair against
    ``reference_sumset``; returns the result."""
    a, b = witness_table(a_cells, 0), witness_table(b_cells, 1)
    out = dp.sumset(a, b, scale, lo, hi) if run is None else run(a, b)
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


def level_step(a, b, lo, hi) -> PointTable:
    """``driver._combine_levels`` with ``a`` as the level below and ``b``
    as the one brick table of the level."""
    return _combine_levels(a, [b], lo, hi)


def test_sumset_kernel_matches_double_loop_in_both_callers():
    rng = random.Random(2024)
    windows = {"volume <= |b|": 0, "volume > |b|": 0}
    for trial in range(120):
        r = rng.randint(1, 4)
        span = rng.choice((2, 4, 8))
        low = -span if trial % 3 == 0 else 0
        a_cells = random_cells(rng, r, rng.randint(1, 30), span, low)
        b_cells = random_cells(rng, r, rng.randint(1, 60), span, low)

        check_sumset(
            a_cells, b_cells, 1, (-10 * span,) * r, (10 * span,) * r, run=convolve
        )
        for scale in (1, 2):
            for lo, hi in kernel_windows(rng, a_cells, b_cells, scale):
                volume = 1
                for l, h in zip(lo, hi):
                    volume *= max(h - l + 1, 0)
                if volume:
                    small = volume <= len(b_cells)
                    windows["volume <= |b|" if small else "volume > |b|"] += 1
                if scale == 1:
                    run = functools.partial(convolve, lo=lo, hi=hi)
                elif low == 0:
                    # The level step: a fold of the one brick table b
                    # started from 2*a.
                    run = functools.partial(level_step, lo=lo, hi=hi)
                else:
                    # The fold takes nonnegative brick tables only; with
                    # negative points the scale-2 check runs sumset.
                    run = None
                check_sumset(a_cells, b_cells, scale, lo, hi, run=run)
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
    coordinates past +-2**31 whose code fields span several int digits."""
    hits = count_sumset_steps(monkeypatch)
    rng = random.Random(2026)
    seen = {"r=5": 0, "pinned middle": 0, "wide fields": 0, "dense": 0}
    for trial in range(160):
        r = 5 if trial % 2 else rng.randint(1, 4)
        dense = trial % 4 < 2
        wide = trial % 8 >= 4
        span = 2**33 if wide else rng.choice((3, 12))
        offset = rng.choice((-(2**40), 2**35)) if wide else rng.choice((0, -5))
        a_cells = grouped_cells(rng, r, rng.randint(1, 30), span, offset, dense)
        b_cells = grouped_cells(rng, r, rng.randint(1, 50), span, offset, dense)
        for scale in (1, 2):
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
    negative offsets: every step of either packed path matches the
    double loop, and each path runs many times in every kind of case."""
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
        b_cells = brick_cells(rng, r, groups, per_group, span, offset)
        for scale in (1, 2):
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


def count_sumset_steps(monkeypatch) -> dict[str, int]:
    """Count the bitset and packed steps that ``dp.sumset`` runs."""
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
    hits = count_sumset_steps(monkeypatch)
    # The clip takes a table whole when its reach already lies inside the
    # clip bounds; count both branches per side.
    clips = {(side, branch): 0 for side in "ab" for branch in ("skip", "clip")}
    clip = dp._clip

    def counted_clip(cells, reach, lo, hi):
        pts, out = clip(cells, reach, lo, hi)
        side = "a" if cells.keys() == a_cells.keys() else "b"
        clips[side, "skip" if out is reach and pts else "clip"] += 1
        return pts, out

    monkeypatch.setattr(dp, "_clip", counted_clip)
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


def test_one_nonzero_value_never_takes_the_bitset_path(monkeypatch):
    hits = count_sumset_steps(monkeypatch)
    rng = random.Random(31)
    for trial in range(40):
        r = 1 + trial % 3
        a_cells = zero_cells(rng, r, rng.randint(2, 20), 4)
        b_cells = zero_cells(rng, r, rng.randint(2, 30), 4)
        side = a_cells if trial % 2 else b_cells
        side[rng.choice(sorted(side))] = (1, ())
        got = check_sumset(a_cells, b_cells, 1, (0,) * r, (12,) * r)
        assert any(cell[0] for cell in got.cells.values())
    assert hits["bits"] == 0 and hits["packed"] == 40, hits


def test_widely_spread_zero_tables_fall_back_without_a_huge_bitset(monkeypatch):
    hits = count_sumset_steps(monkeypatch)
    rng = random.Random(5)
    a = witness_table(zero_cells(rng, 3, 30, 10**6), 0)
    b = witness_table(zero_cells(rng, 3, 30, 10**6), 1)
    lo, hi = (0,) * 3, (3 * 10**6,) * 3
    tracemalloc.start()
    try:
        got = dp.sumset(a, b, 2, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == {"packed": 1, "bits": 0}
    assert peak < 1 << 20, peak  # the code space is ~10^19 bits
    assert sum_pairs(got, a, b, 2) == reference_sumset(a.cells, b.cells, 2, lo, hi)


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
    """``PointTable._pair`` skips the added ``q`` coded above the point's
    code, whose partner code would be negative.  On the scheduling ``cmax``
    guess 91/3, the fold's 693-point step tried 690 candidates under a
    scan of every added point; the witnesses stay those of that scan."""
    real_pair, real_value_at = PointTable._pair, PointTable._value_at
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
    monkeypatch.setattr(PointTable, "_value_at", value_at)
    runs = {}
    for name, search in (("bisect", real_pair), ("full scan", full_scan)):
        steps = []
        monkeypatch.setattr(PointTable, "_pair", counted(search, steps))
        runs[name] = decide_guess(inst, Fraction(91, 3), OBJECTIVE_CMAX), steps
    (schedule, fast), (want, slow) = runs["bisect"], runs["full scan"]
    assert schedule is not None and schedule == want
    assert [found for *_, found in fast] == [found for *_, found in slow]
    assert [(size, tried) for size, tried, _ in slow] == [(659, 1), (693, 690)]
    assert [(size, tried) for size, tried, _ in fast] == [(659, 1), (693, 1)]
