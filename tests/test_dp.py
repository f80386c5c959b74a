"""Point-table engine: base tables, convolution, level sets."""

from __future__ import annotations

import functools
import itertools
import logging
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import nfold.dp as dp
from nfold.core import NFoldInstance
from nfold.dp import (
    PointTable,
    base_tables_for_level,
    block_base_table,
    convolve,
    fold_tables,
    small_subproblem_set,
)
from nfold.driver import LevelSet, _combine_levels, solve
from nfold.imbalance import Graph, build_ordering_ilp
from nfold.oracle import oracle_point_set
from nfold.plan import build_plan


def points_of(table: PointTable) -> set[tuple[int, ...]]:
    return set(table.cells)


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


def test_base_table_signed_entries_keep_only_nonnegative_points():
    table = block_base_table(((-1, 1),), 2, hi=(5,))
    assert points_of(table) == {(0,), (2,)}


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


def test_convolve_box_and_scan_paths_agree():
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
    real = dp.convolve

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(dp, "convolve", counting)
    with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
        out = solve(inst, mode="optimize")
    assert ceiling * mass - out.solution.objective == 16
    assert len(sizes) == inst.n - 1
    assert max(sizes) <= 1530 // 10

    line = re.compile(r"fold order \[([\d, ]+)\], peak partial (\d+) cells")
    (match,) = [
        line.fullmatch(rec.getMessage())
        for rec in caplog.records
        if rec.name == "nfold.dp"
    ]
    assert sorted(map(int, match[1].split(", "))) == list(range(inst.n))
    assert int(match[2]) == max(sizes)


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


def random_cells(rng: random.Random, r: int, size: int, span: int) -> dict:
    """Nonnegative points in shuffled key order; values 1..3 force ties."""
    points = {tuple(rng.randint(0, span) for _ in range(r)) for _ in range(size)}
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
    rng = random.Random(2024)
    paths = {"box": 0, "index": 0}
    for trial in range(120):
        r = rng.choice((1, 2, 3))
        span = rng.choice((2, 4, 8))
        a_cells = random_cells(rng, r, rng.randint(1, 30), span)
        b_cells = random_cells(rng, r, rng.randint(1, 60), span)
        a = PointTable(r, "base")
        a.cells = a_cells
        b = PointTable(r, "base")
        b.cells = b_cells
        prev_cells = {p: (v[0], None, p) for p, v in a_cells.items()}
        prev = LevelSet(level=2, cells=prev_cells, small=b)

        want = reference_sumset(a_cells, b_cells, 1, (-1,) * r, (10 * span,) * r)
        assert list(convolve(a, b).cells.items()) == list(want.items())

        for scale in (1, 2):
            for lo, hi in kernel_windows(rng, a_cells, b_cells, scale):
                volume = 1
                for l, h in zip(lo, hi):
                    volume *= max(h - l + 1, 0)
                if volume:
                    paths["box" if volume <= len(b_cells) else "index"] += 1
                want = reference_sumset(a_cells, b_cells, scale, lo, hi)
                if scale == 1:
                    got = convolve(a, b, lo=lo, hi=hi).cells
                else:
                    got = _combine_levels(prev, b, lo, hi)
                assert list(got.items()) == list(want.items()), (trial, scale, lo, hi)
    assert paths["box"] > 50 and paths["index"] > 50, paths


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


def test_base_table_matches_composition_enumeration():
    rng = random.Random(733)
    cases = [random_base_case(rng) for _ in range(400)]
    k = 3
    slack = tuple(
        tuple(1 if row == col else 0 for col in range(k)) + (0,) for row in range(k)
    )
    cases += [
        (slack, 3 * k, None, (3,) * k),
        (slack, 3 * k, (1, 0, 1, 0), (2, 3, 3)),
        (((1, 1, 0, 2, 1),), 4, (0, 0, 0, 0, 1), None),  # repeated columns tie
        (((0, 1, 2), (0, 0, 0)), 3, None, (4, 0)),  # leading zero column
    ]
    wide = random.Random(9)
    for r in (1, 2):
        block = tuple(tuple(wide.randint(0, 3) for _ in range(40)) for _ in range(r))
        cases.append((block, 2, tuple(wide.randint(0, 1) for _ in range(40)), (4,) * r))
    for block, placed, costs, hi in cases:
        got = block_base_table(block, placed, block_index=2, costs=costs, hi=hi)
        want = reference_base_table(block, placed, costs, hi)
        assert list(got.cells.items()) == want, (block, placed, costs, hi)
        assert got.block == 2
