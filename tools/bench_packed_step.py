"""Rebuild a committed ladder of seeded solves, parent tree against this one.

Four ladders, chosen by ``--ladder``:

- ``packed-step`` (``BENCH_packed_step.json``): optimize solves that run
  the packed fold step (``dp._fold_packed``) on sparse and dense brick
  tables;
- ``shared-bricks`` (``BENCH_shared_bricks.json``): solves of programs
  whose bricks repeat, where ``dp.base_tables_for_level`` builds one base
  table per distinct key, and whole ``solve_imbalance`` runs, whose cover
  orders share one base-table memo;
- ``fold-overhead`` (``BENCH_fold_overhead.json``): feasibility solves of
  the two planted families of the benchmark's ``core-wide`` and
  ``core-deep`` workloads, at more bricks and at more levels, where each
  level's and each fold step's fixed cost counts;
- ``coded-levels`` (``BENCH_coded_levels.json``): deep solves whose
  levels hold many points, r = 3 and 4 (bitset levels), one optimize
  row (packed levels), and a wide and a deep row whose levels hold few,
  where the change from one level to the next counts.

Rows:

- *random planted core* (seed 1): ``rng = random.Random(seed)``; each of
  the ``n`` bricks gets ``t`` columns of ``r`` entries
  ``rng.randint(0, e)``; ``perfbench.workloads.planted_instance`` plants
  ``b_up``; then ``c`` draws one ``rng.randint(0, 3)`` per column;
- *random cover graph* (k = 5, 24 vertices, seed 2): the cover is
  ``0..k-1``, every other vertex is joined to ``rng.sample(cover,
  rng.randint(1, k))`` and the cover carries the path ``i - i+1``; the
  row solves the slot program of the first cover order
  ``solve_imbalance`` would try;
- *imbalance front end*, spec ``("imbalance", graph)``: one whole
  ``solve_imbalance`` on ``graph``, either ``("cover", k, vertices,
  seed)``, the random cover graph above, or ``("design", seed)``, the
  first graph of the benchmark's ``imbalance-opt`` workload at that seed;
- *uniform planted core* (seed 1): a pool of ``m`` bricks, each ``t``
  columns of ``r`` entries ``rng.randint(0, e)``, then one cost
  ``rng.randint(0, 3)`` per column of each pool brick; the ``n`` bricks
  are ``rng.randrange(m)`` picks from the pool, with their pool brick's
  costs, and ``planted_instance`` plants ``b_up``;
- *wide planted core* (seed 1, the ``core-wide`` family): ``n`` r = 1
  bricks, each the columns 0, 1, 2 in ``rng.shuffle`` order, and
  ``planted_instance`` plants ``b_up`` at ``b_low = b``;
- *deep planted core* (seed 1, the ``core-deep`` family): the two
  ``perfbench.workloads.DEEP_BRICKS`` under one ``rng.choice`` of
  ``SQUARE_SYMMETRIES``, their columns in ``rng.shuffle`` order, and
  ``planted_instance`` plants ``b_up`` at ``b_low = b``.

Every row runs in fresh processes, each under a 60 s cap and an address
space limit of ``MEMORY_CAP_MB`` that it sets on itself: one timed
solve on the parent tree (``--parent``, a checkout of the commit to
compare with), one on this tree, and one counted solve on each tree
(``parent_counted``, ``counted``) that wraps the packed paths,
``dp.block_base_table`` and the solver's folds.  The timed pair runs
before the counted pair, the parent first in even rows and this tree
first in odd ones, so a slow stretch of the host does not land on one
side only.  A timed run repeats its solve at least three times and
until the repeats took a second, while the next repeat likely ends
within half the cap, and keeps the fastest.  A process that hits the
cap, or raises ``MemoryError`` under the limit, records ``"limit"``; the
row is never dropped or shrunk.  Each record holds the status, the
objective (None in feasibility mode), a digest of the witness ``x`` and
the process's peak resident size (``max_rss_mb``, from ``ru_maxrss``); a
front-end row records ``"optimal"``, the imbalance and a digest of the
``(ordering, cover)``.  A counted run adds the base tables built, the
seconds of its level changes against those of its fold steps (see
``count_paths``), and for an engine row the solve's levels and its
``dp_cells``, the packed steps per path, the pairs each path tested (one
per guard test on the pair path, and on the grouped walk every pair in
the prefix groups that its axis-0 bisect reaches), the steps of its
folds, and the forced ones among them: steps taken while every table
left in the fold has one ``(size, reach)``.  ``same_answer`` says that
every record of the row that ended has one status, objective and
witness, and every counted one the same ``dp_cells``.

Usage::

    python tools/bench_packed_step.py --parent /path/to/parent/checkout
    python tools/bench_packed_step.py --parent DIR --rows core-n10-r2-t3-b1000
    python tools/bench_packed_step.py --parent DIR --ladder shared-bricks
    python tools/bench_packed_step.py --parent DIR --ladder fold-overhead
    python tools/bench_packed_step.py --parent DIR --ladder coded-levels
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import platform
import random
import resource
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CAP_S = 60.0
REPEATS = 3
MIN_TIMED_S = 1.0
MEMORY_CAP_MB = 2048

# ladder -> (output file, {name -> (mode, spec)}), a spec being
# ("core", n, r, t, e, b), ("cover", k, vertices, seed),
# ("uniform", n, m, r, t, e, b), ("wide", n, b), ("deep", b) or
# ("imbalance", ("cover", k, vertices, seed) or ("design", seed))
LADDERS = {
    "packed-step": ("BENCH_packed_step.json", {
        "core-n10-r2-t3-b1000": ("optimize", ("core", 10, 2, 3, 2, 1000)),
        "core-n10-r2-t3-b10000": ("optimize", ("core", 10, 2, 3, 2, 10_000)),
        "core-n8-r2-t4-b300": ("optimize", ("core", 8, 2, 4, 3, 300)),
        "core-n4-r3-t4-b100": ("optimize", ("core", 4, 3, 4, 2, 100)),
        "core-n6-r3-t3-b200": ("optimize", ("core", 6, 3, 3, 2, 200)),
        "core-n3-r4-t4-b30": ("optimize", ("core", 3, 4, 4, 2, 30)),
        "core-n3-r3-t5-b60": ("optimize", ("core", 3, 3, 5, 2, 60)),
        "cover-k5-v24-seed2": ("optimize", ("cover", 5, 24, 2)),
    }),
    "shared-bricks": ("BENCH_shared_bricks.json", {
        "uniform-n96-m4-r1-t3-b1000": ("feasibility", ("uniform", 96, 4, 1, 3, 2, 1000)),
        "uniform-n384-m4-r1-t3-b1000": ("feasibility", ("uniform", 384, 4, 1, 3, 2, 1000)),
        "uniform-n96-m4-r1-t3-b1e6": ("feasibility", ("uniform", 96, 4, 1, 3, 2, 10**6)),
        "uniform-n96-m4-r1-t4-b1000": ("optimize", ("uniform", 96, 4, 1, 4, 3, 1000)),
        "uniform-n48-m4-r2-t3-b1000": ("feasibility", ("uniform", 48, 4, 2, 3, 2, 1000)),
        "uniform-n24-m4-r2-t3-b1000": ("optimize", ("uniform", 24, 4, 2, 3, 2, 1000)),
        "uniform-n12-m4-r3-t3-b200": ("feasibility", ("uniform", 12, 4, 3, 3, 2, 200)),
        "imbalance-design-seed1": ("optimize", ("imbalance", ("design", 1))),
        "imbalance-k4-v16-seed1": ("optimize", ("imbalance", ("cover", 4, 16, 1))),
        "imbalance-k5-v14-seed2": ("optimize", ("imbalance", ("cover", 5, 14, 2))),
    }),
    "fold-overhead": ("BENCH_fold_overhead.json", {
        "wide-n24-b100": ("feasibility", ("wide", 24, 100)),
        "wide-n96-b100": ("feasibility", ("wide", 96, 100)),
        "wide-n384-b100": ("feasibility", ("wide", 384, 100)),
        "deep-b150": ("feasibility", ("deep", 150)),
        "deep-b1e6": ("feasibility", ("deep", 10**6)),
        "deep-b1e12": ("feasibility", ("deep", 10**12)),
    }),
    "coded-levels": ("BENCH_coded_levels.json", {
        "core-n4-r3-t4-b1000": ("feasibility", ("core", 4, 3, 4, 2, 1000)),
        "core-n8-r3-t4-b1000": ("feasibility", ("core", 8, 3, 4, 2, 1000)),
        "core-n4-r4-t4-b1000": ("feasibility", ("core", 4, 4, 4, 2, 1000)),
        "wide-n96-b100": ("feasibility", ("wide", 96, 100)),
        "deep-b1e6": ("feasibility", ("deep", 10**6)),
        "core-n12-r2-t4-b1000": ("optimize", ("core", 12, 2, 4, 3, 1000)),
    }),
}
ROWS = {name: row for _, rows in LADDERS.values() for name, row in rows.items()}


def cover_graph(k: int, vertices: int, seed: int):
    """The random cover graph: cover ``0..k-1`` carrying a path, every
    other vertex joined to a random nonempty subset of the cover."""
    from nfold.imbalance import Graph

    rng = random.Random(seed)
    cover = list(range(k))
    edges = [(i, i + 1) for i in range(k - 1)]
    for v in range(k, vertices):
        edges += [(u, v) for u in rng.sample(cover, rng.randint(1, k))]
    return Graph.build(range(vertices), edges)


def build(spec):
    """The ``NFoldInstance`` of one row, or the ``Graph`` of a front-end row."""
    from nfold.core import NFoldInstance

    if spec[0] == "imbalance":
        if spec[1][0] == "design":
            from perfbench.workloads import _design_graph

            return _design_graph(random.Random(f"imbalance-opt/{spec[1][1]}"))
        return cover_graph(*spec[1][1:])

    if spec[0] in ("wide", "deep"):
        from perfbench.workloads import DEEP_BRICKS, SQUARE_SYMMETRIES, planted_instance

        rng = random.Random(1)
        if spec[0] == "wide":
            _, n, b = spec
            sets = [[(0,), (1,), (2,)] for _ in range(n)]
        else:
            _, b = spec
            sym = rng.choice(SQUARE_SYMMETRIES)
            sets = [[sym(*pt) for pt in brick] for brick in DEEP_BRICKS]
        for cols in sets:
            rng.shuffle(cols)
        return planted_instance(rng, sets, b)
    if spec[0] in ("core", "uniform"):
        from perfbench.workloads import planted_instance

        rng = random.Random(1)
        if spec[0] == "core":
            _, n, r, t, e, b = spec
            cols = [[tuple(rng.randint(0, e) for _ in range(r)) for _ in range(t)]
                    for _ in range(n)]
            inst = planted_instance(rng, cols, b)
            c = tuple(rng.randint(0, 3) for _ in range(sum(inst.t)))
        else:
            _, n, m, r, t, e, b = spec
            pool = [[tuple(rng.randint(0, e) for _ in range(r)) for _ in range(t)]
                    for _ in range(m)]
            pool_costs = [[rng.randint(0, 3) for _ in range(t)] for _ in range(m)]
            picks = [rng.randrange(m) for _ in range(n)]
            inst = planted_instance(rng, [pool[k] for k in picks], b)
            c = tuple(v for k in picks for v in pool_costs[k])
        return NFoldInstance(n=inst.n, r=inst.r, t=inst.t, blocks=inst.blocks,
                             b_up=inst.b_up, b_low=inst.b_low, c=c)
    from itertools import permutations

    from nfold.imbalance import build_ordering_ilp, vertex_cover

    _, k, vertices, seed = spec
    graph = cover_graph(k, vertices, seed)
    found = vertex_cover(graph, k_max=k)
    order = next(o for o in permutations(found) if o <= tuple(reversed(o)))
    return build_ordering_ilp(graph, order)[0]


class FoldOrders(logging.Handler):
    """Collects the order of every fold from its ``fold order`` debug line."""

    def __init__(self) -> None:
        super().__init__()
        self.orders: list[list[int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("fold order ["):
            self.orders.append(json.loads(message[len("fold order "):message.index("]") + 1]))


def count_paths(dp, driver) -> dict:
    """Wrap the base table builder, the fold steps (``dp.convolve``), the
    packed step and its two paths, and the solver's folds; returns the
    live counts.

    ``fold_step_s`` sums the seconds inside ``dp.convolve``.
    ``level_change_s`` sums, over the ``level_changes`` folds started
    from ``2*prev``, the seconds from the fold's entry to its first step
    (or to its return, when the clip keeps nothing), which take ``prev``
    to the fold's first partial; on a tree whose folds list their points
    as tuples for the next level to read (``PointTable._list_cells``), it
    adds that listing too.
    """
    counts = {"base_tables": 0, "fold_steps": 0, "forced_steps": 0,
              "level_changes": 0, "level_change_s": 0.0, "fold_step_s": 0.0,
              "steps": {"pairs": 0, "pairs, bisect": 0, "grouped": 0,
                        "lookup or empty": 0},
              "pairs_tested": {"pairs": 0, "pairs, bisect": 0, "grouped": 0}}
    steps, tested = counts["steps"], counts["pairs_tested"]
    fold_packed, pair_sum, index_sum = dp._fold_packed, dp._pair_sum, dp._index_sum
    block_base_table, fold_tables, convolve = dp.block_base_table, driver.fold_tables, dp.convolve
    list_cells = getattr(dp.PointTable, "_list_cells", None)
    entered: list[float] = []  # entry time of a fold from 2*prev not yet stepped
    handler = FoldOrders()
    logger = logging.getLogger(dp.__name__)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    logger.propagate = False

    def base_table(*args, **kwargs):
        counts["base_tables"] += 1
        return block_base_table(*args, **kwargs)

    def level_changed() -> None:
        counts["level_changes"] += 1
        counts["level_change_s"] += time.perf_counter() - entered.pop()

    def fold(tables, *args):
        """A step is forced while the tables left share one (size, reach)."""
        if len(args) > 2 and args[2] is not None:
            entered.append(time.perf_counter())
        out = fold_tables(tables, *args)
        if entered:
            level_changed()
        left = Counter((len(t), t.reach()) for t in tables)
        for idx in handler.orders.pop():
            counts["fold_steps"] += 1
            counts["forced_steps"] += len(left) == 1
            key = (len(tables[idx]), tables[idx].reach())
            left[key] -= 1
            if not left[key]:
                del left[key]
        return out

    def axis0_pairs(a_items, b_items, shifts, w_lo, w_hi) -> int:
        """Pairs whose axis-0 digit lands: each ``p`` against its bisect range."""
        top = shifts[0]
        codes = [c for c, _ in b_items]
        lo, hi = w_lo[0] << top, w_hi[0] + 1 << top
        total = 0
        for pc, _ in a_items:
            head = pc >> top << top
            i0 = bisect_left(codes, lo - head)
            total += bisect_left(codes, hi - head, i0) - i0
        return total

    def step(*args):
        if entered:
            level_changed()
        start = time.perf_counter()
        out = convolve(*args)
        counts["fold_step_s"] += time.perf_counter() - start
        return out

    def listed(table) -> None:
        start = time.perf_counter()
        list_cells(table)
        counts["level_change_s"] += time.perf_counter() - start

    def packed(*args):
        before = steps["pairs"] + steps["pairs, bisect"] + steps["grouped"]
        out = fold_packed(*args)
        if before == steps["pairs"] + steps["pairs, bisect"] + steps["grouped"]:
            steps["lookup or empty"] += 1
        return out

    def pairs(a_items, b_items, shifts, radix0, w_lo, w_hi, values):
        a_items = list(a_items)
        if len(b_items) > dp._PAIR_BISECT_POINTS:
            path = "pairs, bisect"
            tested[path] += axis0_pairs(a_items, b_items, shifts, w_lo, w_hi)
        else:
            path = "pairs"
            tested[path] += len(a_items) * len(b_items)
        steps[path] += 1
        return pair_sum(a_items, b_items, shifts, radix0, w_lo, w_hi, values)

    def grouped(a_items, b_items, shifts, w_lo, w_hi, values):
        steps["grouped"] += 1
        tested["grouped"] += axis0_pairs(a_items, b_items, shifts, w_lo, w_hi)
        return index_sum(a_items, b_items, shifts, w_lo, w_hi, values)

    dp._fold_packed, dp._pair_sum, dp._index_sum = packed, pairs, grouped
    dp.block_base_table, driver.fold_tables, dp.convolve = base_table, fold, step
    if list_cells is not None:
        dp.PointTable._list_cells = listed
    return counts


def child(name: str, count: bool) -> dict | str:
    """One row in this process, on the ``nfold`` found on ``sys.path``;
    ``"limit"`` when it raises ``MemoryError``."""
    from nfold import dp, driver

    mode, spec = ROWS[name]
    problem = build(spec)
    if spec[0] == "imbalance":
        from nfold.imbalance import solve_imbalance

        def once():
            return solve_imbalance(problem)
    else:
        def once():
            return driver.solve(problem, mode=mode)
    counts = count_paths(dp, driver) if count else None
    best = None
    spent = 0.0
    runs = 0
    while True:
        start = time.perf_counter()
        try:
            outcome = once()
        except MemoryError:
            return "limit"
        seconds = time.perf_counter() - start
        spent += seconds
        runs += 1
        best = seconds if best is None else min(best, seconds)
        if count or spent + seconds > CAP_S / 2 or (
                runs >= REPEATS and spent >= MIN_TIMED_S):
            break
    if spec[0] == "imbalance":
        status, objective = "optimal", outcome.value
        witness = (outcome.ordering, outcome.cover)
    else:
        solution = outcome.solution
        status = outcome.status
        objective = None if solution is None else solution.objective
        witness = None if solution is None else solution.x
    record = {
        "status": status,
        "objective": objective,
        "witness": hashlib.sha256(repr(witness).encode()).hexdigest()[:16],
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if count:
        if spec[0] != "imbalance":
            record["levels"] = outcome.stats["iterations"]
            record["dp_cells"] = outcome.stats["dp_cells"]
        record.update(counts)
        for key in ("level_change_s", "fold_step_s"):
            record[key] = round(record[key], 4)
    else:
        record["seconds"] = round(best, 4)
    return record


def run(tree: Path, name: str, count: bool) -> dict | str:
    """One fresh process on ``tree``; ``"limit"`` when it hits the time
    cap or its memory limit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--tree", str(tree)] + (["--count"] if count else [])
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return "limit"
    if done.returncode:
        raise SystemExit(f"{name} on {tree}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="checkout of the commit to compare with")
    parser.add_argument("--ladder", choices=list(LADDERS), default="packed-step")
    parser.add_argument("--rows", nargs="*", choices=list(ROWS),
                        help="rows of the ladder to run (default: all)")
    parser.add_argument("--out", type=Path,
                        help="output file (default: the ladder's BENCH_*.json)")
    parser.add_argument("--child", choices=list(ROWS), help=argparse.SUPPRESS)
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path[:0] = [str(args.tree / "src"), str(args.tree)]
        cap = MEMORY_CAP_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        print(json.dumps(child(args.child, args.count)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    out_name, ladder = LADDERS[args.ladder]
    if args.rows is None:
        args.rows = list(ladder)
    elif not set(args.rows) <= set(ladder):
        parser.error(f"--rows must be rows of the {args.ladder} ladder")

    rows = {}
    trees = (args.parent, ROOT)
    for i, name in enumerate(args.rows):
        mode, spec = ladder[name]
        first = i % 2
        got = {(side, count): run(trees[side], name, count)
               for count in (False, True) for side in (first, 1 - first)}
        row = {"instance": spec, "mode": mode, "parent": got[0, False],
               "change": got[1, False], "counted": got[1, True],
               "parent_counted": got[0, True]}
        ended = [row[k] for k in ("parent", "change", "counted", "parent_counted")
                 if row[k] != "limit"]
        row["same_answer"] = (
            len({(t["status"], t["objective"], t["witness"]) for t in ended}) <= 1
            and len({t["dp_cells"] for t in ended if "dp_cells" in t}) <= 1)
        rows[name] = row
        timings = {k: row[k] for k in ("parent", "change", "same_answer")}
        print(name, json.dumps(timings), file=sys.stderr, flush=True)
    report = {
        "cap_s": CAP_S,
        "repeats": REPEATS,
        "min_timed_s": MIN_TIMED_S,
        "memory_cap_mb": MEMORY_CAP_MB,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "rows": rows,
    }
    (args.out or ROOT / out_name).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
