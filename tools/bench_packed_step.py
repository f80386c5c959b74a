"""Rebuild a committed ladder of seeded solves, parent tree against this one.

Two ladders, chosen by ``--ladder``:

- ``packed-step`` (``BENCH_packed_step.json``): optimize solves that run
  the packed fold step (``dp._fold_packed``) on sparse and dense brick
  tables;
- ``shared-bricks`` (``BENCH_shared_bricks.json``): solves of programs
  whose bricks repeat, where ``dp.base_tables_for_level`` builds one base
  table per distinct brick of a level.

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
- *uniform planted core* (seed 1): a pool of ``m`` bricks, each ``t``
  columns of ``r`` entries ``rng.randint(0, e)``, then one cost
  ``rng.randint(0, 3)`` per column of each pool brick; the ``n`` bricks
  are ``rng.randrange(m)`` picks from the pool, with their pool brick's
  costs, and ``planted_instance`` plants ``b_up``.

Every row runs in fresh processes, each under a 60 s cap: one timed
solve on the parent tree (``--parent``, a checkout of the commit to
compare with), one on this tree, and one counted solve on this tree
that wraps the packed paths and ``dp.block_base_table``.  A timed run
repeats its solve, at most three times and while the next repeat likely
ends within half the cap, and keeps the fastest.  A process that hits
the cap records ``"limit"``; the row is never dropped or shrunk.  Each
record holds the status, the objective (None in feasibility mode) and a
digest of the witness ``x``; the counted run adds the solve's levels,
its ``dp_cells``, the base tables built, the packed steps per path and
the pairs each path tested: one per guard test on the pair path, and on
the grouped walk every pair in the prefix groups that its axis-0 bisect
reaches.

Usage::

    python tools/bench_packed_step.py --parent /path/to/parent/checkout
    python tools/bench_packed_step.py --parent DIR --rows core-n10-r2-t3-b1000
    python tools/bench_packed_step.py --parent DIR --ladder shared-bricks
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CAP_S = 60.0
REPEATS = 3

# ladder -> (output file, {name -> (mode, spec)}), a spec being
# ("core", n, r, t, e, b), ("cover", k, vertices, seed) or
# ("uniform", n, m, r, t, e, b)
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
    }),
}
ROWS = {name: row for _, rows in LADDERS.values() for name, row in rows.items()}


def build(spec):
    """The ``NFoldInstance`` of one row."""
    from nfold.core import NFoldInstance

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

    from nfold.imbalance import Graph, build_ordering_ilp, vertex_cover

    _, k, vertices, seed = spec
    rng = random.Random(seed)
    cover = list(range(k))
    edges = [(i, i + 1) for i in range(k - 1)]
    for v in range(k, vertices):
        edges += [(u, v) for u in rng.sample(cover, rng.randint(1, k))]
    graph = Graph.build(range(vertices), edges)
    found = vertex_cover(graph, k_max=k)
    order = next(o for o in permutations(found) if o <= tuple(reversed(o)))
    return build_ordering_ilp(graph, order)[0]


def count_paths(dp) -> dict:
    """Wrap the base table builder, the packed step and its two paths;
    returns the live counts."""
    counts = {"base_tables": 0,
              "steps": {"pairs": 0, "pairs, bisect": 0, "grouped": 0,
                        "lookup or empty": 0},
              "pairs_tested": {"pairs": 0, "pairs, bisect": 0, "grouped": 0}}
    steps, tested = counts["steps"], counts["pairs_tested"]
    fold_packed, pair_sum, index_sum = dp._fold_packed, dp._pair_sum, dp._index_sum
    block_base_table = dp.block_base_table

    def base_table(*args, **kwargs):
        counts["base_tables"] += 1
        return block_base_table(*args, **kwargs)

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
    dp.block_base_table = base_table
    return counts


def child(name: str, count: bool) -> dict:
    """One row in this process, on the ``nfold`` found on ``sys.path``."""
    from nfold import dp
    from nfold.driver import solve

    mode, spec = ROWS[name]
    inst = build(spec)
    counts = count_paths(dp) if count else None
    best = None
    spent = 0.0
    for _ in range(1 if count else REPEATS):
        start = time.perf_counter()
        outcome = solve(inst, mode=mode)
        seconds = time.perf_counter() - start
        spent += seconds
        best = seconds if best is None else min(best, seconds)
        if spent + seconds > CAP_S / 2:
            break
    solution = outcome.solution
    x = None if solution is None else solution.x
    record = {
        "status": outcome.status,
        "objective": None if solution is None else solution.objective,
        "witness": hashlib.sha256(repr(x).encode()).hexdigest()[:16],
    }
    if count:
        record["levels"] = outcome.stats["iterations"]
        record["dp_cells"] = outcome.stats["dp_cells"]
        record.update(counts)
    else:
        record["seconds"] = round(best, 4)
    return record


def run(tree: Path, name: str, count: bool) -> dict | str:
    """One fresh process on ``tree``; ``"limit"`` when it hits the cap."""
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
    for name in args.rows:
        mode, spec = ladder[name]
        row = {"instance": spec, "mode": mode, "parent": run(args.parent, name, False),
               "change": run(ROOT, name, False), "counted": run(ROOT, name, True)}
        timed = [row[k] for k in ("parent", "change") if row[k] != "limit"]
        row["same_answer"] = len({(t["objective"], t["witness"]) for t in timed}) <= 1
        rows[name] = row
        timings = {k: row[k] for k in ("parent", "change", "same_answer")}
        print(name, json.dumps(timings), file=sys.stderr, flush=True)
    report = {
        "cap_s": CAP_S,
        "repeats": REPEATS,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "rows": rows,
    }
    (args.out or ROOT / out_name).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
