"""Run every workload over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py --seeds 10 --first-seed 1
    python3 perfbench/sweep.py --seeds 1 --trace 1

Each run is a separate ``run.py`` process that measures for the
``run_seconds`` of ``BENCHMARK.json``.  Workloads are interleaved
seed by seed, and the order rotates with every seed, so a drift in host
speed spreads over all workloads instead of landing on one.  For every
metric the sweep prints the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median; a traced sweep
also prints each engine layer's share of ``driver.solve_s``.  The raw
results go to ``.bench_out/sweep-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, WORKLOADS
from tracer import ENGINE_PARTS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS)

    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.seeds):
        seed = args.first_seed + i
        for name in names[i % len(names):] + names[:i % len(names)]:
            result = run_once(name, seed, seconds, args.trace)
            results[name].append(result)
            values = {m: round(v["value"], 4) if v["value"] is not None else None
                      for m, v in result["metrics"].items() if not args.trace}
            print(f"seed {seed} {name}: correct={result['correct']}"
                  f" failed={result['failed']}/{result['attempted']} {values}", flush=True)

    for name in names:
        runs = results[name]
        print(f"\n{name}: {len(runs)} runs,"
              f" failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if any(v is None for v in values):
                print(f"  {metric:24s} null")
                continue
            if len(values) > 1:
                med, q1, q3, share = spread(values)
                print(f"  {metric:24s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.3f}")
            else:
                print(f"  {metric:24s} {values[0]:.6g}")
        if args.trace:
            solve_s = statistics.median(r["metrics"]["driver.solve_s"]["value"] for r in runs)
            shares = {
                part: statistics.median(r["metrics"][part]["value"] or 0.0 for r in runs) / solve_s
                for part in ENGINE_PARTS
            }
            print("  shares of driver.solve_s: " + ", ".join(
                f"{part[:-2]} {share:.1%}" for part, share in shares.items() if share >= 0.001))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"sweep-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
