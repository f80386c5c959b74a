"""nfold benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload core-wide --seed 1 --seconds 28 --trace 0

Run from the root of a checkout that holds ``src/nfold``.  The workload
runs in a fresh worker process (``worker.py``) under a time limit.  Set-up
is timed in ``SETUP_PROBES`` further fresh processes, each right after a
bare interpreter start in the same environment, and reported as the median
ratio of the two times, scaled by ``BARE_NOMINAL_S``.  Human-readable
lines go to stderr, and so does the host record (load average, nproc,
Python version, CPU time); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (wall_norm_s, setup_s, peak_rss_mb); with
``--trace 1`` the per-layer ones.  Every run also writes its full record,
and with tracing its spans, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("core-wide", "core-deep", "apps-feas", "imbalance-opt")
SETUP_PROBES = 10
# Typical time of a bare interpreter start (``BARE``) on the reference host
# (Python 3.11, 2 vCPUs).  Set-up is interpreter start plus imports, so it
# slows down with the host in step with a bare start: over twelve rounds of
# ten processes, the raw set-up median spread 0.35 of its median and the
# median ratio to a bare start 0.03.
BARE_NOMINAL_S = 0.045
BARE = "import sys, time; print(time.monotonic() - float(sys.argv[1]))"
# Whole-run budget: a run must end within 180 s.
RUN_LIMIT_S = 170.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # Fixed string hashing, so set iteration order cannot vary between runs.
    env["PYTHONHASHSEED"] = "0"
    env.pop("NFOLD_LOG", None)
    return env


def _worker(args, extra: list[str], timeout: float) -> dict:
    """Start one worker process, wait for it, and parse its report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bare_start() -> float:
    """Time from spawning a bare interpreter to its first statement."""
    proc = subprocess.run([sys.executable, "-c", BARE, repr(time.monotonic())], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60.0, check=True)
    return float(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "nfold" / "__init__.py").is_file():
        print(f"perfbench: no nfold sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--trace-out", str(OUT / f"{tag}-spans.json")] if args.trace else []
    try:
        pairs = [(_bare_start(), _worker(args, ["--setup-only"], 60.0)["setup_s"])
                 for _ in range(SETUP_PROBES)]
        report = _worker(args, extra, RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: workload exceeded the run limit", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, IndexError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report["setup_pairs"] = pairs
    report["setup_raw_s"] = statistics.median(setup for _, setup in pairs)
    setup_s = statistics.median(setup / bare for bare, setup in pairs) * BARE_NOMINAL_S

    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name][0]}
                   for name, value in report["layers"].items()}
    else:
        metrics = {
            "wall_norm_s": {"value": report["wall_norm_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    host = report["host"]
    print(
        f"perfbench: {args.workload} seed {args.seed}: {report['wall_samples']} timed passes,"
        f" raw wall_s {report['wall_s']:.4f} s, raw setup {report['setup_raw_s']:.4f} s,"
        f" {report['attempted']} items, {report['failed']} failed, digest {report['digest']};"
        f" cpu/pass {report['process_cpu_s']:.4f} s, load {host['loadavg_start'][0]:.2f},"
        f" nproc {host['nproc']}, python {host['python']}",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"perfbench:   {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
