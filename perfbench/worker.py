"""One workload in one fresh process: set up, run timed passes, report.

Started by ``run.py``; prints a single JSON report as its last stdout
line.  ``--spawned-at`` is the parent's ``time.monotonic()`` just before
the spawn, so set-up time covers interpreter start, importing nfold and
generating the inputs.  With ``--setup-only`` the worker stops there.

A pass runs every item of the workload once; a pass's time is the sum
of its items' library calls (answer checks run outside the timing).
Passes repeat while another one fits in ``--seconds``, with at least
``MIN_PASSES``.  Before every item, and after the last one, the worker
times a fixed pure-Python reference loop (``host_probe``).  A pass's
normalised time is its time over the mean of its probes, times
``PROBE_NOMINAL_S``; ``wall_norm_s`` is the median over passes.  On a
shared host the speed changes by 10-20 % within seconds to minutes, and
the probes taken around a pass change with it, so the normalised time is
what stays comparable between runs.

With ``--trace 1`` passes alternate untraced and traced, so the tracing
overhead is measured on the same inputs.  Every item runs under
``ITEM_LIMIT_S``; one that hits it is recorded as ``"limit"``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import time

# Importing the library counts toward set-up time.
import workloads
from tracer import Tracer, median_metrics, pass_metrics

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# The slowest item takes about 4 s on a slow minute of the reference host.
# A traced run always makes two passes of at most four items, so even with
# every item at the limit the worker ends after 120 s of measuring.
ITEM_LIMIT_S = 15.0
# No further pass starts after this much measuring, whatever --seconds
# says, so the process ends well within the 180 s a run may take.
HARD_STOP_S = 100.0
# Typical host_probe() time on the reference host (Python 3.11, 2 vCPUs).
PROBE_NOMINAL_S = 0.12


def host_probe() -> float:
    """Time a fixed dict-of-tuples sumset, the engine's kind of work."""
    start = time.perf_counter()
    left = {(i, j): (0, i, j) for i in range(40) for j in range(40) if (7 * i + 3 * j) % 5}
    right = [(i, j) for i in range(25) for j in range(25) if (i + j) % 3]
    out: dict[tuple[int, int], tuple] = {}
    for p, cell in left.items():
        for q in right:
            total = (p[0] + q[0], p[1] + q[1])
            if total[0] > 50 or total[1] > 50:
                continue
            prior = out.get(total)
            if prior is None or cell[0] > prior[0]:
                out[total] = (cell[0], p, q)
    return time.perf_counter() - start


class ItemLimit(BaseException):
    """Raised from the timer signal; BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise ItemLimit()


def run_item(item, tracer: Tracer | None) -> dict:
    """Run one item under the limit; returns its status and timing."""
    span = None
    signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
    start = time.perf_counter()
    try:
        if tracer is not None and item.layer is not None:
            span = tracer.open(f"{item.layer}.call", item.layer)
        answer = item.run()
        seconds = time.perf_counter() - start
    except ItemLimit:
        return {"item": item.name, "status": "limit", "seconds": time.perf_counter() - start}
    except Exception as exc:  # an item that raises is a failed item, not a failed run
        return {"item": item.name, "status": "error", "error": repr(exc),
                "seconds": time.perf_counter() - start}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if span is not None:
            tracer.close(span)
    try:
        problem = item.check(answer)
    except Exception as exc:
        problem = f"check raised {exc!r}"
    if problem is not None:
        return {"item": item.name, "status": "wrong", "error": problem, "seconds": seconds}
    return {"item": item.name, "status": "ok", "seconds": seconds, "answer": item.summary(answer)}


def run_pass(items, tracer: Tracer | None) -> dict:
    """Run every item once, with a host probe before each and after the last."""
    probes, results, cpu = [], [], 0.0
    for item in items:
        probes.append(host_probe())
        start = time.process_time()
        results.append(run_item(item, tracer))
        cpu += time.process_time() - start
    probes.append(host_probe())
    seconds = sum(r["seconds"] for r in results)
    return {
        "traced": tracer is not None,
        "seconds": seconds,
        "norm_s": seconds / statistics.mean(probes) * PROBE_NOMINAL_S,
        "cpu_s": cpu,
        "probes": probes,
        "items": results,
    }


def answer_digest(passes: list[dict]) -> str:
    """Digest of the first pass's exact answers, for comparing commits."""
    answers = [[r["item"], r["status"], r.get("answer")] for r in passes[0]["items"]]
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    host = {
        "loadavg_start": os.getloadavg(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    items = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        try:
            record = run_pass(items, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record["layers"] = pass_metrics(tracer.spans[first_span:], tracer.missing)
        passes.append(record)
        elapsed = time.perf_counter() - started
        wanted = MIN_TRACED_PASSES * 2 if tracer else MIN_PASSES
        # A traced run needs one untraced and one traced pass, however slow.
        floor = 2 if tracer else 1
        if len(passes) >= floor and elapsed + record["seconds"] > HARD_STOP_S:
            break
        if len(passes) >= wanted and elapsed + record["seconds"] > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    statuses = [r["status"] for p in passes for r in p["items"]]
    norm_s = statistics.median(p["norm_s"] for p in untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "setup_s": setup_s,
        "wall_s": statistics.median(p["seconds"] for p in untraced),
        "wall_norm_s": norm_s,
        "wall_samples": len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process_cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "digest": answer_digest(passes),
        "passes": passes,
    }
    if traced_passes:
        layers = median_metrics([p["layers"] for p in traced_passes])
        traced_norm_s = statistics.median(p["norm_s"] for p in traced_passes)
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in traced_passes)
        layers["trace.overhead_frac"] = traced_norm_s / norm_s - 1.0
        report["layers"] = layers
        report["missing_spans"] = tracer.missing
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({
                    "workload": args.workload,
                    "seed": args.seed,
                    "metrics": layers,
                    "spans": [
                        [s.name, s.layer, s.start, s.end, s.parent, s.counts]
                        for s in tracer.spans
                    ],
                }, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
