"""The benchmark tracer still finds every function it wraps.

``perfbench/tracer.py`` replaces library functions by name to record its
per-layer spans; a renamed or reshaped target turns its metrics into
nulls.  This reads the tracer and changes nothing in ``perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path

import pytest

from nfold import dp
from nfold.core import STATUS_FEASIBLE, NFoldInstance
from nfold.driver import solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def two_brick_instance() -> NFoldInstance:
    return NFoldInstance(
        n=2, r=1, t=(2, 2), blocks=(((1, 2),), ((0, 1),)), b_up=(50,),
        b_low=(30, 30),
    )


def test_tracer_finds_every_target_and_counts_the_combine():
    inst = two_brick_instance()
    spans = tracer.Tracer()
    spans.install()
    try:
        out = solve(inst)
    finally:
        spans.uninstall()
    assert spans.missing == []
    assert out.status == STATUS_FEASIBLE
    plans = [s for s in spans.spans if s.name == "plan.build"]
    assert [s.counts["levels"] for s in plans] == [out.stats["iterations"]]
    assert out.stats["iterations"] >= 3
    combines = [s for s in spans.spans if s.name == "driver.combine"]
    assert len(combines) == out.stats["iterations"] - 1
    for span in combines:
        assert span.counts["pairs"] > 0 and span.counts["cells"] > 0
    assert [s.name for s in spans.spans].count("driver.reconstruct") == 1
    metrics = tracer.pass_metrics(spans.spans, spans.missing)
    assert all(value is not None for value in metrics.values())


@pytest.mark.parametrize("kind", ["bitset", "packed at cap 0", "valued"])
def test_tracer_counts_one_convolve_span_per_fold_step(caplog, monkeypatch, kind):
    """Every fold step is one ``dp.convolve`` call: a bitset fold, a
    zero-valued fold in packed codes (bitset caps at 0) and a valued
    fold each record one span per step of their ``fold order`` debug
    lines, each with the pairs it was offered, and every step is of the
    fold's kind.  The level combines above level 1 count their pairs and
    cells too."""
    steps = {"bits": 0, "packed": 0}

    def counted(name, fn):
        def wrapper(*args):
            steps[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dp, "_fold_bits", counted("bits", dp._fold_bits))
    monkeypatch.setattr(dp, "_fold_packed", counted("packed", dp._fold_packed))
    inst, mode = two_brick_instance(), "feasibility"
    if kind == "packed at cap 0":
        monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", 0)
        monkeypatch.setattr(dp, "_BITS_PER_POINT", 0)
    elif kind == "valued":
        inst, mode = dataclasses.replace(inst, c=(0, 1, 1, 0)), "optimize"
    spans = tracer.Tracer()
    spans.install()
    try:
        with caplog.at_level(logging.DEBUG, logger="nfold.dp"):
            out = solve(inst, mode)
    finally:
        spans.uninstall()
    # The optimize plan of this instance has one level, the others three.
    assert out.solution is not None
    assert out.stats["iterations"] >= (1 if kind == "valued" else 3)
    orders = [json.loads(m[len("fold order "):m.index("]") + 1])
              for m in caplog.messages if m.startswith("fold order ")]
    assert len(orders) == out.stats["iterations"]
    convolves = [s for s in spans.spans if s.name == "dp.convolve"]
    assert len(convolves) == sum(map(len, orders)) > 0
    assert all(span.counts["pairs"] > 0 for span in convolves)
    assert steps == {"bits": len(convolves) if kind == "bitset" else 0,
                     "packed": 0 if kind == "bitset" else len(convolves)}
    metrics = tracer.pass_metrics(spans.spans, spans.missing)
    assert metrics["dp.convolve_calls"] == len(convolves)
    assert metrics["dp.convolve_pairs"] == sum(s.counts["pairs"] for s in convolves)
    assert metrics["dp.convolve_cells"] == sum(s.counts["cells"] for s in convolves) > 0
    combines = [s for s in spans.spans if s.name == "driver.combine"]
    assert len(combines) == out.stats["iterations"] - 1
    assert all(s.counts["pairs"] > 0 and s.counts["cells"] > 0 for s in combines)


def test_every_workload_pass_reports_every_layer_metric():
    """One traced pass of each benchmark workload at seed 1: every target
    is found and no per-layer metric is null, so a traced benchmark run
    cannot print ``"value": null`` for a target that moved."""
    import workloads

    for name in workloads.WORKLOADS:
        items = workloads.build(name, 1)
        spans = tracer.Tracer()
        spans.install()
        try:
            answers = [item.run() for item in items]
        finally:
            spans.uninstall()
        assert spans.missing == [], name
        for item, answer in zip(items, answers):
            assert item.check(answer) is None, (name, item.name)
        metrics = tracer.pass_metrics(spans.spans, spans.missing)
        assert set(metrics) <= set(tracer.LAYER_METRICS), name
        assert [m for m, value in metrics.items() if value is None] == [], name
