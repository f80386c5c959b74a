"""The benchmark tracer still finds every function it wraps.

``perfbench/tracer.py`` replaces library functions by name to record its
per-layer spans; a renamed or reshaped target turns its metrics into
nulls.  This reads the tracer and changes nothing in ``perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

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


def test_tracer_counts_the_convolve_chain_of_a_fold_above_its_cap(monkeypatch):
    """With the fold's bitset cap at 0, every zero-valued fold takes the
    ``convolve`` chain: its spans and the combine's still count pairs and
    cells from the tables ``sumset`` returns."""
    monkeypatch.setattr(dp, "_FOLD_FRAME_BITS", 0)
    spans = tracer.Tracer()
    spans.install()
    try:
        out = solve(two_brick_instance())
    finally:
        spans.uninstall()
    assert out.status == STATUS_FEASIBLE
    convolves = [s for s in spans.spans if s.name == "dp.convolve"]
    combines = [s for s in spans.spans if s.name == "driver.combine"]
    assert convolves and len(combines) == out.stats["iterations"] - 1
    for span in convolves + combines:
        assert span.counts["pairs"] > 0 and span.counts["cells"] > 0
    metrics = tracer.pass_metrics(spans.spans, spans.missing)
    assert metrics["dp.convolve_calls"] == len(convolves)
    for name in ("dp.convolve_pairs", "dp.convolve_cells",
                 "driver.combine_pairs", "driver.combine_cells"):
        assert metrics[name] > 0, name
