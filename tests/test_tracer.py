"""The benchmark tracer still finds every function it wraps.

``perfbench/tracer.py`` replaces library functions by name to record its
per-layer spans; a renamed or reshaped target turns its metrics into
nulls.  This reads the tracer and changes nothing in ``perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from nfold.core import STATUS_FEASIBLE, NFoldInstance
from nfold.driver import solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_tracer_finds_every_target_and_counts_the_combine():
    inst = NFoldInstance(
        n=2, r=1, t=(2, 2), blocks=(((1, 2),), ((0, 1),)), b_up=(50,),
        b_low=(30, 30),
    )
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
