"""The test configuration and the repository's tools: warnings as errors
must not stop a run, and ``tools/code_lines.py`` counts what it says."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """A failing ``@given`` test, under this repo's warning filters, is
    reported like any other failure, and the tests after it still run."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(PROBE))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,

        over three lines."""
        text = """a string literal
that is not a docstring
spans three lines"""
        return len(text) + len(os.sep)
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    """Code lines of ``SOURCE``: ``import os``, ``class Box:``, ``def
    size``, the three lines the assigned string spans, and ``return``."""
    (tmp_path / "one.py").write_text(SOURCE)
    (tmp_path / "two.py").write_text("x = 1\n\n# comment\ny = (\n    2)\n")
    done = subprocess.run(
        [sys.executable, str(PYPROJECT.parent / "tools" / "code_lines.py"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.split("\n") == [
        "     7  one.py", "     3  two.py", "    10  total", ""]



def import_ladder():
    """``tools/bench_packed_step.py`` as a module."""
    root = PYPROJECT.parent
    sys.path[:0] = [str(root / "tools"), str(root)]
    try:
        import bench_packed_step
    finally:
        del sys.path[:2]
    return bench_packed_step


def test_ladder_alternates_which_tree_runs_first(tmp_path, monkeypatch):
    """The first row runs the parent before this tree, the second this
    tree first, for the timed pair and then for the counted pair; each
    record lands under its own key."""
    ladder = import_ladder()
    calls = []

    def record(tree, name, count):
        calls.append((name, tree, count))
        return {"status": "feasible", "objective": None, "witness": None,
                "tree": str(tree), "count": count}

    monkeypatch.setattr(ladder, "run", record)
    rows = list(ladder.LADDERS["packed-step"][1])[:2]
    parent, out = tmp_path / "parent", tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_packed_step.py", "--parent", str(parent), "--rows", *rows,
        "--out", str(out)])
    assert ladder.main() == 0
    root = ladder.ROOT
    assert calls == [
        (rows[0], parent, False), (rows[0], root, False),
        (rows[0], parent, True), (rows[0], root, True),
        (rows[1], root, False), (rows[1], parent, False),
        (rows[1], root, True), (rows[1], parent, True)]
    for row in json.loads(out.read_text())["rows"].values():
        assert [(row[key]["tree"], row[key]["count"]) for key in (
            "parent", "change", "parent_counted", "counted")] == [
            (str(parent), False), (str(root), False),
            (str(parent), True), (str(root), True)]


def test_ladder_builds_the_imbalance_front_end_rows():
    """The ``("imbalance", graph)`` spec builds the graph that a whole
    ``solve_imbalance`` runs on, the design row the first graph of the
    ``imbalance-opt`` workload, and its counted run reports the base
    tables built: 12 for the design graph's 12 cover orders."""
    root = PYPROJECT.parent
    ladder = import_ladder()
    from perfbench.workloads import build
    from nfold.imbalance import Graph, solve_imbalance, vertex_cover

    rows = {name: spec for name, (mode, spec) in ladder.ROWS.items()
            if spec[0] == "imbalance"}
    assert set(rows) == {"imbalance-design-seed1", "imbalance-k4-v16-seed1",
                         "imbalance-k5-v14-seed2"}
    shapes = []
    for name, spec in sorted(rows.items()):
        graph = ladder.build(spec)
        assert isinstance(graph, Graph) and ladder.ROWS[name][0] == "optimize"
        shapes.append((len(vertex_cover(graph)), len(graph.vertices)))
    assert shapes == [(4, 16), (4, 16), (5, 14)]
    design = ladder.build(rows["imbalance-design-seed1"])
    assert solve_imbalance(design) == build("imbalance-opt", 1)[0].run()
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "bench_packed_step.py"), "--child",
         "imbalance-design-seed1", "--tree", str(root), "--count"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert (record["status"], record["objective"], record["base_tables"]) == (
        "optimal", 16, 12)


def test_ladder_records_peak_memory_level_changes_and_limits(monkeypatch):
    """A counted child of the ``coded-levels`` ladder records its peak
    resident size and the seconds of its level changes, one per level
    above the first, against those of its fold steps; a child whose
    solve raises ``MemoryError`` records ``"limit"``, as a timed-out one
    does."""
    root = PYPROJECT.parent
    ladder = import_ladder()
    out_name, rows = ladder.LADDERS["coded-levels"]
    assert out_name == "BENCH_coded_levels.json" and "deep-b1e6" in rows
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "bench_packed_step.py"), "--child",
         "deep-b1e6", "--tree", str(root), "--count"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["max_rss_mb"] > 1
    assert record["level_changes"] == record["levels"] - 1 > 0
    assert record["level_change_s"] > 0 and record["fold_step_s"] > 0
    from nfold import driver

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(driver, "solve", exhausted)
    assert ladder.child("deep-b1e6", count=False) == "limit"
