"""End-to-end tests for the nfold command line."""

from __future__ import annotations

import json

import pytest

from nfold.cli import main
from nfold.core import (STATUS_FEASIBLE, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                        NFoldInstance)
from nfold.driver import solve_with_trace
from nfold.plan import build_plan, plan_to_json


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def two_brick_doc(costs=False):
    doc = {
        "n": 2,
        "r": 1,
        "t": [2, 1],
        "blocks": [[[1, 2]], [[0]]],
        "b_up": [4],
        "b_low": [2, 1],
    }
    if costs:
        doc["c"] = [0, 1, 0]
    return doc


# ---------------------------------------------------------------------------
# solve / plan


def test_solve_writes_feasible_result_to_stdout(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    assert main(["solve", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == STATUS_FEASIBLE
    assert sum(doc["x"]) == 3  # brick totals 2 and 1


def test_solve_optimize_reports_objective(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", two_brick_doc(costs=True))
    assert main(["solve", "--in", path, "--mode", "optimize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == STATUS_OPTIMAL
    assert doc["objective"] == 2


def test_solve_out_file_keeps_stdout_quiet(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    out = tmp_path / "result.json"
    assert main(["solve", "--in", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["status"] == STATUS_FEASIBLE


def test_clean_infeasible_is_still_success(tmp_path, capsys):
    doc = two_brick_doc()
    doc["b_up"] = [99]
    path = write_json(tmp_path, "inst.json", doc)
    assert main(["solve", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == STATUS_INFEASIBLE


def test_plan_reports_schedule_shape(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    assert main(["plan", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "feasibility"
    assert doc["support_bound"] == 16  # r=1, largest entry 2
    inst = NFoldInstance(**two_brick_doc())
    assert doc["support"] == build_plan(inst, "feasibility").support
    assert doc["levels"] >= 1


def test_plan_of_signed_instance_is_the_plan_solve_runs(tmp_path, capsys):
    doc = {"n": 1, "r": 1, "t": [2], "blocks": [[[-1, 2]]],
           "b_up": [30], "b_low": [40]}
    path = write_json(tmp_path, "signed.json", doc)
    assert main(["plan", "--in", path]) == 0
    printed = json.loads(capsys.readouterr().out)
    _, trace = solve_with_trace(NFoldInstance(**doc))
    assert printed == plan_to_json(trace.plan)
    assert (printed["support_bound"], printed["box_radius"]) == (20, 8)
    assert len(printed["windows"]) == printed["levels"]
    top = list(trace.reduced.instance.b_up)
    assert printed["windows"][-1]["lo"] == printed["windows"][-1]["hi"] == top


# ---------------------------------------------------------------------------
# usage errors


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    assert main(["solve", "--in", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--in", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_instance_document_is_a_usage_error(tmp_path, capsys):
    doc = two_brick_doc()
    del doc["b_low"]
    path = write_json(tmp_path, "inst.json", doc)
    assert main(["solve", "--in", path]) == 1
    assert "b_low" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("t", [2.9, 1], "t[0]"),
        ("blocks", [[[1, 1.7]], [[0]]], "blocks[0][0][1]"),
        ("b_low", [1.5, 1], "b_low[0]"),
        ("b_up", [True], "b_up[0]"),
    ],
)
def test_non_integer_instance_value_is_a_usage_error(tmp_path, capsys, field, value, where):
    doc = two_brick_doc()
    doc[field] = value
    path = write_json(tmp_path, "inst.json", doc)
    assert main(["solve", "--in", path]) == 1
    assert f"'{where}'" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["solve"]) == 1
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nfold" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scheduling


def test_schedule_cmax(tmp_path, capsys):
    path = write_json(tmp_path, "jobs.json",
                      {"p": [2, 3], "n": [2, 2], "s": [1], "m": [2]})
    assert main(["schedule", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == "cmax"
    assert doc["value"] == {"numerator": 5, "denominator": 1, "text": "5"}
    placed = sorted(job for mach in doc["machines"] for job in mach["jobs"])
    assert placed == [2, 2, 3, 3]


def test_schedule_cmin_fractional_value(tmp_path, capsys):
    path = write_json(tmp_path, "jobs.json",
                      {"p": [1], "n": [5], "s": [2], "m": [1]})
    assert main(["schedule", "--in", path, "--objective", "cmin"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == {"numerator": 5, "denominator": 2, "text": "5/2"}


def test_schedule_fast_class_without_pivot(tmp_path, capsys):
    # p_max / s_max and the greedy LPT makespan are both 1/75, so the
    # search decides that one guess.  Above guess 16/150 speed 150's
    # target passes 2**4 and 2 jobs of size 2 leave no pivot, so such
    # guesses are decided dense; test_makespan_guesses_are_monotone
    # decides them on this park
    path = write_json(tmp_path, "jobs.json",
                      {"p": [2], "n": [2], "s": [1, 7, 150], "m": [1, 1, 2]})
    assert main(["schedule", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == {"numerator": 1, "denominator": 75, "text": "1/75"}


def test_schedule_missing_field_is_a_usage_error(tmp_path, capsys):
    path = write_json(tmp_path, "jobs.json", {"p": [1], "n": [1], "s": [1]})
    assert main(["schedule", "--in", path]) == 1
    assert "bad scheduling input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("p", [2.9, 3], "p[0]"),
        ("n", [1, True], "n[1]"),
        ("s", ["2"], "s[0]"),
        ("m", [1.0], "m[0]"),
    ],
)
def test_schedule_non_integer_value_is_a_usage_error(tmp_path, capsys, field,
                                                     value, where):
    doc = {"p": [2, 3], "n": [1, 1], "s": [1], "m": [1]}
    doc[field] = value
    path = write_json(tmp_path, "jobs.json", doc)
    assert main(["schedule", "--in", path]) == 1
    assert f"'{where}'" in capsys.readouterr().err


def test_failed_witness_check_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    # the solver re-verifies every witness it returns; a failure is a bug,
    # which the CLI reports with exit code 2
    monkeypatch.setattr("nfold.driver.verify_solution", lambda *args: False)
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    assert main(["solve", "--in", path]) == 2
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# strings and graphs


def test_closest_string_command(tmp_path, capsys):
    path = write_json(tmp_path, "strings.json", {"strings": ["aa", "bb"]})
    assert main(["closest-string", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["radius"] == 1
    assert len(doc["center"]) == 2


def test_closest_string_requires_strings_key(tmp_path, capsys):
    path = write_json(tmp_path, "strings.json", {"words": ["aa"]})
    assert main(["closest-string", "--in", path]) == 1
    assert "strings" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("schedule", None, "cannot read {path}: "),
    ("closest-string", "{not json", "{path} is not valid JSON: "),
    ("schedule", "[1, 2]", "scheduling input must be a JSON object"),
    ("schedule", '{"p": [1], "n": [1], "s": [1, 2], "m": [1]}',
     "bad scheduling input: speeds and machine counts must align"),
    ("imbalance", "[]", "imbalance input must be a JSON object"),
    ("closest-string", '{"strings": []}',
     '"strings" must be a nonempty list of strings'),
    ("closest-string", '{"strings": "ab"}',
     '"strings" must be a nonempty list of strings'),
    ("closest-string", '{"strings": ["ab", 1]}',
     '"strings" must be a nonempty list of strings'),
    ("closest-string", '{"strings": ["ab", "abc"]}',
     "strings must share one length"),
    # seven disjoint edges need a cover of seven vertices
    ("imbalance",
     json.dumps({"n": 14, "edges": [[i, i + 1] for i in range(0, 14, 2)]}),
     "graph has no vertex cover of size <= 6"),
], ids=["unreadable", "invalid-json", "schedule-list", "schedule-park",
        "imbalance-list", "strings-empty", "strings-text", "strings-entry",
        "strings-lengths", "cover-limit"])
def test_front_end_input_faults_are_usage_errors(tmp_path, capsys, command,
                                                 text, message):
    """Each front-end input fault exits with code 1 and its own message."""
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main([command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "nfold: error: " + message.format(path=path))


def test_imbalance_with_vertex_count(tmp_path, capsys):
    path = write_json(tmp_path, "graph.json",
                      {"n": 3, "edges": [[0, 1], [1, 2]]})
    assert main(["imbalance", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["imbalance"] == 2
    assert doc["cover"] == [1]


def test_imbalance_with_vertex_labels(tmp_path, capsys):
    path = write_json(tmp_path, "graph.json",
                      {"vertices": ["a", "b", "c"],
                       "edges": [["a", "b"], ["b", "c"]]})
    assert main(["imbalance", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["imbalance"] == 2
    assert doc["cover"] == ["b"]


@pytest.mark.parametrize("value", [3.7, True, "3", None])
def test_imbalance_non_integer_vertex_count_is_a_usage_error(tmp_path, capsys,
                                                             value):
    path = write_json(tmp_path, "graph.json",
                      {"n": value, "edges": [[0, 1]]})
    assert main(["imbalance", "--in", path]) == 1
    assert "'n'" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"vertices": "abc", "edges": [["a", "b"], ["b", "c"]]}, "JSON list"),
    ({"vertices": {"a": 1, "b": 2}, "edges": [["a", "b"]]}, "JSON list"),
    ({"vertices": ["a", "b", "a"], "edges": [["a", "b"]]}, "repeats"),
    ({"n": 3, "vertices": [0, 1, 2], "edges": [[0, 1]]}, "not both"),
    ({"n": -3}, "must be >= 0"),
])
def test_imbalance_vertex_list_is_checked(tmp_path, capsys, doc, message):
    path = write_json(tmp_path, "graph.json", doc)
    assert main(["imbalance", "--in", path]) == 1
    err = capsys.readouterr().err
    assert "bad graph input" in err and message in err


@pytest.mark.parametrize("end", [1.0, True])
def test_imbalance_endpoint_must_be_the_vertex_label(tmp_path, capsys, end):
    # 1.0 and true compare equal to the vertex 1 but do not name it
    path = write_json(tmp_path, "graph.json",
                      {"n": 3, "edges": [[0, end], [1, 2]]})
    assert main(["imbalance", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad graph input" in captured.err and "unknown" in captured.err


def test_imbalance_rejects_self_loop(tmp_path, capsys):
    path = write_json(tmp_path, "graph.json", {"n": 2, "edges": [[0, 0]]})
    assert main(["imbalance", "--in", path]) == 1
    assert "bad graph input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle-check and bench


def test_oracle_check_single_instance(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    assert main(["oracle-check", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] is True
    assert doc["solver"]["status"] == STATUS_FEASIBLE
    assert doc["oracle"]["status"] == STATUS_FEASIBLE


def test_oracle_check_random_trials(capsys):
    assert main(["oracle-check", "--trials", "8", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 8
    assert doc["disagreements"] == 0
    assert sum(doc["statuses"].values()) == 8


def test_oracle_check_optimize_trials(capsys):
    assert main(["oracle-check", "--trials", "5", "--seed", "2",
                 "--mode", "optimize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreements"] == 5


def test_bench_emits_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "4", "--seed", "9",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ("trial,seed,n,r,h,status,solver_ms,oracle_ms,"
                        "oracle_candidates")
    assert len(lines) == 5
    for row in lines[1:]:
        assert row.split(",")[5] in (STATUS_FEASIBLE, STATUS_INFEASIBLE)


@pytest.mark.parametrize("single", [True, False], ids=["in", "trials"])
def test_oracle_budget_refusal_is_a_usage_error(tmp_path, capsys, single):
    source = (["--in", write_json(tmp_path, "inst.json", two_brick_doc())]
              if single else ["--trials", "5"])
    assert main(["oracle-check", "--budget", "1", *source]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nfold: error: oracle refused: needs ")
    assert captured.err.endswith(" candidates, budget is 1\n")


@pytest.mark.parametrize("command, option", [
    pytest.param("oracle-check", "--trials", id="oracle-check"),
    pytest.param("bench", "--trials", id="bench"),
    pytest.param("oracle-check", "--budget", id="oracle-check-budget"),
])
def test_negative_trial_count_is_a_usage_error(capsys, command, option):
    assert main([command, option, "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"nfold: error: argument {option}: must be >= 0, got -3\n")


def test_zero_trials_is_an_empty_run(capsys):
    assert main(["oracle-check", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["agreements"] == 0
    assert main(["bench", "--trials", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == 1  # the CSV header alone


def test_log_level_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NFOLD_LOG", "debug")
    path = write_json(tmp_path, "inst.json", two_brick_doc())
    assert main(["solve", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == STATUS_FEASIBLE
