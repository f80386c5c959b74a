"""Core instance model: validation, verification, JSON round trips."""

from __future__ import annotations

import json
import random
import re

import pytest

from nfold.core import (
    InstanceFormatError,
    NFoldInstance,
    Solution,
    SolveOutcome,
    instance_from_json,
    instance_to_json,
    objective_value,
    read_instance,
    result_from_json,
    result_to_json,
    validate,
    verify_solution,
    write_result,
)

from helpers import random_core_instance


def tiny() -> NFoldInstance:
    return NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,)
    )


def test_validate_accepts_tiny_instance():
    inst = tiny()
    validate(inst)
    assert inst.h == 2
    assert inst.delta == 2


def test_delta_uses_absolute_values():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((-2, 1),),), b_up=(0,), b_low=(0,)
    )
    assert inst.delta == 2


def test_delta_of_all_zero_matrix_is_zero():
    inst = NFoldInstance(
        n=1, r=1, t=(1,), blocks=(((0,),),), b_up=(0,), b_low=(4,)
    )
    assert inst.delta == 0


def test_brick_slices_partition_the_variable_vector():
    inst = NFoldInstance(
        n=2,
        r=1,
        t=(2, 3),
        blocks=(((1, 0),), ((0, 1, 1),)),
        b_up=(0,),
        b_low=(0, 0),
    )
    assert inst.brick_slices() == [slice(0, 2), slice(2, 5)]


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("t", (2.9,), "t[0]"),
        ("blocks", (((1, 1.7),),), "blocks[0][0][1]"),
        ("b_low", (1.5,), "b_low[0]"),
        ("b_up", (True,), "b_up[0]"),
        ("n", True, "n"),
        ("r", 1.0, "r"),
        ("c", (1, 2.0), "c[1]"),
    ],
)
def test_instance_rejects_non_int_values_without_coercion(field, value, where):
    fields = dict(n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,))
    fields[field] = value
    with pytest.raises(ValueError, match=re.escape(f"'{where}'")):
        NFoldInstance(**fields)


def test_validate_rejects_negative_local_rhs():
    inst = NFoldInstance(
        n=1, r=1, t=(1,), blocks=(((1,),),), b_up=(0,), b_low=(-1,)
    )
    with pytest.raises(ValueError, match=r"b_low\[0\] = -1"):
        validate(inst)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(n=2), "len(t)=1 but n=2"),
        (dict(r=2), "len(b_up)=1 but r=2"),
        (dict(t=(3,)), "2 entries, expected 3"),
        (dict(b_low=(2, 2)), "len(b_low)=2 but n=1"),
        (dict(c=(1, 2, 3)), "len(c)=3 but h=2"),
        (dict(blocks=(((1, 2), (3, 4)),)), "2 rows, expected 1"),
    ],
)
def test_validate_names_the_mismatched_dimension(kwargs, fragment):
    base = dict(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,)
    )
    base.update(kwargs)
    with pytest.raises(ValueError) as err:
        validate(NFoldInstance(**base))
    assert fragment in str(err.value)


def test_verify_solution_frozen_pair():
    inst = tiny()
    assert verify_solution(inst, (1, 1)) is True
    assert verify_solution(inst, (2, 0)) is False  # row sum 2 != 3


def test_verify_solution_rejects_bad_entry_kinds():
    inst = tiny()
    assert verify_solution(inst, (-1, 3)) is False
    assert verify_solution(inst, (True, 1)) is False


def test_verify_solution_checks_brick_sums():
    inst = tiny()
    assert verify_solution(inst, (3, 0)) is False  # brick sum 3 != 2


def test_verify_solution_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        verify_solution(tiny(), (1,))


def test_verify_solution_objective_paths():
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,),
        c=(1, 4),
    )
    assert verify_solution(inst, (1, 1), 5) is True
    assert verify_solution(inst, (1, 1), 6) is False
    with pytest.raises(ValueError, match="no cost vector"):
        verify_solution(tiny(), (1, 1), 5)


def test_objective_value_requires_costs():
    with pytest.raises(ValueError):
        objective_value(tiny(), (1, 1))
    inst = NFoldInstance(
        n=1, r=1, t=(2,), blocks=(((1, 2),),), b_up=(3,), b_low=(2,),
        c=(0, 7),
    )
    assert objective_value(inst, (1, 1)) == 7


def test_instance_json_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_core_instance(rng, with_costs=rng.random() < 0.5)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst


def test_instance_from_json_missing_field_is_named():
    doc = instance_to_json(tiny())
    del doc["b_low"]
    with pytest.raises(InstanceFormatError, match="'b_low'"):
        instance_from_json(doc)


def test_instance_from_json_rejects_bool_entries():
    doc = instance_to_json(tiny())
    doc["b_up"] = [True]
    with pytest.raises(InstanceFormatError, match="b_up"):
        instance_from_json(doc)


def test_instance_from_json_validates_dimensions():
    doc = instance_to_json(tiny())
    doc["b_up"] = [1, 2]
    with pytest.raises(InstanceFormatError, match="len\\(b_up\\)=2"):
        instance_from_json(doc)


def test_read_instance_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(tiny())), encoding="utf-8")
    assert read_instance(str(path)) == tiny()


def test_read_instance_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        read_instance(str(path))


def test_result_round_trip(tmp_path):
    outcome = SolveOutcome(
        status="optimal-with-solution",
        solution=Solution(x=(1, 1), objective=5),
        stats={"iterations": 2},
    )
    path = tmp_path / "result.json"
    doc = write_result(outcome, str(path))
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == doc
    back = result_from_json(doc)
    assert back.status == outcome.status
    assert back.solution.x == (1, 1)
    assert back.solution.objective == 5
    assert back.stats == {"iterations": 2}


def test_result_from_json_needs_status():
    with pytest.raises(InstanceFormatError, match="status"):
        result_from_json({"x": [1]})
