"""Core types and I/O for combinatorial n-fold integer programs.

A combinatorial n-fold program couples ``n`` independent variable groups
("bricks") through ``r`` shared counting rows.  Brick ``k`` owns ``t[k]``
nonnegative integer variables ``x^(k)``; its coordinates must sum to the
brick target ``b_low[k]`` while the shared rows must hit ``b_up`` exactly:

    sum_k  A_k x^(k) = b_up        (r rows, exact)
    1^T x^(k)        = b_low[k]    (one counting constraint per brick)
    x >= 0, integer

An optional objective vector ``c`` (concatenated in brick order) is
*maximized*; solvers in this package additionally require ``c >= 0``.

Conventions
-----------
n        number of bricks
r        number of shared rows
t[k]     width of brick k; h = sum(t) is the total variable count
blocks   n integer matrices, each r x t[k] (row-major nested lists)
delta    largest absolute matrix entry across all bricks (0 for empty)
b_up     may contain negative entries (callers shift signs away before
         running the solver; see nfold.reduction)
b_low    must be nonnegative (a brick cannot sum to a negative count)

All arithmetic is exact Python ``int`` arithmetic.  Inputs are 64-bit
scale but intermediate products routinely exceed that, so nothing is
ever converted to floating point.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence


STATUS_FEASIBLE = "feasible-with-solution"
STATUS_INFEASIBLE = "infeasible"
STATUS_OPTIMAL = "optimal-with-solution"

MODE_FEASIBILITY = "feasibility"
MODE_OPTIMIZE = "optimize"


class InstanceFormatError(ValueError):
    """Raised when a JSON instance document is malformed; names the field."""


class InternalError(AssertionError):
    """A solver result failed its own check (a bug); raised even under -O."""


def _require_int(value: Any, where: str) -> None:
    """Reject anything but a plain ``int`` (``bool`` included), naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"instance field '{where}': expected integer, got {type(value).__name__}"
        )


def _int_tuple(values: Sequence[Any], where: str) -> tuple[int, ...]:
    """Tuple of the given ints; any other entry is a ``ValueError``."""
    out = tuple(values)
    for i, v in enumerate(out):
        _require_int(v, f"{where}[{i}]")
    return out


@dataclass
class NFoldInstance:
    """One combinatorial n-fold program.

    Parameters
    ----------
    n : int
        Number of bricks.
    r : int
        Number of shared rows.
    t : sequence of int
        Brick widths, length ``n``.
    blocks : sequence of matrices
        One ``r x t[k]`` integer matrix per brick.
    b_up : sequence of int
        Shared-row right-hand side, length ``r``.
    b_low : sequence of int
        Per-brick coordinate-sum targets, length ``n``, all >= 0.
    c : sequence of int, optional
        Objective (maximized), length ``sum(t)``.

    Every number must be an ``int``; a ``float``, ``bool`` or other value
    raises ``ValueError`` naming the field, never a silent coercion.
    """

    n: int
    r: int
    t: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    b_up: tuple[int, ...]
    b_low: tuple[int, ...]
    c: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _require_int(self.n, "n")
        _require_int(self.r, "r")
        self.t = _int_tuple(self.t, "t")
        self.blocks = tuple(
            tuple(_int_tuple(row, f"blocks[{k}][{j}]") for j, row in enumerate(block))
            for k, block in enumerate(self.blocks)
        )
        self.b_up = _int_tuple(self.b_up, "b_up")
        self.b_low = _int_tuple(self.b_low, "b_low")
        if self.c is not None:
            self.c = _int_tuple(self.c, "c")

    @property
    def h(self) -> int:
        """Total variable count across bricks."""
        return sum(self.t)

    @property
    def delta(self) -> int:
        """Largest absolute matrix entry (0 if there are no entries)."""
        best = 0
        for block in self.blocks:
            for row in block:
                for entry in row:
                    if entry > best:
                        best = entry
                    elif -entry > best:
                        best = -entry
        return best

    def brick_slices(self) -> list[slice]:
        """Slice of the concatenated variable vector owned by each brick."""
        out, offset = [], 0
        for width in self.t:
            out.append(slice(offset, offset + width))
            offset += width
        return out


@dataclass
class Solution:
    """A verified assignment: concatenated brick vectors plus objective."""

    x: tuple[int, ...]
    objective: int | None = None


@dataclass
class SolveOutcome:
    """Solver verdict: status string, optional solution, and run stats."""

    status: str
    solution: Solution | None = None
    stats: dict[str, Any] = field(default_factory=dict)


def validate(inst: NFoldInstance) -> None:
    """Check structural consistency of an instance.

    Raises
    ------
    ValueError
        On any dimension mismatch, on a negative brick target, or on a
        malformed objective.  Messages name the offending component.
    """
    if inst.n < 1:
        raise ValueError("dimension mismatch: need at least one brick (n >= 1)")
    if inst.r < 1:
        raise ValueError("dimension mismatch: need at least one shared row (r >= 1)")
    if len(inst.t) != inst.n:
        raise ValueError(f"dimension mismatch: len(t)={len(inst.t)} but n={inst.n}")
    if len(inst.blocks) != inst.n:
        raise ValueError(
            f"dimension mismatch: {len(inst.blocks)} matrices but n={inst.n}"
        )
    if len(inst.b_up) != inst.r:
        raise ValueError(
            f"dimension mismatch: len(b_up)={len(inst.b_up)} but r={inst.r}"
        )
    if len(inst.b_low) != inst.n:
        raise ValueError(
            f"dimension mismatch: len(b_low)={len(inst.b_low)} but n={inst.n}"
        )
    for k, (width, block) in enumerate(zip(inst.t, inst.blocks)):
        if width < 1:
            raise ValueError(f"dimension mismatch: brick {k} has width {width} < 1")
        if len(block) != inst.r:
            raise ValueError(
                f"dimension mismatch: brick {k} has {len(block)} rows, expected {inst.r}"
            )
        for j, row in enumerate(block):
            if len(row) != width:
                raise ValueError(
                    f"dimension mismatch: brick {k} row {j} has {len(row)} entries,"
                    f" expected {width}"
                )
    for k, target in enumerate(inst.b_low):
        if target < 0:
            raise ValueError(f"negative local right-hand side: b_low[{k}] = {target}")
    if inst.c is not None and len(inst.c) != inst.h:
        raise ValueError(
            f"dimension mismatch: len(c)={len(inst.c)} but h={inst.h}"
        )


def verify_solution(
    inst: NFoldInstance,
    x: Sequence[int],
    objective: int | None = None,
) -> bool:
    """Recheck a claimed solution against the instance, exactly.

    Returns True iff ``x`` is a nonnegative integer vector whose brick
    sums hit every ``b_low`` entry and whose shared rows hit every
    ``b_up`` entry — and, when ``objective`` is given, ``c . x`` matches
    it too.

    Raises
    ------
    ValueError
        Only for malformed input: wrong vector length, or an objective
        supplied for an instance with no cost vector.
    """
    x = tuple(x)
    if len(x) != inst.h:
        raise ValueError(f"solution length {len(x)} != h = {inst.h}")
    for v in x:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            return False
    slices = inst.brick_slices()
    for k, sl in enumerate(slices):
        if sum(x[sl]) != inst.b_low[k]:
            return False
    for j in range(inst.r):
        got = 0
        for k, sl in enumerate(slices):
            row = inst.blocks[k][j]
            got += sum(e * v for e, v in zip(row, x[sl]))
        if got != inst.b_up[j]:
            return False
    if objective is not None:
        if inst.c is None:
            raise ValueError("objective reported but instance has no cost vector")
        if sum(cv * xv for cv, xv in zip(inst.c, x)) != objective:
            return False
    return True


def objective_value(inst: NFoldInstance, x: Sequence[int]) -> int:
    """Exact objective value ``c . x`` (requires ``c``)."""
    if inst.c is None:
        raise ValueError("instance has no cost vector")
    return sum(cv * xv for cv, xv in zip(inst.c, x))


# ---------------------------------------------------------------------------
# JSON I/O
#
# Instance document:  {"n", "r", "t", "blocks", "b_up", "b_low", "c"?}
# Result document:    {"status", "x"?, "objective"?, "stats"}
# ---------------------------------------------------------------------------


def _expect(obj: dict, key: str, kind: type, *, optional: bool = False) -> Any:
    """Fetch and type-check one field of a JSON instance document."""
    if key not in obj:
        if optional:
            return None
        raise InstanceFormatError(f"instance field '{key}': missing")
    value = obj[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InstanceFormatError(
                f"instance field '{key}': expected integer, got {type(value).__name__}"
            )
    elif not isinstance(value, kind):
        raise InstanceFormatError(
            f"instance field '{key}': expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _int_list(value: Any, where: str) -> tuple[int, ...]:
    """Check that a JSON array holds only ints; return it as a tuple."""
    if not isinstance(value, list):
        raise InstanceFormatError(f"instance field '{where}': expected list")
    try:
        return _int_tuple(value, where)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def instance_from_json(obj: dict) -> NFoldInstance:
    """Build and validate an instance from a parsed JSON document."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance document: expected a JSON object")
    n = _expect(obj, "n", int)
    r = _expect(obj, "r", int)
    t = _int_list(_expect(obj, "t", list), "t")
    raw_blocks = _expect(obj, "blocks", list)
    blocks = []
    for k, mat in enumerate(raw_blocks):
        if not isinstance(mat, list):
            raise InstanceFormatError(f"instance field 'blocks[{k}]': expected matrix")
        blocks.append(tuple(_int_list(row, f"blocks[{k}][{j}]") for j, row in enumerate(mat)))
    b_up = _int_list(_expect(obj, "b_up", list), "b_up")
    b_low = _int_list(_expect(obj, "b_low", list), "b_low")
    c_raw = _expect(obj, "c", list, optional=True)
    c = _int_list(c_raw, "c") if c_raw is not None else None
    inst = NFoldInstance(n=n, r=r, t=t, blocks=tuple(blocks), b_up=b_up, b_low=b_low, c=c)
    try:
        validate(inst)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return inst


def instance_to_json(inst: NFoldInstance) -> dict:
    """Serialize an instance to the canonical JSON document shape."""
    doc: dict[str, Any] = {
        "n": inst.n,
        "r": inst.r,
        "t": list(inst.t),
        "blocks": [[list(row) for row in block] for block in inst.blocks],
        "b_up": list(inst.b_up),
        "b_low": list(inst.b_low),
    }
    if inst.c is not None:
        doc["c"] = list(inst.c)
    return doc


def read_instance(path: str) -> NFoldInstance:
    """Read and validate an instance JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"instance document: invalid JSON ({exc})") from exc
    return instance_from_json(obj)


def result_to_json(outcome: SolveOutcome) -> dict:
    """Serialize a solve outcome to the canonical result document shape."""
    doc: dict[str, Any] = {"status": outcome.status}
    if outcome.solution is not None:
        doc["x"] = list(outcome.solution.x)
        if outcome.solution.objective is not None:
            doc["objective"] = outcome.solution.objective
    doc["stats"] = dict(outcome.stats)
    return doc


def write_result(outcome: SolveOutcome, path: str | None = None) -> dict:
    """Serialize an outcome; optionally persist it to ``path``.

    Returns the document written, so callers can also print it.
    """
    doc = result_to_json(outcome)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


def result_from_json(obj: dict) -> SolveOutcome:
    """Rehydrate a result document (round-trip partner of result_to_json)."""
    if not isinstance(obj, dict) or "status" not in obj:
        raise InstanceFormatError("result document: missing 'status'")
    status = obj["status"]
    solution = None
    if "x" in obj:
        solution = Solution(
            x=_int_list(obj["x"], "x"), objective=obj.get("objective")
        )
    return SolveOutcome(status=status, solution=solution, stats=dict(obj.get("stats", {})))


class Stopwatch:
    """Tiny wall-clock helper so every solver reports time the same way."""

    def __init__(self) -> None:
        self.started = time.perf_counter()

    def seconds(self) -> float:
        return time.perf_counter() - self.started
