"""Command-line interface.

Subcommands map onto the library surface: ``solve`` and ``plan`` work on
block-program JSON files, ``schedule``, ``closest-string``, and
``imbalance`` run the application front-ends, ``oracle-check`` replays an
instance through both the solver and the brute-force oracle, and ``bench``
times the two against each other on seeded random instances.

Exit codes: 0 for success (a cleanly reported infeasible instance is a
success), 1 for usage problems (bad flags, unreadable or malformed
input), 2 for internal assertion failures.  The ``NFOLD_LOG`` environment
variable sets the logging level (e.g. ``NFOLD_LOG=debug``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import random
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .closest_string import solve_closest
from .core import (NFoldInstance, _require_int, instance_to_json,
                   read_instance, result_to_json)
from .driver import solve
from .imbalance import Graph, solve_imbalance
from .oracle import OracleBudgetError, oracle_solve
from .plan import build_plan, plan_to_json
from .reduction import reduce_instance
from .scheduling import (OBJECTIVE_CMAX, OBJECTIVE_CMIN, SchedulingInstance,
                         solve_cmax, solve_cmin)

log = logging.getLogger(__name__)


class _UsageError(Exception):
    """Command line or input problem; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _configure_logging() -> None:
    level_name = os.environ.get("NFOLD_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dump(payload: object, out_path: Optional[str]) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _fraction_json(value: Fraction) -> dict:
    return {"numerator": value.numerator, "denominator": value.denominator,
            "text": str(value)}


def _load_instance(path: str) -> NFoldInstance:
    """Read an instance file; an unreadable one is a usage error.

    A malformed one raises ``InstanceFormatError``, a ``ValueError`` that
    ``main`` also reports with exit status 1.
    """
    try:
        return read_instance(path)
    except OSError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.in_path)
    outcome = solve(inst, mode=args.mode)
    _dump(result_to_json(outcome), args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    # Plan the sign-shifted copy, as ``solve`` does, so the printed plan is
    # the one the solver runs.
    inst = reduce_instance(_load_instance(args.in_path)).instance
    plan = build_plan(inst, mode=args.mode)
    _dump(plan_to_json(plan), args.out)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    doc = _read_json(args.in_path)
    if not isinstance(doc, dict):
        raise _UsageError("scheduling input must be a JSON object")
    try:
        inst = SchedulingInstance.build(
            doc["p"], doc["n"], doc["s"], doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad scheduling input: {exc}") from exc
    solver = solve_cmin if args.objective == OBJECTIVE_CMIN else solve_cmax
    sched = solver(inst)
    payload = {
        "objective": args.objective,
        "value": _fraction_json(sched.objective),
        "machines": [
            {"speed": mach.speed, "jobs": list(mach.jobs)}
            for mach in sched.machines
        ],
    }
    _dump(payload, args.out)
    return 0


def _cmd_closest_string(args: argparse.Namespace) -> int:
    doc = _read_json(args.in_path)
    if not isinstance(doc, dict) or "strings" not in doc:
        raise _UsageError('closest-string input needs a "strings" list')
    strings = doc["strings"]
    if (not isinstance(strings, list) or not strings
            or not all(isinstance(s, str) for s in strings)):
        raise _UsageError('"strings" must be a nonempty list of strings')
    try:
        radius, center = solve_closest(strings)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _dump({"radius": radius, "center": center}, args.out)
    return 0


def _cmd_imbalance(args: argparse.Namespace) -> int:
    doc = _read_json(args.in_path)
    if not isinstance(doc, dict):
        raise _UsageError("imbalance input must be a JSON object")
    if "vertices" in doc and "n" in doc:
        raise _UsageError("bad graph input: give 'n' or 'vertices', not both")
    try:
        if "vertices" in doc:
            vertices = doc["vertices"]
            if not isinstance(vertices, list):
                raise ValueError("'vertices' must be a JSON list")
            if len(set(vertices)) != len(vertices):
                raise ValueError("'vertices' repeats a label")
        else:
            _require_int(doc["n"], "n")
            vertices = list(range(doc["n"]))
        graph = Graph.build(vertices, doc.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad graph input: {exc}") from exc
    try:
        result = solve_imbalance(graph)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {
        "imbalance": result.value,
        "ordering": list(result.ordering),
        "cover": list(result.cover),
    }
    _dump(payload, args.out)
    return 0


def _check_one(inst: NFoldInstance, mode: str,
               budget: Optional[int]) -> tuple[bool, dict, dict]:
    """Run both solvers on one instance; return (agree, solver, oracle)."""
    reference = oracle_solve(inst, mode=mode, budget=budget)
    outcome = solve(inst, mode=mode)
    agree = outcome.status == reference.status
    if agree and mode == "optimize" and outcome.solution is not None:
        agree = outcome.solution.objective == reference.solution.objective
    return agree, result_to_json(outcome), result_to_json(reference)


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    try:
        return _oracle_check(args)
    except OracleBudgetError as exc:
        raise _UsageError(
            f"oracle refused: needs {exc.required} candidates, "
            f"budget is {exc.allowed}") from exc


def _oracle_check(args: argparse.Namespace) -> int:
    """Check one ``--in`` instance, or ``--trials`` random ones."""
    if args.in_path is not None:
        inst = _load_instance(args.in_path)
        agree, solver_doc, oracle_doc = _check_one(
            inst, args.mode, args.budget)
        payload = {
            "agree": agree,
            "solver": solver_doc,
            "oracle": oracle_doc,
        }
        _dump(payload, args.out)
        if not agree:
            raise AssertionError("solver and oracle disagree on this instance")
        return 0
    rng = random.Random(args.seed)
    statuses: dict[str, int] = {}
    for trial in range(args.trials):
        inst = _random_bench_instance(rng, args.mode)
        agree, solver_doc, _ = _check_one(inst, args.mode, args.budget)
        if not agree:
            _dump({"trial": trial, "seed": args.seed,
                   "instance": instance_to_json(inst)}, args.out)
            raise AssertionError(
                f"solver and oracle disagree on trial {trial}")
        status = solver_doc["status"]
        statuses[status] = statuses.get(status, 0) + 1
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "mode": args.mode,
        "agreements": args.trials,
        "disagreements": 0,
        "statuses": statuses,
    }
    _dump(payload, args.out)
    return 0


def _random_bench_instance(rng: random.Random, mode: str) -> NFoldInstance:
    """Small random instance with a planted solution half the time."""
    n = rng.randint(1, 3)
    r = rng.randint(1, 2)
    t = tuple(rng.randint(1, 3) for _ in range(n))
    blocks = tuple(
        tuple(tuple(rng.randint(-2, 2) for _ in range(t[k]))
              for _ in range(r))
        for k in range(n))
    b_low = tuple(rng.randint(0, 8) for _ in range(n))
    if mode == "optimize" or rng.random() < 0.5:
        x = []
        for k in range(n):
            counts = [0] * t[k]
            for _ in range(b_low[k]):
                counts[rng.randrange(t[k])] += 1
            x.append(counts)
        b_up = tuple(
            sum(sum(col * cnt for col, cnt in zip(blocks[k][row], x[k]))
                for k in range(n))
            for row in range(r))
    else:
        b_up = tuple(rng.randint(-4, 4) for _ in range(r))
    c = None
    if mode == "optimize":
        c = tuple(rng.randint(0, 5) for _ in range(sum(t)))
    return NFoldInstance(n=n, r=r, t=t, blocks=blocks, b_up=b_up,
                         b_low=b_low, c=c)


def _cmd_bench(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["trial", "seed", "n", "r", "h", "status",
                     "solver_ms", "oracle_ms", "oracle_candidates"])
    for trial in range(args.trials):
        inst = _random_bench_instance(rng, args.mode)
        t0 = time.perf_counter()
        outcome = solve(inst, mode=args.mode)
        solver_ms = (time.perf_counter() - t0) * 1000.0
        t0 = time.perf_counter()
        reference = oracle_solve(inst, mode=args.mode)
        oracle_ms = (time.perf_counter() - t0) * 1000.0
        if outcome.status != reference.status:
            raise AssertionError(
                f"bench trial {trial}: solver says {outcome.status}, "
                f"oracle says {reference.status}")
        if (args.mode == "optimize" and outcome.solution is not None
                and outcome.solution.objective
                != reference.solution.objective):
            raise AssertionError(
                f"bench trial {trial}: objective mismatch")
        writer.writerow([trial, args.seed, inst.n, inst.r, inst.h,
                         outcome.status, f"{solver_ms:.3f}",
                         f"{oracle_ms:.3f}",
                         reference.stats.get("candidates", "")])
    _emit(buffer.getvalue(), args.out)
    return 0


def _trial_count(text: str) -> int:
    """``--trials`` value: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="nfold", description=__doc__.splitlines()[0]
                     if __doc__ else None)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_mode: bool = False) -> None:
        p.add_argument("--in", dest="in_path", required=True,
                       help="input JSON file")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")
        if with_mode:
            p.add_argument("--mode", choices=["feasibility", "optimize"],
                           default="feasibility",
                           help="what to ask of the solver")

    p = sub.add_parser("solve", help="solve a block-program JSON instance")
    add_io(p, with_mode=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("plan", help="print the plan solve runs for an instance")
    add_io(p, with_mode=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("schedule", help="uniform-machine scheduling")
    add_io(p)
    p.add_argument("--objective", choices=[OBJECTIVE_CMAX, OBJECTIVE_CMIN],
                   default=OBJECTIVE_CMAX,
                   help="minimise makespan (cmax) or maximise cover (cmin)")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("closest-string", help="closest string under Hamming")
    add_io(p)
    p.set_defaults(func=_cmd_closest_string)

    p = sub.add_parser("imbalance", help="minimum imbalance vertex ordering")
    add_io(p)
    p.set_defaults(func=_cmd_imbalance)

    p = sub.add_parser("oracle-check",
                       help="compare the solver against brute force")
    p.add_argument("--in", dest="in_path", default=None,
                   help="single instance to check (default: random trials)")
    p.add_argument("--out", default=None,
                   help="output file (default: stdout)")
    p.add_argument("--mode", choices=["feasibility", "optimize"],
                   default="feasibility",
                   help="what to ask of the solver")
    p.add_argument("--trials", type=_trial_count, default=100,
                   help="random instances to cross-check when --in is absent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="candidate cap for the brute-force oracle")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("bench", help="time solver vs oracle on random inputs")
    p.add_argument("--trials", type=_trial_count, default=20,
                   help="random instances to time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["feasibility", "optimize"],
                   default="feasibility")
    p.add_argument("--out", default=None, help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"nfold: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"nfold: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"nfold: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
