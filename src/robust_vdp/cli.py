"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a checked relation
fails, 2 on input or validation errors, 3 when an exact computation is
refused (budget exceeded) or a required supremum does not exist.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional

from .engine import upper_image
from .errors import (
    DeskScaleExceededError,
    DimensionMismatchError,
    DualNotLIError,
    InstanceError,
    RepresentationError,
    SupNotExistsError,
    UnsupportedConeError,
)
from .instance import _leaf_table, _load_json, _parse_cone, _rows_at, parse_document
from .rectangularity import (
    check_preorder_rectangularity,
    is_m_rectangular,
    random_terminal_vectors,
)
from .render import (
    bellman_to_json,
    compute_results,
    emit_bellman,
    emit_tables,
    fmt_set,
    fmt_vec,
    level_to_json,
    results_to_json,
)
from .suprema import NON_UNIQUE, NOT_EXISTS, vsup
from .trees import AdaptedVector

EXIT_OK = 0
EXIT_RELATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SCALE_OR_SUP = 3

BUDGET_ENV = "ROBUST_VDP_BUDGET"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise InstanceError(path, f"cannot read file: {e.strerror}") from e


@contextmanager
def _side_file(name: str):
    """Name the file in an error at its document's root; inner paths start at /."""
    try:
        yield
    except InstanceError as e:
        if e.path:
            raise
        raise InstanceError(name, e.message) from e


def _budget_override(args) -> Optional[int]:
    """The first of --budget and $ROBUST_VDP_BUDGET that is set, which must
    be a positive integer; None leaves the document's budget."""
    env = os.environ.get(BUDGET_ENV)
    if args.budget is not None:
        source, raw = "--budget", args.budget
    elif env is not None:
        source, raw = BUDGET_ENV, env
    else:
        return None
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise InstanceError(source, "expected a positive integer")


def _load_problem(args):
    inst = parse_document(_read(args.instance), _budget_override(args))
    return inst.problem, inst


def _time_arg(args, problem) -> Optional[int]:
    """The --time value, checked against the problem's horizon."""
    t, horizon = args.time, problem.tree.horizon
    if t is not None and not 0 <= t <= horizon:
        raise InstanceError("--time", f"time {t} outside 0..{horizon}")
    return t


def _print(args, text: str, payload: Optional[dict] = None):
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    problem, inst = _load_problem(args)
    t = _time_arg(args, problem)
    results = compute_results(problem, prune=args.prune or inst.options.prune)
    if t is None:
        if args.format == "json":
            _print(args, "", results_to_json(problem, results))
        else:
            _print(args, emit_tables(problem, results))
        return EXIT_OK
    v_t = results.report.v[t]
    if args.format == "json":
        _print(args, "", {"value_sets": {str(t): level_to_json(v_t)}})
    else:
        lines = [
            f"V{t}({node}|{state}) = {fmt_set(vals)}"
            for (node, state), vals in v_t.items()
        ]
        _print(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check_bellman(args) -> int:
    problem, _ = _load_problem(args)
    results = compute_results(problem)
    report = results.report
    if args.format == "json":
        _print(args, "", bellman_to_json(report))
    else:
        _print(args, emit_bellman(report))
    ok = report.weak_ok and report.strong_ok and report.equality_ok
    return EXIT_OK if ok else EXIT_RELATION_FAILED


def cmd_rect(args) -> int:
    problem, inst = _load_problem(args)
    if args.random < 0:
        raise InstanceError("--random", f"count {args.random} is negative")
    tree, family, cone = problem.tree, problem.family, problem.cone
    structural = is_m_rectangular(family)
    seed = args.seed if args.seed is not None else (inst.options.seed or 0)
    if args.test_vectors:
        doc = _load_json(_read(args.test_vectors))
        if not isinstance(doc, list) or not all(isinstance(e, dict) for e in doc):
            raise InstanceError(
                args.test_vectors, "expected a list of leaf-to-vector objects"
            )
        vectors = [
            AdaptedVector(tree.horizon, _leaf_table(entry, tree, cone.dim, f"/{i}"))
            for i, entry in enumerate(doc)
        ]
        seed = None  # no vector was drawn
    else:
        vectors = random_terminal_vectors(tree, cone.dim, args.random, seed)
    report = check_preorder_rectangularity(cone, tree, family, vectors, seed=seed)
    if args.format == "json":
        _print(args, "", {
            "m_rectangular": structural,
            "rectangular_on_sample": report.rectangular_on_sample,
            "reverse_ok": report.reverse_ok,
            "summary": report.summary(),
        })
    else:
        lines = [
            "marginal-rectangular: " + ("yes" if structural else "no"),
            "empirical check: " + report.summary(),
            "reverse inclusion (always required): "
            + {True: "holds", False: "FAILS", None: "undecided"}[report.reverse_ok],
        ]
        _print(args, "\n".join(lines) + "\n")
    # an undecided sample (None) is no counterexample
    if False in (structural, report.rectangular_on_sample, report.reverse_ok):
        return EXIT_RELATION_FAILED
    return EXIT_SCALE_OR_SUP if report.without_supremum else EXIT_OK


def cmd_vsup(args) -> int:
    cone_doc = _load_json(_read(args.cone))
    points_doc = _load_json(_read(args.points))
    with _side_file(args.points):
        points = _rows_at(points_doc, "")
    with _side_file(args.cone):
        cone = _parse_cone(cone_doc, len(points[0]), "")
    res = vsup(cone, points)
    if args.format == "json":
        payload = {"status": res.status}
        for name in ("value", "alternative", "undominated", "candidate"):
            v = getattr(res, name)
            if v is not None:
                payload[name] = [str(x) for x in v]
        _print(args, "", payload)
    else:
        lines = [f"status: {res.status}"]
        if res.status == NOT_EXISTS and res.candidate is None:
            lines.append("no upper bound")
        elif res.status == NOT_EXISTS:
            lines.append(f"candidate: {fmt_vec(res.candidate)}")
            lines.append(f"undominated point: {fmt_vec(res.undominated)}")
        else:
            lines.append(f"value: {fmt_vec(res.value)}")
            if res.status == NON_UNIQUE:
                lines.append(f"alternative: {fmt_vec(res.alternative)}")
        _print(args, "\n".join(lines) + "\n")
    return EXIT_SCALE_OR_SUP if res.status == NOT_EXISTS else EXIT_OK


def cmd_pareto(args) -> int:
    problem, _ = _load_problem(args)
    t = _time_arg(args, problem)
    gens = upper_image(problem, t)
    if args.format == "json":
        _print(args, "", {
            f"{node}|{state}": [[str(x) for x in v] for v in vals]
            for (node, state), vals in gens.items()
        })
    else:
        lines = [
            f"P{t}({node}|{state}) = {fmt_set(vals)}"
            for (node, state), vals in gens.items()
        ]
        _print(args, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-vdp",
        description="Set-valued dynamic programming for robust "
        "multi-objective control on scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, instance=True, budget=True):
        p = sub.add_parser(name, help=help)
        # rect reads an instance, and so a budget, but offers no --budget
        p.set_defaults(func=func, budget=None)
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON file")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="selector budget per (node, state)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = command("solve", cmd_solve, "compute and print all value sets")
    p.add_argument("--prune", action="store_true",
                   help="print the backward sets Pareto-pruned")
    p.add_argument("--time", type=int, default=None,
                   help="print only the forward value sets at this time")

    command("check-bellman", cmd_check_bellman, "verify the Bellman relations")

    p = command("rect", cmd_rect, "check rectangularity of the model family",
                budget=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-vectors", default=None, help="JSON file of terminal vectors")
    p.add_argument("--random", type=int, default=20, metavar="N")

    p = command("vsup", cmd_vsup, "supremum of a finite vector collection",
                instance=False, budget=False)
    p.add_argument("--cone", required=True, help="cone JSON file")
    p.add_argument("--points", required=True, help="JSON file: list of vectors")

    p = command("pareto", cmd_pareto, "Pareto generators of the upper image")
    p.add_argument("--time", type=int, default=0)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceError,
        UnsupportedConeError,
        DualNotLIError,
        RepresentationError,
        DimensionMismatchError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DeskScaleExceededError, SupNotExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCALE_OR_SUP


if __name__ == "__main__":
    sys.exit(main())
