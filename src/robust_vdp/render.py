"""Deterministic text reports for solved problems.

All output is diff-stable: iteration follows the instance's own ordering
(levels, children, model ids, strategy names as given), never hash order.
Exact rationals are printed as ``p/q`` with an approximate decimal column
where a line contains a non-integer value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import minimal_elements
from .engine import (
    TAB_ROOT_STATE,
    TABULATED,
    BellmanReport,
    ControlledProblem,
    LevelSets,
    check_bellman,
)
from .exactlp import Vec
from .trees import cond_expect, AdaptedVector

EMPTY_SET = "∅"


def fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_vec(v: Vec) -> str:
    return "(" + ",".join(fmt_frac(x) for x in v) + ")"


def fmt_set(vals: Sequence[Vec]) -> str:
    if not vals:
        return EMPTY_SET
    return "{" + ", ".join(fmt_vec(v) for v in vals) + "}"


def _dec(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return format(float(x), "g")


def fmt_vec_dec(v: Vec) -> str:
    return "(" + ",".join(_dec(x) for x in v) + ")"


def fmt_set_dec(vals: Sequence[Vec]) -> str:
    if not vals:
        return EMPTY_SET
    return "{" + ", ".join(fmt_vec_dec(v) for v in vals) + "}"


def _with_decimal(line: str, vals: Sequence[Vec]) -> str:
    exact = fmt_set(vals)
    approx = fmt_set_dec(vals)
    return line if exact == approx else f"{line}   ~ {approx}"


@dataclass(frozen=True)
class SolveResults:
    report: BellmanReport
    #: the backward sets as printed: ``report.b``, or with every set
    #: Pareto-pruned under ``prune``; verdicts always use ``report.b``
    b: dict[int, LevelSets]


def compute_results(problem: ControlledProblem, prune: bool = False) -> SolveResults:
    report = check_bellman(problem)
    b = report.b
    if prune:
        # pruning needs a pointed cone; it keeps the weak set inclusions but
        # not raw equality
        b = {
            t: {k: tuple(minimal_elements(v, problem.cone)) for k, v in lvl.items()}
            for t, lvl in b.items()
        }
    return SolveResults(report=report, b=b)


def _expectation_tables(problem: ControlledProblem) -> list[str]:
    tree = problem.tree
    lines: list[str] = []
    for name in sorted(problem.strategies):
        lines.append(f"Conditional expectations, strategy {name}")
        terminal = AdaptedVector(
            tree.horizon,
            {leaf: problem.strategies[name][leaf] for leaf in tree.nodes_at(tree.horizon)},
        )
        for m in problem.family.models:
            lines.append(f"  model {m.id}:")
            e = terminal
            for t in range(tree.horizon - 1, -1, -1):
                e = cond_expect(tree, m, e, t)
                cells = "  ".join(
                    f"{n}={fmt_vec(e.at(n))}" for n in tree.nodes_at(t)
                )
                lines.append(f"    E_{t}: {cells}")
        lines.append("")
    return lines


def _level_lines(tag: str, t: int, lvl: LevelSets) -> list[str]:
    lines = []
    for (node, state), vals in lvl.items():
        key = node if state in (TAB_ROOT_STATE, node) else f"{node}|{state}"
        lines.append(_with_decimal(f"  {tag}{t}({key}) = {fmt_set(vals)}", vals))
    return lines


def emit_tables(problem: ControlledProblem, results: SolveResults) -> str:
    """Full text report: expectation tables (tabulated mode), the three
    value-set families per time, and the Bellman verdicts."""
    tree = problem.tree
    lines: list[str] = []
    if problem.mode == TABULATED:
        lines.extend(_expectation_tables(problem))

    report = results.report
    root_key = (tree.root, problem.initial_state)
    v0 = report.v[0][root_key]
    b0 = results.b[0][root_key]
    lines.append(_with_decimal(f"V0(Theta) = {fmt_set(v0)}", v0))
    lines.append(_with_decimal(f"B0(Theta) = {fmt_set(b0)}", b0))
    lines.append("")

    for t in range(1, tree.horizon):
        lines.append(f"time {t}:")
        lines.extend(_level_lines("V", t, report.v[t]))
        lines.extend(_level_lines("B", t, results.b[t]))
        lines.extend(_level_lines("R", t, report.r[t]))
        lines.append("")

    lines.extend(emit_bellman(report).splitlines())
    return "\n".join(lines) + "\n"


def emit_bellman(report: BellmanReport) -> str:
    lines = ["Bellman verdicts:"]
    for row in report.rows:
        lines.append(
            f"  t={row.time}: weak "
            + ("holds" if row.weak_ok else "FAILS")
            + ", strong "
            + ("holds" if row.strong_ok else "FAILS")
            + ", equality "
            + ("holds" if row.equality else "FAILS")
        )
        for w in row.witnesses:
            lines.append(f"    {w}")
    if report.m_rectangular is not None:
        lines.append(
            "  model family is "
            + ("" if report.m_rectangular else "not ")
            + "marginal-rectangular"
        )
    lines.append(
        "  cone order is a " + ("partial order" if report.pointed else "preorder")
    )
    return "\n".join(lines) + "\n"


def level_to_json(lvl: LevelSets) -> list[dict]:
    return [
        {
            "node": node,
            "state": state,
            "set": [[fmt_frac(x) for x in v] for v in vals],
        }
        for (node, state), vals in lvl.items()
    ]


def bellman_to_json(report: BellmanReport) -> dict:
    return {
        "weak": report.weak_ok,
        "strong": report.strong_ok,
        "equality": report.equality_ok,
        "m_rectangular": report.m_rectangular,
        "pointed": report.pointed,
        "rows": [
            {
                "time": row.time,
                "weak": row.weak_ok,
                "strong": row.strong_ok,
                "equality": row.equality,
                "witnesses": list(row.witnesses),
            }
            for row in report.rows
        ],
    }


def results_to_json(problem: ControlledProblem, results: SolveResults) -> dict:
    report = results.report
    return {
        "value_sets": {str(t): level_to_json(d) for t, d in report.v.items()},
        "backward_sets": {str(t): level_to_json(d) for t, d in results.b.items()},
        "one_step_sets": {str(t): level_to_json(d) for t, d in report.r.items()},
        "bellman": bellman_to_json(report),
    }
