"""Instance documents: JSON parsing, validation and serialization.

An instance file bundles everything needed to pose one problem: the
dimension, the ordering cone, the scenario tree, the model family (given
explicitly or as node-wise marginals to expand) and the controlled problem
(tabulated strategies or explicit dynamics).  Rationals are encoded as
``"p/q"`` strings or integers; floating-point literals are rejected so
exactness survives the round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional

from .cones import COMPONENTWISE, DUAL, GENERATORS, HALFSPACE, Cone
from .engine import (
    DEFAULT_BUDGET,
    DYNAMICS,
    TABULATED,
    ControlledProblem,
    DynamicsSpec,
    _check_controls,
)
from .errors import InstanceError
from .exactlp import Vec, frac
from .rectangularity import rectangularize
from .trees import Model, ModelFamily, ScenarioTree, sums_to_one

CURRENT_VERSION = 1


@dataclass(frozen=True)
class Options:
    budget: int = DEFAULT_BUDGET
    prune: bool = False
    seed: Optional[int] = None


@dataclass(frozen=True)
class ParsedInstance:
    problem: ControlledProblem
    options: Options


def _reject_float(s: str):
    raise ValueError(
        f"floating-point literal {s!r} is not allowed; use 'p/q' strings"
    )


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_reject_float)
    except ValueError as e:
        raise InstanceError("/", f"not valid JSON: {e}") from e


def _frac_at(value, path: str) -> Fraction:
    try:
        return frac(value)
    except (ValueError, TypeError) as e:
        raise InstanceError(path, str(e)) from e


def _vec_at(value, path: str, dim: Optional[int] = None) -> Vec:
    if not isinstance(value, list):
        raise InstanceError(path, "expected a list of rationals")
    try:
        v = tuple(map(frac, value))
    except (ValueError, TypeError):
        # name the first coordinate that fails
        v = tuple(_frac_at(x, f"{path}/{i}") for i, x in enumerate(value))
    if dim is not None and len(v) != dim:
        raise InstanceError(path, f"expected dimension {dim}, got {len(v)}")
    return v


def _rows_at(value, path: str, dim: Optional[int] = None) -> list[Vec]:
    """A nonempty list of rational rows of dimension dim, else of the first
    row's dimension, which must be positive."""
    if not isinstance(value, list) or not value:
        raise InstanceError(path, "expected a nonempty list of rows")
    if dim is None:
        dim = len(_vec_at(value[0], f"{path}/0"))
        if not dim:
            raise InstanceError(f"{path}/0", "expected a nonempty list of rationals")
    return [_vec_at(r, f"{path}/{i}", dim) for i, r in enumerate(value)]


def _probability_row(value, tree: ScenarioTree, node: str, path: str) -> Vec:
    """A transition row at a non-terminal node: one nonnegative rational per
    child, summing to 1."""
    if node not in tree.inner_nodes:
        raise InstanceError(path, "dangling node reference")
    p = _vec_at(value, path, len(tree.children[node]))
    if not sums_to_one(p):
        raise InstanceError(path, f"sum {sum(p)} != 1")
    if any(x.numerator < 0 for x in p):
        raise InstanceError(path, "negative probability")
    return p


def _leaf_table(value, tree: ScenarioTree, dim: int, path: str) -> dict[str, Vec]:
    """A vector of dimension dim on exactly the time-H nodes."""
    if not isinstance(value, dict):
        raise InstanceError(path, "expected leaf-to-loss object")
    table = {leaf: _vec_at(v, f"{path}/{leaf}", dim) for leaf, v in value.items()}
    if set(table) != set(tree.nodes_at(tree.horizon)):
        raise InstanceError(
            path, f"expected exactly the time-{tree.horizon} nodes as keys"
        )
    return table


def _int_at(value, path: str, positive: bool = False) -> int:
    """An integer, and at least 1 when positive; a boolean is no integer."""
    if isinstance(value, bool) or not isinstance(value, int) or positive and value < 1:
        raise InstanceError(
            path, "expected a positive integer" if positive else "expected an integer"
        )
    return value


def _require(doc: Mapping, key: str, path: str, kind: Optional[type] = None):
    """doc[key], which must be present and, when kind is given, of that type
    (a boolean is no int)."""
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected an object")
    if key not in doc:
        raise InstanceError(path, f"missing required field {key!r}")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise InstanceError(f"{path}/{key}", f"expected {kind.__name__}")
    return value


def _names_at(value, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InstanceError(path, "expected a list of names")
    return tuple(value)


def _parse_cone(doc, dim: int, path: str) -> Cone:
    if not isinstance(doc, dict):
        raise InstanceError(path, "cone must be an object")
    kind = _require(doc, "kind", path)
    try:
        if kind == COMPONENTWISE:
            return Cone.componentwise(dim)
        if kind == HALFSPACE:
            return Cone.halfspace(_vec_at(_require(doc, "w", path), f"{path}/w", dim))
        if kind == DUAL:
            return Cone.from_duals(_rows_at(_require(doc, "b", path), f"{path}/b", dim))
        if kind == GENERATORS:
            return Cone.from_generators(
                _rows_at(_require(doc, "g", path), f"{path}/g", dim),
                duals=_rows_at(doc["b"], f"{path}/b", dim) if "b" in doc else None,
            )
    except InstanceError:
        raise
    except ValueError as e:
        raise InstanceError(path, str(e)) from e
    raise InstanceError(f"{path}/kind", f"unknown cone kind {kind!r}")


def _parse_tree(doc, path: str) -> ScenarioTree:
    if not isinstance(doc, dict):
        raise InstanceError(path, "tree must be an object")
    horizon = _int_at(_require(doc, "horizon", path), f"{path}/horizon", positive=True)
    levels = _require(doc, "levels", path)
    children = _require(doc, "children", path)
    if not isinstance(levels, list):
        raise InstanceError(f"{path}/levels", "expected a list of node-id lists")
    levels = [_names_at(l, f"{path}/levels/{t}") for t, l in enumerate(levels)]
    if not isinstance(children, dict):
        raise InstanceError(f"{path}/children", "expected an object")
    children = {n: _names_at(k, f"{path}/children/{n}") for n, k in children.items()}
    labels = doc.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(x, str) for x in labels.values()
    ):
        raise InstanceError(f"{path}/labels", "expected an object of names")
    known = {n for level in levels for n in level}
    for n in labels:
        if n not in known:
            raise InstanceError(f"{path}/labels/{n}", "dangling node reference")
    terminal = set(levels[-1]) if len(levels) > 1 else set()
    for n, kids in children.items():
        if n not in known:
            raise InstanceError(f"{path}/children/{n}", "dangling node reference")
        if n in terminal:
            raise InstanceError(
                f"{path}/children/{n}", f"terminal node {n!r} takes no children entry"
            )
        for c in kids:
            if c not in known:
                raise InstanceError(
                    f"{path}/children/{n}", f"dangling node reference {c!r}"
                )
    try:
        return ScenarioTree(
            horizon=horizon, levels=tuple(levels), children=children, labels=labels
        )
    except (ValueError, TypeError) as e:
        raise InstanceError(path, str(e)) from e


def _parse_transition_row(doc, tree: ScenarioTree, path: str) -> dict[str, Vec]:
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected an object mapping nodes to rows")
    return {n: _probability_row(row, tree, n, f"{path}/{n}") for n, row in doc.items()}


def _parse_models(doc, tree: ScenarioTree, path: str) -> ModelFamily:
    if not isinstance(doc, dict):
        raise InstanceError(path, "models must be an object")
    if ("explicit" in doc) == ("marginals" in doc):
        raise InstanceError(path, "exactly one of 'explicit' or 'marginals' required")
    if "marginals" in doc:
        marg = doc["marginals"]
        if not isinstance(marg, dict):
            raise InstanceError(f"{path}/marginals", "expected an object")
        parsed = {}
        for n, rows in marg.items():
            if not isinstance(rows, list) or not rows:
                raise InstanceError(
                    f"{path}/marginals/{n}", "expected a nonempty list of rows"
                )
            parsed[n] = [
                _probability_row(row, tree, n, f"{path}/marginals/{n}/{i}")
                for i, row in enumerate(rows)
            ]
        try:
            return rectangularize(tree, parsed)
        except ValueError as e:
            raise InstanceError(f"{path}/marginals", str(e)) from e
    rows = doc["explicit"]
    if not isinstance(rows, list):
        raise InstanceError(f"{path}/explicit", "expected a list of models")
    if not rows:
        raise InstanceError(f"{path}/explicit", "model family must be nonempty")
    models = []
    for i, m in enumerate(rows):
        mpath = f"{path}/explicit/{i}"
        if not isinstance(m, dict):
            raise InstanceError(mpath, "expected a model object")
        mid = _require(m, "id", mpath, str)
        transition = _parse_transition_row(
            _require(m, "transition", mpath), tree, f"{mpath}/transition"
        )
        models.append(Model(id=mid, transition=transition))
    try:
        return ModelFamily(tree=tree, models=tuple(models))
    except ValueError as e:
        raise InstanceError(f"{path}/explicit", str(e)) from e


def _parse_problem(doc, tree, family, cone, budget, path: str) -> ControlledProblem:
    if not isinstance(doc, dict):
        raise InstanceError(path, "problem must be an object")
    mode = _require(doc, "mode", path)
    try:
        if mode == TABULATED:
            strat_doc = _require(doc, "strategies", path)
            if not isinstance(strat_doc, dict) or not strat_doc:
                raise InstanceError(
                    f"{path}/strategies", "expected a nonempty object"
                )
            strategies = {
                name: _leaf_table(table, tree, cone.dim, f"{path}/strategies/{name}")
                for name, table in strat_doc.items()
            }
            return ControlledProblem(
                tree=tree, family=family, cone=cone, mode=TABULATED,
                strategies=strategies, budget=budget,
            )
        if mode == DYNAMICS:
            initial = _require(doc, "initial_state", path, str)
            adm_doc = _require(doc, "admissible", path)
            if not isinstance(adm_doc, list) or not adm_doc:
                raise InstanceError(f"{path}/admissible", "expected a nonempty list")
            admissible = {}
            for i, row in enumerate(adm_doc):
                rp = f"{path}/admissible/{i}"
                ctrls = _names_at(_require(row, "controls", rp), f"{rp}/controls")
                if not ctrls:
                    raise InstanceError(rp, "empty control set")
                _check_controls(ctrls, f"{rp}/controls")
                t, s = _require(row, "time", rp, int), _require(row, "state", rp, str)
                if (t, s) in admissible:
                    raise InstanceError(rp, f"duplicate row for (t={t}, {s!r})")
                admissible[t, s] = ctrls
            tr_doc = _require(doc, "transition", path)
            if not isinstance(tr_doc, list):
                raise InstanceError(f"{path}/transition", "expected a list")
            transition = {}
            for i, row in enumerate(tr_doc):
                rp = f"{path}/transition/{i}"
                key = (
                    _require(row, "time", rp, int),
                    _require(row, "state", rp, str),
                    _require(row, "control", rp, str),
                    _require(row, "label", rp, str),
                )
                if key in transition:
                    raise InstanceError(rp, f"duplicate row for {key}")
                transition[key] = _require(row, "next", rp, str)
            loss_doc = _require(doc, "loss", path)
            if not isinstance(loss_doc, dict) or not loss_doc:
                raise InstanceError(f"{path}/loss", "expected a nonempty object")
            loss = {
                s: _vec_at(v, f"{path}/loss/{s}", cone.dim) for s, v in loss_doc.items()
            }
            dyn = DynamicsSpec(
                initial_state=initial, admissible=admissible,
                transition=transition, loss=loss,
            )
            problem = ControlledProblem(
                tree=tree, family=family, cone=cone, mode=DYNAMICS,
                dynamics=dyn, budget=budget,
            )
            # a missing admissible row, transition or loss on a reachable path
            # is an input error naming its key, whatever the budget
            for leaf, state in problem.reachable[tree.horizon]:
                problem.terminal_loss_at(leaf, state)
            return problem
    except InstanceError:
        raise
    except ValueError as e:
        raise InstanceError(path, str(e)) from e
    raise InstanceError(f"{path}/mode", f"unknown problem mode {mode!r}")


def parse_document(text: str, budget: Optional[int] = None) -> ParsedInstance:
    """Parse and validate an instance document; a given budget replaces the
    document's own in the problem (``options`` keeps the document's)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InstanceError("/", "top-level document must be an object")
    version = doc.get("version", CURRENT_VERSION)
    if version != CURRENT_VERSION:
        raise InstanceError("/version", f"unsupported version {version!r}")
    dim = _int_at(_require(doc, "dimension", "/"), "/dimension", positive=True)
    opts_doc = doc.get("options", {})
    if not isinstance(opts_doc, dict):
        raise InstanceError("/options", "expected an object")
    doc_budget = _int_at(
        opts_doc.get("budget", DEFAULT_BUDGET), "/options/budget", positive=True
    )
    prune = opts_doc.get("prune", False)
    if not isinstance(prune, bool):
        raise InstanceError("/options/prune", "expected a boolean")
    seed = opts_doc.get("seed")
    if seed is not None:
        _int_at(seed, "/options/seed")
    cone = _parse_cone(_require(doc, "cone", "/"), dim, "/cone")
    tree = _parse_tree(_require(doc, "tree", "/"), "/tree")
    family = _parse_models(_require(doc, "models", "/"), tree, "/models")
    problem = _parse_problem(
        _require(doc, "problem", "/"), tree, family, cone,
        doc_budget if budget is None else budget, "/problem",
    )
    return ParsedInstance(
        problem=problem, options=Options(budget=doc_budget, prune=prune, seed=seed)
    )


# ---------------------------------------------------------------------------
# serialization


def _rat(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat_vec(v) -> list:
    return [_rat(x) for x in v]


def _serialize_cone(cone: Cone) -> dict:
    if cone.kind == COMPONENTWISE:
        return {"kind": COMPONENTWISE}
    if cone.kind == HALFSPACE:
        return {"kind": HALFSPACE, "w": _rat_vec(cone.duals[0])}
    if cone.kind == DUAL:
        return {"kind": DUAL, "b": [_rat_vec(r) for r in cone.duals]}
    out = {"kind": GENERATORS, "g": [_rat_vec(r) for r in cone.generators]}
    if cone.duals is not None:
        out["b"] = [_rat_vec(r) for r in cone.duals]
    return out


def serialize_instance(inst: ParsedInstance) -> str:
    """Canonical JSON for a parsed instance; parse(serialize(x)) == x."""
    p = inst.problem
    tree = p.tree
    doc: dict[str, Any] = {
        "version": CURRENT_VERSION,
        "dimension": p.cone.dim,
        "cone": _serialize_cone(p.cone),
        "tree": {
            "horizon": tree.horizon,
            "levels": [list(l) for l in tree.levels],
            "children": {n: list(kids) for n, kids in tree.children.items()},
        },
        "models": {
            "explicit": [
                {
                    "id": m.id,
                    "transition": {
                        n: _rat_vec(m.transition[n]) for n in tree.inner_nodes
                    },
                }
                for m in p.family.models
            ]
        },
    }
    if tree.labels:
        doc["tree"]["labels"] = dict(tree.labels)
    if p.mode == TABULATED:
        doc["problem"] = {
            "mode": TABULATED,
            "strategies": {
                name: {leaf: _rat_vec(v) for leaf, v in table.items()}
                for name, table in p.strategies.items()
            },
        }
    else:
        dyn = p.dynamics
        doc["problem"] = {
            "mode": DYNAMICS,
            "initial_state": dyn.initial_state,
            "admissible": [
                {"time": t, "state": s, "controls": list(ctrls)}
                for (t, s), ctrls in dyn.admissible.items()
            ],
            "transition": [
                {"time": t, "state": s, "control": a, "label": lab, "next": nxt}
                for (t, s, a, lab), nxt in dyn.transition.items()
            ],
            "loss": {s: _rat_vec(v) for s, v in dyn.loss.items()},
        }
    doc["options"] = {"budget": inst.options.budget, "prune": inst.options.prune}
    if inst.options.seed is not None:
        doc["options"]["seed"] = inst.options.seed
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
