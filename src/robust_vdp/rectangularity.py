"""Rectangular model families: construction and verification.

A family is marginal-rectangular when it is the full Cartesian product of
per-node sets of transition vectors; that structural closure is exactly
what makes nested worst-case expectations collapse to the direct worst
case under the component-wise order.  For a general cone order only an
empirical check on supplied or sampled terminal vectors is possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Mapping, Optional, Sequence

from .cones import Cone
from .exactlp import Vec
from .suprema import NOT_EXISTS
from .trees import (
    AdaptedVector,
    Model,
    ModelFamily,
    ScenarioTree,
    cond_expect,
    leq_t,
    vsup_adapted,
)

#: per non-terminal node, the candidate transition vectors
MarginalSets = Mapping[str, Sequence[tuple[Fraction, ...]]]


def rectangularize(tree: ScenarioTree, marginals: MarginalSets) -> ModelFamily:
    """All models obtained by independently picking one candidate
    transition vector per non-terminal node."""
    nodes = tree.inner_nodes
    for n in nodes:
        if not marginals.get(n):
            raise ValueError(f"no transition candidates at node {n!r}")
    combos = product(*(range(len(marginals[n])) for n in nodes))
    models = []
    for k, choice in enumerate(combos):
        transition = {n: tuple(marginals[n][i]) for n, i in zip(nodes, choice)}
        models.append(Model(id=f"theta{k + 1}", transition=transition))
    return ModelFamily(tree=tree, models=tuple(models))


def extract_marginals(family: ModelFamily) -> dict[str, list[tuple[Fraction, ...]]]:
    """Per node, the distinct transition vectors used across the family."""
    return {n: list(rows) for n, rows in family.rows.items()}


def is_m_rectangular(family: ModelFamily) -> bool:
    """Structural test: the family equals the full product of its own
    node-wise marginal sets."""
    assignments = {m.assignment(family.tree) for m in family.models}
    # every model draws its rows from the family's distinct node rows, so
    # the family is a subset of their product; equality is a counting question
    return len(assignments) == prod(len(rows) for rows in family.rows.values())


@dataclass(frozen=True)
class RectCheckRecord:
    test_vector: int  # index into the checked vectors
    time: int
    #: nested worst case precedes direct worst case (the rectangularity
    #: direction); None when a supremum failed to exist
    forward_holds: Optional[bool]
    #: direct precedes nested (must always hold)
    reverse_holds: Optional[bool]
    equality: Optional[bool]
    nested_root: Optional[Vec] = None
    direct_root: Optional[Vec] = None
    sup_failure: Optional[str] = None


@dataclass(frozen=True)
class RectReport:
    records: tuple[RectCheckRecord, ...]
    n_vectors: int
    seed: Optional[int] = None
    pointed: bool = False

    @property
    def rectangular_on_sample(self) -> bool:
        return all(r.forward_holds for r in self.records if r.sup_failure is None)

    @property
    def reverse_ok(self) -> bool:
        return all(r.reverse_holds for r in self.records if r.sup_failure is None)

    def summary(self) -> str:
        verdict = (
            "no counterexample found"
            if self.rectangular_on_sample
            else "counterexample found"
        )
        seed_part = f", seed={self.seed}" if self.seed is not None else ""
        return (
            f"{verdict} among {self.n_vectors} test vectors"
            f" ({len(self.records)} (vector, time) checks{seed_part})"
        )


def random_terminal_vectors(
    tree: ScenarioTree, dim: int, count: int, seed: int
) -> list[AdaptedVector]:
    """Terminal-time test vectors on a small rational grid
    (numerators -8..8, denominators 1, 2, 4)."""
    rng = random.Random(seed)
    leaves = tree.nodes_at(tree.horizon)
    out = []
    for _ in range(count):
        vals = {
            n: tuple(
                Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                for _ in range(dim)
            )
            for n in leaves
        }
        out.append(AdaptedVector(tree.horizon, vals))
    return out


def check_preorder_rectangularity(
    cone: Cone,
    tree: ScenarioTree,
    family: ModelFamily,
    test_vectors: Iterable[AdaptedVector],
    seed: Optional[int] = None,
) -> RectReport:
    """Empirical rectangularity check on the supplied terminal vectors.

    For every vector X and every time t with t+1 < horizon, compares the
    nested worst case sup_m E_t[sup_m E_{t+1}[X]] against the direct
    worst case sup_m E_t[X].  The nested value always dominates the
    direct one; rectangularity additionally requires the converse, and
    for pointed cones equality.
    """
    vectors = list(test_vectors)
    records = []
    pointed = cone.is_pointed()
    models = family.models
    # a horizon-1 tree has no (vector, t) pair to check
    for idx, x in enumerate(vectors if tree.horizon > 1 else ()):
        # direct[t] = sup_m E_t[X], each model stepped down one level at a
        # time; direct[t + 1] is also the inner supremum of the check at t
        direct = {}
        level = [x] * len(models)
        for t in range(tree.horizon - 1, -1, -1):
            level = [cond_expect(tree, m, e, t) for m, e in zip(models, level)]
            # the check at 0 reads direct[0] only when direct[1] exists
            if t > 0 or direct[1].status != NOT_EXISTS:
                direct[t] = vsup_adapted(cone, level)
        for t in range(tree.horizon - 1):
            inner, failure = direct[t + 1], None
            if inner.status == NOT_EXISTS:
                failure = f"inner supremum at t={t + 1}"
            else:
                nested = vsup_adapted(
                    cone, [cond_expect(tree, m, inner.value, t) for m in models]
                )
                if nested.status == NOT_EXISTS or direct[t].status == NOT_EXISTS:
                    failure = f"outer supremum at t={t}"
            if failure:
                records.append(
                    RectCheckRecord(idx, t, None, None, None, sup_failure=failure)
                )
                continue
            nv, dv = nested.value, direct[t].value
            records.append(
                RectCheckRecord(
                    idx, t, leq_t(cone, nv, dv), leq_t(cone, dv, nv),
                    (nv.values == dv.values) if pointed else None,
                    nested_root=nv.at(tree.root) if t == 0 else None,
                    direct_root=dv.at(tree.root) if t == 0 else None,
                )
            )
    return RectReport(
        records=tuple(records), n_vectors=len(vectors), seed=seed, pointed=pointed
    )
