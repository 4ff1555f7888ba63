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
from typing import Iterable, Mapping, Optional, Sequence

from .cones import Cone
from .errors import DimensionMismatchError
from .trees import AdaptedVector, Model, ModelFamily, ScenarioTree

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
    node-wise marginal sets (``ModelFamily.is_product``)."""
    return family.is_product


@dataclass(frozen=True)
class RectCheckRecord:
    test_vector: int  # index into the checked vectors
    time: int
    #: nested worst case precedes direct worst case (the rectangularity
    #: direction); None when a supremum failed to exist
    forward_holds: Optional[bool]
    #: direct precedes nested (must always hold); with forward_holds on a
    #: pointed cone, the two worst cases are equal
    reverse_holds: Optional[bool]
    sup_failure: Optional[str] = None


@dataclass(frozen=True)
class RectReport:
    records: tuple[RectCheckRecord, ...]
    n_vectors: int
    seed: Optional[int] = None

    def _decided(self, holds) -> Optional[bool]:
        """Whether every decided check holds; None when there are checks and
        none was decided."""
        decided = [holds(r) for r in self.records if r.sup_failure is None]
        return None if self.records and not decided else all(decided)

    @property
    def rectangular_on_sample(self) -> Optional[bool]:
        return self._decided(lambda r: r.forward_holds)

    @property
    def reverse_ok(self) -> Optional[bool]:
        return self._decided(lambda r: r.reverse_holds)

    @property
    def without_supremum(self) -> int:
        """Checks left undecided because a supremum does not exist."""
        return sum(r.sup_failure is not None for r in self.records)

    def summary(self) -> str:
        undecided = self.without_supremum
        verdict = {
            None: "no check decided",
            True: "no counterexample found",
            False: "counterexample found",
        }[self.rectangular_on_sample]
        parts = [f"{len(self.records)} (vector, time) checks"]
        parts += [f"{undecided} without a supremum"] if undecided else []
        parts += [f"seed={self.seed}"] if self.seed is not None else []
        return f"{verdict} among {self.n_vectors} test vectors ({', '.join(parts)})"


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


def _checked_vectors(
    cone: Cone, tree: ScenarioTree, test_vectors: Iterable[AdaptedVector]
) -> list[AdaptedVector]:
    """The test vectors, each on exactly the time-H nodes and of the cone's
    dimension, checked in order before any is walked."""
    vectors = list(test_vectors)
    for idx, x in enumerate(vectors):
        x.check_level(tree)
        if x.dim != cone.dim:
            raise DimensionMismatchError(
                f"test vector {idx} has dimension {x.dim}, the cone {cone.dim}"
            )
    return vectors


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
    worst case sup_m E_t[X], node by node, from one integer walk of X
    (``engine.terminal_walk``).  The nested value always dominates the
    direct one; rectangularity additionally requires the converse.  On a
    pointed cone the two directions together are equality: the dual rows
    have rank d, so equal images are equal points.
    """
    # the engine imports is_m_rectangular from this module
    from .engine import terminal_walk

    def precedes(x, y) -> bool:  # x <= y, decided on the cone's integer images
        return next(cone.uncovered((x,), (y,), below=True), None) is None

    vectors = _checked_vectors(cone, tree, test_vectors)
    records = []
    # a horizon-1 tree has no (vector, t) pair to check
    for idx, x in enumerate(vectors if tree.horizon > 1 else ()):
        direct, nested = terminal_walk(cone, tree, family, x.values)
        for t in range(tree.horizon - 1):
            if nested[t] is None or direct[t] is None:
                # the inner supremum of the check at t is direct[t + 1]
                failure = (f"inner supremum at t={t + 1}" if direct[t + 1] is None
                           else f"outer supremum at t={t}")
                records.append(
                    RectCheckRecord(idx, t, None, None, sup_failure=failure)
                )
                continue
            # both over the level scale S_t, which the order ignores
            pairs = [(nested[t][n], direct[t][n]) for n in tree.nodes_at(t)]
            records.append(
                RectCheckRecord(
                    idx, t,
                    all(precedes(n, d) for n, d in pairs),
                    all(precedes(d, n) for n, d in pairs),
                )
            )
    return RectReport(records=tuple(records), n_vectors=len(vectors), seed=seed)
