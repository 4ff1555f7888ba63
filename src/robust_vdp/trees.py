"""Finite scenario trees, model families and adapted random vectors.

A scenario tree is a rooted tree whose depth-t nodes carry the atoms of
the time-t information set; an adapted vector assigns one d-vector to each
node of a fixed level.  A model is an assignment of exact transition
probabilities to every non-terminal node; a family of such models captures
the ambiguity about the true law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .cones import Cone
from .errors import DimensionMismatchError
from .exactlp import Vec, vec
from .suprema import NON_UNIQUE, NOT_EXISTS, UNIQUE, SupResult, vsup


@dataclass(frozen=True)
class ScenarioTree:
    horizon: int
    levels: tuple[tuple[str, ...], ...]  # node ids per time 0..T
    children: Mapping[str, tuple[str, ...]]
    labels: Mapping[str, str] = field(default_factory=dict)  # child -> branch label

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if len(self.levels) != self.horizon + 1:
            raise ValueError("levels must list nodes for each time 0..T")
        if len(self.levels[0]) != 1:
            raise ValueError("exactly one root node is required")
        seen = set()
        for level in self.levels:
            for n in level:
                if n in seen:
                    raise ValueError(f"duplicate node id {n!r}")
                seen.add(n)
        claimed = set()
        for t in range(self.horizon):
            next_level = set(self.levels[t + 1])
            for n in self.levels[t]:
                kids = self.children.get(n, ())
                if not kids:
                    raise ValueError(f"non-terminal node {n!r} has no children")
                for c in kids:
                    if c not in next_level:
                        raise ValueError(
                            f"child {c!r} of {n!r} is not a time-{t + 1} node"
                        )
                    if c in claimed:
                        raise ValueError(f"node {c!r} has two parents")
                    claimed.add(c)
        if claimed != seen - set(self.levels[0]):
            raise ValueError("every non-root node needs exactly one parent")
        for n in self.levels[self.horizon]:
            if n in self.children:
                raise ValueError(f"terminal node {n!r} takes no children entry")

    @property
    def root(self) -> str:
        return self.levels[0][0]

    def nodes_at(self, t: int) -> tuple[str, ...]:
        return self.levels[t]

    @cached_property
    def inner_nodes(self) -> tuple[str, ...]:
        """The non-terminal nodes, level by level (times 0..T-1)."""
        return tuple(n for level in self.levels[:-1] for n in level)

    def label(self, child: str) -> str:
        return self.labels.get(child, child)


def sums_to_one(p: Sequence) -> bool:
    """Whether the exact rationals p sum to 1, decided on their numerators
    over the lcm of their denominators: integer additions only."""
    d = lcm(*(x.denominator for x in p))
    return sum(x.numerator * (d // x.denominator) for x in p) == d


def _check_row(model_id: str, tree: ScenarioTree, n: str, p) -> None:
    """A model's row at the non-terminal node n: present, one probability
    per child, nonnegative, summing to 1."""
    if p is None:
        raise ValueError(f"model {model_id}: no transition at {n!r}")
    if len(p) != len(tree.children[n]):
        raise ValueError(f"model {model_id}: transition at {n!r} has wrong arity")
    if any(x.numerator < 0 for x in p):
        raise ValueError(f"model {model_id}: negative probability at {n!r}")
    if not sums_to_one(p):
        raise ValueError(
            f"model {model_id}: probabilities at {n!r} sum to {sum(p)} != 1"
        )


def _weights(row: Sequence[Fraction], d: int) -> tuple[int, ...]:
    """The probabilities of a row as integer weights p * d; d is a multiple
    of every denominator in the row."""
    return tuple(p.numerator * (d // p.denominator) for p in row)


@dataclass(frozen=True)
class Model:
    id: str
    #: per non-terminal node, exact probabilities aligned with the
    #: node's children order
    transition: Mapping[str, tuple[Fraction, ...]]

    def validate(self, tree: ScenarioTree):
        for n in tree.inner_nodes:
            _check_row(self.id, tree, n, self.transition.get(n))

    def assignment(self, tree: ScenarioTree) -> tuple:
        """Hashable transition assignment in canonical node order."""
        return tuple(self.transition[n] for n in tree.inner_nodes)


@dataclass(frozen=True)
class ModelFamily:
    tree: ScenarioTree
    models: tuple[Model, ...]

    def __post_init__(self):
        if not self.models:
            raise ValueError("a model family must be nonempty")
        ids = [m.id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValueError("model ids must be unique")
        # a row object shared by several models (a marginal candidate row
        # of a parsed document) is checked once per node, in model order,
        # so the first bad (model, node) is still the one reported; the
        # rows are kept as values, so no checked id is reused
        checked: dict[tuple[str, int], object] = {}
        for m in self.models:
            for n in self.tree.inner_nodes:
                p = m.transition.get(n)
                if (n, id(p)) not in checked:
                    _check_row(m.id, self.tree, n, p)
                    checked[n, id(p)] = p

    @cached_property
    def _row_objects(self) -> dict[str, tuple[tuple, tuple[int, ...]]]:
        """Per non-terminal node, the distinct row objects of the models
        (a marginal candidate row of a parsed document is one object shared
        by many models), in order of first occurrence, and each model's
        index into them, in model order.  The rows are kept, so no id is
        reused while they are told apart by it."""
        out = {}
        for n in self.tree.inner_nodes:
            found: dict[int, int] = {}
            rows, index = [], []
            for m in self.models:
                p = m.transition[n]
                k = found.get(id(p))
                if k is None:
                    k = found[id(p)] = len(rows)
                    rows.append(p)
                index.append(k)
            out[n] = (tuple(rows), tuple(index))
        return out

    @cached_property
    def denominators(self) -> tuple[int, ...]:
        """Per time 0..T-1, D_t: the lcm of the denominators of the models'
        rows at that level's nodes, each row object read once."""
        return tuple(
            lcm(*(p.denominator for n in level
                  for row in self._row_objects[n][0] for p in row))
            for level in self.tree.levels[:-1]
        )

    @cached_property
    def _object_weights(self) -> dict[str, list[tuple[int, ...]]]:
        """Per non-terminal node, each distinct row object
        (``_row_objects``) as integer weights p * D_t, scaled once."""
        return {
            n: [_weights(row, d) for row in self._row_objects[n][0]]
            for level, d in zip(self.tree.levels, self.denominators)
            for n in level
        }

    @cached_property
    def weights(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Per non-terminal node, each model's row as integer weights
        p * D_t, in model order, each row object scaled once.  Two rows at a
        node are equal exactly when their weights are, so the family's rows
        are told apart on these."""
        return {
            n: tuple(scaled[k] for k in self._row_objects[n][1])
            for n, scaled in self._object_weights.items()
        }

    @cached_property
    def rows(self) -> dict[str, tuple[tuple[Fraction, ...], ...]]:
        """Per non-terminal node, the distinct transition rows of the
        family, in order of first occurrence."""
        out = {}
        for n, weights in self.weights.items():
            first: dict[tuple[int, ...], Model] = {}
            for m, w in zip(self.models, weights):
                first.setdefault(w, m)
            out[n] = tuple(tuple(m.transition[n]) for m in first.values())
        return out

    @cached_property
    def is_product(self) -> bool:
        """Whether the family is the full product of its node rows.  Every
        model draws its rows from them, so the family lies in their product,
        and equality is a count: the models' distinct tuples of row indices,
        one index per node, against the product of the per-node counts.
        Each node's distinct row objects are told apart by their weights
        once, and each model reads its row's index through its object."""
        indices, size = [], 1
        for n, scaled in self._object_weights.items():
            found: dict[tuple[int, ...], int] = {}
            distinct = [found.setdefault(w, len(found)) for w in scaled]
            indices.append(map(distinct.__getitem__, self._row_objects[n][1]))
            size *= len(found)
        return len(set(zip(*indices))) == size

    @cached_property
    def classes(self) -> dict[str, tuple[tuple, tuple[int, ...]]]:
        """Per non-terminal node n, the models' subtree classes at n: the
        distinct keys ``(integer weights at n, class index at each child)``
        in order of first occurrence, and each model's class index, in model
        order.  Built from the horizon up; a leaf has one class (index 0).
        Two models of one class have the same expected terminal loss at n
        for every terminal vector."""
        leaf = (0,) * len(self.models)
        out: dict[str, tuple[tuple, tuple[int, ...]]] = {}
        for level in reversed(self.tree.levels[:-1]):
            for n in level:
                kids = [out[c][1] if c in out else leaf for c in self.tree.children[n]]
                found: dict = {}
                index = tuple(
                    found.setdefault(key, len(found))
                    for key in zip(self.weights[n], zip(*kids))
                )
                out[n] = (tuple(found), index)
        return {n: out[n] for n in self.tree.inner_nodes}


@dataclass(frozen=True)
class AdaptedVector:
    time: int
    values: Mapping[str, Vec]

    @staticmethod
    def of(time: int, values: Mapping[str, Iterable]) -> "AdaptedVector":
        return AdaptedVector(time, {n: vec(v) for n, v in values.items()})

    @property
    def dim(self) -> int:
        return len(next(iter(self.values.values())))

    def at(self, node: str) -> Vec:
        return self.values[node]

    def check_level(self, tree: ScenarioTree):
        nodes = set(tree.nodes_at(self.time))
        if set(self.values) != nodes:
            raise ValueError(
                f"adapted vector does not cover exactly the time-{self.time} nodes"
            )
        d = self.dim
        if any(len(v) != d for v in self.values.values()):
            raise DimensionMismatchError("mixed dimensions in adapted vector")


def expect(probs: Sequence, points: Sequence[Vec]) -> Vec:
    """One-step expectation: the weighted sum of the child vectors,
    coordinate by coordinate.  Exact.  The weights are probabilities, or a
    row's integer weights p * D_t on child values over a level scale (see
    ``ControlledProblem.scales``); integer weights on integer coordinates
    give integers.  Each coordinate is one sum of products started at the
    first product, as in ``exactlp.dot``."""
    out = []
    for col in zip(*points):
        products = map(mul, probs, col)
        out.append(sum(products, next(products)))
    return tuple(out)


def cond_expect(
    tree: ScenarioTree, model: Model, x: AdaptedVector, t: int
) -> AdaptedVector:
    """Conditional expectation of x given the time-t information, under
    the model's transition probabilities.  Exact."""
    s = x.time
    if not 0 <= t <= s <= tree.horizon:
        raise ValueError(f"need 0 <= t <= {s} <= horizon, got t={t}")
    x.check_level(tree)
    vals = dict(x.values)
    for level in range(s - 1, t - 1, -1):
        vals = {
            n: expect(model.transition[n], [vals[c] for c in tree.children[n]])
            for n in tree.nodes_at(level)
        }
    return AdaptedVector(t, vals)


@dataclass(frozen=True)
class AdaptedSupResult:
    status: str
    value: Optional[AdaptedVector] = None
    alternative: Optional[AdaptedVector] = None
    #: node -> SupResult for nodes where the supremum does not exist
    failures: Mapping[str, SupResult] = field(default_factory=dict)


def vsup_adapted(cone: Cone, xs: Iterable[AdaptedVector]) -> AdaptedSupResult:
    """Node-wise supremum of finitely many adapted vectors.

    The lifted order compares node by node, so the supremum factorises
    over the atoms of the level.
    """
    items = list(xs)
    if not items:
        raise ValueError("supremum of an empty collection is undefined")
    t = items[0].time
    if any(x.time != t for x in items):
        raise ValueError("adapted vectors live at different times")
    nodes = sorted(items[0].values)
    per_node = {n: vsup(cone, [x.at(n) for x in items]) for n in nodes}
    failures = {n: r for n, r in per_node.items() if r.status == NOT_EXISTS}
    if failures:
        return AdaptedSupResult(NOT_EXISTS, failures=failures)
    value = AdaptedVector(t, {n: per_node[n].value for n in nodes})
    if any(r.status == NON_UNIQUE for r in per_node.values()):
        alt = AdaptedVector(
            t,
            {
                n: (
                    per_node[n].alternative
                    if per_node[n].status == NON_UNIQUE
                    else per_node[n].value
                )
                for n in nodes
            },
        )
        return AdaptedSupResult(NON_UNIQUE, value=value, alternative=alt)
    return AdaptedSupResult(UNIQUE, value=value)
