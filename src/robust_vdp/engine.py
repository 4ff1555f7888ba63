"""Set-valued dynamic programming on controlled scenario trees.

Three set-valued value functions are computed for a robust multi-loss
control problem: the forward value set (one worst-case expected loss per
admissible strategy), the one-step recursion fed with the exact forward
sets, and the genuinely backward recursion.  The engine verifies the weak
inclusions that always relate them and the strong inclusions / equalities
expected when the model family is rectangular and the cone order is a
partial order.

Internally every quantity is indexed by ``(time, node, state)``: the value
sets factorise over the atoms of a time level, so per-node sets are a
faithful representation of the corresponding sets of adapted vectors.

Every value at time t is computed times one positive level scale S_t
(``ControlledProblem.scales``), so that expectations with the rows'
integer weights stay integers on integer values.  The cone order, set
order, dedup and suprema commute with one positive scale per level, so
the verdicts are those of the true values; public functions divide the
values back into ``Fraction``s before returning them.

On the component-wise order over a product family the forward recursion
collapses to the backward one (``ControlledProblem.collapsed``): a
strategy's worst case over the models is then the nested node-by-node
maximum, so V = B by construction and B takes V's levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from typing import Iterator, Mapping, Optional, Sequence

from . import suprema
from .cones import COMPONENTWISE, Cone, minimal_elements
from .errors import (
    DeskScaleExceededError,
    DimensionMismatchError,
    InstanceError,
    SupNotExistsError,
    UnsupportedConeError,
)
from .exactlp import Vec
from .rectangularity import is_m_rectangular
from .suprema import NOT_EXISTS, vsup
from .trees import ModelFamily, ScenarioTree, expect

DEFAULT_BUDGET = 10**6

DYNAMICS = "dynamics"
TABULATED = "tabulated"

#: synthetic state occupied before a tabulated strategy is chosen
TAB_ROOT_STATE = "*"

#: value sets of one time level: (node, state) -> vectors
LevelSets = dict[tuple[str, str], tuple[Vec, ...]]

#: the moves of a (node, state): per admissible control, the control and the
#: (child, next state) keys it reaches
Moves = tuple[tuple[str, tuple[tuple[str, str], ...]], ...]

#: one forward level: (node, state) -> the distinct profiles of the strategies
#: from there (expected terminal loss per model, over the level scale), by
#: first strategy
ProfileLevel = dict[tuple[str, str], tuple[tuple[Vec, ...], ...]]

#: one vector per node of a time level
NodeValues = dict[str, Vec]


def _check_controls(ctrls: Sequence[str], path: str) -> None:
    """Reject a control listed twice in one admissible entry, which would
    count its strategies twice."""
    dup = next((a for i, a in enumerate(ctrls) if a in ctrls[:i]), None)
    if dup is not None:
        raise InstanceError(path, f"duplicate control {dup!r}")


@dataclass(frozen=True)
class DynamicsSpec:
    """The dynamics of an instance document's ``/problem``; the problem's
    lookups report a missing entry as an ``InstanceError`` at its path."""

    initial_state: str
    #: (time, state) -> admissible one-step controls
    admissible: Mapping[tuple[int, str], tuple[str, ...]]
    #: (time, state, control, branch label) -> next state
    transition: Mapping[tuple[int, str, str, str], str]
    #: terminal state -> loss vector
    loss: Mapping[str, Vec]

    def __post_init__(self):
        for i, ctrls in enumerate(self.admissible.values()):
            _check_controls(ctrls, f"/problem/admissible/{i}/controls")


@dataclass(frozen=True)
class ControlledProblem:
    tree: ScenarioTree
    family: ModelFamily
    cone: Cone
    mode: str
    dynamics: Optional[DynamicsSpec] = None
    #: tabulated mode: strategy name -> leaf -> terminal loss
    strategies: Optional[Mapping[str, Mapping[str, Vec]]] = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode == DYNAMICS:
            if self.dynamics is None:
                raise ValueError("dynamics mode needs a DynamicsSpec")
            losses = (
                (f"loss of terminal state {s!r}", v)
                for s, v in self.dynamics.loss.items()
            )
        elif self.mode == TABULATED:
            if not self.strategies:
                raise ValueError("tabulated mode needs at least one strategy")
            leaves = set(self.tree.nodes_at(self.tree.horizon))
            for name, table in self.strategies.items():
                if set(table) != leaves:
                    raise ValueError(
                        f"strategy {name!r} must define a loss on every leaf"
                    )
            losses = (
                (f"loss of strategy {name!r} at leaf {leaf!r}", v)
                for name, table in self.strategies.items()
                for leaf, v in table.items()
            )
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        # the engine's suprema take its vectors unchecked (``_sup_or_raise``)
        for what, v in losses:
            if len(v) != self.cone.dim:
                raise DimensionMismatchError(
                    f"{what} has dimension {len(v)}, the cone {self.cone.dim}"
                )

    @cached_property
    def reachable(self) -> dict[int, dict[tuple[str, str], Moves]]:
        """``reachable_states`` of this problem, computed on first use."""
        return reachable_states(self)

    @cached_property
    def strategy_counts(self) -> dict[tuple[str, str], int]:
        """The number of strategies from each reachable (node, state),
        counted from the horizon up."""
        counts: dict[tuple[str, str], int] = {}
        for t in range(self.tree.horizon, -1, -1):
            for key, moves in self.reachable[t].items():
                counts[key] = sum(
                    prod(counts[k] for k in keys) for _, keys in moves
                ) if moves else 1
        return counts

    @cached_property
    def scales(self) -> tuple[int, ...]:
        """The level scales S_0..S_T.  S_T is the lcm of the denominators of
        the reachable terminal losses and S_t = D_t * S_{t+1}, D_t being the
        family's row denominator at t (``ModelFamily.denominators``)."""
        horizon = self.tree.horizon
        scales = [lcm(*(
            x.denominator
            for key in self.reachable[horizon] for x in self.terminal_loss_at(*key)
        ))]
        for d in reversed(self.family.denominators):
            scales.append(d * scales[-1])
        return tuple(reversed(scales))

    @cached_property
    def collapsed(self) -> bool:
        """Whether forward V takes the collapsed recursion: on the
        component-wise order over a product family (``is_m_rectangular``),
        the worst case of a nonnegatively weighted sum over the models is
        the nested node-by-node maximum, so a strategy's profile is one
        vector, its forward value, and forward V is the one-step map
        iterated from the terminal level."""
        return self.cone.kind == COMPONENTWISE and is_m_rectangular(self.family)

    @cached_property
    def profile_levels(self) -> dict[int, ProfileLevel | LevelSets]:
        """Forward levels by time, filled from the horizon down by
        ``value_sets``: profile levels, or on a collapsed problem the value
        levels themselves."""
        return {}

    @cached_property
    def scaled_levels(self) -> dict[tuple[str, int], LevelSets]:
        """The level each of ``value_sets`` ("v"), ``backward_value`` ("b")
        and ``one_step_R`` ("r") built last, by family and time, over the
        level scale S_t; ``check_bellman`` decides on these."""
        return {}

    @cached_property
    def true_vectors(self) -> dict[int, dict[tuple, Vec]]:
        """Per level scale s, each scaled vector divided back by s once
        (``_level_true``), so that V, B and R share their ``Fraction``
        tuples."""
        return {}

    # -- a uniform (state, control) view over both modes ---------------------

    @property
    def initial_state(self) -> str:
        if self.mode == DYNAMICS:
            return self.dynamics.initial_state
        return TAB_ROOT_STATE

    def controls_at(self, t: int, state: str) -> tuple[str, ...]:
        if self.mode == DYNAMICS:
            ctrls = self.dynamics.admissible.get((t, state))
            if not ctrls:
                raise InstanceError("/problem/admissible",
                                    f"no admissible control at (t={t}, {state!r})")
            return ctrls
        if t == 0:
            return tuple(sorted(self.strategies))
        return (state,)  # committed to one named strategy

    def next_state(self, t: int, state: str, control: str, child: str) -> str:
        if self.mode == DYNAMICS:
            label = self.tree.label(child)
            key = (t, state, control, label)
            if key not in self.dynamics.transition:
                raise InstanceError("/problem/transition",
                                    f"dynamics transition missing for {key}")
            return self.dynamics.transition[key]
        return control if t == 0 else state

    def terminal_loss_at(self, leaf: str, state: str) -> Vec:
        if self.mode == DYNAMICS:
            if state not in self.dynamics.loss:
                raise InstanceError("/problem/loss",
                                    f"no loss for terminal state {state!r}")
            return self.dynamics.loss[state]
        return self.strategies[state][leaf]


# ---------------------------------------------------------------------------
# strategy enumeration


def _over_budget(
    what: str, problem: ControlledProblem, count: int, t: int, node: str, state: str
) -> DeskScaleExceededError:
    return DeskScaleExceededError(
        f"{what} exceeds the budget of {problem.budget} "
        f"({count} at t={t}, node={node!r}, state={state!r})"
    )


def enumerate_strategies(
    problem: ControlledProblem,
    t: int = 0,
    node: Optional[str] = None,
    state: Optional[str] = None,
) -> list[dict[tuple[str, str], str]]:
    """All adapted strategies from a reachable (t, node, state) to the
    horizon, each as its control per (node, state), in a deterministic
    depth-first order."""
    node = node if node is not None else problem.tree.root
    state = state if state is not None else problem.initial_state
    count = problem.strategy_counts[(node, state)]
    if count > problem.budget:
        raise _over_budget("strategy enumeration", problem, count, t, node, state)

    def recurse(tt, key) -> list[dict]:
        if tt == problem.tree.horizon:
            return [{}]
        out = []
        for a, keys in problem.reachable[tt][key]:
            for combo in product(*[recurse(tt + 1, k) for k in keys]):
                d = {key: a}
                for sub in combo:
                    d.update(sub)
                out.append(d)
        return out

    return recurse(t, (node, state))


def _sup_or_raise(problem: ControlledProblem, points, context: str) -> Vec:
    """The supremum of engine-built points, which are exact and of the
    cone's dimension: on the component-wise order the kernel alone, without
    ``vsup``'s coercion and checks."""
    if problem.cone.kind == COMPONENTWISE:
        return suprema.vsup_componentwise(points)
    res = vsup(problem.cone, points)
    if res.status == NOT_EXISTS:
        raise SupNotExistsError(f"supremum does not exist at {context}")
    return res.value


# ---------------------------------------------------------------------------
# reachability


def reachable_states(
    problem: ControlledProblem,
) -> dict[int, dict[tuple[str, str], Moves]]:
    """Per time, the reachable (node, state) pairs in deterministic order,
    each with its moves; a horizon pair has none."""
    tree = problem.tree
    out: dict[int, dict[tuple[str, str], Moves]] = {}
    level = [(tree.root, problem.initial_state)]
    for t in range(tree.horizon):
        out[t] = {
            (node, state): tuple(
                (a, tuple((c, problem.next_state(t, state, a, c))
                          for c in tree.children[node]))
                for a in problem.controls_at(t, state)
            )
            for node, state in level
        }
        level = dict.fromkeys(
            key for moves in out[t].values() for _, keys in moves for key in keys
        )
    out[tree.horizon] = dict.fromkeys(level, ())
    return out


# ---------------------------------------------------------------------------
# level scales


def _at_scale(v, s: int) -> tuple:
    """The true vector v times the level scale s, int where it is an integer."""
    return tuple(
        x.numerator * (s // x.denominator) if s % x.denominator == 0 else x * s
        for x in v
    )


def _true(v, s: int) -> Vec:
    """The scaled vector v divided back by its level scale s."""
    return tuple(Fraction(x, s) for x in v)


def _level_at_scale(level: Mapping, s: int) -> LevelSets:
    return {key: tuple(_at_scale(v, s) for v in vals) for key, vals in level.items()}


def _level_true(problem: ControlledProblem, level: Mapping, s: int) -> LevelSets:
    """The level over the scale s in true values, each vector divided once
    per problem (``ControlledProblem.true_vectors``)."""
    memo = problem.true_vectors.setdefault(s, {})

    def true(v):
        x = memo.get(v)
        if x is None:
            x = memo[v] = _true(v, s)
        return x

    return {key: tuple(map(true, vals)) for key, vals in level.items()}


def _terminal_level(problem: ControlledProblem) -> LevelSets:
    """The one terminal loss of each reachable horizon key, over S_T."""
    s = problem.scales[problem.tree.horizon]
    return {
        key: (_at_scale(problem.terminal_loss_at(*key), s),)
        for key in problem.reachable[problem.tree.horizon]
    }


# ---------------------------------------------------------------------------
# the three value functions


def _selections(
    problem: ControlledProblem, t: int, node: str, state: str, next_sets: Mapping
) -> Iterator[tuple]:
    """Every per-child selection from next_sets at (t, node, state), control by
    control, each control's selections counted against the budget first."""
    total = 0
    for _, keys in problem.reachable[t][(node, state)]:
        child_sets = [next_sets[k] for k in keys]
        total += prod(len(s) for s in child_sets)
        if total > problem.budget:
            raise _over_budget("selector product", problem, total, t, node, state)
        yield from product(*child_sets)


def _profile_level(
    problem: ControlledProblem, t: int, below: Optional[ProfileLevel | LevelSets]
) -> ProfileLevel | LevelSets:
    """The forward level at time t over S_t, from the level below (None at
    the horizon).  On a collapsed problem (``ControlledProblem.collapsed``)
    it is the value level, by the one-step map; otherwise the per-model
    profile level.  Only its selections count against the budget: a key's
    distinct profiles never outnumber them, however many strategies share
    a profile."""
    if below is None:
        terminal = _terminal_level(problem)
        if problem.collapsed:
            return terminal
        return {
            key: (losses * len(problem.family.models),)
            for key, losses in terminal.items()
        }
    if problem.collapsed:
        return _one_step_sets(problem, t, below)
    weights = problem.family.weights
    out: ProfileLevel = {}
    for node, state in problem.reachable[t]:
        rows = weights[node]
        out[(node, state)] = tuple(dict.fromkeys(
            tuple(expect(row, xs) for row, xs in zip(rows, zip(*combo)))
            for combo in _selections(problem, t, node, state, below)
        ))
    return out


def value_sets(problem: ControlledProblem, t: int) -> LevelSets:
    """Forward value sets at time t, per reachable (node, state): one
    worst-case expected loss per strategy from that point, taken as the
    supremum of each distinct profile, or on a collapsed problem read off
    its level."""
    levels = problem.profile_levels
    for s in range(min(levels, default=problem.tree.horizon + 1) - 1, t - 1, -1):
        levels[s] = _profile_level(problem, s, levels.get(s + 1))
    level = problem.scaled_levels["v", t] = levels[t] if problem.collapsed else {
        (node, state): tuple(dict.fromkeys(
            _sup_or_raise(problem, p, f"t={t}, node={node!r}, strategy")
            for p in profs
        ))
        for (node, state), profs in levels[t].items()
    }
    return _level_true(problem, level, problem.scales[t])


def _one_step_sets(
    problem: ControlledProblem,
    t: int,
    next_sets: Mapping[tuple[str, str], Sequence[Vec]],
) -> LevelSets:
    """Selector recursion: per (node, state), the suprema over models of
    one-step expectations of every per-child selection from next_sets, which
    are over S_{t+1}; the result is over S_t.  A supremum ignores repeated
    points, so each distinct node row is taken once."""
    out: LevelSets = {}
    for node, state in problem.reachable[t]:
        rows = dict.fromkeys(problem.family.weights[node])
        context = f"t={t}, node={node!r}, selector"
        out[(node, state)] = tuple(dict.fromkeys(
            _sup_or_raise(problem, [expect(row, combo) for row in rows], context)
            for combo in _selections(problem, t, node, state, next_sets)
        ))
    return out


def backward_value(problem: ControlledProblem) -> dict[int, LevelSets]:
    """Backward recursion from the horizon down to time 0.  On a collapsed
    problem whose forward levels are all built, those are the backward
    levels: both are the one-step map iterated from the terminal level."""
    horizon = problem.tree.horizon
    if problem.collapsed and 0 in problem.profile_levels:
        out = problem.profile_levels
    else:
        out = {horizon: _terminal_level(problem)}
        for t in range(horizon - 1, -1, -1):
            out[t] = _one_step_sets(problem, t, out[t + 1])
    problem.scaled_levels.update((("b", t), lvl) for t, lvl in out.items())
    return {t: _level_true(problem, lvl, problem.scales[t]) for t, lvl in out.items()}


def one_step_R(
    problem: ControlledProblem, t: int, v_next: LevelSets
) -> LevelSets:
    """One-step recursion fed with the exact forward value sets at t+1."""
    scales = problem.scales
    level = problem.scaled_levels["r", t] = _one_step_sets(
        problem, t, _level_at_scale(v_next, scales[t + 1])
    )
    return _level_true(problem, level, scales[t])


# ---------------------------------------------------------------------------
# worst cases of one terminal vector


def _node_sups(cone: Cone, points_by_node) -> Optional[NodeValues]:
    """Per node, the supremum of its points; None at the first supremum
    that does not exist.  The points are exact and of the cone's dimension,
    so the component-wise order takes its kernel alone."""
    if cone.kind == COMPONENTWISE:
        return {
            node: suprema.vsup_componentwise(points)
            for node, points in points_by_node
        }
    out: NodeValues = {}
    for node, points in points_by_node:
        res = vsup(cone, points)
        if res.status == NOT_EXISTS:
            return None
        out[node] = res.value
    return out


def terminal_walk(
    cone: Cone, tree: ScenarioTree, family: ModelFamily, values: Mapping[str, Vec]
) -> tuple[list[Optional[NodeValues]], list[Optional[NodeValues]]]:
    """The direct and the nested worst cases of one terminal vector X, given
    by its value at each leaf, in one walk from the horizon up.

    ``direct[t]`` (t < T) holds sup_m E_t[X] at each time-t node and
    ``nested[t]`` (t < T - 1) holds sup_m E_t[direct[t + 1]]; each is None
    when one of its suprema does not exist.  Both are over the level scale
    S_t: S_T is the lcm of X's denominators and S_t = D_t * S_{t+1}.  The
    expectations of the models are taken once per subtree class
    (``ModelFamily.classes``), the nested ones once per distinct row.
    """
    horizon = tree.horizon
    s = lcm(*(x.denominator for v in values.values() for x in v))
    # per node, the expected terminal loss of each class at it, over S_t
    profiles = {leaf: (_at_scale(v, s),) for leaf, v in values.items()}
    direct: list[Optional[NodeValues]] = [None] * horizon
    nested: list[Optional[NodeValues]] = [None] * (horizon - 1)
    for t in range(horizon - 1, -1, -1):
        level = tree.nodes_at(t)
        for n in level:
            kids = [profiles[c] for c in tree.children[n]]
            profiles[n] = [
                expect(row, [p[k] for p, k in zip(kids, index)])
                for row, index in family.classes[n][0]
            ]
        direct[t] = _node_sups(cone, ((n, profiles[n]) for n in level))
        below = direct[t + 1] if t < horizon - 1 else None
        if below is not None:
            nested[t] = _node_sups(cone, (
                (n, [expect(row, [below[c] for c in tree.children[n]])
                     for row in dict.fromkeys(family.weights[n])])
                for n in level
            ))
    return direct, nested


# ---------------------------------------------------------------------------
# Bellman report


@dataclass(frozen=True)
class BellmanRow:
    time: int
    #: the weak inclusions, which hold on every instance
    weak_ok: bool
    #: the strong inclusions, expected under rectangularity
    strong_ok: bool
    #: exact set equality V = R = B (expected under rectangularity and a
    #: pointed cone)
    equality: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class BellmanReport:
    rows: tuple[BellmanRow, ...]
    m_rectangular: Optional[bool]  # None when not decidable (non-componentwise)
    pointed: bool
    #: the compared set families: forward V (times 0..T), backward B
    #: (times 0..T) and one-step R (times 0..T-1)
    v: dict[int, LevelSets]
    b: dict[int, LevelSets]
    r: dict[int, LevelSets]

    @property
    def weak_ok(self) -> bool:
        return all(r.weak_ok for r in self.rows)

    @property
    def strong_ok(self) -> bool:
        return all(r.strong_ok for r in self.rows)

    @property
    def equality_ok(self) -> bool:
        return all(r.equality for r in self.rows)


#: the relations of a Bellman row, in witness order: the weak inclusions
#: (B in V + C, V in B - C, R in V + C, V in R - C), the strong ones and
#: the set equality
_RELATIONS = (
    "b_in_v_plus", "v_in_b_minus", "r_in_v_plus", "v_in_r_minus",
    "v_in_b_plus", "b_in_v_minus", "v_in_r_plus", "r_in_v_minus",
    "equality",
)


def check_bellman(problem: ControlledProblem) -> BellmanReport:
    """Build V, B and R once each, in that order, and evaluate all Bellman
    inclusions and the set equality per time.  On a collapsed problem B
    takes V's levels.  R at t is B at t wherever V and B, the inputs of
    their one-step maps, agree at t+1.  Both are
    decided on the levels over S_t that the three builders leave on the
    problem (``ControlledProblem.scaled_levels``)."""
    tree = problem.tree
    cone = problem.cone
    v_all = {t: value_sets(problem, t) for t in range(tree.horizon + 1)}
    b_all = backward_value(problem)
    scaled = problem.scaled_levels
    r_all: dict[int, LevelSets] = {}
    r_scaled: dict[int, LevelSets] = {}
    for t in range(tree.horizon):
        if scaled["v", t + 1] == scaled["b", t + 1]:
            r_all[t], r_scaled[t] = b_all[t], scaled["b", t]
        else:
            r_all[t] = one_step_R(problem, t, v_all[t + 1])
            r_scaled[t] = scaled["r", t]

    def relations(x, y):
        return cone.set_precurly(x, y), cone.set_curlyprec(x, y)

    rows = []
    for t in range(tree.horizon):
        v_lvl, b_lvl, r_lvl = scaled["v", t], scaled["b", t], r_scaled[t]
        failed: list[tuple[str, tuple[str, str]]] = []
        for key in v_lvl:
            v, b, r = v_lvl[key], b_lvl[key], r_lvl[key]
            weak_b, strong_b = relations(v, b), relations(b, v)
            # where R is B, so are its relations to V
            weak_r, strong_r = (
                (weak_b, strong_b) if r_lvl is b_lvl
                else (relations(v, r), relations(r, v))
            )
            holds = (weak_b + weak_r + strong_b + strong_r
                     + (set(v) == set(b) == set(r),))
            failed += [(name, key) for name, ok in zip(_RELATIONS, holds) if not ok]
        names = {name for name, _ in failed}
        rows.append(BellmanRow(
            time=t,
            weak_ok=names.isdisjoint(_RELATIONS[:4]),
            strong_ok=names.isdisjoint(_RELATIONS[4:8]),
            equality="equality" not in names,
            witnesses=tuple(
                f"{name} fails at t={t}, (node, state)={key}" for name, key in failed
            ),
        ))
    rect = (
        is_m_rectangular(problem.family)
        if problem.cone.kind == COMPONENTWISE
        else None
    )
    return BellmanReport(
        rows=tuple(rows), m_rectangular=rect, pointed=cone.is_pointed(),
        v=v_all, b=b_all, r=r_all,
    )


# ---------------------------------------------------------------------------
# upper images (component-wise order only)


def _require_componentwise(problem: ControlledProblem):
    if problem.cone.kind != COMPONENTWISE:
        raise UnsupportedConeError(
            "upper images are defined for the component-wise order only"
        )


def upper_image(problem: ControlledProblem, t: int) -> LevelSets:
    """Pareto generators of the time-t upper image, per (node, state)."""
    _require_componentwise(problem)
    v_lvl = value_sets(problem, t)
    return {
        key: tuple(minimal_elements(vals, problem.cone))
        for key, vals in v_lvl.items()
    }


@dataclass(frozen=True)
class UpperImageRow:
    time: int
    inclusion_ok: bool
    generator_equality: Optional[bool]  # None when not asserted
    #: the distinct recursion values checked, summed over the row's
    #: (node, state) keys
    n_checked: int
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class UpperImageReport:
    rows: tuple[UpperImageRow, ...]
    m_rectangular: bool

    @property
    def inclusion_ok(self) -> bool:
        return all(r.inclusion_ok for r in self.rows)

    @property
    def generator_equality_ok(self) -> bool:
        return all(r.generator_equality is not False for r in self.rows)


def check_upper_image_recursion(problem: ControlledProblem) -> UpperImageReport:
    """One-step recursion on upper images: feeding the generators of the
    time-(t+1) upper image into the one-step worst case must land inside
    the time-t upper image; under marginal rectangularity the generators
    coincide.  The generators alone decide the inclusion for the whole
    upper image G + C: on the component-wise order the one-step map is
    monotone (x_c <= y_c at every child gives the same for each expectation
    and for their maximum), so R(G + C) lies in R(G) + C."""
    _require_componentwise(problem)
    tree = problem.tree
    rect = is_m_rectangular(problem.family)
    scales = problem.scales
    # the generators over the level scales
    gens = {
        t: _level_at_scale(upper_image(problem, t), scales[t])
        for t in range(tree.horizon + 1)
    }
    rows = []
    for t in range(tree.horizon):
        rec = _one_step_sets(problem, t, gens[t + 1])
        ok = True
        eq: Optional[bool] = True if rect else None
        witnesses = []
        n_checked = 0
        for key in problem.reachable[t]:
            target = gens[t][key]
            n_checked += len(rec[key])
            for x in problem.cone.uncovered(rec[key], target):
                ok = False
                witnesses.append(
                    f"recursion value {_true(x, scales[t])} escapes the upper "
                    f"image at t={t}, (node, state)={key}"
                )
            if rect:
                mins = set(minimal_elements(rec[key], problem.cone))
                if mins != set(target):
                    eq = False
                    witnesses.append(
                        f"generator mismatch at t={t}, (node, state)={key}"
                    )
        rows.append(
            UpperImageRow(
                time=t,
                inclusion_ok=ok,
                generator_equality=eq,
                n_checked=n_checked,
                witnesses=tuple(witnesses),
            )
        )
    return UpperImageReport(rows=tuple(rows), m_rectangular=rect)
