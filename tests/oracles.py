"""Independent reference implementations used to cross-check results.

Everything here is deliberately naive: definition-chasing checks and
brute-force enumeration, kept separate from the library's own algorithms.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm, prod
from typing import Optional, Sequence

from robust_vdp import (
    COMPONENTWISE,
    NON_UNIQUE,
    NOT_EXISTS,
    UNIQUE,
    BellmanReport,
    BellmanRow,
    Cone,
    ControlledProblem,
    DeskScaleExceededError,
    DimensionMismatchError,
    DynamicsSpec,
    Model,
    ModelFamily,
    RectReport,
    ScenarioTree,
    SupNotExistsError,
    SupResult,
    UnsupportedConeError,
    cond_expect,
    minimal_elements,
    one_step_R,
    vsup,
    vsup_adapted,
)
from robust_vdp import engine
from robust_vdp.engine import (
    UpperImageReport,
    UpperImageRow,
    _selections,
    _sup_or_raise,
    _terminal_level,
)
from robust_vdp.exactlp import (
    ONE,
    ZERO,
    LPResult,
    dot,
    exact,
    lp,
    mat_rank,
    nullspace_basis,
    rref,
    solve_linear,
    vadd,
    vec,
)
from robust_vdp.rectangularity import RectCheckRecord, rectangularize
from robust_vdp.trees import expect


def accumulating_expect(probs, points) -> tuple:
    """``trees.expect`` by accumulation: the first child's weighted vector,
    then one new list per further child."""
    terms = zip(probs, points)
    p, x = next(terms)
    acc = [p * xi for xi in x]
    for p, x in terms:
        acc = [a + p * xi for a, xi in zip(acc, x)]
    return tuple(acc)


def coercing_vsup_componentwise(xs) -> tuple:
    """The coordinate-wise maximum of the points, taken coordinate by
    coordinate after coercing each point with ``exact`` and checking that
    they share one dimension."""
    pts = [exact(x) for x in xs]
    if not pts:
        raise ValueError("supremum of an empty collection is undefined")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("all vectors must share one dimension")
    return tuple(max(p[i] for p in pts) for i in range(d))


def is_upper_bound(cone: Cone, points, v) -> bool:
    return all(cone.leq(p, v) for p in points)


def is_supremum(cone: Cone, points, v) -> bool:
    """Definition check: v is an upper bound of the points and precedes
    every other upper bound.

    The upper bounds form P = {y : <b_i, y> >= max_x <b_i, x>} and
    v + C = {y : <b_i, y> >= <b_i, v>}, so v precedes all of P exactly
    when each inequality's minimum over P is at least its value at v.
    """
    if cone.duals is None:
        raise ValueError("oracle needs a dual representation")
    if not is_upper_bound(cone, points, v):
        return False
    b_rows = list(cone.duals)
    alpha = [max(dot(b, p) for p in points) for b in b_rows]
    for b in b_rows:
        res = lp(list(b), a_ge=b_rows, b_ge=alpha)
        assert res.status == "optimal"
        if res.value < dot(b, v):
            return False
    return True


def scalar_backward_induction(problem: ControlledProblem) -> Fraction:
    """Classical expected-loss minimization for d = 1 and a single model."""
    assert len(problem.family.models) == 1
    model = problem.family.models[0]
    tree = problem.tree

    def w(t, node, state) -> Fraction:
        if t == tree.horizon:
            loss = problem.terminal_loss_at(node, state)
            assert len(loss) == 1
            return loss[0]
        best = None
        for a in problem.controls_at(t, state):
            total = Fraction(0)
            for p, c in zip(model.transition[node], tree.children[node]):
                total += p * w(t + 1, c, problem.next_state(t, state, a, c))
            if best is None or total < best:
                best = total
        return best

    return w(0, tree.root, problem.initial_state)


def stepwise_pruned_backward(problem: ControlledProblem) -> dict:
    """Backward recursion that Pareto-prunes each level before stepping
    back to the previous one."""
    horizon = problem.tree.horizon
    level = {
        (leaf, state): (problem.terminal_loss_at(leaf, state),)
        for leaf, state in problem.reachable[horizon]
    }
    out = {horizon: level}
    for t in range(horizon - 1, -1, -1):
        level = {
            key: tuple(minimal_elements(vals, problem.cone))
            for key, vals in one_step_R(problem, t, level).items()
        }
        out[t] = level
    return out


def naive_reachable(problem: ControlledProblem) -> dict:
    """Per time, the reachable (node, state) pairs in first-visit order,
    stepping every pair through ``controls_at`` and ``next_state``."""
    tree = problem.tree
    out = {0: [(tree.root, problem.initial_state)]}
    for t in range(tree.horizon):
        out[t + 1] = list(dict.fromkeys(
            (c, problem.next_state(t, state, a, c))
            for node, state in out[t]
            for a in problem.controls_at(t, state)
            for c in tree.children[node]
        ))
    return out


def naive_strategy_count(
    problem: ControlledProblem, t: int, node: str, state: str
) -> int:
    """The number of strategies from (t, node, state): per control, the
    product of the children's counts, by memoised recursion."""
    @lru_cache(maxsize=None)
    def count(tt, nn, ss):
        if tt == problem.tree.horizon:
            return 1
        return sum(
            prod(
                count(tt + 1, c, problem.next_state(tt, ss, a, c))
                for c in problem.tree.children[nn]
            )
            for a in problem.controls_at(tt, ss)
        )
    return count(t, node, state)


def naive_strategies(
    problem: ControlledProblem, t: int = 0, node=None, state=None, budget=None
) -> list[dict]:
    """Every strategy from (t, node, state) as its control per (node, state),
    depth first, control by control; a count over the budget (the
    problem's unless given) raises ``enumerate_strategies``'s error."""
    node = node if node is not None else problem.tree.root
    state = state if state is not None else problem.initial_state
    budget = problem.budget if budget is None else budget
    count = naive_strategy_count(problem, t, node, state)
    if count > budget:
        raise DeskScaleExceededError(
            f"strategy enumeration exceeds the budget of {budget} "
            f"({count} at t={t}, node={node!r}, state={state!r})"
        )

    def recurse(tt, nn, ss) -> list[dict]:
        if tt == problem.tree.horizon:
            return [{}]
        out = []
        for a in problem.controls_at(tt, ss):
            per_child = [
                recurse(tt + 1, c, problem.next_state(tt, ss, a, c))
                for c in problem.tree.children[nn]
            ]
            for combo in product(*per_child):
                d = {(nn, ss): a}
                for sub in combo:
                    d.update(sub)
                out.append(d)
        return out

    return recurse(t, node, state)


#: the budget under which the oracles enumerate what the engine only
#: selects from; an oracle that needs more raises instead of running long
RAISED_BUDGET = 10**5


def collapses(problem: ControlledProblem) -> bool:
    """Whether the engine's forward levels hold values rather than per-model
    profiles: on the component-wise order over a family that is the product
    of its rows (by the models' assignments)."""
    return (problem.cone.kind == COMPONENTWISE
            and assignment_is_m_rectangular(problem.family))


def forward_selection_check(problem: ControlledProblem, t: int, sizes) -> None:
    """The engine's budget on forward V down to time t: level by level from
    the horizon, per reachable (node, state) in order, the running total
    over its controls of the products of the children's set sizes
    (``sizes[s][key]``); the selector error at the first total over the
    budget.  Strategy counts are not checked."""
    reachable = naive_reachable(problem)
    for s in range(problem.tree.horizon - 1, t - 1, -1):
        for node, state in reachable[s]:
            total = 0
            for a in problem.controls_at(s, state):
                total += prod(
                    sizes[s + 1][(c, problem.next_state(s, state, a, c))]
                    for c in problem.tree.children[node]
                )
                if total > problem.budget:
                    raise DeskScaleExceededError(
                        f"selector product exceeds the budget of {problem.budget} "
                        f"({total} at t={s}, node={node!r}, state={state!r})"
                    )


def strategy_value_sets(problem: ControlledProblem, t: int) -> dict:
    """Forward value sets by strategy enumeration: per reachable
    (node, state) at t, every strategy's terminal table, its expectation
    over the subtree under each model, and the supremum of those, deduped
    in strategy order.  Strategies are enumerated under ``RAISED_BUDGET``;
    the problem's budget is checked as the engine checks it
    (``forward_selection_check``), on the distinct profiles of each key
    below t, or where the engine's levels hold values
    (``collapses``), on its distinct values."""
    tree = problem.tree

    def table(strat, tt, nn, ss, acc):
        if tt == tree.horizon:
            acc[nn] = problem.terminal_loss_at(nn, ss)
            return acc
        a = strat[(nn, ss)]
        for c in tree.children[nn]:
            table(strat, tt + 1, c, problem.next_state(tt, ss, a, c), acc)
        return acc

    def below(model, nn, tt, leaves):
        if tt == tree.horizon:
            return leaves[nn]
        kids = [below(model, c, tt + 1, leaves) for c in tree.children[nn]]
        return accumulating_expect(model.transition[nn], kids)

    def profiles(tt, node, state) -> list:
        out = []
        for strat in naive_strategies(problem, tt, node, state, RAISED_BUDGET):
            leaves = table(strat, tt, node, state, {})
            out.append(tuple(below(m, node, tt, leaves) for m in problem.family.models))
        return out

    def values(tt, node, profs) -> list:
        vals = []
        for p in profs:
            res = vsup(problem.cone, p)
            if res.status == NOT_EXISTS:
                raise SupNotExistsError(
                    f"supremum does not exist at t={tt}, node={node!r}, strategy"
                )
            if res.value not in vals:
                vals.append(res.value)
        return vals

    def size(tt, node, state) -> int:
        profs = profiles(tt, node, state)
        return len(values(tt, node, profs) if collapsed else set(profs))

    collapsed = collapses(problem)
    reachable = naive_reachable(problem)
    forward_selection_check(problem, t, {
        s: {key: size(s, *key) for key in reachable[s]}
        for s in range(t + 1, tree.horizon + 1)
    })
    return {
        (node, state): tuple(values(t, node, profiles(t, node, state)))
        for node, state in problem.reachable[t]
    }


def per_model_one_step_sets(problem: ControlledProblem, t: int, next_sets) -> dict:
    """The selector recursion with one ``Fraction`` expectation per model,
    repeated node rows included, on true-scale sets."""
    out = {}
    for node, state in problem.reachable[t]:
        rows = [m.transition[node] for m in problem.family.models]
        context = f"t={t}, node={node!r}, selector"
        out[(node, state)] = tuple(dict.fromkeys(
            _sup_or_raise(
                problem, [accumulating_expect(row, combo) for row in rows], context
            )
            for combo in _selections(problem, t, node, state, next_sets)
        ))
    return out


def per_model_backward_value(problem: ControlledProblem) -> dict:
    """Backward sets B from the horizon down, each level by
    ``per_model_one_step_sets`` on true-scale ``Fraction`` sets."""
    horizon = problem.tree.horizon
    out = {horizon: {
        key: (vec(problem.terminal_loss_at(*key)),)
        for key in problem.reachable[horizon]
    }}
    for t in range(horizon - 1, -1, -1):
        out[t] = per_model_one_step_sets(problem, t, out[t + 1])
    return out


# ---------------------------------------------------------------------------
# the family's row caches and product test on Fraction rows


def fraction_rows(family: ModelFamily) -> dict:
    """Per non-terminal node, the distinct transition rows of the family in
    order of first occurrence, told apart by hashing the ``Fraction`` rows."""
    return {
        n: tuple(dict.fromkeys(tuple(m.transition[n]) for m in family.models))
        for n in family.tree.inner_nodes
    }


def fraction_denominators(family: ModelFamily) -> tuple:
    """Per time, the lcm of the denominators of the distinct rows there."""
    rows = fraction_rows(family)
    return tuple(
        lcm(*(p.denominator for n in level for row in rows[n] for p in row))
        for level in family.tree.levels[:-1]
    )


def fraction_weights(family: ModelFamily) -> dict:
    """Per non-terminal node, each model's row as integer weights p * D_t,
    in model order, each distinct ``Fraction`` row scaled once."""
    rows = fraction_rows(family)
    out = {}
    for level, d in zip(family.tree.levels, fraction_denominators(family)):
        for n in level:
            scaled = {
                row: tuple(p.numerator * (d // p.denominator) for p in row)
                for row in rows[n]
            }
            out[n] = tuple(scaled[tuple(m.transition[n])] for m in family.models)
    return out


def assignment_is_m_rectangular(family: ModelFamily) -> bool:
    """Whether the set of the models' whole assignments has as many members
    as the product of the nodes' distinct ``Fraction`` rows."""
    assignments = {m.assignment(family.tree) for m in family.models}
    return len(assignments) == prod(len(r) for r in fraction_rows(family).values())


# ---------------------------------------------------------------------------
# forward V with one expected terminal loss per model


def per_model_profile_level(problem: ControlledProblem, t: int, below) -> dict:
    """The forward level at time t over S_t on any family: per reachable
    (node, state), the distinct profiles of its strategies, each one
    expected terminal loss per model (``fraction_weights``), from the level
    below (None at the horizon); its selections count against the budget."""
    if below is None:
        return {
            key: (losses * len(problem.family.models),)
            for key, losses in _terminal_level(problem).items()
        }
    weights = fraction_weights(problem.family)
    out = {}
    for node, state in problem.reachable[t]:
        rows = weights[node]
        out[(node, state)] = tuple(dict.fromkeys(
            tuple(expect(row, xs) for row, xs in zip(rows, zip(*combo)))
            for combo in _selections(problem, t, node, state, below)
        ))
    return out


def per_model_value_sets(problem: ControlledProblem, t: int) -> dict:
    """Forward value sets at t by ``per_model_profile_level`` from the
    horizon down, under ``RAISED_BUDGET``: the supremum of each distinct
    profile, deduped in profile order, in true values.  The problem's
    budget is checked as the engine checks it (``forward_selection_check``),
    on the distinct profiles of each key below t, or where the engine's
    levels hold values (``collapses``), on its distinct values."""
    raised = dataclasses.replace(problem, budget=RAISED_BUDGET)
    levels = {}
    for s in range(problem.tree.horizon, t - 1, -1):
        levels[s] = per_model_profile_level(raised, s, levels.get(s + 1))

    def values(s, node, profs) -> tuple:
        return tuple(dict.fromkeys(
            _sup_or_raise(problem, p, f"t={s}, node={node!r}, strategy")
            for p in profs
        ))

    collapsed = collapses(problem)
    forward_selection_check(problem, t, {
        s: {key: len(values(s, key[0], profs) if collapsed else profs)
            for key, profs in levels[s].items()}
        for s in levels if s > t
    })
    scale = problem.scales[t]
    return {
        (node, state): tuple(
            tuple(Fraction(x, scale) for x in v) for v in values(t, node, profs)
        )
        for (node, state), profs in levels[t].items()
    }


def fraction_bellman_report(
    problem: ControlledProblem, forward=strategy_value_sets
) -> BellmanReport:
    """``check_bellman`` from the oracles: V by ``forward`` (strategy
    enumeration unless given), B and R by the per-model ``Fraction``
    recursion, every relation by one ``leq`` per compared pair on the
    true-scale sets, and rectangularity by the models' assignments."""
    cone = problem.cone
    horizon = problem.tree.horizon
    v = {t: forward(problem, t) for t in range(horizon + 1)}
    b = per_model_backward_value(problem)
    r = {t: per_model_one_step_sets(problem, t, v[t + 1]) for t in range(horizon)}
    rows = []
    for t in range(horizon):
        failed = []
        for key in v[t]:
            vv, bb, rr = v[t][key], b[t][key], r[t][key]
            holds = {
                "b_in_v_plus": pairwise_set_precurly(cone, vv, bb),
                "v_in_b_minus": pairwise_set_curlyprec(cone, vv, bb),
                "r_in_v_plus": pairwise_set_precurly(cone, vv, rr),
                "v_in_r_minus": pairwise_set_curlyprec(cone, vv, rr),
                "v_in_b_plus": pairwise_set_precurly(cone, bb, vv),
                "b_in_v_minus": pairwise_set_curlyprec(cone, bb, vv),
                "v_in_r_plus": pairwise_set_precurly(cone, rr, vv),
                "r_in_v_minus": pairwise_set_curlyprec(cone, rr, vv),
                "equality": set(vv) == set(bb) == set(rr),
            }
            failed += [(name, key) for name, ok in holds.items() if not ok]
        names = {name for name, _ in failed}
        rows.append(BellmanRow(
            time=t,
            weak_ok=names.isdisjoint(
                {"b_in_v_plus", "v_in_b_minus", "r_in_v_plus", "v_in_r_minus"}),
            strong_ok=names.isdisjoint(
                {"v_in_b_plus", "b_in_v_minus", "v_in_r_plus", "r_in_v_minus"}),
            equality="equality" not in names,
            witnesses=tuple(
                f"{name} fails at t={t}, (node, state)={key}" for name, key in failed
            ),
        ))
    rect = (
        assignment_is_m_rectangular(problem.family)
        if cone.kind == COMPONENTWISE else None
    )
    return BellmanReport(
        rows=tuple(rows), m_rectangular=rect, pointed=cone.is_pointed(), v=v, b=b, r=r
    )


def at_level_scales(one_step):
    """A drop-in for ``engine._one_step_sets``, whose sets at t are over the
    level scale S_t, that runs ``one_step`` on the true-scale sets: the
    scaled sets are divided back, and its result is scaled up again."""
    def scaled(problem: ControlledProblem, t: int, next_sets) -> dict:
        s_next, s = problem.scales[t + 1], problem.scales[t]
        true = {
            key: tuple(tuple(Fraction(x) / s_next for x in v) for v in vals)
            for key, vals in next_sets.items()
        }
        return {
            key: tuple(tuple(x * s for x in v) for v in vals)
            for key, vals in one_step(problem, t, true).items()
        }

    return scaled


# ---------------------------------------------------------------------------
# Fraction linear algebra: the elimination and the simplex on rational rows


def fraction_rref(rows):
    """Reduced row echelon form by ``Fraction`` row operations; returns
    (matrix, pivot column indices), a drop-in for ``exactlp.rref``."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _fraction_pivot(tab, basis, r, c):
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
    basis[r] = c


def _fraction_run_simplex(tab, basis, m, ncols, allowed, pivots) -> str:
    """Minimise the cost row (last row) with Bland's rule, appending each
    ``(leave, enter)`` pivot to ``pivots``."""
    while True:
        cost = tab[m]
        enter = next(
            (j for j in range(ncols) if allowed[j] and cost[j] < 0), None
        )
        if enter is None:
            return "optimal"
        ratios = [
            (tab[i][ncols] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            return "unbounded"
        _, _, leave = min(ratios)
        pivots.append((leave, enter))
        _fraction_pivot(tab, basis, leave, enter)


def fraction_lp_standard(a, b, c) -> tuple[LPResult, list[tuple[int, int]]]:
    """min c.x subject to A x = b, x >= 0 by the two-phase simplex on a
    ``Fraction`` tableau, and the ``(leave, enter)`` pivots it made (the
    drive-out pivots included), in order."""
    m = len(a)
    n = len(c)
    rows = [list(r) for r in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    total = n + m  # artificials appended
    tab = [
        rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    pivots = []
    # phase-1 cost row: minimise sum of artificials
    cost = [ZERO] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] -= tab[i][j]
    for j in range(n, total):
        cost[j] += ONE
    tab.append(cost)
    allowed = [True] * total
    status = _fraction_run_simplex(tab, basis, m, total, allowed, pivots)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if tab[m][total] != 0:  # -objective stored; nonzero => infeasible
        return LPResult("infeasible"), pivots

    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivots.append((i, col))
                _fraction_pivot(tab, basis, i, col)

    # phase 2
    allowed = [j < n for j in range(total)]
    cost = list(c) + [ZERO] * (m + 1)
    for i in range(m):
        bj = basis[i]
        if bj < n and cost[bj] != 0:
            f = cost[bj]
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    tab[m] = cost
    status = _fraction_run_simplex(tab, basis, m, total, allowed, pivots)
    if status == "unbounded":
        return LPResult("unbounded"), pivots
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return LPResult("optimal", tuple(x), dot(c, x)), pivots


def two_step_polyhedron_vertices(b_rows, alpha) -> list:
    """``polyhedron_vertices`` with a rank test and then a solve on every
    d-subset of the rows: two eliminations per vertex candidate, and
    feasibility tested on the rational rows."""
    if not b_rows:
        return []
    d = len(b_rows[0])
    seen = []
    for idx in combinations(range(len(b_rows)), d):
        sub = [b_rows[i] for i in idx]
        if mat_rank(sub) < d:
            continue
        y = solve_linear(sub, [alpha[i] for i in idx], d)
        if y is None:
            continue
        if all(dot(b_rows[i], y) >= alpha[i] for i in range(len(b_rows))):
            if y not in seen:
                seen.append(y)
    return seen


def all_rows_lex_minimal_point(b_rows, alpha):
    """``suprema._lex_minimal_point`` with one LP for every row, also after
    the rows fixed so far have rank d, or None when the first LP is
    infeasible."""
    a_eq, b_eq = [], []
    y = None
    for b in b_rows:
        res = lp(list(b), a_ge=list(b_rows), b_ge=list(alpha), a_eq=a_eq, b_eq=b_eq)
        if res.status != "optimal":
            return None
        y = res.x
        a_eq.append(b)
        b_eq.append(res.value)
    return y


def _beta_pivot_solution(b_rows, rhs):
    """Solve B v = rhs on the first linearly independent columns of B, with
    the remaining coordinates zero."""
    _, pivot_cols = rref(b_rows)
    partial = solve_linear(
        [[row[c] for c in pivot_cols] for row in b_rows], rhs, len(pivot_cols)
    )
    v = [Fraction(0)] * len(b_rows[0])
    for c, x in zip(pivot_cols, partial):
        v[c] = x
    return tuple(v)


def beta_lp_vsup_general(cone: Cone, xs) -> SupResult:
    """``vsup_general`` deciding existence by one LP per dual row: a
    supremum exists iff ``B V = beta`` is consistent, with
    ``beta_i = min {<b_i, y> : By >= alpha}``.  Its LPs assert optimality,
    so it raises ``AssertionError`` when the collection has no upper bound.
    """
    pts = [vec(x) for x in xs]
    b_rows = cone.duals
    d = cone.dim
    alpha = [max(dot(b, p) for p in pts) for b in b_rows]
    beta = []
    argmins = []
    for b in b_rows:
        res = lp(list(b), a_ge=list(b_rows), b_ge=list(alpha))
        assert res.status == "optimal"  # bounded below by alpha_i
        beta.append(res.value)
        argmins.append(res.x)
    if solve_linear(b_rows, beta, d) is None:
        candidate = all_rows_lex_minimal_point(b_rows, alpha)
        assert candidate is not None
        witness = None
        for vert in two_step_polyhedron_vertices(b_rows, alpha):
            if any(dot(b, vert) < dot(b, candidate) for b in b_rows):
                witness = vert
                break
        if witness is None:  # polyhedron without vertices (lineality)
            witness = next(
                y for b, y in zip(b_rows, argmins) if dot(b, y) < dot(b, candidate)
            )
        return SupResult(NOT_EXISTS, undominated=witness, candidate=candidate)
    v = _beta_pivot_solution(b_rows, beta)
    if cone.dual_rank == d:
        return SupResult(UNIQUE, value=v)
    null = nullspace_basis(b_rows, d)
    return SupResult(NON_UNIQUE, value=v, alternative=vadd(v, null[0]))


def fraction_image(cone: Cone, x) -> tuple:
    """The dual image of x on the rational dual rows: x itself on the
    component-wise cone."""
    if cone.kind == COMPONENTWISE:
        return x
    return tuple(dot(b, x) for b in cone.duals)


def fraction_uncovered(cone: Cone, points, others, below=False, strict=False) -> list:
    """``Cone.uncovered`` (``strict`` as in ``minimal_elements``) comparing
    each point's rational dual image, from ``fraction_image``."""
    pts = [exact(x) for x in points]
    oth = [exact(y) for y in others]
    for x in pts + oth:
        cone._check_dim(x)
    images = dict.fromkeys(fraction_image(cone, y) for y in oth)
    covers = (lambda u, v: u <= v) if below else (lambda u, v: u >= v)
    out = []
    for x in pts:
        ix = fraction_image(cone, x)
        if strict:
            rivals = [iy for iy in images if iy != ix]
        elif ix in images:
            continue
        else:
            rivals = images
        if not any(all(map(covers, ix, iy)) for iy in rivals):
            out.append(x)
    return out


def fraction_minimal_elements(points, cone: Cone) -> list:
    """``minimal_elements`` on rational dual images."""
    if not cone.is_pointed():
        raise UnsupportedConeError("minimal elements need a pointed cone")
    pts = list(dict.fromkeys(exact(x) for x in points))
    return fraction_uncovered(cone, pts, pts, strict=True)


def _fraction_dual_solution(cone: Cone, b_rows, pts) -> Optional[SupResult]:
    alpha = [max(dot(b, p) for p in pts) for b in b_rows]
    v = solve_linear(b_rows, alpha, cone.dim)
    if v is None:
        return None
    if cone.dual_rank == cone.dim:
        return SupResult(UNIQUE, value=v)
    null = nullspace_basis(b_rows, cone.dim)
    return SupResult(NON_UNIQUE, value=v, alternative=vadd(v, null[0]))


def fraction_vsup(cone: Cone, xs) -> SupResult:
    """``vsup`` on a cone with dual rows, with every dot product taken on
    the rational dual rows and points: alpha once for the irredundant rows
    and once more for every row, the lexicographic minimum by one LP per
    row, and every vertex of P enumerated, each tested on the rational
    rows, before the witness search."""
    pts = [exact(x) for x in xs]
    if cone.dual_rank == len(cone.duals):
        return _fraction_dual_solution(cone, cone.duals, pts)
    b_rows = cone.duals
    irredundant = [cone.duals[j] for j in cone.irredundant_index]
    found = _fraction_dual_solution(cone, irredundant, pts)
    if found is not None:
        return found
    alpha = [max(dot(b, p) for p in pts) for b in b_rows]
    candidate = all_rows_lex_minimal_point(b_rows, alpha)
    if candidate is None:
        return SupResult(NOT_EXISTS)
    witness = next((
        vert for vert in two_step_polyhedron_vertices(b_rows, alpha)
        if any(dot(b, vert) < dot(b, candidate) for b in b_rows)
    ), None)
    if witness is None:  # polyhedron without vertices (lineality)
        argmins = ((b, lp(list(b), a_ge=list(b_rows), b_ge=alpha).x) for b in b_rows)
        witness = next(y for b, y in argmins if dot(b, y) < dot(b, candidate))
    return SupResult(NOT_EXISTS, undominated=witness, candidate=candidate)


def pairwise_set_precurly(cone: Cone, a, b) -> bool:
    """B subset of A + C, one ``leq`` per compared pair."""
    av = [vec(x) for x in a]
    bv = [vec(x) for x in b]
    return all(any(cone.leq(x, y) for x in av) for y in bv)


def pairwise_set_curlyprec(cone: Cone, a, b) -> bool:
    """A subset of B - C, one ``leq`` per compared pair."""
    av = [vec(x) for x in a]
    bv = [vec(x) for x in b]
    return all(any(cone.leq(x, y) for y in bv) for x in av)


def pairwise_minimal_elements(points, cone: Cone) -> list:
    """The points, deduped in order, that no other point precedes, one
    ``leq`` per compared pair; a drop-in for ``cones.minimal_elements``."""
    if not cone.is_pointed():
        raise UnsupportedConeError("minimal elements need a pointed cone")
    pts = list(dict.fromkeys(vec(x) for x in points))
    return [p for p in pts if not any(q != p and cone.leq(q, p) for q in pts)]


def pairwise_upper_image_report(problem: ControlledProblem) -> UpperImageReport:
    """``check_upper_image_recursion`` with one ``leq`` per recursion value
    and generator and the ``Fraction`` selector recursion on true-scale sets;
    reads ``engine.upper_image`` and ``engine.minimal_elements`` through the
    module, so a test can patch either."""
    engine._require_componentwise(problem)
    tree = problem.tree
    rect = assignment_is_m_rectangular(problem.family)
    gens = {t: engine.upper_image(problem, t) for t in range(tree.horizon + 1)}
    rows = []
    for t in range(tree.horizon):
        rec = per_model_one_step_sets(problem, t, gens[t + 1])
        ok = True
        eq = True if rect else None
        witnesses = []
        n_checked = 0
        for key in problem.reachable[t]:
            target = gens[t][key]
            for x in rec[key]:
                n_checked += 1
                if not any(problem.cone.leq(g, x) for g in target):
                    ok = False
                    witnesses.append(
                        f"recursion value {x} escapes the upper image at "
                        f"t={t}, (node, state)={key}"
                    )
            if rect:
                mins = set(engine.minimal_elements(rec[key], problem.cone))
                if mins != set(target):
                    eq = False
                    witnesses.append(
                        f"generator mismatch at t={t}, (node, state)={key}"
                    )
        rows.append(UpperImageRow(
            time=t, inclusion_ok=ok, generator_equality=eq, n_checked=n_checked,
            witnesses=tuple(witnesses),
        ))
    return UpperImageReport(rows=tuple(rows), m_rectangular=rect)


def leq_t(cone: Cone, x, y) -> bool:
    """Node-wise cone order on adapted vectors of the same time."""
    if x.time != y.time:
        raise ValueError("adapted vectors live at different times")
    if set(x.values) != set(y.values):
        raise ValueError("adapted vectors cover different nodes")
    return all(cone.leq(x.at(n), y.at(n)) for n in x.values)


def nested_direct_values(cone, tree, family, x, t):
    """The nested worst case sup_m E_t[sup_m E_{t+1}[x]] and the direct one
    sup_m E_t[x] by definition, each from its own conditional expectations
    of the terminal vector x, or the failure when a supremum does not
    exist."""
    inner = vsup_adapted(cone, [cond_expect(tree, m, x, t + 1) for m in family.models])
    if inner.status == NOT_EXISTS:
        return f"inner supremum at t={t + 1}"
    nested = vsup_adapted(
        cone, [cond_expect(tree, m, inner.value, t) for m in family.models]
    )
    direct = vsup_adapted(cone, [cond_expect(tree, m, x, t) for m in family.models])
    if nested.status == NOT_EXISTS or direct.status == NOT_EXISTS:
        return f"outer supremum at t={t}"
    return nested.value, direct.value


def _entry_checked(cone, tree, test_vectors) -> list:
    """The test vectors, refused in order at the first one that is not on
    exactly the time-H nodes or not of the cone's dimension."""
    vectors = list(test_vectors)
    for idx, x in enumerate(vectors):
        x.check_level(tree)
        if x.dim != cone.dim:
            raise DimensionMismatchError(
                f"test vector {idx} has dimension {x.dim}, the cone {cone.dim}"
            )
    return vectors


def nested_direct_rect_check(cone, tree, family, test_vectors, seed=None) -> RectReport:
    """``check_preorder_rectangularity`` by definition: per (vector, t), the
    nested and direct worst cases of ``nested_direct_values``."""
    vectors = _entry_checked(cone, tree, test_vectors)
    records = []
    for idx, x in enumerate(vectors):
        for t in range(tree.horizon - 1):
            values = nested_direct_values(cone, tree, family, x, t)
            if isinstance(values, str):
                records.append(RectCheckRecord(idx, t, None, None, sup_failure=values))
                continue
            nested, direct = values
            records.append(RectCheckRecord(
                idx, t, leq_t(cone, nested, direct), leq_t(cone, direct, nested)
            ))
    return RectReport(records=tuple(records), n_vectors=len(vectors), seed=seed)


def _unless_no_sup(level, *args):
    """level(*args), or None when one of its suprema does not exist."""
    try:
        return level(*args)
    except SupNotExistsError:
        return None


def per_vector_rect_check(cone, tree, family, test_vectors, seed=None) -> RectReport:
    """``check_preorder_rectangularity`` on the engine's set-valued levels:
    per vector X, the forward sets V and the one-step sets R of the problem
    whose only strategy is X, in true values, compared node by node with
    ``Cone.leq``."""
    vectors = _entry_checked(cone, tree, test_vectors)
    records = []
    for idx, x in enumerate(vectors if tree.horizon > 1 else ()):
        problem = ControlledProblem(
            tree, family, cone, engine.TABULATED, strategies={"X": x.values}
        )
        direct = [
            _unless_no_sup(engine.value_sets, problem, t) for t in range(tree.horizon)
        ]
        for t in range(tree.horizon - 1):
            inner = direct[t + 1]
            nested = inner and _unless_no_sup(one_step_R, problem, t, inner)
            if not (nested and direct[t]):
                failure = (f"inner supremum at t={t + 1}" if inner is None
                           else f"outer supremum at t={t}")
                records.append(
                    RectCheckRecord(idx, t, None, None, sup_failure=failure)
                )
                continue
            # each set holds the one value of the one strategy
            pairs = [(nested[k][0], direct[t][k][0]) for k in problem.reachable[t]]
            records.append(RectCheckRecord(
                idx, t,
                all(cone.leq(n, d) for n, d in pairs),
                all(cone.leq(d, n) for n, d in pairs),
            ))
    return RectReport(records=tuple(records), n_vectors=len(vectors), seed=seed)


# ---------------------------------------------------------------------------
# random instance generation


def _random_prob_vector(
    rng: random.Random, n: int, denominator: Optional[int] = None
) -> tuple[Fraction, ...]:
    """Random positive weights normalised, or with a denominator, a random
    split of it into n nonnegative numerators."""
    if denominator is not None:
        cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
        bounds = [0, *cuts, denominator]
        return tuple(Fraction(b - a, denominator) for a, b in zip(bounds, bounds[1:]))
    weights = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    s = sum(weights)
    return tuple(w / s for w in weights)


def random_tree(
    rng: random.Random,
    max_depth: int = 3,
    max_children: int = 3,
    max_leaves: int = 8,
) -> ScenarioTree:
    """Random tree within the stated bounds, kept small enough for exact
    full enumeration (leaf count capped)."""
    while True:
        horizon = rng.randint(1, max_depth)
        levels = [("n0",)]
        children: dict[str, tuple[str, ...]] = {}
        counter = 0
        for t in range(horizon):
            nxt = []
            for n in levels[t]:
                kids = []
                for _ in range(rng.randint(1, max_children)):
                    counter += 1
                    kids.append(f"n{counter}")
                children[n] = tuple(kids)
                nxt.extend(kids)
            levels.append(tuple(nxt))
        if len(levels[-1]) <= max_leaves:
            return ScenarioTree(
                horizon=horizon, levels=tuple(levels), children=children
            )


def random_family(
    rng: random.Random,
    tree: ScenarioTree,
    max_models: int = 4,
    rectangular: bool = False,
    level_denominators: Optional[Sequence[int]] = None,
) -> ModelFamily:
    """Random family; with ``level_denominators`` every row at time t has
    probabilities over ``level_denominators[t]``."""
    nonterminal = [n for t in range(tree.horizon) for n in tree.nodes_at(t)]
    level = {n: t for t in range(tree.horizon) for n in tree.nodes_at(t)}

    def row(n):
        q = level_denominators[level[n]] if level_denominators else None
        return _random_prob_vector(rng, len(tree.children[n]), q)

    if rectangular:
        from robust_vdp import rectangularize

        # two candidates on at most two nodes keeps the product family
        # within the max_models bound
        wide = rng.sample(nonterminal, min(len(nonterminal), rng.randint(0, 2)))
        marginals = {
            n: [row(n) for _ in range(2 if n in wide else 1)] for n in nonterminal
        }
        return rectangularize(tree, marginals)
    models = []
    for k in range(rng.randint(1, max_models)):
        transition = {n: row(n) for n in nonterminal}
        models.append(Model(id=f"m{k}", transition=transition))
    return ModelFamily(tree=tree, models=tuple(models))


def random_marginal_family(
    rng: random.Random, tree: ScenarioTree, max_models: int = 16
) -> ModelFamily:
    """A product family by ``rectangularize``: one to three distinct
    candidate rows per non-terminal node over denominators 2 to 5, so that
    many rows have a zero entry, and at some nodes the first candidate
    listed twice; the nodes, in random order, keep only as many candidates
    as the max_models bound allows."""
    marginals = {}
    models = 1
    for n in rng.sample(tree.inner_nodes, len(tree.inner_nodes)):
        k = len(tree.children[n])
        rows = list(dict.fromkeys(_random_prob_vector(rng, k, rng.randint(2, 5))
                                  for _ in range(rng.randint(1, 3))))
        if rng.random() < 0.2:
            rows.append(rows[0])
        del rows[max(1, max_models // models):]
        models *= len(rows)
        marginals[n] = rows
    return rectangularize(tree, marginals)


def random_rational(
    rng: random.Random, denominators: Sequence[int] = (1, 2, 4)
) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice(denominators))


def random_tabulated_problem(
    rng: random.Random,
    dim: int = 2,
    max_strategies: int = 3,
    max_models: int = 4,
    level_denominators: Optional[Sequence[int]] = None,
    loss_denominators: Sequence[int] = (1, 2, 4),
    family: Optional[ModelFamily] = None,
) -> ControlledProblem:
    """Random componentwise-order problem in tabulated mode: a few named
    strategies, each with a random loss on every leaf; on the given family
    and its tree, else on random ones."""
    tree = family.tree if family is not None else random_tree(rng)
    leaves = tree.nodes_at(tree.horizon)
    strategies = {
        f"x{k}": {
            leaf: tuple(random_rational(rng, loss_denominators) for _ in range(dim))
            for leaf in leaves
        }
        for k in range(rng.randint(1, max_strategies))
    }
    if family is None:
        family = random_family(
            rng, tree, max_models=max_models, level_denominators=level_denominators
        )
    return ControlledProblem(
        tree=tree,
        family=family,
        cone=Cone.componentwise(dim),
        mode="tabulated",
        strategies=strategies,
    )


def random_dynamics_problem(
    rng: random.Random,
    dim: int = 2,
    max_controls: int = 2,
    max_models: int = 4,
    rectangular: bool = False,
    n_states: int = 2,
    level_denominators: Optional[Sequence[int]] = None,
    loss_denominators: Sequence[int] = (1, 2, 4),
    family: Optional[ModelFamily] = None,
) -> ControlledProblem:
    """Random componentwise-order problem in dynamics mode, on the given
    family and its tree, else on random ones.

    State transitions are random over a small state alphabet; every state
    admits every control at every time, so all strategies are valid.
    """
    if family is None:
        tree = random_tree(rng)
        family = random_family(
            rng, tree, max_models=max_models, rectangular=rectangular,
            level_denominators=level_denominators,
        )
    tree = family.tree
    states = [f"s{i}" for i in range(n_states)]
    controls = [f"a{i}" for i in range(rng.randint(1, max_controls))]
    admissible = {
        (t, s): tuple(controls) for t in range(tree.horizon) for s in states
    }
    labels = sorted({tree.label(c) for n in tree.children for c in tree.children[n]})
    transition = {
        (t, s, a, lab): rng.choice(states)
        for t in range(tree.horizon)
        for s in states
        for a in controls
        for lab in labels
    }
    loss = {
        s: tuple(random_rational(rng, loss_denominators) for _ in range(dim))
        for s in states
    }
    dyn = DynamicsSpec(
        initial_state=states[0],
        admissible=admissible,
        transition=transition,
        loss=loss,
    )
    return ControlledProblem(
        tree=tree,
        family=family,
        cone=Cone.componentwise(dim),
        mode="dynamics",
        dynamics=dyn,
    )
