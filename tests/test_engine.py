import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest

from robust_vdp import (
    Cone,
    ControlledProblem,
    DeskScaleExceededError,
    DimensionMismatchError,
    DynamicsSpec,
    Model,
    ModelFamily,
    RepresentationError,
    ScenarioTree,
    SupNotExistsError,
    UnsupportedConeError,
    backward_value,
    check_bellman,
    check_upper_image_recursion,
    compute_results,
    enumerate_strategies,
    is_m_rectangular,
    minimal_elements,
    one_step_R,
    parse_document,
    rectangularize,
    upper_image,
    value_sets,
)
from robust_vdp import engine, suprema
from robust_vdp.data import read_text
from robust_vdp.instance import _parse_cone

from .oracles import (
    RAISED_BUDGET,
    at_level_scales,
    fraction_bellman_report,
    naive_reachable,
    naive_strategies,
    naive_strategy_count,
    pairwise_minimal_elements,
    pairwise_upper_image_report,
    per_model_backward_value,
    per_model_one_step_sets,
    per_model_value_sets,
    random_dynamics_problem,
    random_marginal_family,
    random_tabulated_problem,
    random_tree,
    stepwise_pruned_backward,
    strategy_value_sets,
    use_vsup_path,
)

F = Fraction


@pytest.fixture
def binomial():
    return parse_document(read_text("binomial_tables.json")).problem


@pytest.fixture
def independent():
    return parse_document(read_text("binomial_tables_independent.json")).problem


def one_period_tree():
    return ScenarioTree(
        horizon=1, levels=(("r",), ("a", "b")), children={"r": ("a", "b")},
        labels={"a": "up", "b": "down"},
    )


def binary_two_period_tree():
    return ScenarioTree(
        horizon=2,
        levels=(("n0",), ("u", "d"), ("uu", "ud", "du", "dd")),
        children={"n0": ("u", "d"), "u": ("uu", "ud"), "d": ("du", "dd")},
        labels={"u": "up", "d": "down", "uu": "up", "ud": "down", "du": "up", "dd": "down"},
    )


def simple_dynamics(tree, dim=1, controls=("c1", "c2")):
    """Every control sends every label to a control-specific state."""
    states = [f"st_{a}" for a in controls] + ["s0"]
    admissible = {(t, s): tuple(controls) for t in range(tree.horizon) for s in states}
    labels = {"up", "down"}
    transition = {
        (t, s, a, lab): f"st_{a}"
        for t in range(tree.horizon)
        for s in states
        for a in controls
        for lab in labels
    }
    loss = {
        f"st_{a}": tuple(F(i + 1) for _ in range(dim))
        for i, a in enumerate(controls)
    }
    loss["s0"] = tuple(F(0) for _ in range(dim))
    return DynamicsSpec(
        initial_state="s0", admissible=admissible, transition=transition, loss=loss
    )


def uniform_family(tree, n=1):
    models = []
    for k in range(n):
        transition = {
            node: tuple(F(1, len(tree.children[node])) for _ in tree.children[node])
            for t in range(tree.horizon)
            for node in tree.nodes_at(t)
        }
        models.append(Model(id=f"m{k}", transition=transition))
    return ModelFamily(tree=tree, models=tuple(models))


def test_tabulated_strategy_enumeration(binomial):
    strats = enumerate_strategies(binomial)
    assert len(strats) == 2
    assert sorted(s[("n0", "*")] for s in strats) == ["phi", "psi"]


def test_dynamics_strategy_count_depth2_binary():
    tree = binary_two_period_tree()
    problem = ControlledProblem(
        tree=tree,
        family=uniform_family(tree),
        cone=Cone.componentwise(1),
        mode="dynamics",
        dynamics=simple_dynamics(tree),
    )
    # one choice at the root and one at each of the two time-1 nodes
    assert len(enumerate_strategies(problem)) == 2 * 2 * 2


def test_budget_exceeded_in_enumeration():
    tree = binary_two_period_tree()
    problem = ControlledProblem(
        tree=tree,
        family=uniform_family(tree),
        cone=Cone.componentwise(1),
        mode="dynamics",
        dynamics=simple_dynamics(tree),
        budget=3,
    )
    with pytest.raises(DeskScaleExceededError):
        enumerate_strategies(problem)
    with pytest.raises(DeskScaleExceededError) as exc:
        backward_value(problem)
    assert str(exc.value) == (
        "selector product exceeds the budget of 3 "
        "(4 at t=0, node='n0', state='s0')"
    )


def test_budget_counts_selections():
    # every loss equal: 8 strategies share one profile, so every key selects
    # one profile per child and control, 2 selections at most
    tree = binary_two_period_tree()
    dyn = simple_dynamics(tree)
    dyn = dataclasses.replace(dyn, loss={s: (F(1),) for s in dyn.loss})
    problem = ControlledProblem(
        tree=tree,
        family=uniform_family(tree, 2),
        cone=Cone.componentwise(1),
        mode="dynamics",
        dynamics=dyn,
        budget=3,
    )
    assert problem.strategy_counts[("n0", "s0")] == 8
    with pytest.raises(DeskScaleExceededError):
        enumerate_strategies(problem)
    for budget in (3, 2):
        fitting = dataclasses.replace(problem, budget=budget)
        assert value_sets(fitting, 0) == {("n0", "s0"): ((F(1),),)}
        assert check_bellman(fitting).equality_ok
    below = dataclasses.replace(problem, budget=1)
    with pytest.raises(DeskScaleExceededError) as exc:
        value_sets(below, 0)
    assert str(exc.value) == (
        "selector product exceeds the budget of 1 "
        "(2 at t=1, node='u', state='st_c1')"
    )


def full_binary_tree(horizon):
    levels, children = [("n",)], {}
    for _ in range(horizon):
        for n in levels[-1]:
            children[n] = (n + "u", n + "d")
        levels.append(tuple(c for n in levels[-1] for c in children[n]))
    labels = {c: "up" if c[-1] == "u" else "down"
              for kids in children.values() for c in kids}
    return ScenarioTree(horizon, tuple(levels), children, labels)


def _largest_selection(monkeypatch, fn, *args):
    """fn(*args) and the largest number of selections that one
    ``_selections`` call made in it: per (node, state), the sum over its
    controls of the products of the children's set sizes."""
    totals = [0]
    selections = engine._selections

    def recorded(problem, t, node, state, next_sets):
        totals.append(sum(
            prod(len(next_sets[k]) for k in keys)
            for _, keys in problem.reachable[t][(node, state)]
        ))
        return selections(problem, t, node, state, next_sets)

    with monkeypatch.context() as m:
        m.setattr(engine, "_selections", recorded)
        out = fn(*args)
    return out, max(totals)


@pytest.mark.parametrize("seed", [0, 3, 6, 8, 18])
def test_product_family_decides_over_its_strategy_count(seed, monkeypatch):
    # a binary tree of horizon 4 with two controls: 32,768 root strategies,
    # yet at most 32 selections per (node, state), so the smallest budget
    # that decides is that largest selection count, and below it the
    # selector error is raised
    rng = random.Random(seed)
    family = random_marginal_family(rng, full_binary_tree(4))
    problem = random_dynamics_problem(rng, max_controls=2, n_states=2, family=family)
    raised = dataclasses.replace(problem, budget=RAISED_BUDGET)
    expected = fraction_bellman_report(raised, per_model_value_sets)
    _, budget = _largest_selection(monkeypatch, check_bellman, raised)
    assert problem.collapsed
    assert problem.strategy_counts[("n", "s0")] == 32768 and budget <= 32
    fitting = dataclasses.replace(problem, budget=budget)
    assert check_bellman(fitting) == expected
    assert {t: value_sets(dataclasses.replace(fitting), t)
            for t in range(5)} == expected.v
    for fn, args in ((check_bellman, ()), (value_sets, (0,)), (backward_value, ())):
        with pytest.raises(DeskScaleExceededError,
                           match="^selector product exceeds the budget of"):
            fn(dataclasses.replace(problem, budget=budget - 1), *args)


def test_budget_error_exactly_when_a_selection_exceeds_it(monkeypatch):
    # V, B and the Bellman check each raise the budget error exactly when
    # one of their per-(node, state) selection counts exceeds the budget,
    # whatever the strategy counts
    rng = random.Random(167)
    three_duals = Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    problems = []
    for i in range(40):
        family = (random_marginal_family(rng, random_tree(rng, 4, 2, 12))
                  if i % 2 else None)
        problems.append(
            random_tabulated_problem(rng, family=family) if i % 4 == 1
            else random_dynamics_problem(
                rng, max_controls=3, n_states=3, family=family)
        )
    problems += [
        dataclasses.replace(
            random_dynamics_problem(rng, dim=3, max_controls=3, n_states=3),
            cone=three_duals,
        )
        for _ in range(10)
    ]
    seen = Counter()
    for problem in problems:
        raised = dataclasses.replace(problem, budget=RAISED_BUDGET)
        largest = {
            fn: _largest_selection(monkeypatch, fn, dataclasses.replace(raised), *args)[1]
            for fn, args in ((value_sets, (0,)), (backward_value, ()),
                             (check_bellman, ()))
        }
        strategies = problem.strategy_counts[problem.tree.root, problem.initial_state]
        for budget in {1, 2, 5, max(largest.values()) - 1, max(largest.values())}:
            if budget < 1:
                continue
            for fn, args in ((value_sets, (0,)), (backward_value, ()),
                             (check_bellman, ())):
                got = _outcome(fn, dataclasses.replace(problem, budget=budget), *args)
                raised_error = isinstance(got, tuple)
                assert raised_error == (largest[fn] > budget)
                if raised_error:
                    assert got[0] == "DeskScaleExceededError"
                    assert got[1].startswith("selector product exceeds the budget")
                seen["raised" if raised_error else "decided"] += 1
                seen["decided over the strategy count"] += (
                    not raised_error and strategies > budget)
    assert seen["raised"] > 100 and seen["decided"] > 100
    assert seen["decided over the strategy count"] > 30


def test_value_sets_builds_no_level_before_t(binomial):
    # two root strategies, one from each time-1 point: only the root is
    # over a budget of 1
    problem = dataclasses.replace(binomial, budget=1)
    assert value_sets(problem, 1) == value_sets(binomial, 1)
    assert sorted(problem.profile_levels) == [1, 2]
    with pytest.raises(DeskScaleExceededError):
        value_sets(problem, 0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DeskScaleExceededError, SupNotExistsError, UnsupportedConeError) as e:
        return type(e).__name__, str(e)


def test_moves_table_equals_naive_walk():
    rng = random.Random(137)
    problems = [
        parse_document(read_text(name)).problem
        for name in (
            "binomial_tables.json",
            "binomial_tables_independent.json",
            "binomial_marginals.json",
        )
    ]
    problems += [random_dynamics_problem(rng, max_controls=3, n_states=3)
                 for _ in range(24)]
    problems += [random_tabulated_problem(rng, max_strategies=4) for _ in range(24)]
    enumerated = over_budget = 0
    for problem in problems:
        problem = dataclasses.replace(problem, budget=rng.choice((4, 40, 400)))
        naive = naive_reachable(problem)
        assert {t: list(level) for t, level in problem.reachable.items()} == naive
        for t, keys in naive.items():
            for node, state in keys:
                assert problem.strategy_counts[(node, state)] == (
                    naive_strategy_count(problem, t, node, state)
                )
                got = _outcome(enumerate_strategies, problem, t, node, state)
                assert got == _outcome(naive_strategies, problem, t, node, state)
                if isinstance(got, tuple):
                    over_budget += 1
                else:
                    enumerated += len(got)
    assert over_budget > 10 and enumerated > 500


def test_value_sets_equal_strategy_enumeration():
    rng = random.Random(113)
    three_duals = Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    halfspace = Cone.halfspace((1, 1))
    problems = [
        random_dynamics_problem(
            rng, max_controls=3, n_states=3, rectangular=bool(i % 2)
        )
        for i in range(120)
    ]
    problems += [
        dataclasses.replace(
            random_dynamics_problem(rng, dim=3, max_controls=3, n_states=3),
            cone=three_duals,
        )
        for _ in range(15)
    ]
    problems += [
        dataclasses.replace(
            random_dynamics_problem(rng, max_controls=3, n_states=3), cone=halfspace
        )
        for _ in range(15)
    ]
    problems += [
        parse_document(read_text(name)).problem
        for name in (
            "binomial_tables.json",
            "binomial_tables_independent.json",
            "binomial_marginals.json",
        )
    ]
    assert not halfspace.is_pointed()
    over_budget = over_strategies = 0
    for problem in problems:
        # a budget of 500 compares the budget errors of the few larger
        # problems too, and the levels that decide although they have more
        # strategies than that
        problem = dataclasses.replace(problem, budget=500)
        for t in range(problem.tree.horizon + 1):
            got = _outcome(value_sets, problem, t)
            assert got == _outcome(strategy_value_sets, problem, t)
            over_budget += not isinstance(got, dict)
            over_strategies += isinstance(got, dict) and max(
                problem.strategy_counts[key] for key in got) > problem.budget
    assert 0 < over_budget < 10 and over_strategies > 0


def test_value_sets_match_published_example(binomial):
    v0 = value_sets(binomial, 0)[("n0", "*")]
    assert set(v0) == {(F(5), F(4)), (F(9, 2), F(5))}
    v1 = value_sets(binomial, 1)
    assert v1[("u", "phi")] == ((F(6), F(4)),)
    assert v1[("d", "phi")] == ((F(4), F(4)),)
    assert v1[("u", "psi")] == ((F(0), F(6)),)
    assert v1[("d", "psi")] == ((F(6), F(4)),)


def test_backward_equals_forward_under_rectangularity(binomial):
    assert is_m_rectangular(binomial.family)
    b = backward_value(binomial)
    v = {t: value_sets(binomial, t) for t in range(3)}
    for t in range(2):
        for key in v[t]:
            assert set(b[t][key]) == set(v[t][key])


def test_one_step_recursion(binomial):
    r0 = one_step_R(binomial, 0, value_sets(binomial, 1))
    assert set(r0[("n0", "*")]) == {(F(5), F(4)), (F(9, 2), F(5))}


def test_check_bellman_rectangular(binomial):
    report = check_bellman(binomial)
    assert report.m_rectangular is True
    assert report.pointed
    assert report.weak_ok and report.strong_ok and report.equality_ok


def test_check_bellman_non_rectangular(independent):
    report = check_bellman(independent)
    assert report.m_rectangular is False
    assert report.weak_ok
    assert not report.strong_ok
    assert not report.equality_ok
    t0 = report.rows[0]
    assert not t0.equality and t0.witnesses


def test_independent_family_value_sets(independent):
    v0 = value_sets(independent, 0)[("n0", "*")]
    assert set(v0) == {(F(4), F(4)), (F(9, 2), F(4))}
    b0 = backward_value(independent)[0][("n0", "*")]
    assert set(b0) == {(F(5), F(4)), (F(9, 2), F(5))}


def test_weak_bellman_on_random_dynamics_instances():
    rng = random.Random(101)
    for _ in range(10):
        problem = random_dynamics_problem(rng)
        report = check_bellman(problem)
        assert report.weak_ok


def test_equality_on_random_rectangular_instances():
    rng = random.Random(103)
    for _ in range(10):
        problem = random_dynamics_problem(rng, rectangular=True)
        report = check_bellman(problem)
        assert report.m_rectangular is True
        assert report.weak_ok and report.strong_ok and report.equality_ok


@pytest.mark.parametrize("controls", [("to_x", "to_y"), ("split",)])
def test_dynamics_loss_of_another_dimension_is_refused(controls):
    # unchecked, two controls reaching one state each gave the mixed set
    # {(1, 2), (3,)}, and one control reaching both a truncated (7/3,)
    tree = one_period_tree()
    moves = {"to_x": ("x", "x"), "to_y": ("y", "y"), "split": ("x", "y")}
    dynamics = DynamicsSpec(
        initial_state="s",
        admissible={(0, "s"): controls},
        transition={
            (0, "s", a, label): state
            for a in controls for label, state in zip(("up", "down"), moves[a])
        },
        loss={"x": (1, 2), "y": (3,)},
    )
    family = ModelFamily(
        tree=tree, models=(Model(id="m", transition={"r": (F(1, 3), F(2, 3))}),)
    )
    with pytest.raises(
        DimensionMismatchError,
        match=r"^loss of terminal state 'y' has dimension 1, the cone 2$",
    ):
        ControlledProblem(
            tree=tree, family=family, cone=Cone.componentwise(2),
            mode="dynamics", dynamics=dynamics,
        )


def test_tabulated_loss_of_another_dimension_is_refused():
    tree = one_period_tree()
    family = uniform_family(tree)
    strategies = {
        "phi": {"a": (1, 2), "b": (3, 4)},
        "psi": {"a": (1, 2), "b": (3, 4, 5)},
    }
    with pytest.raises(
        DimensionMismatchError,
        match=r"^loss of strategy 'psi' at leaf 'b' has dimension 3, the cone 2$",
    ):
        ControlledProblem(
            tree=tree, family=family, cone=Cone.componentwise(2),
            mode="tabulated", strategies=strategies,
        )


def test_sup_failure_is_reported():
    tree = one_period_tree()
    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    models = (
        Model(id="pa", transition={"r": (F(1), F(0))}),
        Model(id="pb", transition={"r": (F(0), F(1))}),
    )
    problem = ControlledProblem(
        tree=tree,
        family=ModelFamily(tree=tree, models=models),
        cone=roof,
        mode="tabulated",
        strategies={"only": {"a": (F(0), F(0), F(0)), "b": (F(1, 4), F(-1, 4), F(0))}},
    )
    with pytest.raises(SupNotExistsError):
        value_sets(problem, 0)


def test_prune_pareto():
    cone = Cone.componentwise(2)
    pts = [(F(0), F(3)), (F(1), F(1)), (F(2), F(2)), (F(2), F(0))]
    assert minimal_elements(pts, cone) == [(F(0), F(3)), (F(1), F(1)), (F(2), F(0))]


def test_prune_preserves_weak_relations(binomial):
    cone = binomial.cone
    results = compute_results(binomial, prune=True)
    full, pruned = results.report.b, results.b
    for t in full:
        for key in full[t]:
            assert cone.set_precurly(pruned[t][key], full[t][key])
            assert cone.set_curlyprec(pruned[t][key], full[t][key])


def _as_sets(levels):
    return {t: {key: set(vals) for key, vals in lvl.items()} for t, lvl in levels.items()}


def test_per_level_pruning_equals_stepwise_pruned_recursion():
    # expectation and supremum are monotone in a pointed cone order, so
    # pruning once per level keeps exactly the frontier that pruning inside
    # the recursion keeps
    rng = random.Random(107)
    problems = [random_dynamics_problem(rng, rectangular=bool(i % 2)) for i in range(12)]
    three_duals = Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    problems += [
        dataclasses.replace(random_dynamics_problem(rng, dim=3, n_states=3), cone=three_duals)
        for _ in range(8)
    ]
    dropped = Counter()
    for problem in problems:
        results = compute_results(problem, prune=True)
        assert _as_sets(results.b) == _as_sets(stepwise_pruned_backward(problem))
        dropped[problem.cone.kind] += sum(
            len(full) - len(results.b[t][key])
            for t, lvl in results.report.b.items()
            for key, full in lvl.items()
        )
    assert dropped["componentwise"] > 0 and dropped["dual"] > 0


@pytest.mark.parametrize("rectangular", [True, False])
def test_report_sets_match_per_level_functions(rectangular):
    rng = random.Random(109)
    for _ in range(8):
        problem = random_dynamics_problem(rng, rectangular=rectangular)
        horizon = problem.tree.horizon
        v = {t: value_sets(problem, t) for t in range(horizon + 1)}
        report = check_bellman(problem)
        assert report.v == v
        assert report.b == backward_value(problem)
        assert report.r == {t: one_step_R(problem, t, v[t + 1]) for t in range(horizon)}


def test_compute_results_builds_each_family_once(binomial, monkeypatch):
    calls = Counter()
    for name in ("reachable_states", "value_sets", "backward_value", "one_step_R"):
        def counted(*args, _fn=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)
    levels = Counter()

    def counted_level(problem, t, below, _fn=engine._profile_level):
        levels[t] += 1
        return _fn(problem, t, below)

    monkeypatch.setattr(engine, "_profile_level", counted_level)
    report = compute_results(binomial, prune=True).report
    horizon = binomial.tree.horizon
    # R at t is B at t wherever V and B agree at t+1
    rebuilt = [t for t in range(horizon) if report.v[t + 1] != report.b[t + 1]]
    assert calls == Counter({
        "reachable_states": 1,
        "value_sets": horizon + 1,
        "backward_value": 1,
        "one_step_R": len(rebuilt),
    })
    assert levels == {t: 1 for t in range(horizon + 1)}


def test_one_step_R_built_only_where_v_and_b_differ(monkeypatch):
    # horizon 3, non-rectangular: V and B differ at t=1 only
    problem = random_dynamics_problem(random.Random(19), max_models=3)
    assert problem.tree.horizon == 3 and not is_m_rectangular(problem.family)
    built = []

    def counted(problem, t, v_next, _fn=engine.one_step_R):
        built.append(t)
        return _fn(problem, t, v_next)

    monkeypatch.setattr(engine, "one_step_R", counted)
    report = check_bellman(problem)
    assert built == [0]
    assert report.r[0] != report.b[0]
    for t in range(3):
        assert report.r[t] == per_model_one_step_sets(problem, t, report.v[t + 1])


@pytest.mark.parametrize("rectangular", [True, False])
def test_set_relations_decided_once_where_r_is_b(rectangular, monkeypatch):
    # non-rectangular: horizon 3, R is not B at t=0 only
    problem = (
        parse_document(read_text("binomial_tables.json")).problem if rectangular
        else random_dynamics_problem(random.Random(19), max_models=3)
    )
    calls = Counter()
    for name in ("set_precurly", "set_curlyprec"):
        def counted(cone, a, b, _fn=getattr(Cone, name), _name=name):
            calls[_name] += 1
            return _fn(cone, a, b)
        monkeypatch.setattr(Cone, name, counted)
    report = check_bellman(problem)
    horizon = problem.tree.horizon
    shared = [report.r[t] is report.b[t] for t in range(horizon)]
    assert all(shared) if rectangular else shared == [False] + [True] * (horizon - 1)
    # per (node, state): V against B both ways, and against R where R is not B
    each = sum(len(report.v[t]) * (2 if shared[t] else 4) for t in range(horizon))
    assert calls == Counter(set_precurly=each, set_curlyprec=each)


def test_upper_image(binomial):
    gens = upper_image(binomial, 0)[("n0", "*")]
    assert set(gens) == {(F(5), F(4)), (F(9, 2), F(5))}


def test_upper_image_needs_componentwise():
    tree = one_period_tree()
    problem = ControlledProblem(
        tree=tree,
        family=uniform_family(tree),
        cone=Cone.halfspace((1, 1)),
        mode="tabulated",
        strategies={"s": {"a": (F(0), F(0)), "b": (F(1), F(1))}},
    )
    with pytest.raises(UnsupportedConeError):
        upper_image(problem, 0)


def test_upper_image_recursion_rectangular(binomial):
    report = check_upper_image_recursion(binomial)
    assert report.m_rectangular
    assert report.inclusion_ok
    assert report.generator_equality_ok
    assert all(r.n_checked > 0 for r in report.rows)


def test_upper_image_recursion_inclusion_holds_without_rectangularity(independent):
    report = check_upper_image_recursion(independent)
    assert not report.m_rectangular
    assert report.inclusion_ok


def test_upper_image_recursion_checks_generators_only(binomial):
    # one recursion value per selection of generators: 2 at t=0 and 4 at
    # t=1, so a budget of 16 selections is enough
    report = check_upper_image_recursion(binomial)
    assert [r.n_checked for r in report.rows] == [2, 4]
    assert check_upper_image_recursion(
        dataclasses.replace(binomial, budget=16)
    ) == report


def test_one_step_map_is_monotone(monkeypatch):
    # a nonnegative shift of every child value moves the supremum of each
    # selection up, so R(G + C) lies in R(G) + C on the component-wise order
    rng = random.Random(151)
    values = []

    def recorded(problem, points, context, _fn=engine._sup_or_raise):
        values.append(_fn(problem, points, context))
        return values[-1]

    monkeypatch.setattr(engine, "_sup_or_raise", recorded)
    compared = moved = 0
    for i in range(30):
        problem = dataclasses.replace(
            random_dynamics_problem(
                rng, dim=rng.choice((2, 3)), max_controls=3, n_states=3,
                rectangular=bool(i % 2),
            ),
            budget=500,
        )
        b = _outcome(backward_value, problem)
        if isinstance(b, tuple):
            continue
        for t in range(problem.tree.horizon):
            below = engine._level_at_scale(b[t + 1], problem.scales[t + 1])
            shifted = {
                key: tuple(tuple(x + rng.randint(0, 3) for x in p) for p in vals)
                for key, vals in below.items()
            }
            # one recorded supremum per selection, in selection order
            values.clear()
            engine._one_step_sets(problem, t, below)
            plain = list(values)
            values.clear()
            up = engine._one_step_sets(problem, t, shifted)
            assert {v for vals in up.values() for v in vals} == set(values)
            assert len(values) == len(plain)
            assert all(problem.cone.leq(x, y) for x, y in zip(plain, values))
            compared += len(plain)
            moved += sum(x != y for x, y in zip(plain, values))
    assert compared > 400 and moved > 300


def test_upper_image_report_equals_pairwise_leq(monkeypatch):
    rng = random.Random(131)
    problems = [
        parse_document(read_text(name)).problem
        for name in ("binomial_tables.json", "binomial_tables_independent.json",
                     "binomial_marginals.json")
    ]
    problems += [
        random_dynamics_problem(
            rng, dim=rng.choice((2, 3)), max_controls=3, n_states=3,
            rectangular=bool(i % 2),
        )
        for i in range(24)
    ]
    upper_image = engine.upper_image

    def first_generators(problem, t):
        # a deliberately short upper image, so that values escape it
        return {key: vals[:1] for key, vals in upper_image(problem, t).items()}

    witnessed = Counter()
    for problem in problems:
        problem = dataclasses.replace(problem, budget=500)
        for image in (upper_image, first_generators):
            with monkeypatch.context() as m:
                m.setattr(engine, "upper_image", image)
                got = _outcome(check_upper_image_recursion, problem)
                m.setattr(engine, "minimal_elements", pairwise_minimal_elements)
                assert got == _outcome(pairwise_upper_image_report, problem)
            if not isinstance(got, tuple):
                for row in got.rows:
                    witnessed[image.__name__] += bool(row.witnesses)
                    witnessed["mismatch"] += row.generator_equality is False
    assert witnessed["upper_image"] == 0
    assert witnessed["first_generators"] > 10 and witnessed["mismatch"] > 5


def test_one_step_equals_per_model_expectations(monkeypatch):
    rng = random.Random(127)
    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    three_duals = Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    problems = []
    for i in range(24):
        rect = bool(i % 2)
        problems += [
            random_dynamics_problem(rng, max_controls=3, n_states=3, rectangular=rect),
            dataclasses.replace(
                random_dynamics_problem(rng, dim=3, n_states=3, rectangular=rect),
                cone=three_duals,
            ),
            dataclasses.replace(
                random_dynamics_problem(rng, n_states=3, rectangular=rect),
                cone=Cone.halfspace((1, 1)),
            ),
        ]
    problems += [
        dataclasses.replace(
            random_dynamics_problem(
                rng, dim=3, max_controls=1, max_models=3, rectangular=bool(i % 2)
            ),
            cone=roof,
        )
        for i in range(2)
    ]

    def outcomes(problem, v):
        out = {"B": _outcome(backward_value, problem),
               "U": _outcome(check_upper_image_recursion, problem)}
        for t in range(problem.tree.horizon):
            if isinstance(v[t + 1], dict):
                out[t] = _outcome(one_step_R, problem, t, v[t + 1])
        return out

    oracle_levels = Counter()

    def counted_oracle(problem, t, next_sets):
        oracle_levels[t] += 1
        return per_model_one_step_sets(problem, t, next_sets)

    repeated = no_sup = 0
    for problem in problems:
        problem = dataclasses.replace(problem, budget=500)
        v = {
            t: _outcome(value_sets, problem, t)
            for t in range(1, problem.tree.horizon + 1)
        }
        got = outcomes(problem, v)
        with monkeypatch.context() as m:
            # every one-step level from the Fraction oracle, at true scale
            m.setattr(engine, "_one_step_sets", at_level_scales(counted_oracle))
            assert got == outcomes(problem, v)
        family = problem.family
        repeated += any(
            len(rows) < len(family.models) for rows in family.rows.values()
        )
        no_sup += "SupNotExistsError" in got["B"]
    assert repeated > 20 and no_sup > 0
    assert sum(oracle_levels.values()) > 200 and 2 in oracle_levels


def test_one_step_takes_each_distinct_row_once(monkeypatch):
    tree = binary_two_period_tree()
    rows = [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))]
    family = rectangularize(tree, {n: rows for n in ("n0", "u", "d")})
    problem = ControlledProblem(
        tree=tree, family=family, cone=Cone.componentwise(1), mode="dynamics",
        dynamics=simple_dynamics(tree),
    )
    counts = Counter()
    selections, expect = engine._selections, engine.expect

    def counted_selections(*args):
        for combo in selections(*args):
            counts["selections"] += 1
            yield combo

    def counted_expect(*args):
        counts["expect"] += 1
        return expect(*args)

    monkeypatch.setattr(engine, "_selections", counted_selections)
    monkeypatch.setattr(engine, "expect", counted_expect)
    backward_value(problem)
    assert len(family.models) == 8
    assert counts["selections"] > 0
    assert counts["expect"] == 2 * counts["selections"]


#: a row denominator per level, pairwise coprime, and non-integer losses
COPRIME = dict(level_denominators=(3, 5, 7), loss_denominators=(2, 3))


def _coprime_problems(rng, cones):
    """Random dynamics and tabulated problems under COPRIME, for each of
    ``cones`` in turn (dimension taken from the cone)."""
    problems = []
    for i, cone in enumerate(cones):
        if i % 2:
            problem = random_tabulated_problem(
                rng, dim=cone.dim, max_strategies=3, **COPRIME
            )
        else:
            problem = random_dynamics_problem(
                rng, dim=cone.dim, max_controls=3, n_states=3,
                rectangular=bool(i % 4), **COPRIME,
            )
        problems.append(dataclasses.replace(problem, cone=cone))
    return problems


def test_level_scales_equal_fraction_oracles(monkeypatch):
    # V, B and R over the level scales against the Fraction oracles, with
    # coprime row denominators per level and halves and thirds as losses
    rng = random.Random(139)
    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    cones = [Cone.componentwise(2), Cone.halfspace((1, 1)),
             Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])] * 16
    problems = _coprime_problems(rng, cones)
    problems += [
        dataclasses.replace(
            random_dynamics_problem(
                rng, dim=3, max_controls=1, max_models=3, **COPRIME
            ),
            cone=roof,
        )
        for _ in range(2)
    ]
    upper_image = engine.upper_image

    def first_generators(problem, t):
        return {key: vals[:1] for key, vals in upper_image(problem, t).items()}

    seen = Counter()  # V, B, R and check_bellman outcomes
    upper = Counter()  # upper-image reports

    def compared(got, expected):
        assert got == expected
        seen[got[0] if isinstance(got, tuple) else "decided"] += 1
        return got

    for problem in problems:
        problem = dataclasses.replace(problem, budget=rng.choice((10, 40, 500)))
        horizon = problem.tree.horizon
        v = {
            t: compared(_outcome(value_sets, problem, t),
                        _outcome(strategy_value_sets, problem, t))
            for t in range(horizon + 1)
        }
        compared(_outcome(backward_value, problem),
                 _outcome(per_model_backward_value, problem))
        for t in range(horizon):
            if isinstance(v[t + 1], dict):
                compared(_outcome(one_step_R, problem, t, v[t + 1]),
                         _outcome(per_model_one_step_sets, problem, t, v[t + 1]))
        report = compared(_outcome(check_bellman, problem),
                          _outcome(fraction_bellman_report, problem))
        if problem.cone.kind == "componentwise":
            for image in (upper_image, first_generators):
                with monkeypatch.context() as m:
                    m.setattr(engine, "upper_image", image)
                    got = _outcome(check_upper_image_recursion, problem)
                    assert got == _outcome(pairwise_upper_image_report, problem)
                upper[got[0] if isinstance(got, tuple) else "decided"] += 1
                upper["escaping rows"] += not isinstance(got, tuple) and sum(
                    any("escapes" in w for w in row.witnesses) for row in got.rows
                )
        if not isinstance(report, tuple):
            seen["equality"] += report.equality_ok
            seen["failed"] += not report.strong_ok
            seen["fraction"] += any(
                x.denominator > 1
                for lvl in report.v.values() for vals in lvl.values()
                for p in vals for x in p
            )
    assert seen["decided"] > 250
    assert seen["DeskScaleExceededError"] >= 8 and seen["SupNotExistsError"] > 5
    assert seen["equality"] > 20 and seen["failed"] > 5
    assert seen["fraction"] > 30
    assert upper["decided"] >= 16 and upper["escaping rows"] >= 3


def test_componentwise_kernel_takes_only_integers(monkeypatch):
    # on the component-wise cone every expectation of V, B and R has int
    # weights and int coordinates, and each level's scale is D_t times the
    # next; the public sets are true-scale Fractions
    rng = random.Random(149)
    problems = _coprime_problems(rng, [Cone.componentwise(2)] * 24)
    problems += [
        parse_document(read_text(name)).problem
        for name in ("binomial_tables.json", "binomial_tables_independent.json",
                     "binomial_marginals.json")
    ]
    kinds = Counter()

    def checked_expect(weights, points, _fn=engine.expect):
        kinds[all(type(x) is int for x in weights)
              and all(type(x) is int for p in points for x in p)] += 1
        return _fn(weights, points)

    monkeypatch.setattr(engine, "expect", checked_expect)
    for problem in problems:
        assert problem.cone.kind == "componentwise"
        horizon = problem.tree.horizon
        report = check_bellman(problem)
        r = {t: one_step_R(problem, t, report.v[t + 1]) for t in range(horizon)}
        scales = problem.scales
        assert scales[horizon] == lcm(*(
            x.denominator for key in problem.reachable[horizon]
            for x in problem.terminal_loss_at(*key)
        ))
        for t in range(horizon):
            assert scales[t] == problem.family.denominators[t] * scales[t + 1]
        for sets in (report.v, report.b, report.r, r):
            assert all(
                type(x) is Fraction
                for lvl in sets.values() for vals in lvl.values()
                for p in vals for x in p
            )
    assert kinds[False] == 0 and kinds[True] > 500
    # rows over 3, 5 and 7 and losses in halves and thirds give real scales
    assert {3, 5, 7} <= {d for p in problems for d in p.family.denominators}
    assert {2, 3, 6} <= {p.scales[-1] for p in problems}


@pytest.mark.parametrize("source", [
    "binomial_tables.json", "binomial_marginals.json",
    "binomial_tables_independent.json", 19,
])
def test_check_bellman_takes_componentwise_suprema_on_the_kernel(source, monkeypatch):
    # every engine supremum on the component-wise cone is one kernel call
    # on the engine's own tuples: no ``vsup`` dispatch, no ``SupResult``;
    # and only ``one_step_R``'s true-scale input is scaled up again
    if isinstance(source, int):  # horizon 3, non-rectangular: R is rebuilt at 0
        problem = random_dynamics_problem(random.Random(source), max_models=3)
    else:
        problem = parse_document(read_text(source)).problem
    calls = Counter()
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    def level_at_scale(level, s, _fn=engine._level_at_scale):
        calls["_level_at_scale in one_step_R" if "one_step_R" in inside
              else "_level_at_scale elsewhere"] += 1
        return _fn(level, s)

    for name in ("vsup", "_sup_or_raise", "one_step_R"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    monkeypatch.setattr(suprema, "SupResult", counted("SupResult", suprema.SupResult))
    monkeypatch.setattr(suprema, "vsup_componentwise",
                        counted("kernel", suprema.vsup_componentwise))
    monkeypatch.setattr(engine, "_level_at_scale", level_at_scale)
    report = check_bellman(problem)
    assert problem.cone.kind == "componentwise"
    # as many suprema as ``vsup`` calls when each engine supremum went
    # through ``vsup``: on the two bundled product families one per
    # selection of forward V, whose levels B and R take over (6); 20 on the
    # independent family and 71 on the seeded one
    sups = {19: 71, "binomial_tables_independent.json": 20}.get(source, 6)
    rebuilt = [t for t in range(problem.tree.horizon)
               if report.v[t + 1] != report.b[t + 1]]
    assert calls == Counter({
        "_sup_or_raise": sups,
        "kernel": sups,
        "one_step_R": len(rebuilt),
        "_level_at_scale in one_step_R": len(rebuilt),
    })
    if source == 19:
        assert rebuilt == [0]


@pytest.mark.parametrize("source", ["binomial_marginals.json", 17])
def test_product_family_levels_are_built_once(source, monkeypatch):
    # on a product family under the component-wise order every level is
    # built once, by forward V: B takes V's levels and builds none, R is B,
    # and every expectation is one of the one-step map's
    if isinstance(source, int):  # horizon 4, 16 models, 12 distinct
        rng = random.Random(source)
        family = random_marginal_family(rng, random_tree(rng, 4, 2, 12))
        problem = random_dynamics_problem(rng, max_controls=2, family=family)
    else:
        problem = parse_document(read_text(source)).problem
    calls = Counter()
    stack = []

    def tracked(name, fn):
        def wrapper(*args):
            calls[f"{name} in {stack[-1]}" if stack else name] += 1
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()

        return wrapper

    for name in ("backward_value", "one_step_R", "_profile_level",
                 "_one_step_sets", "_terminal_level", "expect"):
        monkeypatch.setattr(engine, name, tracked(name, getattr(engine, name)))
    report = check_bellman(problem)
    horizon = problem.tree.horizon
    assert problem.collapsed and (source == 17) == (horizon == 4)
    expects = calls.pop("expect in _one_step_sets")
    assert expects > 0 and calls == Counter({
        "_profile_level": horizon + 1,
        "_terminal_level in _profile_level": 1,
        "_one_step_sets in _profile_level": horizon,
        "backward_value": 1,
    })
    scaled = problem.scaled_levels
    for t in range(horizon + 1):
        assert scaled["b", t] is scaled["v", t]
    assert all(report.r[t] is report.b[t] for t in range(horizon))
    assert report.equality_ok


def _product_problems(rng, count):
    """Dynamics and tabulated problems in turn on seeded product families
    of horizon 1 to 4 (``random_marginal_family``), under various budgets."""
    problems = []
    for i in range(count):
        family = random_marginal_family(rng, random_tree(rng, 4, 2, 12))
        problem = (
            random_tabulated_problem(rng, family=family) if i % 2
            else random_dynamics_problem(rng, max_controls=2, family=family)
        )
        problems.append(dataclasses.replace(problem, budget=rng.choice((8, 3000))))
    return problems


def test_product_families_equal_per_model_oracles():
    # the collapsed recursion against one expected loss per model: V, B
    # (built alone and reused from V), the Bellman report and the upper
    # images, values and raised errors alike
    rng = random.Random(157)
    seen = Counter()

    def compared(got, expected):
        assert got == expected
        seen[got[0] if isinstance(got, tuple) else "decided"] += 1
        return got

    for problem in _product_problems(rng, 100):
        assert problem.collapsed
        horizon = problem.tree.horizon
        compared(_outcome(backward_value, dataclasses.replace(problem)),
                 _outcome(per_model_backward_value, problem))
        for t in range(horizon + 1):
            compared(_outcome(value_sets, problem, t),
                     _outcome(per_model_value_sets, problem, t))
        compared(_outcome(backward_value, problem),
                 _outcome(per_model_backward_value, problem))
        fresh = dataclasses.replace(problem)
        report = compared(
            _outcome(check_bellman, fresh),
            _outcome(fraction_bellman_report, problem, per_model_value_sets),
        )
        for t in range(horizon + 1):
            expected = _outcome(per_model_value_sets, problem, t)
            if isinstance(expected, dict):
                expected = {key: tuple(pairwise_minimal_elements(vals, problem.cone))
                            for key, vals in expected.items()}
            compared(_outcome(upper_image, fresh, t), expected)
        seen["decided over the strategy count"] += not isinstance(report, tuple) and (
            problem.strategy_counts[problem.tree.root, problem.initial_state]
            > problem.budget)
        family = problem.family
        seen["horizon 4"] += horizon == 4
        seen["tabulated"] += problem.mode == "tabulated"
        seen["zero entry"] += any(
            0 in row for rows in family.rows.values() for row in rows
        )
        seen["listed twice"] += len({m.assignment(problem.tree)
                                     for m in family.models}) < len(family.models)
    assert seen["decided"] > 900 and seen["DeskScaleExceededError"] > 20
    assert seen["decided over the strategy count"] >= 4
    assert seen["horizon 4"] > 20 and seen["tabulated"] == 50
    assert seen["zero entry"] > 50 and seen["listed twice"] > 50


#: cones with dual rows of every route, pointed or not: half-spaces, three
#: and two independent rows, the pyramid, a redundant row, a parallel copy,
#: and two rows plus a parallel copy of one
DUAL_CONES = [
    Cone.halfspace((1, 1, 1)),
    Cone.halfspace((2, -1, 1)),
    Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]]),
    Cone.from_duals([[1, 0, 1], [0, 1, -1]]),
    Cone.from_duals([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]),
    Cone.from_duals([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]]),
    Cone.from_duals([[2, 0, 0], [0, 1, 1], [0, 0, 1], [1, 0, 0]]),
    Cone.from_duals([[1, 1, 0], [0, 1, 0], [2, 2, 0]]),
]


def _result(fn, *args):
    try:
        return fn(*args)
    except (DeskScaleExceededError, SupNotExistsError, UnsupportedConeError,
            RepresentationError) as e:
        return type(e).__name__, str(e)


def _engine_outcomes(problem) -> dict:
    """V at every time, B, R on V, the Bellman report and the pruned
    results of one problem, each on a fresh copy where the engine would
    build it afresh."""
    horizon = problem.tree.horizon
    out = {("V", t): _result(value_sets, problem, t) for t in range(horizon + 1)}
    out["B"] = _result(backward_value, problem)
    for t in range(horizon):
        if isinstance(out["V", t + 1], dict):
            out["R", t] = _result(one_step_R, problem, t, out["V", t + 1])
    out["report"] = _result(check_bellman, dataclasses.replace(problem))
    out["pruned"] = _result(compute_results, dataclasses.replace(problem), True)
    return out


def test_dual_images_equal_the_vsup_path(monkeypatch):
    # V, B, R, the Bellman report and the pruned results on dual images
    # against the engine with every supremum by ``vsup`` on the points
    # themselves, values and errors alike: no supremum (same text), a cone
    # without dual rows and a general-route cone beyond desk scale.  Where
    # the cone is not pointed, profiles with equal images are one profile,
    # so only the vsup path may exceed the budget there
    rng = random.Random(181)
    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    beyond = Cone.from_duals(
        [[int(i == j) for j in range(5)] for i in range(5)] + [[1, 1, 0, 0, 0]]
    )
    problems = [
        dataclasses.replace(
            random_tabulated_problem(rng, dim=3, max_strategies=3) if i % 2
            else random_dynamics_problem(rng, dim=3, max_controls=3, n_states=3),
            cone=cone, budget=rng.choice((6, 20, 500)),
        )
        for i, cone in enumerate(DUAL_CONES * 5 + DUAL_CONES[4:5] * 10)
    ]
    problems += [
        dataclasses.replace(
            random_dynamics_problem(rng, dim=cone.dim, max_controls=1, max_models=3),
            cone=cone,
        )
        for cone in (roof, roof, Cone.from_generators(roof.generators), beyond)
    ]
    seen = Counter()
    for problem in problems:
        got = _engine_outcomes(dataclasses.replace(problem))
        with monkeypatch.context() as m:
            use_vsup_path(m)
            expected = _engine_outcomes(dataclasses.replace(problem))
        for key, want in expected.items():
            if got.get(key) != want:
                # the vsup path counts the selections of every profile
                assert not problem.cone.is_pointed()
                assert "selector product exceeds" in want[1]
                seen["merged"] += 1
            elif isinstance(want, tuple):
                seen[want[0]] += 1
                seen["beyond desk scale"] += "vsup_general is limited" in want[1]
            else:
                seen["decided"] += 1
    assert seen["decided"] > 250 and seen["SupNotExistsError"] > 20
    assert seen["RepresentationError"] >= 5 and seen["beyond desk scale"] >= 5
    assert seen["DeskScaleExceededError"] > 15 and seen["UnsupportedConeError"] > 10


def _lineality_problem(budget: int) -> ControlledProblem:
    """Binary, horizon 2, on the bundled marginal family and the half-space
    w = (1, 1, 1): every state admits a -> s0 and b -> s1, with the losses
    (1, 0, 0) at s0 and (0, 1, 0) at s1, whose difference lies in the
    half-space's lineality space."""
    family = parse_document(read_text("binomial_marginals.json")).problem.family
    tree = family.tree
    states = ("s0", "s1")
    dynamics = DynamicsSpec(
        initial_state="s0",
        admissible={(t, s): ("a", "b") for t in range(2) for s in states},
        transition={
            (t, s, a, label): nxt
            for t in range(2) for s in states
            for a, nxt in (("a", "s0"), ("b", "s1"))
            for label in ("up", "down")
        },
        loss={"s0": (F(1), F(0), F(0)), "s1": (F(0), F(1), F(0))},
    )
    return ControlledProblem(
        tree=tree, family=family, cone=Cone.halfspace((1, 1, 1)), mode="dynamics",
        dynamics=dynamics, budget=budget,
    )


def test_profiles_with_equal_images_are_one_profile(monkeypatch):
    # the two losses have equal images, so every profile does: with one
    # profile per key, a budget of 2 decides what the vsup path decides
    # only from a budget of 8 on
    got = {b: _result(compute_results, _lineality_problem(b)) for b in (2, 8)}
    with monkeypatch.context() as m:
        use_vsup_path(m)
        expected = {b: _result(compute_results, _lineality_problem(b)) for b in (2, 8)}
    assert expected[2] == (
        "DeskScaleExceededError",
        "selector product exceeds the budget of 2 (4 at t=0, node='n0', state='s0')",
    )
    assert got[2] == got[8] == expected[8]
    assert got[2].report.v[0] == {("n0", "s0"): ((F(1), F(0), F(0)),)}
