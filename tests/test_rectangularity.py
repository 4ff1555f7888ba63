import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from robust_vdp import (
    Cone,
    DeskScaleExceededError,
    check_preorder_rectangularity,
    extract_marginals,
    is_m_rectangular,
    parse_document,
    random_terminal_vectors,
    rectangularize,
)
from robust_vdp import engine, suprema, trees
from robust_vdp.data import read_text
from robust_vdp.instance import _parse_cone
from robust_vdp.rectangularity import RectCheckRecord, RectReport

from .oracles import (
    nested_direct_rect_check,
    nested_direct_values,
    per_vector_rect_check,
    random_family,
    random_tree,
)

F = Fraction


@pytest.fixture
def full_family():
    return parse_document(read_text("binomial_tables.json")).problem.family


@pytest.fixture
def independent_family():
    return parse_document(read_text("binomial_tables_independent.json")).problem.family


def test_rectangularize_produces_full_product(full_family):
    tree = full_family.tree
    marginals = {
        "n0": [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))],
        "u": [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))],
        "d": [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))],
    }
    built = rectangularize(tree, marginals)
    assert len(built.models) == 8
    assert {m.assignment(tree) for m in built.models} == {
        m.assignment(tree) for m in full_family.models
    }


def test_rectangularize_rejects_empty_marginals(full_family):
    with pytest.raises(ValueError):
        rectangularize(full_family.tree, {"n0": []})


def test_extract_marginals(full_family):
    marg = extract_marginals(full_family)
    assert set(marg) == {"n0", "u", "d"}
    assert set(marg["n0"]) == {(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))}
    assert set(marg["u"]) == {(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))}


def test_is_m_rectangular(full_family, independent_family):
    assert is_m_rectangular(full_family)
    assert not is_m_rectangular(independent_family)


def test_rectangularize_roundtrip_randomized():
    rng = random.Random(41)
    for _ in range(20):
        tree = random_tree(rng)
        fam = random_family(rng, tree, rectangular=True)
        assert is_m_rectangular(fam)
        rebuilt = rectangularize(tree, extract_marginals(fam))
        assert {m.assignment(tree) for m in rebuilt.models} == {
            m.assignment(tree) for m in fam.models
        }


def test_single_model_family_is_rectangular():
    rng = random.Random(43)
    tree = random_tree(rng)
    fam = random_family(rng, tree, max_models=1)
    fam = type(fam)(tree=fam.tree, models=fam.models[:1])
    assert is_m_rectangular(fam)


def test_preorder_check_on_rectangular_family(full_family):
    tree = full_family.tree
    cone = Cone.componentwise(2)
    vectors = random_terminal_vectors(tree, 2, 25, seed=7)
    report = check_preorder_rectangularity(cone, tree, full_family, vectors, seed=7)
    assert report.rectangular_on_sample
    assert report.reverse_ok
    # on a pointed cone both directions mean equal worst cases
    assert cone.is_pointed()
    for r in report.records:
        assert r.forward_holds and r.reverse_holds
        nested, direct = nested_direct_values(
            cone, tree, full_family, vectors[r.test_vector], r.time
        )
        assert nested.values == direct.values
    assert "no counterexample found" in report.summary()


def test_preorder_check_detects_non_rectangular(independent_family):
    tree = independent_family.tree
    cone = Cone.componentwise(2)
    vectors = random_terminal_vectors(tree, 2, 25, seed=7)
    report = check_preorder_rectangularity(
        cone, tree, independent_family, vectors, seed=7
    )
    assert report.reverse_ok  # the easy direction always holds
    assert report.rectangular_on_sample is False
    assert "counterexample found" in report.summary()


def test_report_without_a_decided_check_is_undecided():
    undecided = RectCheckRecord(0, 0, None, None, sup_failure="inner supremum")
    report = RectReport(records=(undecided,), n_vectors=1)
    assert (report.rectangular_on_sample, report.reverse_ok) == (None, None)
    assert report.summary().startswith("no check decided")
    # no check at all, as on a horizon-1 tree, is no counterexample
    empty = RectReport(records=(), n_vectors=1)
    assert (empty.rectangular_on_sample, empty.reverse_ok) == (True, True)


def test_random_terminal_vectors_deterministic(full_family):
    tree = full_family.tree
    a = random_terminal_vectors(tree, 2, 5, seed=9)
    b = random_terminal_vectors(tree, 2, 5, seed=9)
    assert [x.values for x in a] == [y.values for y in b]


def _rect_outcome(check, *args):
    try:
        return check(*args)
    except (DeskScaleExceededError, ValueError) as e:
        return type(e).__name__, str(e)


def test_level_walk_equals_nested_direct_definition():
    rng = random.Random(47)
    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    cones = [
        Cone.componentwise(2),
        Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]]),
        Cone.halfspace((1, 1)),
    ]
    # roof suprema take an exact LP each: fewer and smaller trees there
    cases = [(cones[i % 3], random_tree(rng), cones[i % 3].dim) for i in range(36)]
    cases += [(roof, random_tree(rng, 2, 2, 4), 3) for _ in range(6)]
    # vectors whose dimension is not the cone's
    cases += [(cones[i % 3], random_tree(rng), 5 - cones[i % 3].dim) for i in range(6)]
    seen = Counter()
    for i, (cone, tree, dim) in enumerate(cases):
        family = random_family(rng, tree, rectangular=bool(i % 2))
        vectors = random_terminal_vectors(tree, dim, 2, seed=i)
        args = (cone, tree, family, vectors, i)
        report = _rect_outcome(check_preorder_rectangularity, *args)
        assert report == _rect_outcome(nested_direct_rect_check, *args)
        assert report == _rect_outcome(per_vector_rect_check, *args)
        if dim != cone.dim:
            # refused at entry on every cone and every horizon
            assert report == ("DimensionMismatchError",
                              f"test vector 0 has dimension {dim}, the cone {cone.dim}")
            seen["wrong dimension"] += 1
            continue
        seen["sup failure"] += any(r.sup_failure for r in report.records)
        seen["no records"] += not report.records
        seen["counterexample"] += report.rectangular_on_sample is False
    assert seen["sup failure"] and seen["no records"] and seen["counterexample"]
    assert seen["wrong dimension"] == 6


def test_rect_check_is_one_walk_per_vector(full_family, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def kernel(points, componentwise=suprema.vsup_componentwise):
        calls["vsup points"] += len(points)
        return componentwise(points)

    for name in ("value_sets", "one_step_R", "vsup"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    # the component-wise suprema take the kernel alone, looked up at call time
    monkeypatch.setattr(suprema, "vsup_componentwise", counted("kernel", kernel))
    monkeypatch.setattr(
        engine.ControlledProblem, "__post_init__",
        counted("ControlledProblem", engine.ControlledProblem.__post_init__),
    )
    # a horizon-3 family whose rows repeat
    rng = random.Random(0)
    deep = next(t for t in iter(lambda: random_tree(rng), None) if t.horizon == 3)
    repeating = random_family(rng, deep, 6, level_denominators=(2, 2, 2))
    for family in (full_family, repeating):
        calls.clear()
        tree = family.tree
        vectors = random_terminal_vectors(tree, 2, 5, seed=3)
        check_preorder_rectangularity(Cone.componentwise(2), tree, family, vectors)
        # per vector: a direct supremum at each node of t < H, over its
        # classes, and a nested one at each node of t < H - 1, over its
        # distinct rows; no problem, no V, no R and no ``vsup`` dispatch
        inner = [tree.nodes_at(t) for t in range(tree.horizon)]
        classes = sum(len(family.classes[n][0]) for level in inner for n in level)
        rows = sum(len(family.rows[n]) for level in inner[:-1] for n in level)
        sups = sum(map(len, inner)) + sum(map(len, inner[:-1]))
        assert calls == {
            "kernel": len(vectors) * sups,
            "vsup points": len(vectors) * (classes + rows),
        }
        assert rows < sum(len(family.models) for level in inner[:-1] for n in level)


def test_rect_check_on_a_horizon_one_tree(monkeypatch):
    calls = []
    for module in (engine, trees):
        monkeypatch.setattr(module, "vsup", lambda *args: calls.append(args))
    tree = random_tree(random.Random(1), max_depth=1)
    family = random_family(random.Random(2), tree)
    vectors = random_terminal_vectors(tree, 2, 4, seed=5)
    report = check_preorder_rectangularity(Cone.componentwise(2), tree, family, vectors)
    assert tree.horizon == 1
    assert report.records == () and report.n_vectors == 4
    assert calls == []
