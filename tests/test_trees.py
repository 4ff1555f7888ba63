import random
from collections import Counter
from fractions import Fraction

import pytest

from robust_vdp import (
    AdaptedVector,
    Cone,
    Model,
    ModelFamily,
    NON_UNIQUE,
    NOT_EXISTS,
    ScenarioTree,
    cond_expect,
    parse_document,
    random_terminal_vectors,
    vsup_adapted,
)
from robust_vdp.data import read_text
from robust_vdp.trees import expect, sums_to_one

from .oracles import (
    accumulating_expect,
    assignment_is_m_rectangular,
    fraction_denominators,
    fraction_rows,
    fraction_weights,
    leq_t,
    random_family,
    random_marginal_family,
    random_tree,
)

F = Fraction


@pytest.fixture
def binomial():
    return parse_document(read_text("binomial_tables.json")).problem


def two_period_tree():
    return ScenarioTree(
        horizon=2,
        levels=(("n0",), ("u", "d"), ("uu", "ud", "du", "dd")),
        children={"n0": ("u", "d"), "u": ("uu", "ud"), "d": ("du", "dd")},
    )


def test_tree_validation():
    with pytest.raises(ValueError):
        ScenarioTree(horizon=1, levels=(("a", "b"), ("c",)), children={"a": ("c",)})
    with pytest.raises(ValueError):  # child at the wrong level
        ScenarioTree(horizon=1, levels=(("a",), ("b",)), children={"a": ("a",)})
    with pytest.raises(ValueError):  # orphan node
        ScenarioTree(horizon=1, levels=(("a",), ("b", "c")), children={"a": ("b",)})
    with pytest.raises(ValueError):  # non-terminal without children
        ScenarioTree(horizon=1, levels=(("a",), ("b",)), children={})
    with pytest.raises(ValueError, match="terminal node 'b'"):  # leaf entry
        ScenarioTree(horizon=1, levels=(("a",), ("b",)),
                     children={"a": ("b",), "b": ()})


def test_model_probability_validation():
    t = two_period_tree()
    bad = Model(
        id="m",
        transition={
            "n0": (F(1, 4), F(1, 2)),
            "u": (F(1, 2), F(1, 2)),
            "d": (F(1, 2), F(1, 2)),
        },
    )
    with pytest.raises(ValueError, match="sum"):
        bad.validate(t)


def test_family_reports_the_first_model_with_a_bad_row():
    t = two_period_tree()
    half = (F(1, 2), F(1, 2))
    bad = (F(1, 4), F(1, 2))

    def model(i, u_row):
        return Model(id=f"theta{i}", transition={"n0": half, "u": u_row, "d": half})

    with pytest.raises(ValueError, match=r"^model theta2: probabilities at 'u' sum to 3/4"):
        ModelFamily(tree=t, models=(model(1, half), model(2, bad), model(3, bad)))
    with pytest.raises(ValueError, match=r"^model theta3: no transition at 'd'"):
        ModelFamily(tree=t, models=(
            model(1, half), model(2, half),
            Model(id="theta3", transition={"n0": half, "u": half}), model(4, bad),
        ))


def test_family_must_be_nonempty():
    with pytest.raises(ValueError, match="nonempty"):
        ModelFamily(tree=two_period_tree(), models=())


def test_cond_expect_single_step(binomial):
    tree = binomial.tree
    theta1 = binomial.family.models[0]
    assert theta1.id == "theta1"
    x = AdaptedVector.of(2, {"uu": (8, 0), "ud": (0, 8), "du": (0, 0), "dd": (8, 8)})
    e1 = cond_expect(tree, theta1, x, 1)
    assert e1.at("u") == (F(4), F(4))
    assert e1.at("d") == (F(4), F(4))
    e0 = cond_expect(tree, theta1, x, 0)
    assert e0.at("n0") == (F(4), F(4))


def test_tower_property_randomized(binomial):
    tree = binomial.tree
    rng = random.Random(13)
    for m in binomial.family.models:
        for _ in range(30):
            x = AdaptedVector(
                2,
                {
                    n: tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(2))
                    for n in tree.nodes_at(2)
                },
            )
            via_middle = cond_expect(tree, m, cond_expect(tree, m, x, 1), 0)
            direct = cond_expect(tree, m, x, 0)
            assert via_middle.values == direct.values


def test_cond_expect_of_constant_is_constant(binomial):
    tree = binomial.tree
    c = AdaptedVector.of(2, dict.fromkeys(tree.nodes_at(2), (F(3, 2), F(-1))))
    for m in binomial.family.models:
        e = cond_expect(tree, m, c, 0)
        assert e.at("n0") == (F(3, 2), F(-1))


def test_leq_t(binomial):
    tree = binomial.tree
    cone = Cone.componentwise(2)
    x = AdaptedVector.of(1, dict.fromkeys(tree.nodes_at(1), (0, 0)))
    y = AdaptedVector.of(1, {"u": (1, 0), "d": (0, 2)})
    assert leq_t(cone, x, y)
    assert not leq_t(cone, y, x)


def test_vsup_adapted_componentwise(binomial):
    cone = Cone.componentwise(2)
    xs = [
        AdaptedVector.of(1, {"u": (1, 0), "d": (0, 0)}),
        AdaptedVector.of(1, {"u": (0, 2), "d": (-1, 1)}),
    ]
    res = vsup_adapted(cone, xs)
    assert res.status == "unique"
    assert res.value.at("u") == (F(1), F(2))
    assert res.value.at("d") == (F(0), F(1))


def test_vsup_adapted_propagates_non_uniqueness():
    tree = ScenarioTree(horizon=1, levels=(("r",), ("a", "b")), children={"r": ("a", "b")})
    cone = Cone.halfspace((1, 1))
    xs = [
        AdaptedVector.of(1, {"a": (0, 0), "b": (1, 1)}),
        AdaptedVector.of(1, {"a": (2, -1), "b": (0, 0)}),
    ]
    res = vsup_adapted(cone, xs)
    assert res.status == NON_UNIQUE
    assert res.alternative is not None
    for n in ("a", "b"):
        assert res.value.at(n) != res.alternative.at(n)


def test_vsup_adapted_reports_failures():
    import json

    from robust_vdp.instance import _parse_cone

    roof = _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")
    tree = ScenarioTree(horizon=1, levels=(("r",), ("a", "b")), children={"r": ("a", "b")})
    xs = [
        AdaptedVector.of(1, {"a": (0, 0, 0), "b": (0, 0, 0)}),
        AdaptedVector.of(1, {"a": ("1/4", "-1/4", 0), "b": (0, 0, 1)}),
    ]
    res = vsup_adapted(roof, xs)
    assert res.status == NOT_EXISTS
    assert "a" in res.failures and "b" not in res.failures


def _families():
    """The bundled families, then random ones whose rows repeat."""
    for name in ("binomial_tables.json", "binomial_tables_independent.json",
                 "binomial_marginals.json"):
        yield parse_document(read_text(name)).problem.family
    rng = random.Random(17)
    for i in range(30):
        tree = random_tree(rng)
        yield random_family(rng, tree, max_models=6, rectangular=i % 3 == 0,
                            level_denominators=(2,) * tree.horizon)


def test_classes_at_leaf_parents_are_the_distinct_rows():
    for family in _families():
        tree = family.tree
        for n in tree.nodes_at(tree.horizon - 1):
            rows = list(dict.fromkeys(family.weights[n]))
            leaves = (0,) * len(tree.children[n])
            assert family.classes[n] == (
                tuple((row, leaves) for row in rows),
                tuple(rows.index(row) for row in family.weights[n]),
            )


def test_root_classes_are_the_distinct_assignments():
    for family in _families():
        tree = family.tree
        keys, index = family.classes[tree.root]
        assignments = [m.assignment(tree) for m in family.models]
        # one class per assignment, and one assignment per class
        assert len(keys) == len(set(assignments)) == len(set(zip(assignments, index)))
        assert sorted(set(index)) == list(range(len(keys)))


def test_family_caches_equal_fraction_oracles():
    # rows, denominators, weights and the product test on integer rows
    # against the same on hashed Fraction rows: on product families, each
    # also without one of its models and with one listed again, and on
    # explicit families whose rows over 2 or 3 repeat across models
    rng = random.Random(163)
    families = list(_families())
    for _ in range(30):
        tree = random_tree(rng, 4, 2, 12)
        family = random_marginal_family(rng, tree)
        models = list(family.models)
        again = Model(id="again", transition=rng.choice(models).transition)
        del models[rng.randrange(len(models))]
        families += [
            family,
            ModelFamily(tree, tuple(models) or family.models),
            ModelFamily(tree, family.models + (again,)),
            random_family(rng, tree, max_models=6,
                          level_denominators=[rng.choice((2, 3))] * tree.horizon),
        ]
    seen = Counter()
    for family in families:
        assert family.rows == fraction_rows(family)
        assert family.denominators == fraction_denominators(family)
        assert family.weights == fraction_weights(family)
        assert family.is_product == assignment_is_m_rectangular(family)
        seen[family.is_product] += 1
    assert seen[True] > 100 and seen[False] > 20


def test_models_of_one_class_have_one_expectation():
    for seed, family in enumerate(_families()):
        tree = family.tree
        for x in random_terminal_vectors(tree, 2, 3, seed):
            for t in range(tree.horizon):
                e = [cond_expect(tree, m, x, t) for m in family.models]
                for n in tree.nodes_at(t):
                    by_class = {}
                    for k, e_m in zip(family.classes[n][1], e):
                        assert by_class.setdefault(k, e_m.at(n)) == e_m.at(n)


def _coordinate(rng, kind):
    """An int, or a Fraction over a small denominator (an integral value
    stays a Fraction)."""
    if kind is int:
        return rng.randint(-20, 20)
    return F(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 8)))


def test_expect_equals_accumulating_oracle():
    # the same values and the same coordinate types as the accumulation,
    # on int and Fraction weights and points, one child and several
    rng = random.Random(61)
    seen = set()
    for _ in range(400):
        k, d = rng.randint(1, 4), rng.randint(1, 4)
        weight_kind, point_kind = rng.choice((int, F)), rng.choice((int, F))
        probs = tuple(_coordinate(rng, weight_kind) for _ in range(k))
        points = [tuple(_coordinate(rng, point_kind) for _ in range(d))
                  for _ in range(k)]
        got, want = expect(probs, points), accumulating_expect(probs, points)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
        seen.add((weight_kind, point_kind, k == 1, type(got[0])))
    # every case met; int results only from int weights on int points
    assert seen == {
        (w, x, single, int if w is x is int else F)
        for w in (int, F) for x in (int, F) for single in (False, True)
    }


def test_row_sum_is_decided_on_integers():
    rng = random.Random(67)
    for _ in range(300):
        row = [_coordinate(rng, rng.choice((int, F))) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # complete the row to 1
            row.append(1 - sum(row))
        assert sums_to_one(row) == (sum(row) == 1)
