import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from robust_vdp import Cone, UnsupportedConeError, minimal_elements, vsup
from robust_vdp import cones
from robust_vdp.cones import DimensionMismatchError, DualImages, RepresentationError
from robust_vdp.data import read_text
from robust_vdp.exactlp import dot, vec
from robust_vdp.instance import _parse_cone

from .oracles import (
    pairwise_minimal_elements,
    pairwise_set_curlyprec,
    pairwise_set_precurly,
)

F = Fraction


@pytest.fixture
def roof():
    """Pointed 3d cone with eight generators and eight facets."""
    return _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")


def test_componentwise_membership():
    c = Cone.componentwise(2)
    assert c.contains((1, 0))
    assert c.contains((0, 0))
    assert not c.contains((-1, 2))
    assert c.leq((1, 1), (2, 1))
    assert not c.leq((1, 1), (0, 2))


def test_halfspace_membership():
    c = Cone.halfspace((1, 2))
    assert c.contains((2, -1))
    assert c.contains((-2, 1))
    assert not c.contains((-3, 1))
    assert not c.is_pointed()


def test_dimension_checks():
    c = Cone.componentwise(2)
    with pytest.raises(DimensionMismatchError):
        c.contains((1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        c.leq((1,), (2,))


def test_needs_some_representation():
    with pytest.raises(RepresentationError):
        Cone(dim=2, kind="dual")


def test_inconsistent_representations_rejected():
    with pytest.raises(ValueError):
        Cone.from_generators([(1, 0), (0, 1)], duals=[(-1, 0)])


def test_generator_membership_by_lp():
    c = Cone.from_generators([(1, 0), (1, 1)])
    assert c.contains((2, 1))       # 1*(1,0) + 1*(1,1)
    assert c.contains((1, 0))
    assert not c.contains((0, 1))   # outside the wedge
    assert not c.contains((-1, 0))


def test_roof_representations_agree(roof):
    # membership via duals must match membership via generators alone
    gens_only = Cone.from_generators(roof.generators)
    rng = random.Random(3)
    for _ in range(60):
        x = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(3))
        assert roof.contains(x) == gens_only.contains(x)


def test_roof_pointed(roof):
    assert roof.is_pointed()
    assert Cone.from_generators(roof.generators).is_pointed()


def test_pointedness_of_halfplane_generators():
    c = Cone.from_generators([(1, 0), (-1, 0), (0, 1)])
    assert not c.is_pointed()


def test_order_axioms_randomized():
    rng = random.Random(11)
    cones = [
        Cone.componentwise(3),
        Cone.halfspace((1, -2, 3)),
        Cone.from_duals([(1, 1, 0), (0, 1, 1)]),
    ]
    for cone in cones:
        for _ in range(40):
            x, y, z = (
                tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(3))
                for _ in range(3)
            )
            assert cone.leq(x, x)  # reflexivity
            if cone.leq(x, y) and cone.leq(y, z):
                assert cone.leq(x, z)  # transitivity
            if cone.leq(x, y):  # translation and scaling compatibility
                assert cone.leq(tuple(a + b for a, b in zip(x, z)),
                                tuple(a + b for a, b in zip(y, z)))
                lam = F(rng.randint(0, 5), rng.choice((1, 2)))
                assert cone.leq(tuple(lam * a for a in x),
                                tuple(lam * a for a in y))


def test_set_relations():
    c = Cone.componentwise(2)
    a = [(0, 0), (2, -1)]
    b = [(1, 1), (3, 0)]
    assert c.set_precurly(a, b)        # B inside A + C
    assert not c.set_precurly(b, a)
    assert c.set_curlyprec(a, b)       # A inside B - C
    assert not c.set_curlyprec(b, a)


def test_minimal_elements():
    c = Cone.componentwise(2)
    pts = [(0, 3), (1, 1), (2, 0), (2, 2), (1, 1)]
    assert set(minimal_elements(pts, c)) == {
        (F(0), F(3)), (F(1), F(1)), (F(2), F(0)),
    }


def test_minimal_elements_needs_pointed_cone():
    with pytest.raises(UnsupportedConeError):
        minimal_elements([(0, 0)], Cone.halfspace((1, 1)))


def test_minimal_elements_images_each_point_once(monkeypatch):
    images = []
    real = Cone.int_images
    monkeypatch.setattr(
        Cone, "int_images", lambda self, pts: images.append(len(pts)) or real(self, pts)
    )
    pyramid = Cone.from_duals([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    pts = [(0, 0, 0), (0, 0, 2), (F(1, 2), 0, 0)]
    assert minimal_elements(pts, pyramid) == [(0, 0, 0), (F(1, 2), 0, 0)]
    assert images == [3]


def test_dual_rank_computed_once_per_cone(roof, monkeypatch):
    # the dual rank comes from one elimination of all the integer dual rows
    # per cone (``DualImages.over``); the roof's irredundant rows take ranks
    # of its generators only (``Cone.irredundant_index``)
    eliminated, ranks = [], []
    over, rank = DualImages.over, cones.mat_rank
    monkeypatch.setattr(DualImages, "over", staticmethod(
        lambda rows, d: eliminated.append(rows) or over(rows, d)))
    monkeypatch.setattr(cones, "mat_rank", lambda rows: ranks.append(rows) or rank(rows))
    three_duals = Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    for cone in (three_duals, roof):  # dual-LI and general vsup routes
        for k in range(3):
            vsup(cone, [(k, 0, 1), (0, k, 2)])
            minimal_elements([(k, 0, 0), (0, 0, 0)], cone)
            assert cone.is_pointed()
    assert eliminated == [[row for row, _ in cone.int_duals]
                          for cone in (three_duals, roof)]
    assert ranks and all(set(rows) <= set(roof.generators) for rows in ranks)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:  # DimensionMismatchError, UnsupportedConeError
        return type(e).__name__


def test_set_order_equals_pairwise_leq(roof):
    rng = random.Random(29)
    halfspace = Cone.halfspace((1, -2, 3))
    cases = [  # (cone, a vector that leaves every dual image unchanged)
        (Cone.componentwise(3), None),
        (Cone.from_duals([[1, 0, 0], [1, 1, 0], [0, 1, 1]]), None),
        (halfspace, (F(2), F(1), F(0))),
        (Cone.from_duals([[1, 0, 2], [-1, 0, 2], [0, 1, 2], [0, -1, 2]]), None),
        (roof, None),
        (Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]), None),
    ]

    def point():
        return tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(3))

    seen = Counter()
    for cone, flat in cases:
        for _ in range(40):
            a = [point() for _ in range(rng.randint(0, 5))]
            b = [rng.choice(a) if a and rng.random() < 0.4 else point()
                 for _ in range(rng.randint(0, 5))]
            if flat is not None and a:
                k = rng.choice((-2, -1, 1, 2))
                b.append(tuple(x + k * z for x, z in zip(rng.choice(a), flat)))
            for x, y in ((a, b), (b, a), (a, a)):
                for mine, oracle in ((Cone.set_precurly, pairwise_set_precurly),
                                     (Cone.set_curlyprec, pairwise_set_curlyprec)):
                    got = _outcome(mine, cone, x, y)
                    assert got == _outcome(oracle, cone, x, y)
                    seen[got] += 1
                # the half-space cone is not pointed: both raise
                got = _outcome(minimal_elements, x + y, cone)
                assert got == _outcome(pairwise_minimal_elements, x + y, cone)
                seen["pruned"] += isinstance(got, list) and len(got) < len(set(x + y))
            points = set(map(vec, a + b))
            images = {tuple(dot(d, p) for d in cone.duals or ()) for p in points}
            seen["shared"] += bool(set(map(vec, a)) & set(map(vec, b)))
            seen["same_image"] += cone.duals is not None and len(images) < len(points)
    assert seen[True] > 100 and seen[False] > 100 and seen["pruned"] > 50
    assert seen["shared"] > 50 and seen["same_image"] > 20


def test_set_order_checks_every_dimension():
    c = Cone.componentwise(2)
    for a, b in (([], [(1, 2, 3)]), ([(1, 2, 3)], []), ([(0, 0)], [(0, 0), (1,)])):
        for relation in (c.set_precurly, c.set_curlyprec):
            with pytest.raises(DimensionMismatchError):
                relation(a, b)
    with pytest.raises(DimensionMismatchError):
        minimal_elements([(1, 2, 3)], c)
    assert _outcome(pairwise_set_precurly, c, [], [(1, 2, 3)]) is False
