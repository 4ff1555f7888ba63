"""The cone-order kernels on integer dual rows and points over one scale
decide exactly as on the rational rows and points, and they multiply no
``Fraction`` once a cone's invariants are cached."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from robust_vdp import (
    NON_UNIQUE,
    NOT_EXISTS,
    UNIQUE,
    Cone,
    UnsupportedConeError,
    minimal_elements,
    vsup,
)
from robust_vdp.data import read_text
from robust_vdp.exactlp import rref, vadd
from robust_vdp.instance import _parse_cone

from .oracles import fraction_minimal_elements, fraction_uncovered, fraction_vsup

F = Fraction


@pytest.fixture
def roof():
    return _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


def base_cones(roof):
    """(generators, dual rows) of consistent cones: pointed and non-pointed,
    with independent and with dependent dual rows."""
    corners = [(a, b, 1) for a in (1, -1) for b in (1, -1)]
    pyramid = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    e3 = [_unit(3, i) for i in range(3)]
    return {
        "orthant": (e3, e3),
        "pyramid": (corners, pyramid),
        "roof": (roof.generators, roof.duals),
        "wedge": (e3 + [_unit(3, 2, -1)], e3[:2]),
        "wedge with a redundant row": (e3 + [_unit(3, 2, -1)], [(1, 0, 0), (1, 1, 0), (0, 1, 0)]),
        "half-space": (e3 + [_unit(3, 0, -1), _unit(3, 1, -1)], [(0, 0, 1)]),
        "pyramid times a line": (
            [(*c, 0) for c in corners] + [_unit(4, 3), _unit(4, 3, -1)],
            [(*b, 0) for b in pyramid],
        ),
    }


def _rational(rng, lo=-3, hi=3):
    return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 6)))


def _inverse(m):
    d = len(m)
    red, pivots = rref([[*row, *_unit(d, i)] for i, row in enumerate(m)])
    assert pivots == list(range(d))
    return [row[d:] for row in red]


def random_cone(rng, gens, duals):
    """The cone M^-1 C for a random invertible rational M: generators
    M^-1 g and dual rows b M, each scaled by its own positive rational; a
    repeated row and a positively parallel one may be added, and the rows
    are shuffled.  Returns the generators and the dual rows."""
    d = len(duals[0])
    while True:
        m = [[_rational(rng) for _ in range(d)] for _ in range(d)]
        if len(rref(m)[1]) == d:
            break
    inv = _inverse(m)

    def scaled(v):
        c = _rational(rng, 1, 6)
        return tuple(c * x for x in v)

    rows = [scaled([sum(b[k] * m[k][j] for k in range(d)) for j in range(d)])
            for b in duals]
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(rows)
        rows.append(row if rng.random() < 0.5 else scaled(row))
    rng.shuffle(rows)
    g = [scaled([sum(inv[j][k] * x[k] for k in range(d)) for j in range(d)])
         for x in gens]
    return g, rows


def _coordinate(rng):
    return rng.randint(-4, 4) if rng.random() < 0.5 else _rational(rng, -8, 8)


def random_points(rng, gens, d):
    """A point and a chain of steps from it, each step a random nonnegative
    combination of generators (then the chain's last point is its
    supremum) or a random vector; coordinates mix ints and Fractions."""
    pts = [tuple(_coordinate(rng) for _ in range(d))]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.6:
            step = [0] * d
            for g in rng.sample(gens, rng.randint(1, 2)):
                c = rng.randint(0, 2)
                step = [s + c * x for s, x in zip(step, g)]
        else:
            step = [_coordinate(rng) for _ in range(d)]
        pts.append(vadd(pts[-1], step))
    rng.shuffle(pts)
    return pts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedConeError as e:
        return type(e).__name__


def _fraction_vectors(res):
    return all(
        v is None or all(type(x) is Fraction for x in v)
        for v in (res.value, res.alternative, res.candidate, res.undominated)
    )


def test_integer_kernels_equal_the_fraction_oracle(roof):
    rng = random.Random(16)
    seen = Counter()
    for name, (gens, duals) in base_cones(roof).items():
        for _ in range(6):
            g, rows = random_cone(rng, gens, duals)
            for cone in (Cone.from_duals(rows), Cone.from_generators(g, duals=rows)):
                for _ in range(6 if name == "roof" else 4):
                    a = random_points(rng, g, cone.dim)
                    b = random_points(rng, g, cone.dim) + a[:rng.randint(0, 2)]
                    res = vsup(cone, a)
                    assert res == fraction_vsup(cone, a), (name, rows, a)
                    assert _fraction_vectors(res)
                    for below in (False, True):
                        got = list(cone.uncovered(a, b, below))
                        assert got == fraction_uncovered(cone, a, b, below), (name, rows, a, b)
                        seen["covered", not got] += 1
                    got = _outcome(minimal_elements, a + b, cone)
                    assert got == _outcome(fraction_minimal_elements, a + b, cone)
                    seen[name, res.status, res.candidate is None] += 1
                    seen["pruned"] += isinstance(got, list) and len(got) < len(set(a + b))
    for name in ("pyramid", "roof"):
        assert seen[name, UNIQUE, True] and seen[name, NOT_EXISTS, False]
    assert seen["wedge", NON_UNIQUE, True] and seen["half-space", NON_UNIQUE, True]
    # P without vertices: the witness is a per-row minimiser
    assert seen["pyramid times a line", NOT_EXISTS, False]
    assert seen["covered", True] > 50 and seen["covered", False] > 50
    assert seen["pruned"] > 20


def test_cached_cone_kernels_multiply_no_fraction(roof, monkeypatch):
    dual_li = Cone.from_duals([(1, F(1, 2), 0), (0, F(2, 3), -1), (F(-1, 4), 0, 1)])
    cases = [
        (vsup, roof, [(0, 0, 0), (0, 0, 2), (F(1, 4), 0, 1)]),
        (vsup, dual_li, [(F(1, 2), F(-3, 4), F(2)), (F(5, 6), F(1), F(1, 3))]),
        (Cone.set_precurly, roof,
         [(0, 0, 0), (F(1, 4), F(-1, 4), 0)], [(0, 0, 2), (F(1, 4), F(-1, 4), F(3, 2))]),
    ]
    first = [fn(cone, *args) for fn, cone, *args in cases]  # caches the invariants
    assert [r.status for r in first[:2]] == [UNIQUE, UNIQUE] and first[2] is True
    products = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name,
            lambda x, y, real=real, name=name: products.append(name) or real(x, y),
        )
    assert F(2, 3) * 3 == 2 and products == ["__mul__"]
    products.clear()
    assert [fn(cone, *args) for fn, cone, *args in cases] == first
    assert products == []
