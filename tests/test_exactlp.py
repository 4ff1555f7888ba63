import random
from fractions import Fraction

import pytest

from robust_vdp.exactlp import (
    Vec,
    dot,
    feasible_point,
    frac,
    lp,
    lp_standard,
    mat_rank,
    nullspace_basis,
    polyhedron_vertices,
    rref,
    solve_linear,
    vec,
)

F = Fraction


def test_frac_accepts_ints_and_ratio_strings():
    assert frac(3) == F(3)
    assert frac("3/4") == F(3, 4)
    assert frac("-7/2") == F(-7, 2)
    assert frac("5") == F(5)


def test_frac_rejects_floats_and_bools():
    with pytest.raises((TypeError, ValueError)):
        frac(0.5)
    with pytest.raises((TypeError, ValueError)):
        frac(True)


def test_rref_and_rank():
    rows = [vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])]
    _, pivots = rref(rows)
    assert mat_rank(rows) == 2
    assert len(pivots) == 2


def test_solve_linear_unique():
    a = [vec([2, 0]), vec([0, 3])]
    assert solve_linear(a, vec([4, 9]), 2) == (F(2), F(3))


def test_solve_linear_inconsistent():
    a = [vec([1, 1]), vec([2, 2])]
    assert solve_linear(a, vec([1, 3]), 2) is None


def test_solve_linear_underdetermined_sets_free_to_zero():
    a = [vec([1, 1, 0])]
    x = solve_linear(a, vec([5]), 3)
    assert x is not None and dot(a[0], x) == 5


def test_solve_linear_without_rows():
    assert solve_linear([], [], 3) == (F(0), F(0), F(0))


def test_nullspace():
    a = [vec([1, 1, 0])]
    basis = nullspace_basis(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert dot(a[0], v) == 0
        assert any(c != 0 for c in v)


def test_lp_standard_simple():
    # min -x1 - x2 s.t. x1 + x2 = 1, x >= 0
    res = lp_standard([[F(1), F(1)]], [F(1)], [F(-1), F(-1)])
    assert res.status == "optimal"
    assert res.value == -1


def test_lp_standard_infeasible():
    res = lp_standard([[F(1)], [F(1)]], [F(1), F(2)], [F(0)])
    assert res.status == "infeasible"


def test_lp_unbounded():
    # min x over x >= 0 is 0; min -x over x >= 0 is unbounded (free var form)
    res = lp([F(-1)], a_ge=[vec([1])], b_ge=[F(0)])
    assert res.status == "unbounded"


def test_lp_box():
    # min x + y over the unit square shifted: x >= 1/2, y >= -1/4
    res = lp(
        [F(1), F(1)],
        a_ge=[vec([1, 0]), vec([0, 1])],
        b_ge=[F(1, 2), F(-1, 4)],
    )
    assert res.status == "optimal"
    assert res.value == F(1, 4)


def test_lp_with_equalities():
    # min y s.t. x + y = 1, x >= 0, y >= 0
    res = lp(
        [F(0), F(1)],
        a_ge=[vec([1, 0]), vec([0, 1])],
        b_ge=[F(0), F(0)],
        a_eq=[vec([1, 1])],
        b_eq=[F(1)],
    )
    assert res.status == "optimal"
    assert res.value == 0


def test_feasible_point():
    p = feasible_point(a_ge=[vec([1, 0]), vec([0, 1])], b_ge=[F(1), F(1)])
    assert p is not None
    assert p[0] >= 1 and p[1] >= 1
    none = feasible_point(a_ge=[vec([1]), vec([-1])], b_ge=[F(1), F(1)])
    assert none is None


def test_polyhedron_vertices_square():
    # {x : x >= 0, -x >= -1} componentwise: the unit square
    b_rows = [vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])]
    alpha = [F(0), F(0), F(-1), F(-1)]
    verts = set(polyhedron_vertices(b_rows, alpha))
    assert verts == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
    }


def test_lp_agrees_with_vertex_enumeration_randomized():
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randint(2, 3)
        # bounded polytope: random inequalities plus a bounding box
        b_rows = [
            vec([F(rng.randint(-3, 3)) for _ in range(d)]) for _ in range(3)
        ]
        alpha = [F(rng.randint(-4, 0)) for _ in range(3)]
        for i in range(d):
            lo = [F(0)] * d
            lo[i] = F(1)
            hi = [F(0)] * d
            hi[i] = F(-1)
            b_rows += [tuple(lo), tuple(hi)]
            alpha += [F(-5), F(-5)]
        c = vec([F(rng.randint(-3, 3)) for _ in range(d)])
        res = lp(list(c), a_ge=list(b_rows), b_ge=list(alpha))
        verts = polyhedron_vertices(b_rows, alpha)
        if not verts:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal"
        assert res.value == min(dot(c, v) for v in verts)


try:
    from hypothesis import given, strategies as st

    rationals = st.fractions(
        min_value=-100, max_value=100, max_denominator=64
    )

    @given(rationals)
    def test_frac_roundtrips_through_string(x):
        assert frac(f"{x.numerator}/{x.denominator}") == x

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
    def test_componentwise_sup_is_an_upper_bound_hypothesis(pts):
        from robust_vdp import Cone, vsup_componentwise

        cone = Cone.componentwise(2)
        v = vsup_componentwise(pts)
        assert all(cone.leq(p, v) for p in pts)
        assert any(v[i] == p[i] for i in range(2) for p in pts)
except ImportError:  # hypothesis is optional
    pass
