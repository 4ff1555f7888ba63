import json
import random
from fractions import Fraction

import pytest

from robust_vdp import NOT_EXISTS, vsup
from robust_vdp import cones, exactlp
from robust_vdp.data import read_text
from robust_vdp.exactlp import (
    Vec,
    dot,
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
from robust_vdp.instance import _parse_cone

from .oracles import (
    fraction_lp_standard,
    fraction_rref,
    two_step_polyhedron_vertices,
)

F = Fraction

#: pairwise coprime denominators, so the integer rows' scales differ
COPRIME = (1, 2, 3, 5, 7)


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
    res = lp([F(0), F(0)], a_ge=[vec([1, 0]), vec([0, 1])], b_ge=[F(1), F(1)])
    assert res.status == "optimal"
    assert res.x[0] >= 1 and res.x[1] >= 1
    res = lp([F(0)], a_ge=[vec([1]), vec([-1])], b_ge=[F(1), F(1)])
    assert res.status == "infeasible"


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


def _rational(rng, lo=-6, hi=6):
    return F(rng.randint(lo, hi), rng.choice(COPRIME))


def _combination(rng, rows):
    """A rational combination of the rows (a dependent row)."""
    weights = [_rational(rng, -2, 2) for _ in rows]
    return [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(len(rows[0]))]


def _random_system(rng):
    """Rows over coprime denominators, about half of them rank-deficient
    (a dependent row or a zero column), with a right-hand side."""
    n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[_rational(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.5:
        rows[-1] = _combination(rng, rows[:-1])
    if rng.random() < 0.2:
        zero = rng.randrange(n_cols)
        for r in rows:
            r[zero] = F(0)
    rng.shuffle(rows)
    return rows, [_rational(rng) for _ in rows]


def test_rref_and_solve_linear_equal_fraction_oracle(monkeypatch):
    rng = random.Random(14)
    systems = [_random_system(rng) for _ in range(300)]
    integer = []
    for a, b in systems:
        n = len(a[0])
        red, pivots = rref(a)
        assert all(type(x) is Fraction for row in red for x in row)
        integer.append((
            red, pivots, rref([r + [x] for r, x in zip(a, b)]), mat_rank(a),
            solve_linear(a, b, n), nullspace_basis(a, n),
        ))
    monkeypatch.setattr(exactlp, "rref", fraction_rref)
    oracle = [
        (*fraction_rref(a), fraction_rref([r + [x] for r, x in zip(a, b)]),
         mat_rank(a), solve_linear(a, b, len(a[0])), nullspace_basis(a, len(a[0])))
        for a, b in systems
    ]
    assert integer == oracle
    ranks = [mat_rank(a) for a, _ in systems]
    deficient = sum(rank < min(len(a), len(a[0])) for rank, (a, _) in zip(ranks, systems))
    inconsistent = sum(solve_linear(a, b, len(a[0])) is None for a, b in systems)
    assert deficient >= 50 and inconsistent >= 20


def _record_pivots(monkeypatch):
    """Wrap ``exactlp._pivot``: record each (row, column), check that every
    tableau entry is an int, and count simplex pivots whose least ratio is
    tied (drive-out pivots have no negative reduced cost)."""
    real = exactlp._pivot
    seen = {"pivots": [], "ties": 0}

    def pivot(tab, basis, r, c):
        assert all(type(x) is int for row in tab for x in row)
        if tab[-1][c] < 0:
            ratios = [F(row[-1], row[c]) for row in tab[:-1] if row[c] > 0]
            seen["ties"] += ratios.count(min(ratios)) > 1
        seen["pivots"].append((r, c))
        real(tab, basis, r, c)

    monkeypatch.setattr(exactlp, "_pivot", pivot)
    return seen


def _fraction_simplex(monkeypatch) -> list:
    """Route ``lp_standard`` (in ``exactlp``, so ``lp``, and in ``cones``,
    so ``Cone.contains``) through the Fraction oracle; returns the list its
    pivots go to."""
    pivots = []

    def oracle(a, b, c):
        res, made = fraction_lp_standard(a, b, c)
        pivots.extend(made)
        return res

    monkeypatch.setattr(exactlp, "lp_standard", oracle)
    monkeypatch.setattr(cones, "lp_standard", oracle)
    return pivots


def _result(res):
    return res.status, res.x, res.value


#: Beale's LP, which cycles under Dantzig's rule; ratios tie at 0
BEALE = (
    [[F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
     [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
     [F(0), F(0), F(1), F(0), F(0), F(0), F(1)]],
    [F(0), F(0), F(1)],
    [F(-3, 4), F(20), F(-1, 2), F(6), F(0), F(0), F(0)],
)


def _random_standard_lp(rng):
    """min c.x, A x = b, x >= 0 over coprime denominators: degenerate right
    sides (ties), repeated and contradictory equality rows, free directions."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    a = [[_rational(rng, -4, 4) for _ in range(n)] for _ in range(m)]
    b = [F(0) if rng.random() < 0.4 else _rational(rng) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:  # a repeated row: an artificial stays
        a[-1], b[-1] = list(a[0]), b[0]
    elif m > 1 and rng.random() < 0.2:  # the same row, another right side
        a[-1], b[-1] = list(a[0]), b[0] + 1
    return a, b, [_rational(rng, -4, 4) for _ in range(n)]


def test_simplex_equals_fraction_oracle(monkeypatch):
    rng = random.Random(1968)
    lps = [BEALE] + [_random_standard_lp(rng) for _ in range(400)]
    seen = _record_pivots(monkeypatch)
    statuses = []
    for a, b, c in lps:
        seen["pivots"].clear()
        res = lp_standard(a, b, c)
        expected, oracle_pivots = fraction_lp_standard(a, b, c)
        assert _result(res) == _result(expected)
        assert seen["pivots"] == oracle_pivots
        statuses.append(res.status)
    assert lp_standard(*BEALE).value == F(-5, 4)
    assert all(statuses.count(s) >= 40 for s in ("optimal", "infeasible", "unbounded"))
    assert seen["ties"] >= 40


def test_lp_over_free_variables_equals_fraction_oracle(monkeypatch):
    rng = random.Random(1967)
    problems = []
    for _ in range(150):
        n = rng.randint(1, 3)
        a_ge = [[_rational(rng, -3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        a_eq = [[_rational(rng, -3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        problems.append((
            [_rational(rng, -3, 3) for _ in range(n)],
            a_ge, [_rational(rng) for _ in a_ge], a_eq, [_rational(rng) for _ in a_eq],
        ))
    seen = _record_pivots(monkeypatch)
    integer = [_result(lp(*p)) for p in problems]
    integer_pivots = list(seen["pivots"])
    oracle_pivots = _fraction_simplex(monkeypatch)
    assert integer == [_result(lp(*p)) for p in problems]
    assert integer_pivots == oracle_pivots
    assert all(any(r[0] == s for r in integer) for s in ("optimal", "infeasible", "unbounded"))


def test_no_supremum_pivots_on_integer_rows(monkeypatch):
    """The roof cone on points without a supremum runs the chained LPs of
    the non-existence certificate; every pivot sees an integer tableau and
    the pivots are the Fraction simplex's, one for one."""
    points = [vec(p) for p in json.loads(read_text("points_no_sup.json"))]

    def roof():
        return _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")

    seen = _record_pivots(monkeypatch)
    result = vsup(roof(), points)
    assert result.status == NOT_EXISTS and result.candidate is not None
    oracle_pivots = _fraction_simplex(monkeypatch)
    assert vsup(roof(), points) == result
    assert len(seen["pivots"]) == len(oracle_pivots) > 0
    assert seen["pivots"] == oracle_pivots


def test_polyhedron_vertices_equal_two_step_oracle():
    rng = random.Random(611)
    found = 0
    for _ in range(150):
        d = rng.randint(2, 3)
        b_rows = [vec(_rational(rng, -3, 3) for _ in range(d))
                  for _ in range(rng.randint(d, d + 4))]
        if rng.random() < 0.5:  # a parallel row: dependent d-subsets
            b_rows.append(tuple(2 * x for x in rng.choice(b_rows)))
        alpha = [_rational(rng, -4, 1) for _ in b_rows]
        vertices = polyhedron_vertices(b_rows, alpha)
        assert vertices == two_step_polyhedron_vertices(b_rows, alpha)
        found += len(vertices)
    assert found >= 300


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
        from robust_vdp import Cone
        from robust_vdp.suprema import vsup_componentwise

        cone = Cone.componentwise(2)
        v = vsup_componentwise(pts)
        assert all(cone.leq(p, v) for p in pts)
        assert any(v[i] == p[i] for i in range(2) for p in pts)
except ImportError:  # hypothesis is optional
    pass
