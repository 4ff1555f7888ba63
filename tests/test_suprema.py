import json
import random
from fractions import Fraction

import pytest

from robust_vdp import (
    Cone,
    SupResult,
    DeskScaleExceededError,
    DualNotLIError,
    NON_UNIQUE,
    NOT_EXISTS,
    UNIQUE,
    vsup,
    vsup_dual_li,
    vsup_general,
)
from robust_vdp import suprema
from robust_vdp.data import read_text
from robust_vdp.exactlp import dot, lp, lp_standard, solve_linear, vadd
from robust_vdp.instance import _parse_cone
from robust_vdp.suprema import vsup_componentwise

from .oracles import (
    beta_lp_vsup_general,
    coercing_vsup_componentwise,
    is_supremum,
    is_upper_bound,
    lp_irredundant_index,
)

F = Fraction


@pytest.fixture
def roof():
    return _parse_cone(json.loads(read_text("cone_roof3d.json")), 3, "/")


def rand_vec(rng, d):
    return tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(d))


def test_componentwise_max():
    assert vsup_componentwise([(1, 5), (3, 2)]) == (F(3), F(5))
    assert vsup_componentwise([(F(1, 2), 0)]) == (F(1, 2), F(0))


def test_componentwise_empty_rejected():
    with pytest.raises(ValueError):
        vsup_componentwise([])


def test_componentwise_kernel_equals_coercing_oracle():
    # on exact points of one dimension, one point or several, the kernel and
    # the public route give the oracle's values with its coordinate types
    rng = random.Random(71)
    singles = 0
    for _ in range(300):
        d, n = rng.randint(1, 4), rng.choice((1, 1, 2, 3, 5))
        pts = [
            tuple(rng.randint(-9, 9) if rng.random() < 0.5
                  else F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(d))
            for _ in range(n)
        ]
        want = coercing_vsup_componentwise(pts)
        for got in (vsup_componentwise(pts), vsup(Cone.componentwise(d), pts).value):
            assert got == want
            assert list(map(type, got)) == list(map(type, want))
        singles += n == 1
    assert singles > 50
    # the public route still coerces: lists and "p/q" strings
    pts = [[1, "1/2"], ("3/4", F(-1))]
    assert vsup(Cone.componentwise(2), pts).value == coercing_vsup_componentwise(pts)


def test_public_componentwise_route_checks_its_points():
    cone = Cone.componentwise(2)
    for pts, message in (([], "empty collection"), ([(1, 2), (3,)], "one dimension")):
        with pytest.raises(ValueError, match=message):
            vsup(cone, pts)
        with pytest.raises(ValueError, match=message):
            coercing_vsup_componentwise(pts)


def test_dispatcher_componentwise():
    res = vsup(Cone.componentwise(2), [(1, 5), (3, 2)])
    assert res.status == UNIQUE and res.value == (F(3), F(5))


def test_dual_li_full_rank_unique():
    # duals (1,1), (1,-1): an invertible change of coordinates of R^2_+
    cone = Cone.from_duals([(1, 1), (1, -1)])
    pts = [(0, 0), (1, 2)]
    res = vsup(cone, pts)
    assert res.status == UNIQUE
    assert is_supremum(cone, pts, res.value)


def test_dual_li_deficient_rank_non_unique():
    cone = Cone.halfspace((1, 2))
    pts = [(0, 0), (1, F(1, 2)), (2, -1)]
    res = vsup(cone, pts)
    assert res.status == NON_UNIQUE
    m = max(dot((F(1), F(2)), p) for p in pts)
    for w in (res.value, res.alternative):
        assert dot((F(1), F(2)), w) == m  # on the supporting hyperplane
        assert is_supremum(cone, pts, w)
    assert res.value != res.alternative


def test_dual_li_rejects_dependent_duals():
    cone = Cone.from_duals([(1, 1), (2, 2)])
    with pytest.raises(DualNotLIError):
        vsup_dual_li(cone, [(0, 0)])


def test_general_matches_componentwise():
    cone = Cone.from_duals([(1, 0), (0, 1)])
    rng = random.Random(5)
    for _ in range(25):
        pts = [rand_vec(rng, 2) for _ in range(rng.randint(1, 4))]
        res = vsup_general(cone, pts)
        assert res.status == UNIQUE
        assert res.value == vsup_componentwise(pts)


def test_general_not_exists_certificate(roof):
    pts = [(0, 0, 0), (F(1, 4), F(-1, 4), 0)]
    res = vsup_general(roof, pts)
    assert res.status == NOT_EXISTS
    alpha = [max(dot(b, p) for p in pts) for b in roof.duals]
    for y in (res.candidate, res.undominated):
        # both certificates are upper bounds of the collection
        assert all(dot(b, y) >= a for b, a in zip(roof.duals, alpha))
        assert is_upper_bound(roof, pts, y)
    # but the candidate does not precede the witness, so no least one exists
    assert not roof.leq(res.candidate, res.undominated)


def test_general_existing_supremum_on_roof(roof):
    # collections where one point dominates: the supremum is that point
    pts = [(0, 0, 0), (0, 0, 2)]
    res = vsup_general(roof, pts)
    assert res.status == UNIQUE
    assert res.value == (F(0), F(0), F(2))
    assert is_supremum(roof, pts, res.value)


def test_general_randomized_against_definition(roof):
    rng = random.Random(17)
    n_exist = 0
    for _ in range(40):
        pts = [rand_vec(rng, 3) for _ in range(rng.randint(1, 3))]
        res = vsup_general(roof, pts)
        if res.status == NOT_EXISTS:
            assert is_upper_bound(roof, pts, res.undominated)
            assert not roof.leq(res.candidate, res.undominated)
        else:
            n_exist += 1
            assert is_supremum(roof, pts, res.value)
    assert n_exist > 0


def test_translation_invariance_unique():
    cone = Cone.from_duals([(1, 1), (1, -1)])
    rng = random.Random(23)
    for _ in range(25):
        pts = [rand_vec(rng, 2) for _ in range(3)]
        b = rand_vec(rng, 2)
        base = vsup(cone, pts)
        shifted = vsup(cone, [vadd(p, b) for p in pts])
        assert shifted.value == vadd(base.value, b)


def test_translation_invariance_non_unique_modulo_cone():
    # witnesses are canonical per call, so compare up to mutual dominance
    cone = Cone.halfspace((1, 2))
    rng = random.Random(29)
    for _ in range(25):
        pts = [rand_vec(rng, 2) for _ in range(3)]
        b = rand_vec(rng, 2)
        base = vsup(cone, pts)
        shifted = vsup(cone, [vadd(p, b) for p in pts])
        moved = vadd(base.value, b)
        assert cone.leq(moved, shifted.value) and cone.leq(shifted.value, moved)


def test_general_scale_limits():
    cone = Cone.from_duals([tuple(F(i == j) for j in range(5)) for i in range(5)])
    with pytest.raises(DeskScaleExceededError):
        vsup_general(cone, [(0,) * 5])


def test_idempotence_and_monotonicity(roof):
    rng = random.Random(31)
    for _ in range(20):
        pts = [rand_vec(rng, 3) for _ in range(2)]
        res = vsup(roof, pts)
        if res.status == NOT_EXISTS:
            continue
        # adding the supremum itself changes nothing
        again = vsup(roof, pts + [res.value])
        assert again.status != NOT_EXISTS
        assert again.value == res.value
        # a singleton's supremum is the point
        single = vsup(roof, [pts[0]])
        assert single.value == pts[0]


def oracle_cones(roof):
    """Cones on the general route: dependent, redundant, repeated and zero
    dual rows, pointed, non-pointed and non-solid."""
    return {
        "pyramid c=1": Cone.from_duals([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
        "pyramid c=2": Cone.from_duals([(1, 0, 2), (-1, 0, 2), (0, 1, 2), (0, -1, 2)]),
        "roof": roof,
        "roof duals only": Cone.from_duals(roof.duals),
        "redundant rows": Cone.from_duals([(1, 1), (1, 0), (2, 1), (0, 1)]),
        "duplicate rows": Cone.from_duals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0)]),
        "zero row": Cone.from_duals([(1, -1), (0, 0), (1, 1)]),
        "zero-row cone": Cone.from_duals([(0, 0)]),
        "dependent 2-d rows": Cone.from_duals([(1, 2), (2, 4)]),
        "non-pointed wedge": Cone.from_duals([(1, 0, 0), (1, 1, 0), (0, 1, 0)]),
        "pyramid times a line": Cone.from_duals(
            [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0)]
        ),
        "non-solid plane": Cone.from_duals([(0, 0, 1), (0, 0, -1), (0, 1, 1)]),
    }


def random_point_set(rng, cone):
    """A few random points, or a chain x, x + c_1, x + c_1 + c_2, ... along
    directions c_i in the cone, whose supremum is its last point."""
    pts = [rand_vec(rng, cone.dim)]
    for _ in range(rng.randint(0, 3)):
        step = rand_vec(rng, cone.dim)
        if rng.random() < 0.5:
            while not cone.contains(step):
                step = rand_vec(rng, cone.dim)
        pts.append(vadd(pts[-1], step))
    rng.shuffle(pts)
    return pts


def test_general_equals_beta_lp_oracle(roof):
    rng = random.Random(41)
    seen = set()
    for name, cone in oracle_cones(roof).items():
        for _ in range(12 if name.startswith("roof") else 30):
            pts = random_point_set(rng, cone)
            res = vsup_general(cone, pts)
            alpha = [max(dot(b, p) for p in pts) for b in cone.duals]
            zero = [0] * cone.dim
            if lp(zero, a_ge=list(cone.duals), b_ge=alpha).status == "infeasible":
                # no upper bound: the beta LPs of the oracle are infeasible
                assert res == SupResult(NOT_EXISTS), (name, pts)
                with pytest.raises(AssertionError):
                    beta_lp_vsup_general(cone, pts)
            else:
                assert res == beta_lp_vsup_general(cone, pts), (name, pts)
            seen.add((name, res.status, res.candidate is None))
    statuses = {status for _, status, _ in seen}
    assert statuses == {UNIQUE, NON_UNIQUE, NOT_EXISTS}
    for name in ("pyramid c=1", "pyramid c=2", "roof", "roof duals only"):
        assert (name, UNIQUE, True) in seen and (name, NOT_EXISTS, False) in seen
    # P without vertices: the certificate takes a per-row minimiser
    assert ("pyramid times a line", NOT_EXISTS, False) in seen
    assert ("pyramid times a line", NON_UNIQUE, True) in seen
    assert ("non-solid plane", NOT_EXISTS, True) in seen
    assert ("zero-row cone", NON_UNIQUE, True) in seen


def test_general_without_upper_bound():
    # C is the line x_1 = 0: points that differ in x_1 have no upper bound
    cone = Cone.from_duals([(1, 0), (-1, 0)])
    assert vsup(cone, [(0, 0), (1, 0)]) == SupResult(NOT_EXISTS)
    assert vsup(cone, [(0, 0), (0, 1)]).status == NON_UNIQUE


def test_existing_supremum_makes_no_lp_call(roof, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = suprema.lp
    monkeypatch.setattr(suprema, "lp", counted)
    pts = [(0, 0, 0), (0, 0, 2), (F(1, 4), 0, 1)]
    assert vsup(roof, pts).status == UNIQUE
    wedge = Cone.from_duals([(1, 0, 0), (1, 1, 0), (0, 1, 0)])
    assert vsup(wedge, [(0, 0, 0), (1, 0, 5)]).status == NON_UNIQUE
    assert calls == []
    assert vsup(roof, [(0, 0, 0), (F(1, 4), F(-1, 4), 0)]).status == NOT_EXISTS
    assert calls  # only a non-existence certificate solves LPs


def test_certificate_lp_counts(roof, monkeypatch):
    """The lexicographic LPs stop once the rows fixed have rank d: d LPs on
    the roof, one per dual row below full dual rank, none when a supremum
    exists."""
    calls = []
    real = suprema.lp
    monkeypatch.setattr(
        suprema, "lp", lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs)
    )
    pts = json.loads(read_text("points_no_sup.json"))
    assert vsup(roof, pts).status == NOT_EXISTS
    assert len(calls) == 3
    line = oracle_cones(roof)["pyramid times a line"]
    assert line.dual_rank == 3 < line.dim
    rng = random.Random(43)
    certificates = 0
    for _ in range(30):
        calls.clear()
        res = vsup(line, random_point_set(rng, line))
        lexicographic = [kw for kw in calls if "a_eq" in kw]
        if res.status != NOT_EXISTS:
            assert calls == []
        elif res.candidate is not None:
            certificates += 1
            assert len(lexicographic) == len(line.duals)
            # the witness search of a polyhedron without vertices adds at
            # most one argmin LP per row
            assert len(lexicographic) < len(calls) <= 2 * len(line.duals)
    assert certificates > 3
    calls.clear()
    assert vsup(roof, [(0, 0, 0), (0, 0, 2)]).status == UNIQUE
    assert calls == []


def _in_generated_cone(rows, x) -> bool:
    """x is a nonnegative combination of rows (the empty one is zero)."""
    if not rows:
        return all(c == 0 for c in x)
    columns = [[row[i] for row in rows] for i in range(len(x))]
    return lp_standard(columns, list(x), [F(0)] * len(rows)).status == "optimal"


def test_irredundant_duals_once_per_cone(roof, monkeypatch):
    for cone in oracle_cones(roof).values():
        kept = [cone.duals[j] for j in cone.irredundant_index]
        dropped = list(cone.duals)
        for row in kept:
            dropped.remove(row)
            assert not _in_generated_cone([r for r in kept if r is not row], row)
        for row in dropped:
            assert _in_generated_cone(kept, row)
    membership = []
    real = Cone.contains
    monkeypatch.setattr(
        Cone, "contains", lambda self, x: membership.append(x) or real(self, x)
    )
    cone = Cone.from_duals(roof.duals)
    for k in range(3):
        vsup(cone, [(k, 0, 1), (0, k, 2)])
        vsup(cone, [(0, 0, 0), (F(1, 4), F(-1, 4), 0)])
    assert membership == list(roof.duals)


#: the pyramid {|x_1| <= x_3, |x_2| <= x_3}: its facet rows and its edges
PYRAMID_ROWS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
PYRAMID_EDGES = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]


def _generator_cones(roof, rng, count):
    """Random cones with generators and dual rows that the constructor
    accepts: the roof, the pyramid with all or 3 of its 4 edges, the
    orthant, and a quadrant in a plane (which leaves two rows tight on
    every generator), each with its facet rows and added rows (positive
    parallel copies, zero rows, sums of two rows), shuffled."""
    bases = [
        (list(roof.generators), list(roof.duals)),
        (PYRAMID_EDGES, PYRAMID_ROWS),
        (PYRAMID_EDGES[:3], PYRAMID_ROWS),
        (PYRAMID_EDGES[1:], PYRAMID_ROWS),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        # generators spanning a plane, and two rows tight on both
        ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]),
    ]
    cones = []
    while len(cones) < count:
        gens, rows = rng.choice(bases)
        rows = [tuple(map(F, row)) for row in rows]
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("copy", "zero", "sum"))
            if kind == "copy":
                k = F(rng.randint(1, 4), rng.choice((1, 2, 3)))
                rows.append(tuple(k * x for x in rng.choice(rows)))
            elif kind == "zero":
                rows.append((F(0),) * 3)
            else:
                a, b = rng.sample(rows, 2)
                rows.append(tuple(x + y for x, y in zip(a, b)))
        rng.shuffle(rows)
        try:
            cones.append(Cone.from_generators(gens, rows))
        except ValueError:  # a sum tight on no generator
            continue
    return cones


def test_facet_rows_keep_the_lp_loop_index(roof, monkeypatch):
    # the irredundant rows with facets found by rank tests equal the LP
    # loop's, parallel copies (the last one kept), zero and summed rows
    # included, and the facets take no membership LP
    rng = random.Random(191)
    cones = _generator_cones(roof, rng, 120)
    expected = [lp_irredundant_index(cone) for cone in cones]
    membership = []
    real = Cone.contains
    monkeypatch.setattr(
        Cone, "contains", lambda self, x: membership.append(x) or real(self, x)
    )
    seen = {"copies": 0, "zero": 0, "lp rows": 0, "three edges": 0, "plane": 0}
    for cone, want in zip(cones, expected):
        membership.clear()
        assert cone.irredundant_index == want
        rows = [row for row, _ in cone.int_duals]
        seen["copies"] += len(set(rows)) < len(rows)
        seen["zero"] += (0, 0, 0) in rows
        seen["lp rows"] += bool(membership)
        seen["three edges"] += len(cone.generators) == 3 and cone.generators[0][2] == 1
        seen["plane"] += len(cone.generators) == 2
        if not membership and len(set(rows)) == len(rows):
            assert cone.irredundant_index == tuple(range(len(rows)))
    assert all(count > 10 for count in seen.values()), seen
    # the bundled roof: eight facets, no LP
    membership.clear()
    assert roof.irredundant_index == tuple(range(8)) and membership == []


def test_all_rows_solution_is_the_irredundant_one(roof):
    # at full dual rank a solution over all the rows, when there is one,
    # is the solution over the irredundant rows; vsup_general returns it
    rng = random.Random(193)
    cones = [
        roof,
        Cone.from_duals(PYRAMID_ROWS),
        Cone.from_duals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 0)]),
        Cone.from_duals([(2, 0, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0)]),
    ]
    seen = {"all rows": 0, "irredundant rows only": 0, "neither": 0}
    for cone in cones:
        assert cone.dual_rank == cone.dim < len(cone.duals)
        every = range(len(cone.duals))
        for _ in range(60):
            pts = [rand_vec(rng, 3) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:  # a chain along (0, 0, 1), inside every cone
                pts = [pts[0][:2] + (pts[0][2] + k,) for k in range(3)]
            alpha = suprema._scaled_alpha(cone, pts)
            all_rows = suprema._dual_solution(cone, every, *alpha)
            irredundant = suprema._dual_solution(cone, cone.irredundant_index, *alpha)
            res = vsup_general(cone, pts)
            if all_rows is not None:
                assert all_rows == irredundant == res
                seen["all rows"] += 1
            elif irredundant is not None:
                assert irredundant == res
                seen["irredundant rows only"] += 1
            else:
                assert res.status == NOT_EXISTS
                seen["neither"] += 1
    assert seen["all rows"] > 100 and seen["irredundant rows only"] > 5
    assert seen["neither"] > 10


def test_dual_images_solve_in_the_column_space(roof):
    # the range test and the back map of one elimination of [B | I] against
    # solve_linear on the image rows, in and off the column space
    rng = random.Random(197)
    cones = [
        Cone.halfspace((2, -1, 3)),
        Cone.from_duals([(1, 0, 0), (1, 1, 0), (0, 1, 1)]),
        Cone.from_duals([(1, 0, 2), (0, 3, -1)]),
        Cone.from_duals(PYRAMID_ROWS),
        Cone.from_duals([(1, 1, 0), (0, 1, 0), (2, 2, 0)]),
        roof,
    ]
    seen = {True: 0, False: 0}
    for cone in cones:
        images = cone.dual_images
        rows = images.rows
        assert rows == tuple(cone.int_duals[i][0] for i in cone.order_index)
        for _ in range(40):
            x = rand_vec(rng, 3)
            y = images.image(x)
            if rng.random() < 0.5:
                y = tuple(c + rng.randint(-1, 1) for c in y)
            scale = rng.choice((1, 2, 6))
            want = solve_linear(rows, y, 3)
            assert images.in_range(y) == (want is not None)
            if want is not None:
                assert images.solution(y, scale) == tuple(c / scale for c in want)
            seen[want is not None] += 1
    assert seen[True] > 100 and seen[False] > 25
