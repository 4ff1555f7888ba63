"""Exact linear algebra and linear programming over rationals.

Values enter and leave this module as ``fractions.Fraction`` (or ``int``),
so feasibility, rank and optimality decisions are exact.  Inside, the
elimination and the simplex work fraction-free (Bareiss 1968, Edmonds
1967): each row is a list of ``int``s, a positive multiple of the rational
row, divided by its gcd after each update.  Signs, zero tests and ratios
are those of the rational rows, and a value is divided out only where it
is returned.  ``scaled_points`` brings a point collection to integers over
one common scale in the same way, and ``dot`` keeps the type of its
products, so a dot product of integer vectors is an ``int``.  Problem
sizes are tiny (a handful of variables and constraints), so a dense
tableau simplex with Bland's rule is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' / decimal string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


#: the coordinate types ``exact`` keeps as they are
_EXACT_TYPES = frozenset((int, Fraction))


def exact(xs: Iterable) -> tuple:
    """The point as exact rationals: ``int`` and ``Fraction`` coordinates as
    they are, anything else through ``frac`` (which rejects ``bool``).  A
    tuple of such coordinates is returned as it is."""
    if type(xs) is tuple and _EXACT_TYPES.issuperset(map(type, xs)):
        return xs
    return tuple(x if type(x) in _EXACT_TYPES else frac(x) for x in xs)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The sum of the products, started at the first product: an ``int`` on
    integer vectors, a ``Fraction`` as soon as one product is one."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    products = map(mul, a, b)
    return sum(products, next(products, ZERO))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# Integer rows


def _int_row(row: Sequence) -> tuple[list[int], int]:
    """The rational row times the lcm of its denominators, and that lcm."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def scaled_points(points: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """The exact points times the lcm of all their denominators, as integer
    tuples, and that lcm (1 for no points)."""
    scale = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p)
            for p in points], scale


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(row: list[int], prow: list[int], c: int) -> list[int]:
    """``prow[c] * row - row[c] * prow``, reduced: ``row`` with column c
    eliminated, still a positive multiple of its rational row when
    ``prow[c] > 0``."""
    pv, f = prow[c], row[c]
    return _reduced([pv * x - f * y for x, y in zip(row, prow)])


# ---------------------------------------------------------------------------
# Gaussian elimination


def int_rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """The elimination of ``rref`` on integer rows, without its division:
    returns (rows, pivot column indices), where each row with a pivot is a
    nonzero integer multiple of its reduced row (its pivot, not 1, at its
    pivot column and 0 at every other pivot column) and the zero rows
    without a pivot follow."""
    m = [_int_row(r)[0] for r in rows]
    if not m:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = _combine(m[i], prow, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    The elimination runs on integer rows (``int_rref``); each pivot row is
    divided by its pivot once, at the end."""
    m, pivots = int_rref(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    red += [[ZERO] * ncols for _ in range(len(m) - len(pivots))]
    return red, pivots


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def solve_linear(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], n: int
) -> Optional[Vec]:
    """One solution of A x = b (A has n columns), or None if the system is
    inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][n]
    return tuple(x)


def nullspace_basis(a: Sequence[Sequence[Fraction]], n: int) -> list[Vec]:
    """Basis of the null space of A (A has n columns)."""
    if not a:
        return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Simplex


class LPResult:
    __slots__ = ("status", "x", "value")

    def __init__(self, status: str, x: Optional[Vec] = None, value=None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.value = value

    def __repr__(self):  # pragma: no cover
        return f"LPResult({self.status}, x={self.x}, value={self.value})"


def _pivot(tab, basis, r, c):
    """Make column c basic in row r: every other row loses column c.  The
    pivot row is negated when its pivot is negative, so every row stays a
    positive multiple of its rational row."""
    if tab[r][c] < 0:
        tab[r] = [-x for x in tab[r]]
    prow = tab[r]
    for i, row in enumerate(tab):
        if i != r and row[c] != 0:
            tab[i] = _combine(row, prow, c)
    basis[r] = c


def _run_simplex(tab, basis, m, ncols, allowed) -> str:
    """Minimise the cost row (last row) with Bland's rule.  The leaving row
    has the least ratio rhs / entry, compared by cross-multiplication, and
    then the least basis index."""
    while True:
        cost = tab[m]
        enter = next(
            (j for j in range(ncols) if allowed[j] and cost[j] < 0), None
        )
        if enter is None:
            return "optimal"
        best = None  # (rhs, entry, basis index, row)
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                rhs = tab[i][ncols]
                if best is None or (rhs * best[1], basis[i]) < (best[0] * a, best[2]):
                    best = (rhs, a, basis[i], i)
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best[3], enter)


def lp_standard(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """min c.x subject to A x = b, x >= 0 (two-phase simplex, exact)."""
    m = len(a)
    n = len(c)
    total = n + m  # artificials appended
    tab = []
    scales = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        ints, scale = _int_row([*row, rhs])
        if rhs < 0:
            ints = [-x for x in ints]
        # artificial i has the rational coefficient 1 in row i
        tab.append(ints[:n] + [scale if j == i else 0 for j in range(m)] + ints[n:])
        scales.append(scale)
    basis = [n + i for i in range(m)]
    # phase-1 cost row: minimise sum of artificials, that is minus the sum
    # of the rational rows outside the artificial columns
    common = lcm(*scales)
    weights = [common // s for s in scales]
    sums = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in [*range(n), total]]
    tab.append(_reduced(sums[:n] + [0] * m + sums[n:]))
    allowed = [True] * total
    status = _run_simplex(tab, basis, m, total, allowed)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if tab[m][total] != 0:  # -objective stored; nonzero => infeasible
        return LPResult("infeasible")

    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)

    # phase 2
    allowed = [j < n for j in range(total)]
    c_ints, c_scale = _int_row(c)
    cost = c_ints + [0] * (m + 1)
    for i in range(m):
        bj = basis[i]
        if bj < n and cost[bj] != 0:
            cost = _combine(cost, tab[i], bj)
    tab[m] = cost
    status = _run_simplex(tab, basis, m, total, allowed)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [ZERO] * n
    # the objective sum(c_j x_j) over the basic variables, on integers:
    # x_j = rhs / pivot and c_j = c_ints[j] / c_scale
    num, den = 0, 1
    for i in range(m):
        j = basis[i]
        if j < n:
            rhs, pivot = tab[i][total], tab[i][j]
            x[j] = Fraction(rhs, pivot)
            if c_ints[j]:
                num, den = num * pivot + c_ints[j] * rhs * den, den * pivot
    return LPResult("optimal", tuple(x), Fraction(num, den * c_scale))


def lp(
    c: Sequence[Fraction],
    a_ge: Sequence[Sequence[Fraction]] = (),
    b_ge: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """min c.x over free x subject to A_ge x >= b_ge and A_eq x = b_eq."""
    n = len(c)
    mg = len(a_ge)
    # variables: u(n), v(n), slack(mg); x = u - v
    def widen(row, slack_idx=None):
        out = list(row) + [-x for x in row] + [ZERO] * mg
        if slack_idx is not None:
            out[2 * n + slack_idx] = -ONE
        return out

    rows = [widen(r, i) for i, r in enumerate(a_ge)]
    rhs = list(b_ge)
    rows += [widen(r) for r in a_eq]
    rhs += list(b_eq)
    cc = list(c) + [-x for x in c] + [ZERO] * mg
    res = lp_standard(rows, rhs, cc)
    if res.status != "optimal":
        return res
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return LPResult("optimal", x, res.value)


# ---------------------------------------------------------------------------
# Polyhedra of the form {y : B y >= alpha}


def iter_vertices(b_rows: Sequence[Vec], alpha: Sequence[Fraction]) -> Iterator[Vec]:
    """The vertices of {y : B y >= alpha}, each once, by enumerating basic
    solutions: one elimination per d-subset of the rows, in the order of
    ``itertools.combinations``, made only as far as the caller reads.

    Each row ``[b_i | alpha_i]`` is taken once as a positive integer
    multiple (``_int_row``), and each basic solution y over its own scale s
    (``scaled_points``), so ``<b_i, y> >= alpha_i`` is decided on integers
    as ``<b_i', s y> >= s alpha_i'``.

    Intended for desk-scale systems only (few rows, dimension <= 4).
    """
    if not b_rows:
        return
    d = len(b_rows[0])
    rows = [_int_row([*b, a])[0] for b, a in zip(b_rows, alpha)]
    seen: set[Vec] = set()
    square = list(range(d))
    for idx in combinations(range(len(rows)), d):
        red, pivots = rref([rows[i] for i in idx])
        if pivots != square:  # the d rows are linearly dependent
            continue
        y = tuple(row[d] for row in red)
        if y in seen:
            continue
        (iy,), scale = scaled_points([y])
        if all(dot(row[:d], iy) >= row[d] * scale for row in rows):
            seen.add(y)
            yield y


def polyhedron_vertices(
    b_rows: Sequence[Vec], alpha: Sequence[Fraction]
) -> list[Vec]:
    """All vertices of {y : B y >= alpha} (``iter_vertices``)."""
    return list(iter_vertices(b_rows, alpha))
