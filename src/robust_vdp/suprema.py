"""Ideal-point suprema of finite vector collections under a cone order.

The supremum of ``{x_1, ..., x_m}`` is a vector that is an upper bound and
is dominated by every other upper bound.  It may fail to exist and, for
non-pointed cones, may be non-unique; results carry certificates for both
situations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Iterable, Optional, Sequence

from .cones import COMPONENTWISE, Cone
from .errors import DeskScaleExceededError, DualNotLIError, RepresentationError
from .exactlp import (
    Vec,
    exact,
    iter_vertices,
    lp,
    mat_rank,
    nullspace_basis,
    solve_linear,
    vadd,
)

UNIQUE = "unique"
NON_UNIQUE = "non_unique"
NOT_EXISTS = "not_exists"

#: vsup_general refuses above this dimension / dual count: the certificate's
#: ``iter_vertices`` makes one elimination per d-subset of the rows.
MAX_GENERAL_DIM = 4
MAX_GENERAL_DUALS = 16


@dataclass(frozen=True)
class SupResult:
    status: str
    value: Optional[Vec] = None
    #: a second, distinct supremum (non-unique case)
    alternative: Optional[Vec] = None
    #: a point of the upper-bound intersection not dominated by the
    #: canonical candidate (non-existence case)
    undominated: Optional[Vec] = None
    #: the canonical candidate used in the non-existence certificate; both
    #: are None when the collection has no upper bound at all
    candidate: Optional[Vec] = None


def _require_points(xs) -> list[Vec]:
    pts = [exact(x) for x in xs]
    if not pts:
        raise ValueError("supremum of an empty collection is undefined")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("all vectors must share one dimension")
    return pts


def vsup_componentwise(pts: Sequence[Vec]) -> Vec:
    """Coordinate-wise maximum: the unique supremum under the order R^d_+.

    The kernel of the component-wise route: the points must be exact and of
    one dimension, as ``vsup`` checks them at the public boundary and the
    engine builds them.  A single point is its own supremum."""
    if not pts:
        raise ValueError("supremum of an empty collection is undefined")
    return tuple(map(max, zip(*pts)))


def _scaled_alpha(cone: Cone, pts: list[Vec]) -> tuple[list[int], int]:
    """``alpha_i = max_x <b_i, x>`` for every dual row, on the integer dual
    rows and the points over one scale s (``Cone.int_images``), and s."""
    images, scale = cone.int_images(pts)
    return [max(column) for column in zip(*images)], scale


def _dual_solution(
    cone: Cone, index: Sequence[int], alpha: list[int], scale: int
) -> Optional[SupResult]:
    """The suprema as the solutions of <b_i, V> = max_x <b_i, x> over the
    dual rows at ``index``, or None when that system is inconsistent.  It is
    solved on the integer rows, whose right-hand sides ``alpha`` (from
    ``_scaled_alpha``) are over the point scale: its solutions are the
    suprema times the scale, so the value is divided by the scale once.  The
    value has its free coordinates zero; below full rank a null-space step
    gives another."""
    b_rows = [cone.int_duals[i][0] for i in index]
    v = solve_linear(b_rows, [alpha[i] for i in index], cone.dim)
    if v is None:
        return None
    v = tuple(Fraction(x, scale) for x in v)
    if cone.dual_rank == cone.dim:
        return SupResult(UNIQUE, value=v)
    null = nullspace_basis(b_rows, cone.dim)
    return SupResult(NON_UNIQUE, value=v, alternative=vadd(v, null[0]))


def vsup_dual_li(cone: Cone, xs: Iterable[Iterable]) -> SupResult:
    """Supremum for a cone whose dual generators are linearly independent.

    With duals b_1..b_k the supremum solves <b_i, V> = max_x <b_i, x>.
    For k = d the solution is unique; for k < d every solution differs by a
    null-space vector of the dual matrix and a canonical representative is
    returned together with a second witness.
    """
    pts = _require_points(xs)
    if cone.duals is None:
        raise RepresentationError("vsup_dual_li needs a dual representation")
    if cone.dual_rank != len(cone.duals):
        raise DualNotLIError("dual generators are linearly dependent")
    return _dual_solution(cone, range(len(cone.duals)), *_scaled_alpha(cone, pts))


def _lex_minimal_point(b_rows, alpha) -> Optional[Vec]:
    """A cone-order minimal element of {y : By >= alpha}, found by
    lexicographically minimising <b_1, y>, <b_2, y>, ... in turn, or None
    when that polyhedron is empty (only the first LP can be infeasible).
    The LPs stop once the rows fixed so far have rank d: their equalities
    then admit only the point just found, which every later LP would
    return again.  Below full dual rank every row takes its LP."""
    a_eq: list[Vec] = []
    b_eq: list = []
    y = None
    for b in b_rows:
        res = lp(list(b), a_ge=list(b_rows), b_ge=list(alpha), a_eq=a_eq, b_eq=b_eq)
        if res.status != "optimal":
            return None
        y = res.x
        a_eq.append(b)
        b_eq.append(res.value)
        if len(a_eq) >= len(y) and mat_rank(a_eq) == len(y):
            break
    return y


def _general_refusal(cone: Cone) -> Optional[Exception]:
    """The error ``vsup_general`` refuses every collection on the cone with,
    or None."""
    if cone.duals is None:
        return RepresentationError(
            "vsup_general needs a dual representation of the cone"
        )
    if cone.dim > MAX_GENERAL_DIM or len(cone.duals) > MAX_GENERAL_DUALS:
        return DeskScaleExceededError(
            f"vsup_general is limited to dimension <= {MAX_GENERAL_DIM} "
            f"and <= {MAX_GENERAL_DUALS} dual inequalities"
        )
    return None


def refusal(cone: Cone) -> Optional[Exception]:
    """The error ``vsup`` refuses every collection on the cone with, or None
    when it decides them: a cone without dual rows, or one beyond desk scale
    on the general route."""
    if cone.duals is not None and cone.dual_rank == len(cone.duals):
        return None
    return _general_refusal(cone)


def vsup_general(cone: Cone, xs: Iterable[Iterable]) -> SupResult:
    """Exact supremum decision for a polyhedral cone given by duals.

    The upper bounds of the collection form the polyhedron
    ``P = {y : <b_i, y> >= alpha_i}`` with ``alpha_i = max_x <b_i, x>``.
    Over the irredundant rows B (at ``Cone.irredundant_index``, which leave P
    and C unchanged) a supremum exists iff ``B V = alpha`` is consistent,
    and its solutions are exactly the suprema.  (<=) A solution lies in P
    and below every point of P.  (=>) A supremum V has ``B V = beta >=
    alpha``.  If ``beta_i > alpha_i``, b_i is no nonnegative combination of
    the other rows, so Farkas' lemma gives a z with ``<b_j, z> >= 0`` for
    all j != i and ``<b_i, z> < 0``; then V + eps z is an upper bound that
    is not above V.  At full dual rank a solution V over all the rows, when
    there is one, is the same point: it lies in P, and every y in P has
    ``B y >= alpha = B V``; so the irredundant rows are found only when
    that system is inconsistent.  Without a supremum the result certifies
    it with the lexicographically minimal point of P and a point of P that
    point does not precede; an empty P (a cone without interior) has no
    upper bound.
    The candidate takes one LP per dual row until the rows fixed have rank
    d (``_lex_minimal_point``), and the witness is the first vertex of P,
    tested on integer rows (``iter_vertices``), that the candidate does not
    precede; a P without vertices takes per-row minimisers instead.
    """
    pts = _require_points(xs)
    refused = _general_refusal(cone)
    if refused is not None:
        raise refused
    b_rows = cone.duals
    int_alpha, scale = _scaled_alpha(cone, pts)
    every = tuple(range(len(b_rows)))
    first = every if cone.dual_rank == cone.dim else cone.irredundant_index
    found = _dual_solution(cone, first, int_alpha, scale)
    if found is None and cone.irredundant_index != first:
        found = _dual_solution(cone, cone.irredundant_index, int_alpha, scale)
    if found is not None:
        return found
    # the certificate LPs keep the rational rows and alpha: scaling a row
    # would reweight phase 1 and could change the simplex's point
    alpha = [
        Fraction(a * f.denominator, scale * f.numerator)
        for a, (_, f) in zip(int_alpha, cone.int_duals)
    ]
    candidate = _lex_minimal_point(b_rows, alpha)
    if candidate is None:
        return SupResult(NOT_EXISTS)

    def below(y) -> list[bool]:  # <b_i, y> < <b_i, candidate>, row by row
        iy, ic = cone.int_images((y, candidate))[0]
        return list(map(lt, iy, ic))

    witness = next((y for y in iter_vertices(b_rows, alpha) if any(below(y))), None)
    if witness is None:  # polyhedron without vertices (lineality)
        argmins = (lp(list(b), a_ge=list(b_rows), b_ge=alpha).x for b in b_rows)
        witness = next(y for i, y in enumerate(argmins) if below(y)[i])
    return SupResult(NOT_EXISTS, undominated=witness, candidate=candidate)


def vsup(cone: Cone, xs: Iterable[Iterable]) -> SupResult:
    """Dispatch to the cheapest applicable supremum routine.  Every route
    coerces the points to exact rationals and checks their dimension."""
    if cone.kind == COMPONENTWISE:
        return SupResult(UNIQUE, value=vsup_componentwise(_require_points(xs)))
    if cone.duals is not None and cone.dual_rank == len(cone.duals):
        return vsup_dual_li(cone, xs)
    return vsup_general(cone, xs)
