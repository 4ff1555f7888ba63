"""Ideal-point suprema of finite vector collections under a cone order.

The supremum of ``{x_1, ..., x_m}`` is a vector that is an upper bound and
is dominated by every other upper bound.  It may fail to exist and, for
non-pointed cones, may be non-unique; results carry certificates for both
situations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .cones import COMPONENTWISE, Cone, RepresentationError
from .errors import DeskScaleExceededError, DualNotLIError
from .exactlp import (
    ZERO,
    Vec,
    dot,
    lp,
    nullspace_basis,
    polyhedron_vertices,
    rref,
    solve_linear,
    vadd,
    vec,
)

UNIQUE = "unique"
NON_UNIQUE = "non_unique"
NOT_EXISTS = "not_exists"

#: vsup_general refuses above this dimension / dual count rather than
#: risking an inexact shortcut.
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
    #: the canonical candidate used in the non-existence certificate
    candidate: Optional[Vec] = None


def _require_points(xs) -> list[Vec]:
    pts = [vec(x) for x in xs]
    if not pts:
        raise ValueError("supremum of an empty collection is undefined")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("all vectors must share one dimension")
    return pts


def vsup_componentwise(xs: Iterable[Iterable]) -> Vec:
    """Coordinate-wise maximum: the unique supremum under the order R^d_+."""
    pts = _require_points(xs)
    return tuple(max(p[i] for p in pts) for i in range(len(pts[0])))


def _pivot_solution(b_rows, rhs) -> Vec:
    """Solve B v = rhs deterministically: pivot on the first linearly
    independent columns of B, set the remaining coordinates to zero."""
    d = len(b_rows[0])
    _, pivot_cols = rref(b_rows)
    sub = [[row[c] for c in pivot_cols] for row in b_rows]
    partial = solve_linear(sub, rhs)
    if partial is None:
        raise ValueError("inconsistent system in pivot solution")
    v = [ZERO] * d
    for c, x in zip(pivot_cols, partial):
        v[c] = x
    return tuple(v)


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
    b_rows = cone.duals
    k = len(b_rows)
    d = cone.dim
    if cone.dual_rank != k:
        raise DualNotLIError("dual generators are linearly dependent")
    alpha = [max(dot(b, p) for p in pts) for b in b_rows]
    v = _pivot_solution(b_rows, alpha)
    if k == d:
        return SupResult(UNIQUE, value=v)
    null = nullspace_basis(b_rows, d)
    return SupResult(NON_UNIQUE, value=v, alternative=vadd(v, null[0]))


def _lex_minimal_point(b_rows, alpha) -> Vec:
    """A cone-order minimal element of {y : By >= alpha}, found by
    lexicographically minimising <b_1, y>, <b_2, y>, ... in turn."""
    a_eq: list[Vec] = []
    b_eq: list = []
    y = None
    for b in b_rows:
        res = lp(list(b), a_ge=list(b_rows), b_ge=list(alpha), a_eq=a_eq, b_eq=b_eq)
        assert res.status == "optimal"  # bounded below by alpha_i
        y = res.x
        a_eq.append(b)
        b_eq.append(res.value)
    return y


def vsup_general(cone: Cone, xs: Iterable[Iterable]) -> SupResult:
    """Exact supremum decision for a polyhedral cone given by duals.

    The upper bounds of the collection form the polyhedron
    ``P = {y : <b_i, y> >= alpha_i}`` with ``alpha_i = max_x <b_i, x>``.
    A supremum exists iff P equals V + C for some V, which happens iff the
    linear system ``<b_i, V> = beta_i`` with ``beta_i = min_P <b_i, y>`` is
    consistent: any supremum lies in P and dominates all of P, forcing it
    to attain every one of these minima.
    """
    pts = _require_points(xs)
    if cone.duals is None:
        raise RepresentationError(
            "vsup_general needs a dual representation of the cone"
        )
    d = cone.dim
    b_rows = cone.duals
    if d > MAX_GENERAL_DIM or len(b_rows) > MAX_GENERAL_DUALS:
        raise DeskScaleExceededError(
            f"vsup_general is limited to dimension <= {MAX_GENERAL_DIM} "
            f"and <= {MAX_GENERAL_DUALS} dual inequalities"
        )
    alpha = [max(dot(b, p) for p in pts) for b in b_rows]
    beta = []
    argmins = []
    for b in b_rows:
        res = lp(list(b), a_ge=list(b_rows), b_ge=list(alpha))
        assert res.status == "optimal"  # bounded below by alpha_i
        beta.append(res.value)
        argmins.append(res.x)

    v = solve_linear(b_rows, beta)
    if v is None:
        # no supremum: certify with a point of P the candidate cannot dominate
        candidate = _lex_minimal_point(b_rows, alpha)
        witness = None
        for vert in polyhedron_vertices(b_rows, alpha):
            if any(dot(b, vert) < dot(b, candidate) for b in b_rows):
                witness = vert
                break
        if witness is None:  # polyhedron without vertices (lineality)
            witness = next(
                y
                for b, y in zip(b_rows, argmins)
                if dot(b, y) < dot(b, candidate)
            )
        return SupResult(NOT_EXISTS, undominated=witness, candidate=candidate)

    v = _pivot_solution(b_rows, beta)
    if cone.dual_rank == d:
        return SupResult(UNIQUE, value=v)
    null = nullspace_basis(b_rows, d)
    return SupResult(NON_UNIQUE, value=v, alternative=vadd(v, null[0]))


def vsup(cone: Cone, xs: Iterable[Iterable]) -> SupResult:
    """Dispatch to the cheapest applicable supremum routine."""
    pts = _require_points(xs)
    if cone.kind == COMPONENTWISE:
        return SupResult(UNIQUE, value=vsup_componentwise(pts))
    if cone.duals is not None and cone.dual_rank == len(cone.duals):
        return vsup_dual_li(cone, pts)
    return vsup_general(cone, pts)
