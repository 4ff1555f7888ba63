"""Polyhedral ordering cones and the set order relations they induce.

A cone may carry a generator representation (``C = cone(G)``), a dual
representation (``C = {x : <b_i, x> >= 0}``), or both.  Operations dispatch
on whichever representation is available; converting between the two is
deliberately not implemented.

With dual rows ``b_1..b_k``, ``x <= y`` holds exactly when
``<b_i, x> <= <b_i, y>`` for every i, because that is ``<b_i, y - x> >= 0``.
The set relations therefore map every point once to its dual image
``(<b_1, x>, ..., <b_k, x>)`` and compare images coordinate by coordinate;
on the component-wise cone the image is the point itself.  The criterion
decides the order exactly, for pointed and non-pointed cones and for
dependent dual rows alike.  Equal images always compare, so a point whose
image occurs in the other set is settled by one lookup.  A cone with
generators only compares pairs by ``leq``, one LP each.

The images are computed on integers: each dual row is cached once as the
primitive integer row of its direction (``Cone.int_duals``), and the
points are brought to integers over one common scale, the lcm of their
denominators (``exactlp.scaled_points``).  Scaling a dual row or every
point by a positive number changes neither the cone nor the comparison of
two images, coordinate by coordinate, so the order is decided as on the
rational images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import ge, le
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatchError, RepresentationError, UnsupportedConeError
from .exactlp import (
    ONE,
    ZERO,
    Vec,
    _int_row,
    dot,
    exact,
    int_rref,
    lp_standard,
    mat_rank,
    scaled_points,
    vec,
    vneg,
    vsub,
)

COMPONENTWISE = "componentwise"
HALFSPACE = "halfspace"
DUAL = "dual"
GENERATORS = "generators"


def _basis(d: int) -> tuple[Vec, ...]:
    return tuple(
        tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d)
    )


@dataclass(frozen=True)
class DualImages:
    """The image map ``x -> B x`` on integer rows B that decide a cone's
    order (``Cone.order_index``): x precedes y exactly when ``B x <= B y``
    coordinate by coordinate.  A finite collection then has a supremum
    exactly when the coordinate-wise maximum y of its images lies in B's
    column space, and every supremum V solves ``B V = y``.

    One elimination of ``[B | I]`` gives both tests.  Its rows with a pivot
    in B are the rows of the reduced system: for y in the column space they
    read ``x_c = <s_c, y>`` at each pivot column c, the solution
    ``solve_linear(B, y)`` returns (free coordinates zero), since the
    pivots and row operations depend on B alone.  Its other rows vanish on
    B and span the left null space, so y lies in the column space exactly
    when each of them vanishes on y."""

    rows: tuple[tuple[int, ...], ...]
    #: per coordinate of the point, the integer row s with x_c = <s, y> / den
    back: tuple[tuple[int, ...], ...]
    den: int
    #: integer rows spanning the left null space of B
    null: tuple[tuple[int, ...], ...]

    @staticmethod
    def over(rows: Sequence[Sequence[int]], dim: int) -> "DualImages":
        k = len(rows)
        red, pivots = int_rref([
            [*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows)
        ])
        # x_c = <row[dim:], y> / row[c] on each row with its pivot c in B
        solving = [(c, row) for c, row in zip(pivots, red) if c < dim]
        den = lcm(*(abs(row[c]) for c, row in solving))
        solved = {
            c: tuple(x * (den // row[c]) for x in row[dim:]) for c, row in solving
        }
        zero = (0,) * k
        return DualImages(
            rows=tuple(map(tuple, rows)),
            back=tuple(solved.get(c, zero) for c in range(dim)),
            den=den,
            null=tuple(tuple(row[dim:]) for row in red[len(solving):]),
        )

    def image(self, x: Sequence) -> tuple:
        """B x."""
        return tuple(dot(b, x) for b in self.rows)

    def in_range(self, y: Sequence) -> bool:
        """Whether y lies in the column space of the rows."""
        return not any(dot(z, y) for z in self.null)

    def solution(self, y: Sequence, scale: int) -> Vec:
        """``solve_linear(B, y)`` divided by scale, for y in the column
        space."""
        den = self.den * scale
        return tuple(Fraction(dot(s, y), den) for s in self.back)


@dataclass(frozen=True)
class Cone:
    dim: int
    kind: str
    generators: Optional[tuple[Vec, ...]] = None
    duals: Optional[tuple[Vec, ...]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone dimension must be >= 1")
        for rep in (self.generators, self.duals):
            if rep is not None:
                for v in rep:
                    if len(v) != self.dim:
                        raise DimensionMismatchError(
                            "cone representation vector has wrong dimension"
                        )
        if self.generators is None and self.duals is None:
            raise RepresentationError("cone needs at least one representation")
        if self.generators is not None and self.duals is not None:
            self._check_consistency()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def componentwise(d: int) -> "Cone":
        return Cone(dim=d, kind=COMPONENTWISE, duals=_basis(d))

    @staticmethod
    def halfspace(w: Iterable) -> "Cone":
        wv = vec(w)
        if all(x == 0 for x in wv):
            raise ValueError("halfspace normal must be nonzero")
        return Cone(dim=len(wv), kind=HALFSPACE, duals=(wv,))

    @staticmethod
    def from_duals(rows: Iterable[Iterable]) -> "Cone":
        duals = tuple(vec(r) for r in rows)
        if not duals:
            raise ValueError("dual representation needs at least one vector")
        return Cone(dim=len(duals[0]), kind=DUAL, duals=duals)

    @staticmethod
    def from_generators(
        gens: Iterable[Iterable], duals: Optional[Iterable[Iterable]] = None
    ) -> "Cone":
        g = tuple(vec(r) for r in gens)
        d = len(g[0]) if g else None
        if d is None:
            raise ValueError("generator representation needs the dimension")
        dd = tuple(vec(r) for r in duals) if duals is not None else None
        return Cone(dim=d, kind=GENERATORS, generators=g, duals=dd)

    # -- consistency of a doubly-represented cone ---------------------------

    def _check_consistency(self):
        # Partial check: every generator must satisfy every dual inequality,
        # and every dual inequality must be tight on at least one generator.
        images = self.int_images(self.generators)[0]
        for g, image in zip(self.generators, images):
            for b, x in zip(self.duals, image):
                if x < 0:
                    raise ValueError(
                        "inconsistent cone representations: generator "
                        f"{g} violates dual inequality {b}"
                    )
        for i, b in enumerate(self.duals):
            if images and not any(image[i] == 0 for image in images):
                raise ValueError(
                    f"dual inequality {b} is tight on no generator; "
                    "representations describe different cones"
                )

    # -- membership and order -----------------------------------------------

    def _check_dim(self, x: Vec):
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"expected dimension {self.dim}, got {len(x)}"
            )

    def contains(self, x: Iterable) -> bool:
        """Exact membership x in C."""
        xv = vec(x)
        self._check_dim(xv)
        if self.duals is not None:
            return all(dot(b, xv) >= 0 for b in self.duals)
        # generator representation: x = G lambda with lambda >= 0
        gens = self.generators
        if not gens:
            return all(c == 0 for c in xv)
        # columns are generators; solve G lambda = x, lambda >= 0
        a = [[g[i] for g in gens] for i in range(self.dim)]
        res = lp_standard(a, list(xv), [ZERO] * len(gens))
        return res.status == "optimal"

    def leq(self, x: Iterable, y: Iterable) -> bool:
        """x precedes y in the cone order, i.e. y - x in C."""
        xv, yv = vec(x), vec(y)
        self._check_dim(xv)
        self._check_dim(yv)
        return self.contains(vsub(yv, xv))

    @cached_property
    def dual_rank(self) -> Optional[int]:
        """Rank of the dual rows, or None without a dual representation:
        the number of rows less the dimension of their left null space, from
        the one elimination of the image map on all the rows."""
        if self.duals is None:
            return None
        return len(self.duals) - len(self._all_row_images.null)

    @cached_property
    def _all_row_images(self) -> "DualImages":
        return DualImages.over([row for row, _ in self.int_duals], self.dim)

    @cached_property
    def int_duals(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Each dual row b as ``(f * b, f)``: the primitive integer row of
        its direction (its entries have gcd 1) and the positive factor f
        that makes it; f is 1 for a zero row."""
        out = []
        for b in self.duals:
            ints, scale = _int_row(b)
            g = gcd(*ints) or 1
            out.append((tuple(x // g for x in ints), Fraction(scale, g)))
        return tuple(out)

    def int_images(self, points: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
        """The dual images of exact points on the integer dual rows, with the
        points over one common scale s (``scaled_points``), and s.  Image
        coordinate i is ``s * f_i * <b_i, x>`` (``int_duals``)."""
        ints, scale = scaled_points(points)
        rows = [row for row, _ in self.int_duals]
        return [tuple(dot(b, x) for b in rows) for x in ints], scale

    @cached_property
    def irredundant_index(self) -> tuple[int, ...]:
        """The indices of the dual rows kept when each row that is a
        nonnegative combination of the rows kept is dropped, row by row.
        Dropping such a row changes neither the cone nor the row space.

        A facet row (``_facet_index``) is a nonnegative combination of
        other rows only through a positive parallel copy, so it is dropped,
        without an LP, exactly when an equal primitive row (``int_duals``)
        follows it.  Every other row takes one membership LP against the
        rows kept so far."""
        facets = self._facet_index()
        ints = [row for row, _ in self.int_duals]
        kept = list(range(len(self.duals)))
        for i, row in enumerate(self.duals):
            if i in facets:
                redundant = ints[i] in ints[i + 1:]
            else:
                rest = tuple(self.duals[j] for j in kept if j != i)
                redundant = Cone(self.dim, GENERATORS, generators=rest).contains(row)
            if redundant:
                kept.remove(i)
        return tuple(kept)

    def _facet_index(self) -> frozenset[int]:
        """The nonzero dual rows b whose tight generators have rank d - 1,
        so that they span the hyperplane of b: one rank per row, no LP.
        Every row is nonnegative on every generator
        (``_check_consistency``), so a nonnegative combination of rows equal
        to b vanishes on b's tight generators term by term.  Each term is
        then a multiple of b, and for the sum to be b one of them is a
        positive multiple."""
        gens = self.generators
        if gens is None:
            return frozenset()
        images = self.int_images(gens)[0]
        facets = []
        for i, (row, _) in enumerate(self.int_duals):
            tight = [g for g, image in zip(gens, images) if image[i] == 0]
            d = self.dim
            if any(row) and len(tight) >= d - 1 and mat_rank(tight) == d - 1:
                facets.append(i)
        return frozenset(facets)

    @cached_property
    def order_index(self) -> tuple[int, ...]:
        """The dual rows that decide the order: all of them when they are
        linearly independent (then none is a nonnegative combination of the
        others), else those at ``irredundant_index``, unless every row is
        zero and dropped: the zero rows relate every pair."""
        every = tuple(range(len(self.duals)))
        if self.dual_rank == len(self.duals):
            return every
        return self.irredundant_index or every

    @cached_property
    def dual_images(self) -> "DualImages":
        """The dual image map on the integer rows at ``order_index``."""
        if len(self.order_index) == len(self.duals):
            return self._all_row_images
        return DualImages.over(
            [self.int_duals[i][0] for i in self.order_index], self.dim
        )

    def is_pointed(self) -> bool:
        """True iff C cap (-C) = {0}."""
        return self._pointed

    @cached_property
    def _pointed(self) -> bool:
        if self.duals is not None:
            return self.dual_rank == self.dim
        # finitely generated cone: not pointed iff -g in C for a nonzero g
        for g in self.generators:
            if any(c != 0 for c in g) and self.contains(vneg(g)):
                return False
        return True

    # -- set order relations -------------------------------------------------

    def uncovered(
        self,
        points: Iterable[Iterable],
        others: Iterable[Iterable],
        below: bool = False,
    ) -> Iterator[Vec]:
        """Each point of ``points``, in order, that lies outside
        ``others + C`` (outside ``others - C`` when ``below``), i.e. above
        (below) no point of ``others``.  Every point is coerced (``exact``)
        and checked for the cone's dimension before the first one is
        yielded."""
        pts = [exact(x) for x in points]
        oth = [exact(y) for y in others]
        for x in pts + oth:
            self._check_dim(x)
        return self._uncovered(pts, oth, below, strict=False)

    def _uncovered(
        self, pts: list[Vec], oth: list[Vec], below: bool, strict: bool
    ) -> Iterator[Vec]:
        """``uncovered`` on points already coerced and checked.  With
        ``strict`` (meant for pointed cones, where equal images are equal
        points) a point is not covered by an equal one.  The points of both
        sets are imaged over one scale (the component-wise cone compares the
        points themselves), and the points themselves are yielded."""
        if self.duals is None:
            for x in pts:
                if not any(
                    not (strict and y == x)
                    and (self.leq(x, y) if below else self.leq(y, x))
                    for y in oth
                ):
                    yield x
            return
        if self.kind == COMPONENTWISE:
            pts_images, oth_images = pts, oth
        elif oth is pts:  # minimal_elements: image the one list once
            pts_images = oth_images = self.int_images(pts)[0]
        else:
            both = self.int_images(pts + oth)[0]
            pts_images, oth_images = both[:len(pts)], both[len(pts):]
        images = dict.fromkeys(oth_images)
        covers = le if below else ge  # image of x against image of y
        for x, ix in zip(pts, pts_images):
            if strict:
                rivals = [iy for iy in images if iy != ix]
            elif ix in images:
                continue
            else:
                rivals = images
            if not any(all(map(covers, ix, iy)) for iy in rivals):
                yield x

    def set_precurly(self, a: Iterable[Iterable], b: Iterable[Iterable]) -> bool:
        """A precurly B, i.e. B subset of A + C: every point of B is above
        some point of A, decided on dual images where the cone has them."""
        return next(self.uncovered(b, a), None) is None

    def set_curlyprec(self, a: Iterable[Iterable], b: Iterable[Iterable]) -> bool:
        """A curlyprec B, i.e. A subset of B - C: every point of A is below
        some point of B, decided on dual images where the cone has them."""
        return next(self.uncovered(a, b, below=True), None) is None


def minimal_elements(points: Iterable[Iterable], cone: Cone) -> list[Vec]:
    """Elements not strictly dominated by another element of the set.

    Requires a pointed cone so that strict dominance (leq and not equal)
    is unambiguous; its dual image map is one-to-one, so distinct points
    have distinct images.
    """
    if not cone.is_pointed():
        raise UnsupportedConeError("minimal elements need a pointed cone")
    pts = list(dict.fromkeys(exact(x) for x in points))
    for x in pts:
        cone._check_dim(x)
    return list(cone._uncovered(pts, pts, below=False, strict=True))
