"""Exact lattice point enumeration and the searches built on it.

enum_ball lists every lattice point inside a translated Euclidean ball by a
depth-first walk over Gram-Schmidt interval bounds of an LLL-reduced basis.
Each level bounds one coefficient by an exact rational quadratic predicate;
the integer range is located with an integer square root and then sharpened
by the predicate itself, so the listing is provably complete.  Points come
back sorted lexicographically, which fixes every downstream tie-break.

A PreparedLattice holds what a query needs from its lattice: the reduced
rows and their exact Gram-Schmidt data.  Preparing costs one reduction and
one Gram-Schmidt pass; after that each query maps its center into the
Gram-Schmidt frame with O(m^2) integer work, so callers that ask many
questions of one lattice prepare it once and pass it to every call.

svp_inf and cvp_inf answer sup-norm questions through Euclidean balls: a
sup ball of radius d sits inside the Euclidean ball of radius d*sqrt(m), so
enumerating the latter and filtering exactly is complete.  Both support a
cap: a single ball decides "is there a vector within cap" and certifies the
answer, which is what the solvers need, while the uncapped forms grow the
radius geometrically from an exact lower bound until the answer appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

from .core import (
    BudgetExceeded,
    Box,
    Ellipsoid,
    dot,
    floor_sqrt_frac,
    is_positive_definite,
    l2_sq,
    linf,
)
from .lattice import GaugeBody, LatticeBasis, gauge_norm, gauge_sq
from .reduction import GSO, gram_schmidt, lll_reduce

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "PreparedLattice",
    "prepare",
    "BallQuery",
    "EnumerationResult",
    "enum_ball",
    "SvpResult",
    "svp_inf",
    "CvpResult",
    "cvp_inf",
    "GaugeResult",
    "svp_gauge",
]

DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class PreparedLattice:
    """A reduced basis with its exact Gram-Schmidt data, set up once and
    queried many times.

    It has the rows, dim and rank of a LatticeBasis, so code written
    against a basis reads it unchanged.  gram_det and lam hold the same
    Gram-Schmidt data in integral form: gram_det[i] is the Gram determinant
    of the first i rows and lam[i][j] = mu[i][j] * gram_det[j + 1].
    """

    rows: Tuple[Tuple[int, ...], ...]
    dim: int
    gso: GSO
    gram_det: Tuple[int, ...]
    lam: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def gs_coords(self, point) -> Tuple[Fraction, ...]:
        """<point, b*_i> / |b*_i|^2 for every row i: the coordinates of the
        point's projection onto the row span in the Gram-Schmidt frame.

        The Gram matrix factors as G = mu * diag(|b*|^2) * mu^T, so these
        are the forward substitution of the Gram system G t = B point,
        done here in integers on the lam / gram_det form: O(rank^2) per
        point, with no elimination.
        """
        point = [Fraction(c) for c in point]
        den = 1
        for c in point:
            den = den * c.denominator // gcd(den, c.denominator)
        scaled = [c.numerator * (den // c.denominator) for c in point]
        dets = self.gram_det
        ys: list = []  # ys[j] = gram_det[j] * <den * point, b*_j>
        for row, lrow in zip(self.rows, self.lam):
            u = dot(row, scaled)
            for i, y in enumerate(ys):
                u = (dets[i + 1] * u - y * lrow[i]) // dets[i]
            ys.append(u)
        return tuple(Fraction(y, den * dets[j + 1]) for j, y in enumerate(ys))

    def nearest_plane(self, target) -> Tuple[int, ...]:
        """Babai rounding in the Gram-Schmidt frame; a cheap upper bound."""
        mu = self.gso.mu
        rank = self.rank
        zc = self.gs_coords(target)
        z = [0] * rank
        for i in range(rank - 1, -1, -1):
            c = zc[i]
            for j in range(i + 1, rank):
                c -= mu[j][i] * z[j]
            half = c + Fraction(1, 2)
            z[i] = half.numerator // half.denominator
        point = [0] * self.dim
        for zi, row in zip(z, self.rows):
            if zi:
                for j in range(self.dim):
                    point[j] += zi * row[j]
        return tuple(point)


Lattice = Union[LatticeBasis, PreparedLattice]


def prepare(basis: Lattice, assume_reduced: bool = False) -> PreparedLattice:
    """Reduce the basis (unless told it already is) and compute its
    Gram-Schmidt data once; a lattice that is already prepared is
    returned as it is."""
    if isinstance(basis, PreparedLattice):
        return basis
    red = basis if (assume_reduced or basis.rank < 2) else lll_reduce(basis)
    gso = gram_schmidt(red)
    # the running products of |b*|^2 are Gram determinants, so integers
    dets = [1]
    for b2 in gso.b_star_sq:
        dets.append((dets[-1] * b2).numerator)
    lam = tuple(
        tuple((m * dets[j + 1]).numerator for j, m in enumerate(row))
        for row in gso.mu
    )
    return PreparedLattice(red.rows, red.dim, gso, tuple(dets), lam)


@dataclass(frozen=True)
class BallQuery:
    """A lattice, a rational center, and a squared radius."""

    basis: Lattice
    center: Tuple[Fraction, ...]
    radius_sq: Fraction

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(Fraction(c) for c in self.center)
        )
        object.__setattr__(self, "radius_sq", Fraction(self.radius_sq))
        if len(self.center) != self.basis.dim:
            raise ValueError("center dimension does not match the basis")
        if self.radius_sq < 0:
            raise ValueError("radius_sq must be nonnegative")


@dataclass(frozen=True)
class EnumerationResult:
    points: Tuple[Tuple[int, ...], ...]
    count: int


def enum_ball(
    query: BallQuery,
    budget: int = DEFAULT_POINT_BUDGET,
) -> EnumerationResult:
    """All lattice points v with |v - center|_2^2 <= radius_sq.

    The basis may have rank below the ambient dimension; the center's
    component orthogonal to the span is then a fixed cost subtracted from
    the radius.  A PreparedLattice is used as it is; a plain basis is
    prepared for this one query.  Raises BudgetExceeded rather than
    returning a truncated listing.
    """
    basis = query.basis
    rank = basis.rank
    center = query.center
    if rank == 0:
        inside = l2_sq(center) <= query.radius_sq
        pts = (tuple([0] * basis.dim),) if inside else ()
        return EnumerationResult(pts, len(pts))
    lat = prepare(basis)
    rows = lat.rows
    m = lat.dim
    mu, bsq = lat.gso.mu, lat.gso.b_star_sq
    zc = lat.gs_coords(center)
    rem0 = query.radius_sq
    if rank < m:
        # the center's distance to the span: |center|^2 - |projection|^2
        rem0 -= l2_sq(center) - sum(z * z * b2 for z, b2 in zip(zc, bsq))
        if rem0 < 0:
            return EnumerationResult((), 0)

    out: list = []
    cacc = [Fraction(0)] * rank  # cacc[i] = sum_{j > level} mu[j][i] * z_j
    acc = [0] * m  # running integer point

    def descend(level: int, rem: Fraction) -> None:
        b2 = bsq[level]
        e = zc[level] - cacc[level]
        span = floor_sqrt_frac(rem / b2)
        z = (e.numerator // e.denominator) - span - 1
        while True:
            diff = z - e
            contrib = b2 * diff * diff
            if contrib <= rem:
                if level == 0:
                    if len(out) >= budget:
                        raise BudgetExceeded(
                            f"ball holds more than {budget} points",
                            partial=len(out),
                        )
                    row = rows[0]
                    out.append(tuple(a + z * b for a, b in zip(acc, row)))
                else:
                    mrow = mu[level]
                    for i in range(level):
                        cacc[i] += mrow[i] * z
                    row = rows[level]
                    for i in range(m):
                        acc[i] += z * row[i]
                    descend(level - 1, rem - contrib)
                    for i in range(m):
                        acc[i] -= z * row[i]
                    for i in range(level):
                        cacc[i] -= mrow[i] * z
            elif diff > 0:
                break
            z += 1

    descend(rank - 1, rem0)
    out.sort()
    return EnumerationResult(tuple(out), len(out))


# ---------------------------------------------------------------------------
# sup-norm shortest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvpResult:
    """found is False only for capped searches, certifying value > cap."""

    found: bool
    value: Optional[int]
    witness: Optional[Tuple[int, ...]]
    ball_count: int
    start_radius_sq: Optional[Fraction] = None


def _min_sup_nonzero(points, bound_sq: Fraction):
    """Smallest sup norm among nonzero points not exceeding the bound, with
    the lexicographically least witness; None when no point qualifies."""
    best = None
    for p in points:
        if not any(p):
            continue
        s = linf(p)
        if Fraction(s * s) > bound_sq:
            continue
        key = (s, p)
        if best is None or key < best:
            best = key
    return best


def svp_inf(
    basis: Lattice,
    eps: Optional[Fraction] = None,
    cap: Optional[int] = None,
    budget: int = DEFAULT_POINT_BUDGET,
) -> SvpResult:
    """Exact sup-norm shortest vector.

    With cap set, one ball of squared radius cap^2 * m decides whether the
    minimum is <= cap; found=False certifies it is larger.  Without a cap
    the search starts at the exact Euclidean minimum over sqrt(m), which
    never exceeds the sup-norm minimum, and grows the radius by (1 + eps)
    until the filter is nonempty; the first nonempty filter contains every
    vector of sup norm <= the current bound, so its minimum is exact.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    lat = prepare(basis)
    m = lat.dim
    zero = (Fraction(0),) * m

    if cap is not None:
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        cap_sq = Fraction(cap * cap)
        res = enum_ball(BallQuery(lat, zero, cap_sq * m), budget)
        best = _min_sup_nonzero(res.points, cap_sq)
        if best is None:
            return SvpResult(False, None, None, res.count)
        return SvpResult(True, best[0], best[1], res.count)

    if eps is None:
        eps = Fraction(1, m)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    b1_sq = Fraction(l2_sq(lat.rows[0]))
    ball = enum_ball(BallQuery(lat, zero, b1_sq), budget)
    lam2_sq = min(l2_sq(p) for p in ball.points if any(p))
    d_sq = Fraction(lam2_sq, m)
    start_sq = d_sq
    growth = (1 + eps) ** 2
    while True:
        res = enum_ball(BallQuery(lat, zero, d_sq * m), budget)
        best = _min_sup_nonzero(res.points, d_sq)
        if best is not None:
            value, witness = best
            # start radius never exceeds the sup minimum
            assert start_sq <= Fraction(value * value)
            return SvpResult(True, value, witness, res.count, start_sq)
        d_sq *= growth


# ---------------------------------------------------------------------------
# sup-norm closest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvpResult:
    """found is False only for capped searches, certifying dist > cap."""

    found: bool
    dist: Optional[Fraction]
    witness: Optional[Tuple[int, ...]]
    ball_count: int


def _sup_dist(point, center) -> Fraction:
    return max((abs(a - b) for a, b in zip(point, center)), default=Fraction(0))


def _min_sup_to(points, center, bound_sq: Fraction):
    best = None
    for p in points:
        s = _sup_dist(p, center)
        if s * s > bound_sq:
            continue
        key = (s, p)
        if best is None or key < best:
            best = key
    return best


def cvp_inf(
    basis: Lattice,
    target,
    cap: Optional[Fraction] = None,
    budget: int = DEFAULT_POINT_BUDGET,
) -> CvpResult:
    """Exact sup-norm closest vector to a rational target.

    With cap set, one ball decides whether some lattice vector lies within
    sup distance cap, returning the exact minimum and lexicographically
    least witness if so; found=False certifies the distance exceeds cap.
    Without a cap the radius grows from a Babai-derived start until a
    vector passes the sup filter; any nonempty filter contains the true
    closest vector, so the result is exact.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    lat = prepare(basis)
    m = lat.dim
    tgt = tuple(Fraction(c) for c in target)
    if len(tgt) != m:
        raise ValueError("target dimension does not match the basis")

    if cap is not None:
        cap = Fraction(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        res = enum_ball(BallQuery(lat, tgt, cap * cap * m), budget)
        best = _min_sup_to(res.points, tgt, cap * cap)
        if best is None:
            return CvpResult(False, None, None, res.count)
        return CvpResult(True, best[0], best[1], res.count)

    v0 = lat.nearest_plane(tgt)
    d0 = _sup_dist(v0, tgt)
    if d0 == 0:
        return CvpResult(True, Fraction(0), v0, 0)
    d_sq = d0 * d0 / m
    growth = (1 + Fraction(1, m)) ** 2
    while True:
        res = enum_ball(BallQuery(lat, tgt, d_sq * m), budget)
        best = _min_sup_to(res.points, tgt, d_sq)
        if best is not None:
            return CvpResult(True, best[0], best[1], res.count)
        d_sq *= growth


# ---------------------------------------------------------------------------
# shortest vector under a convex body gauge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeResult:
    value: Fraction  # gauge for a box, squared gauge for an ellipsoid
    witness: Tuple[int, ...]
    ball_count: int


def _pd_lower_bound(ell: Ellipsoid) -> Fraction:
    """A positive rational strictly below the least eigenvalue of A,
    found by halving until A - mu*I is positive definite."""
    n = ell.dim
    mu = min(ell.a[i][i] for i in range(n))
    while True:
        shifted = [
            [ell.a[i][j] - (mu if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        if is_positive_definite(shifted):
            return mu
        mu /= 2


def svp_gauge(
    basis: Lattice,
    body: GaugeBody,
    budget: int = DEFAULT_POINT_BUDGET,
) -> GaugeResult:
    """Nonzero lattice vector minimizing the body's gauge, exactly.

    A shortest Euclidean vector gives an upper bound g on the squared
    gauge; every vector of squared gauge <= g lies in a Euclidean ball
    whose radius comes from d*sqrt(m) (box) or the least eigenvalue of the
    form (ellipsoid), so one enumeration is complete.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    lat = prepare(basis)
    m = lat.dim
    zero = (Fraction(0),) * m
    b1_sq = Fraction(l2_sq(lat.rows[0]))
    ball = enum_ball(BallQuery(lat, zero, b1_sq), budget)
    u = min(
        (p for p in ball.points if any(p)),
        key=lambda p: (l2_sq(p), p),
    )
    g0 = gauge_sq(body, u)
    assert g0 > 0
    if isinstance(body, Box):
        radius_sq = Fraction(m * body.d * body.d) * g0
    else:
        radius_sq = g0 / _pd_lower_bound(body)
    res = enum_ball(BallQuery(lat, zero, radius_sq), budget)
    best = min(
        (p for p in res.points if any(p)),
        key=lambda p: (gauge_sq(body, p), p),
    )
    return GaugeResult(gauge_norm(body, best), best, res.count)
