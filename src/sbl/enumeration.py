"""Exact lattice point enumeration and the searches built on it.

One depth-first walk (_walk) over the Gram-Schmidt interval bounds of an
LLL-reduced basis lists the lattice points of a ball and hands each to a
visitor.  It runs on the integral lambda/D form of the Gram-Schmidt data
and on the center scaled by a common denominator, so each level center is
an integer and the radius left over is an integer on one scale fixed per
walk.  A coefficient is admissible iff an integer square is at most an
integer bound, so one integer square root gives each level's range
exactly: the listing is provably complete and no point needs a second
test.

A PreparedLattice holds what a query needs from its lattice: the reduced
rows and their Gram-Schmidt data in integral form.  Preparing costs one
reduction, whose own lambda/D data at exit is the output's (see
reduction._reduce), so no second Gram-Schmidt pass.  The integral
vectors gram_det[i] b*_i are built from that data on first use, and each
query maps its center into the Gram-Schmidt frame by one integer dot
product with each of them, O(m^2) work, so callers that ask many
questions of one lattice prepare it once and pass it to every call.  The
frame is linear over integer vectors, so a caller whose centers differ by
fixed integer steps updates one frame in O(m) per step instead.  The
walk's weights and the sup walk's Hölder vectors depend on the lattice
alone, so the lattice builds them on first use; each walk scales by its
center's denominator itself, O(m) per walk.

svp_inf and cvp_inf answer sup-norm questions by one sup walk each: the
walk of the sup ball |v - c|_inf <= lim / den, which lies in the Euclidean
ball of radius sqrt(m) lim / den.  The walk prunes that Euclidean ball by
Hölder's inequality (Schnorr and Euchner 1994; Ritter, max-norm
enumeration, 1996) and cuts level 0, a line, to the exact integer range of
the sup ball, so every point it visits lies in the sup ball.  The search
visitor keeps the least (sup distance, point) and lowers lim to that
distance; ties still come in, so the lexicographically least witness
survives, the answer is exact and the walk's order does not matter.  The
first limit is free: the least sup norm of a reduced row, or the distance
of Babai's vector, or the cap when it is lower, and found=False certifies
that the answer exceeds the cap.

cvp_inf checks its rational target and maps it to integers once
(_Target.of): the common denominator, the scaled point and its frame.  It
rounds that frame with Babai and walks, compares distances with the cap
in integers, and builds a Fraction only for a distance it returns.  A
caller that steps through related centers of one full-rank lattice, as
the sign sweep of solve.solve_gss_punctured does, updates one frame and
walks its own _Target: on such a lattice no center pays a distance to the
span, so one top-level range test (_top_test) serves every center on one
denominator, and the sweep walks only the centers it passes.

svp_gauge walks an ellipsoid c A c^T <= 1 exactly, on the Gram-Schmidt
data of rows reduced under its integral form F = L A (see svp_gauge).
Its walk is the only Euclidean ball _walk lists, at an integer squared
radius.

The searches around the origin, svp_inf and svp_gauge's ellipsoid walk,
walk half their ball (Fincke and Pohst 1985; Schnorr and Euchner 1994).
The lattice is centrally symmetric, so _walk's half switch visits 0 once
and one point of each pair +-v: while every level above has chosen 0, a
level's range ends at 0, and below a level that chose a negative z every
level walks its full range.  Each visitor folds a point p to min(p, -p)
in lexicographic order before it compares (value, point); -p has the norm
of p, so the least (norm, point) over the half is the one over the whole
ball, and every value, witness and tie-break stays the same.  The half
kept is the one the full walk visits first, so a half walk is the full
walk less the mirror images: leaving a node on the origin's path it holds
the full walk's best point and limit, and it never visits more points.
The searches around other centers (cvp_inf and everything built on it)
walk their whole ball.

A search's budget is None or an int limit, for a fresh core.Budget, or a
Budget, which every walk of the searches it is passed to charges with the
points that walk visits: a search around the origin charges one point
per +-pair and one for 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import isqrt, lcm
from operator import add, mul, neg, sub
from typing import Optional, Tuple, Union

from .core import (DEFAULT_POINT_BUDGET, Budget, BudgetExceeded, Box,
                   InternalError, _as_budget, l2_sq, linf)
from .lattice import GaugeBody, LatticeBasis, _sparse
from .reduction import _reduce

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "PreparedLattice",
    "prepare",
    "SvpResult",
    "svp_inf",
    "CvpResult",
    "cvp_inf",
    "GaugeResult",
    "svp_gauge",
]

def _rational(c) -> Union[int, Fraction]:
    """c as an exact number: ints and Fractions are kept as they are."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _scaled(point) -> Tuple[int, Tuple[int, ...]]:
    """(den, den * point): the common denominator of the entries and the
    point scaled by it to integers."""
    point = [_rational(c) for c in point]
    den = lcm(*(c.denominator for c in point))
    return den, tuple(c.numerator * (den // c.denominator) for c in point)


@dataclass(frozen=True)
class PreparedLattice:
    """A reduced basis with its exact Gram-Schmidt data, set up once and
    queried many times.

    It has the rows, dim and rank of a LatticeBasis, so code written
    against a basis reads it unchanged.  The Gram-Schmidt data is integral:
    gram_det[i] is the Gram determinant of the first i rows, so
    |b*_i|^2 = gram_det[i + 1] / gram_det[i], and
    lam[i][j] = mu[i][j] * gram_det[j + 1].
    """

    rows: Tuple[Tuple[int, ...], ...]
    dim: int
    gram_det: Tuple[int, ...]
    lam: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _frame(self, scaled) -> list:
        """y[j] = gram_det[j] * <scaled, b*_j> = <B_j, scaled> for an
        integer vector, one dot product with each of the integral vectors
        B_j (_stars), O(rank m).  The frame is linear: the frame of u + k v
        is frame(u) + k frame(v) for integer vectors u, v."""
        return [sum(map(mul, b, scaled)) for b in self._stars]

    def _round(self, den: int, frame: list) -> Tuple[int, ...]:
        """Babai rounding of the center whose frame (see _frame) on the
        common denominator den is given; the frame is left unchanged.

        Level i rounds its center e_i = E_i / t_i with t_i = den *
        gram_det[i + 1], where E_i is kept as an integer (see _walk).
        """
        dets, lam = self.gram_det, self.lam
        es = list(frame)
        point = [0] * self.dim
        for i in range(self.rank - 1, -1, -1):
            t = den * dets[i + 1]
            z = (2 * es[i] + t) // (2 * t)
            if z:
                dz = den * z
                lrow = lam[i]
                for k in range(i):
                    es[k] -= lrow[k] * dz
                for j, b in enumerate(self.rows[i]):
                    point[j] += z * b
        return tuple(point)

    @cached_property
    def _stars(self) -> Tuple[Tuple[int, ...], ...]:
        """B_i = gram_det[i] * b*_i for every row, integral (Cohen, section
        2.6), built on first use: starting from b_i, B_i <- (D_{j+1} B_i -
        lam_ij B_j) / D_j for j = 0, ..., i - 1, every division exact.
        They are the frame's vectors (_frame(v)[i] = <B_i, v>, so the frame
        of the unit vector e_l is column l of B) and, weighted, the sup
        walk's Hölder vectors (_holder)."""
        dets = self.gram_det
        out: list = []
        for row, lrow in zip(self.rows, self.lam):
            v = row
            for i, b in enumerate(out):
                d0, d1, l = dets[i], dets[i + 1], lrow[i]
                v = [(d1 * a - l * c) // d0 for a, c in zip(v, b)]
            out.append(tuple(v))
        return tuple(out)

    @cached_property
    def _weights(self) -> Tuple[int, list]:
        """(L, w): the walk's scale L = lcm_i D[i] D[i+1] and its weights
        w_i = L / (D[i] D[i+1]), D = gram_det (see _walk)."""
        dets = self.gram_det
        pair = [dets[i] * dets[i + 1] for i in range(self.rank)]
        scale = lcm(*pair)
        return scale, [scale // p for p in pair]

    @cached_property
    def _holder(self) -> Tuple[list, int]:
        """(wbs, top_l1): the sup walk's Hölder vectors wbs[i] = w_i B_i
        (see _walk) and top_l1 = |wbs[-1]|_1."""
        wbs = [[w * c for c in b] for w, b in zip(self._weights[1],
                                                  self._stars)]
        return wbs, sum(map(abs, wbs[-1]))


Lattice = Union[LatticeBasis, PreparedLattice]


class _Target:
    """A query center on a prepared lattice, in integers: the common
    denominator den, the point scaled by it, and its frame (see
    PreparedLattice._frame), which is never changed."""

    __slots__ = ("lat", "den", "scaled", "frame")

    def __init__(self, lat: PreparedLattice, den: int, scaled, frame):
        self.lat = lat
        self.den = den
        self.scaled = scaled
        self.frame = frame

    @classmethod
    def of(cls, lat: PreparedLattice, point) -> "_Target":
        """The checked center of a query around the rational point.
        Raises ValueError on an empty lattice or a point of another
        dimension."""
        if lat.rank == 0:
            raise ValueError("empty lattice")
        den, scaled = _scaled(point)
        if len(scaled) != lat.dim:
            raise ValueError("target dimension does not match the basis")
        return cls(lat, den, scaled, lat._frame(scaled))

    def babai(self) -> Tuple[Tuple[int, ...], int]:
        """Babai's vector for this center and its sup distance times
        den."""
        den = self.den
        v0 = self.lat._round(den, self.frame)
        return v0, max(abs(a * den - c) for a, c in zip(v0, self.scaled))


def prepare(basis: Lattice) -> PreparedLattice:
    """Reduce the basis and keep the reducer's integral Gram-Schmidt data
    of its output rows (reduction._reduce).  A basis that is already
    reduced keeps its rows; a lattice that is already prepared is returned
    as it is.  Raises ValueError on dependent rows."""
    if isinstance(basis, PreparedLattice):
        return basis
    rows, gso = _reduce(_sparse(basis.rows), basis.dim)
    return PreparedLattice(rows, basis.dim, *gso)


def _perp(t: _Target) -> int:
    """den^2 L times the squared distance from the center t to the row
    span, on the walk's scale (see _walk): L |scaled|^2 less the
    projection's part, sum_i w_i y_i^2 over the frame y.  The center pays
    it before the top level; 0 on a full-rank lattice."""
    scale, ws = t.lat._weights
    return scale * l2_sq(t.scaled) - sum(w * y * y
                                         for w, y in zip(ws, t.frame))


def _top_test(lat: PreparedLattice, den: int, lim: int):
    """empty(frame): the sup walk's range test at its top level (see
    _walk) for the limit lim around a center on the denominator den with
    that frame, on a full-rank lattice; true exactly when that level
    admits no coefficient, so the walk would visit nothing.  No center of
    a full-rank lattice pays a distance to the row span (_perp), so one
    test set up here serves every center on den: a sweep of capped
    questions sets it up once and walks only the centers it passes (see
    solve._first_pattern)."""
    scale, ws = lat._weights
    s = isqrt(lat.dim * lim * lim * scale // ws[-1])
    t = den * lat.gram_det[-1]

    def empty(frame) -> bool:
        e = frame[-1]
        return -((s - e) // t) > (e + s) // t

    return empty


def _walk(t: _Target, visit, budget: Budget, lim: Optional[int] = None,
          r_sq: Optional[int] = None, half: bool = False) -> None:
    """Hand every lattice point of a ball around the center t to visit(p),
    in walk order, and charge them to the budget.

    With lim set this is the sup walk: the ball is |den v - scaled|_inf <=
    lim, the lattice points within sup distance lim / den of the center,
    and visit returns the limit for the rest of the walk, lim or less.
    The visitor of a search lowers it to the best distance found (see
    _sup_search); one that keeps every point returns lim.  With the
    integer r_sq instead, the ball is |v - center|_2^2 <= r_sq (svp_gauge's
    walk), the walk is not pruned and what visit returns is ignored.  It
    raises BudgetExceeded, with the whole limit as its partial count,
    before the points charged to the budget by it and earlier walks pass
    the limit; it writes its count back once, on a raise too.  A visitor
    may end the walk early by raising: the exception passes through and
    the count, which holds every point of the level-0 range being handed
    out, is still written back.

    With half set the center must be 0, and the walk visits 0 and one
    point of each pair +-v of the ball: those whose last nonzero
    coefficient on the rows is negative.  A node on the origin's path
    (every level above chose 0, so acc is 0) cuts its 0 child's range to
    end at 0; the top level's range ends there too.  The visitor must
    answer for v and -v alike (see the module docstring).

    The walk is depth first over the levels from the last row down.  With
    den the center's common denominator, D = gram_det, L = lcm_i D[i]
    D[i+1] and w_i = L / (D[i] D[i+1]), level i keeps its center e_i =
    zc_i - sum_{j>i} mu_ji z_j as the integer E_i = t_i e_i, t_i = den
    D[i+1] (built per walk; L and w are PreparedLattice._weights).
    Coefficient z costs |b*_i|^2 (z - e_i)^2 = (z t_i - E_i)^2 /
    (den^2 D[i] D[i+1]), so on the scale den^2 L it costs w_i (z t_i -
    E_i)^2, an integer.  A node keeps its cost C, the sum over the levels
    chosen; with rem0 the ball's integer squared radius less _perp, z is
    admissible iff |z t_i - E_i| <= isqrt((rem0 - C) // w_i), one exact
    integer range per level.  A level enters, and tests, only a child
    whose next level is not empty.

    A sup ball lies in the Euclidean ball of squared radius m lim^2 /
    den^2, so rem0 = m lim^2 L - perp, and the sup walk prunes it three
    ways, each exact in integers:
    - at a level k >= 2, by Hölder's inequality (Schnorr and Euchner 1994;
      Ritter, max-norm enumeration, 1996): with the levels from k up
      chosen, u = pi_k(v - c) is fixed and |u|_2^2 = <v - c, u> <= (lim /
      den) |u|_1 for every v of the sup ball.  With diff_i = z_i t_i -
      E_i, C = den^2 L |u|_2^2 and U = sum_{i >= k} diff_i w_i B_i is den
      L u, B_i = gram_det[i] b*_i integral (PreparedLattice._stars), so
      the test is C <= lim |U|_1.  U is the node above's U plus w_k B_k
      (PreparedLattice._holder) times diff_k, summed only when a node
      needs it, and a node with C <= lim^2 L (|u|_2 <= lim / den) passes
      without it;
    - at level 0, a line acc + z b_0, the sup ball is one integer range of
      z: for each j with b_0j != 0, |den acc_j - scaled_j + z den b_0j| <=
      lim gives one ceiling and one floor division, and a coordinate with
      b_0j = 0 is a pass/fail test on acc.  It is intersected with the
      Euclidean range only when that is not empty, so every point visited
      lies in the sup ball at the limit of its level-1 node;
    - when visit lowers lim, rem0, the Hölder bound and the level-0 range
      follow it for every node not yet entered.
    One loop (descend) runs every level from the top down to 1.  At level 1
    it hands each nonempty level-0 range to emit as it is, with no cost or
    Hölder work, and emit cuts it to the sup ball and visits its points.
    """
    lat = t.lat
    den = t.den
    rows, lam = lat.rows, lat.lam
    m, rank, top = lat.dim, len(rows), len(rows) - 1
    scale, ws = lat._weights
    ts = [den * d for d in lat.gram_det[1:]]
    perp = _perp(t) if rank < m else 0
    sup = lim is not None
    lines = flat = None
    if sup:
        free = lim * lim * scale
        rem0 = m * free - perp
        wbs, top_l1 = lat._holder
        scaled = t.scaled
    else:
        rem0 = r_sq * den * den * scale - perp
    if rem0 < 0:
        return
    e, s = t.frame[top], isqrt(rem0 // ws[top])
    lo, hi = -((s - e) // ts[top]), (e + s) // ts[top]
    if lo > hi:
        return
    if half:
        hi = 0
    count = before = budget.charged
    limit = budget.limit
    row0 = rows[0]

    def emit(acc, a: int, b: int) -> None:
        # the points acc + z row0 for z in [a, b], level 0's Euclidean
        # range, cut to the sup ball
        nonlocal count, lim, rem0, free, lines, flat
        if sup:
            if lines is None:
                # x = sign (den acc_j - scaled_j) must keep |x + z q| <=
                # lim, q = |den b_0j|; flat holds the j with b_0j = 0
                lines = [(j, b * den, den, scaled[j]) if b > 0 else
                         (j, -b * den, -den, -scaled[j])
                         for j, b in enumerate(row0) if b]
                flat = [j for j, b in enumerate(row0) if not b]
            for j in flat:
                if abs(den * acc[j] - scaled[j]) > lim:
                    return
            for j, q, sd, sc in lines:
                x = sd * acc[j] - sc
                end = -((lim + x) // q)
                if end > a:
                    a = end
                end = (lim - x) // q
                if end < b:
                    b = end
                if a > b:
                    return
        count += b - a + 1
        if count > limit:
            what = "search lists" if before else "ball holds"
            raise BudgetExceeded(
                f"{what} more than {limit} points", partial=limit
            )
        p = tuple(map(add, acc, map(mul, row0, repeat(a))))
        new = visit(p)
        for _ in range(b - a):
            p = tuple(map(add, p, row0))
            new = visit(p)
        if sup and new != lim:
            lim = new
            free = lim * lim * scale
            rem0 = m * free - perp

    def descend(level: int, cost: int, es, acc, lo: int, hi: int,
                big, diff0, wb0) -> None:
        # a level >= 1 over [lo, hi]: es[i] = E_i for i <= level given the
        # levels above, acc the integer point so far.  In a sup walk, big
        # + diff0 * wb0 is U of the node above (big None: zero; wb0 None:
        # big itself), summed when the first child is entered
        t, w, row, lrow = ts[level], ws[level], rows[level], lam[level]
        k = level - 1
        tk, wk, lk = ts[k], ws[k], lrow[k]
        e, ek0 = es[level], es[k]
        wb = wbs[level] if sup else None
        u, du, wu = None, 0, None
        origin = half and not any(acc)
        room = rem0 - cost
        for z in range(lo, hi + 1):
            diff = z * t - e
            r = room - w * diff * diff
            if r < 0:
                continue
            dz = den * z
            ek = ek0 - lk * dz
            s = isqrt(r // wk)
            a, b = -((s - ek) // tk), (ek + s) // tk
            if origin and not z:
                b = 0
            if a > b:
                continue
            if not k:
                # level 1: the level-0 range goes to emit as it is
                emit(list(map(add, acc, map(mul, row, repeat(z)))), a, b)
                room = rem0 - cost
                continue
            c = rem0 - r
            if sup:
                if wb0 is not None:
                    big = (list(map(mul, wb0, repeat(diff0))) if big is None
                           else list(map(add, big,
                                         map(mul, wb0, repeat(diff0)))))
                    wb0 = None
                if c <= free:
                    u, du, wu = big, diff, wb
                elif big is None:
                    # the top level: U = diff * wb, |U|_1 = |diff| top_l1
                    if c > lim * abs(diff) * top_l1:
                        continue
                    u, du, wu = None, diff, wb
                else:
                    u = list(map(add, big, map(mul, wb, repeat(diff))))
                    if c > lim * sum(map(abs, u)):
                        continue
                    du, wu = 0, None
            descend(k, c, list(map(sub, es, map(mul, lrow, repeat(dz)))),
                    list(map(add, acc, map(mul, row, repeat(z)))), a, b,
                    u, du, wu)
            room = rem0 - cost

    zero = [0] * m
    try:
        if top:
            descend(top, 0, t.frame, zero, lo, hi, None, 0, None)
        else:
            emit(zero, lo, hi)
    finally:
        budget.charged = count
        # descend refers to itself and to emit, a cycle that would keep
        # their frames alive until the next full garbage collection
        del emit, descend


def _sup_search(t: _Target, lim: int, budget: Budget, nonzero: bool = False):
    """The sup walk around t at the limit lim (see _walk), charged to the
    budget: (g, p) for the lattice point p nearest the center, at sup
    distance g / den, nonzero when asked, and the lexicographically least
    such p; None when no such point lies within lim / den.

    The visitor keeps the least (g, p) and lowers the walk's limit to g:
    ties at g still come in, so the least witness survives, and the
    minimum does not depend on the walk's order.  A nonzero search is
    svp_inf's, around t = 0: it walks one of each +-pair (_walk's half)
    and folds each p to min(p, -p), the point of the pair that the least
    (g, p) over the whole ball would keep."""
    den, scaled = t.den, t.scaled
    best = None

    def visit(p) -> int:
        nonlocal best, lim
        g = max(map(abs, map(sub, map(mul, p, repeat(den)), scaled)))
        if g or not nonzero:
            if nonzero:
                p = min(p, tuple(map(neg, p)))
            if best is None or (g, p) < best:
                best, lim = (g, p), g
        return lim

    _walk(t, visit, budget, lim, half=nonzero)
    return best


# ---------------------------------------------------------------------------
# sup-norm shortest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvpResult:
    """found is False only for capped searches, certifying value > cap."""

    found: bool
    value: Optional[int]
    witness: Optional[Tuple[int, ...]]


def svp_inf(
    basis: Lattice,
    cap: Optional[int] = None,
    budget=DEFAULT_POINT_BUDGET,
) -> SvpResult:
    """Exact sup-norm shortest vector.

    The least sup norm u of a reduced row bounds the minimum from above.
    One sup walk around 0 at the limit min(floor(cap), u) (see _walk)
    keeps the least nonzero norm and the lexicographically least vector
    of that norm, lowering its limit to every better norm it finds, so
    the answer is exact.  The walk is a half walk: it visits 0 and one of
    each pair +-v, and folds each v to min(v, -v) before it compares, so
    it finds the least (norm, vector) over the whole ball and charges the
    budget for one point per pair and one for 0.  The walk at u holds
    that row or its negative, so an uncapped search, or one capped at u
    or above, always finds; found=False certifies that the minimum
    exceeds the cap.  Sup norms are integers, so a rational cap (an int,
    a Fraction or a float, read exactly) is walked at its floor.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    if cap is not None:
        cap = _rational(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
    lat = prepare(basis)
    u = min(linf(row) for row in lat.rows)
    lim = u if cap is None else min(cap.numerator // cap.denominator, u)
    best = _sup_search(_Target(lat, 1, (0,) * lat.dim, [0] * lat.rank),
                       lim, _as_budget(budget), nonzero=True)
    if best is None:
        if lim == u:
            raise InternalError(
                "self-check failed: the sup walk misses a reduced row"
            )
        return SvpResult(False, None, None)
    return SvpResult(True, best[0], best[1])


# ---------------------------------------------------------------------------
# sup-norm closest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvpResult:
    """found is False only for capped searches, certifying dist > cap."""

    found: bool
    dist: Optional[Fraction]
    witness: Optional[Tuple[int, ...]]


def cvp_inf(
    basis: Lattice,
    target,
    cap: Optional[Fraction] = None,
    budget=DEFAULT_POINT_BUDGET,
) -> CvpResult:
    """Exact sup-norm closest vector to a rational target.

    The target is checked and mapped to integers once: its common
    denominator den, the scaled point and its Gram-Schmidt frame.  Babai
    rounding of that frame gives a lattice vector at sup distance g0 /
    den, an upper bound on the answer.  One sup walk around the target at
    the limit min(floor(cap * den), g0) (see _walk) keeps the least
    distance and the lexicographically least vector at that distance,
    lowering its limit to every better distance it finds, so the answer
    is exact.  The walk at g0 holds Babai's vector, so an uncapped search
    always finds, and a target on the lattice (g0 = 0) is its own answer
    and visits no point; found=False certifies that the distance exceeds
    the cap.  A scaled distance is within the cap iff it is at most
    floor(cap * den), so the cap is compared in integers, and a search
    that finds nothing builds no Fraction.
    """
    t = _Target.of(prepare(basis), target)
    den = t.den
    lim = None
    if cap is not None:
        cap = _rational(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        lim = cap.numerator * den // cap.denominator
    budget = _as_budget(budget)
    v0, g0 = t.babai()
    if g0 == 0:
        return CvpResult(True, Fraction(0), v0)
    if lim is None or g0 < lim:
        lim = g0
    best = _sup_search(t, lim, budget)
    if best is None:
        if lim == g0:
            raise InternalError(
                "self-check failed: the sup walk misses Babai's vector"
            )
        return CvpResult(False, None, None)
    return CvpResult(True, Fraction(best[0], den), best[1])


# ---------------------------------------------------------------------------
# shortest vector under a convex body gauge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeResult:
    value: Fraction  # gauge for a box, squared gauge for an ellipsoid
    witness: Tuple[int, ...]


def svp_gauge(
    basis: Lattice,
    body: GaugeBody,
    budget=DEFAULT_POINT_BUDGET,
) -> GaugeResult:
    """Nonzero lattice vector minimizing the body's gauge, exactly.

    A box [-d, d]^m has the gauge |v|_inf / d, so its answer is svp_inf's,
    value divided by d.  An ellipsoid c A c^T <= 1 has the squared gauge
    v F v^T / L, with L the common denominator of A and F = L A integral.
    Reduced under F (passed to reduction._reduce as its form), the rows'
    integral Gram-Schmidt data under u F v^T turns the Euclidean walk into
    a walk of F's balls (Fincke and Pohst 1985).  One half walk around 0 at
    g0, the least F-value of a reduced row, visits 0 and exactly one of each
    pair +-v of F-value <= g0 (see _walk), folds each v to min(v, -v) and
    keeps the least (F-value, point) among the nonzero ones: the least over
    the whole ball.  This F-reduced lattice stays here: its frame and
    Hölder vectors are Euclidean.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    if isinstance(body, Box):
        res = svp_inf(basis, budget=budget)
        return GaugeResult(Fraction(res.value, body.d), res.witness)
    if body.dim != basis.dim:
        raise ValueError("body dimension does not match the lattice")
    den = lcm(*(a.denominator for row in body.a for a in row))
    form = [[a.numerator * (den // a.denominator) for a in row]
            for row in body.a]

    def value(v) -> int:
        return sum(map(mul, v, [sum(map(mul, row, v)) for row in form]))

    rows, gso = _reduce(_sparse(basis.rows), basis.dim, form)
    lat = PreparedLattice(rows, basis.dim, *gso)
    g0 = min(map(value, lat.rows))
    best = None

    def visit(p) -> None:
        nonlocal best
        if any(p):
            g = value(p)
            p = min(p, tuple(map(neg, p)))
            if best is None or (g, p) < best:
                best = (g, p)

    _walk(_Target(lat, 1, (0,) * lat.dim, [0] * lat.rank), visit,
          _as_budget(budget), r_sq=g0, half=True)
    if best is None:
        raise InternalError("self-check failed: the walk misses a reduced row")
    return GaugeResult(Fraction(best[0], den), best[1])
