"""Exact lattice point enumeration and the searches built on it.

enum_ball lists every lattice point inside a translated Euclidean ball by a
depth-first walk over Gram-Schmidt interval bounds of an LLL-reduced basis.
The walk runs on the integral lambda/D form of the Gram-Schmidt data and
on the center scaled by a common denominator, so each level center is an
integer and the radius left over is an integer on one scale fixed per
query.  A coefficient is admissible iff an integer square is at most an
integer bound, so one integer square root gives each level's range
exactly: the listing is provably complete and no point needs a second
test.  Points come back sorted lexicographically, which fixes every
downstream tie-break.

A PreparedLattice holds what a query needs from its lattice: the reduced
rows and their Gram-Schmidt data in integral form.  Preparing costs one
reduction, whose own lambda/D data at exit is the output's (see
reduction.lll_reduce), so no second Gram-Schmidt pass; after that each
query maps its center into the Gram-Schmidt frame with O(m^2) integer
work, so callers that ask many questions of one lattice prepare it once
and pass it to every call.  The frame is linear over integer vectors, so a
caller
whose centers differ by fixed integer steps updates one frame in O(m) per
step instead.  The walk's scale tables depend only on the lattice and the
center's denominator; the lattice keeps them for the last denominator
asked, so the balls of a search and a run of queries on one denominator
set them up once, and a ball only multiplies its weights by its radius
denominator.

svp_inf and cvp_inf answer sup-norm questions through Euclidean balls: a
sup ball of radius d sits inside the Euclidean ball of radius d*sqrt(m), so
enumerating the latter and filtering exactly is complete.  The walk of such
a ball is pruned by Hölder's inequality (Schnorr and Euchner 1994; Ritter,
max-norm enumeration, 1996): with the levels from k up chosen, u =
pi_k(v - c) is fixed and |u|_2^2 = <v - c, u> <= d |u|_1 for every v in
the sup ball, so a node breaking that holds none of its points.  The test
is necessary, never sufficient, so the listing still holds every point of
the sup ball and the filters see the same candidates in the same order;
only the points outside the sup ball that get listed fall.  It runs in
integers on the walk's scale (see _walk), with the vectors gram_det[i] *
b*_i, integral by the same argument as the lambda/D data, built once per
lattice on the first pruned walk.  enum_ball, a Euclidean question, is
never pruned.  The filters compare integer sup distances on the center's
common denominator.  Both searches grow the sup bound from a lower bound
up to a free upper bound (the least sup norm of a reduced row, or the
distance of Babai's vector) and stop at the first nonempty filter, which
holds every vector up to its bound, so the answer is exact and the cost
follows the answer.  With a cap at or below that upper bound a single
ball at the cap decides "is there a vector within cap" instead (growth
would end at that same ball, after listing the smaller ones too), and
found=False certifies the answer is larger.  All the balls of one search
draw on one point budget.

cvp_inf checks its rational target and maps it to integers once: the
common denominator, the scaled point and its frame.  An integer core then
runs Babai rounding, compares Babai's distance with the cap on that
denominator, walks and filters; it builds a Fraction only for a distance
it returns, so a capped search that finds nothing builds none.  A capped
search first makes the walk's top-level range test on the ball at the
cap, O(m) integer work against Babai's O(m^2), and rejects at once when
that level is empty.  This is exact: the ball holds the target if it is
on the lattice and Babai's vector if it is within the cap.  Callers
that ask several capped questions of one target, or that step through
related targets, run the core on their own prepared center.

A ball's setup for the walk (_setup: level weights on the ball's scale
and its integer radius) depends only on the lattice, the radius and the
center's denominator.  Only a center's distance to the span makes the
radius left for the top level depend on the center, so on a full-rank
lattice one setup serves every center on one denominator: a sweep of
capped questions sets the cap ball up once, makes the top-level range
test itself, and walks and filters a ball only when that level is not
empty (see solve.solve_gss_punctured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Optional, Tuple, Union

from .core import (
    BudgetExceeded,
    Box,
    Ellipsoid,
    InternalError,
    is_positive_definite,
    l2_sq,
    linf,
)
from .lattice import GaugeBody, LatticeBasis, gauge_sq
from .reduction import integral_gso, lll_reduce

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
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _frame(self, scaled) -> list:
        """y[j] = gram_det[j] * <scaled, b*_j> for an integer vector: the
        forward substitution of the Gram system G t = B scaled through
        G = mu * diag(|b*|^2) * mu^T, done in integers, O(rank^2).

        Every // here is exact (each partial value is an integer, as
        gram_det[j] * b*_j is integral), so the frame is linear: the frame
        of u + k v is frame(u) + k frame(v) for integer vectors u, v."""
        dets = self.gram_det
        ys: list = []
        for row, lrow in zip(self.rows, self.lam):
            u = sum(map(mul, row, scaled))
            for i, y in enumerate(ys):
                u = (dets[i + 1] * u - y * lrow[i]) // dets[i]
            ys.append(u)
        return ys

    def _round(self, den: int, frame: list) -> Tuple[int, ...]:
        """Babai rounding of the center whose frame (see _frame) on the
        common denominator den is given; the frame is left unchanged.

        Level i rounds its center e_i = E_i / t_i with t_i = den *
        gram_det[i + 1], where E_i is kept as an integer (see enum_ball).
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
        2.6), built on first use.  _frame(v)[i] = <B_i, v>, so the frame
        of the unit vector e_l is column l of B; B is _frame's recurrence
        run on all of those columns at once."""
        dets = self.gram_det
        out: list = []
        for row, lrow in zip(self.rows, self.lam):
            v = row
            for i, b in enumerate(out):
                d0, d1, l = dets[i], dets[i + 1], lrow[i]
                v = [(d1 * a - l * c) // d0 for a, c in zip(v, b)]
            out.append(tuple(v))
        return tuple(out)

    def _plan(self, den: int):
        """The walk's scale tables for centers on the common denominator
        den (see enum_ball): (L, w, t, steps, wbs) with L = lcm_i D[i]
        D[i+1], w_i = L / (D[i] D[i+1]), t_i = den * D[i+1] and steps[i] =
        den * lam[i].  They do not depend on the radius: a ball multiplies
        w by its radius denominator.  wbs, the Hölder prune's vectors, is
        filled by the first pruned walk (_prune).  Only the last
        denominator's tables are kept, which covers a search and a sweep
        of related centers."""
        plan = self._plans.get(den)
        if plan is None:
            self._plans.clear()
            dets = self.gram_det
            pair = [dets[i] * dets[i + 1] for i in range(self.rank)]
            scale = lcm(*pair)
            plan = self._plans[den] = (
                scale,
                [scale // p for p in pair],
                [den * dets[i + 1] for i in range(self.rank)],
                [[den * l for l in lrow] for lrow in self.lam],
                [],
            )
        return plan


Lattice = Union[LatticeBasis, PreparedLattice]


class _Target:
    """A query center on a prepared lattice, in integers: the common
    denominator den, the point scaled by it, and its frame (see
    PreparedLattice._frame), which is never changed.  Babai's vector and
    its sup distance times den are computed on first use and kept, so
    every search around one center rounds it once."""

    __slots__ = ("lat", "den", "scaled", "frame", "_babai")

    def __init__(self, lat: PreparedLattice, den: int, scaled, frame):
        self.lat = lat
        self.den = den
        self.scaled = scaled
        self.frame = frame
        self._babai = None

    @classmethod
    def of(cls, lat: PreparedLattice, point) -> "_Target":
        den, scaled = _scaled(point)
        return cls(lat, den, scaled, lat._frame(scaled))

    def babai(self) -> Tuple[Tuple[int, ...], int]:
        if self._babai is None:
            den = self.den
            v0 = self.lat._round(den, self.frame)
            gap = max(abs(a * den - c) for a, c in zip(v0, self.scaled))
            self._babai = (v0, gap)
        return self._babai


def prepare(basis: Lattice, assume_reduced: bool = False) -> PreparedLattice:
    """Reduce the basis (unless told it already is) and take its integral
    Gram-Schmidt data: the reducer's own for a basis lll_reduce returned,
    one integral_gso pass otherwise.  A lattice that is already prepared
    is returned as it is."""
    if isinstance(basis, PreparedLattice):
        return basis
    red = basis if (assume_reduced or basis.rank < 2) else lll_reduce(basis)
    dets, lam = red._gso or integral_gso(red)
    return PreparedLattice(red.rows, red.dim, dets, lam)


@dataclass(frozen=True)
class BallQuery:
    """A lattice, a rational center, and a squared radius."""

    basis: Lattice
    center: Tuple[Fraction, ...]
    radius_sq: Fraction

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(_rational(c) for c in self.center)
        )
        object.__setattr__(self, "radius_sq", _rational(self.radius_sq))
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

    With den the center's common denominator and D = gram_det, level i
    keeps its center e_i = zc_i - sum_{j>i} mu_ji z_j as the integer
    E_i = t_i * e_i, t_i = den * D[i+1].  Coefficient z costs
    |b*_i|^2 (z - e_i)^2 = (z t_i - E_i)^2 / (den^2 D[i] D[i+1]), so on
    the scale R_den * den^2 * L, L = lcm_i D[i] D[i+1], the cost is
    w_i (z t_i - E_i)^2 with integer w_i = R_den * L / (D[i] D[i+1]) and
    the radius is an integer too.  Then z is admissible iff
    |z t_i - E_i| <= isqrt(rem // w_i), an exact integer range.
    """
    basis = query.basis
    center = query.center
    if basis.rank == 0:
        inside = l2_sq(center) <= query.radius_sq
        pts = (tuple([0] * basis.dim),) if inside else ()
        return EnumerationResult(pts, len(pts))
    radius_sq = query.radius_sq
    t = _Target.of(prepare(basis), center)
    pts = _walk(t, _ball(t, radius_sq.numerator, radius_sq.denominator),
                budget)
    return EnumerationResult(tuple(pts), len(pts))


def _setup(lat: PreparedLattice, den: int, r_num: int, r_den: int):
    """The walk's setup for the balls of squared radius r_num / r_den
    around centers on the common denominator den: (ws, ts, steps, rem0),
    the level weights on the ball's scale, the level scales and steps for
    den (see enum_ball) and the ball's integer squared radius on that
    scale.  It depends on no center; on a full-rank lattice rem0 is also
    the radius left for the top level around every center."""
    scale, ws, ts, steps, _wbs = lat._plan(den)
    if r_den != 1:
        ws = [r_den * w for w in ws]
    return ws, ts, steps, r_num * den * den * scale


def _ball(t: _Target, r_num: int, r_den: int):
    """The walk's setup for the ball of squared radius r_num / r_den around
    the center t: _setup's tuple with rem0 the integer radius left for the
    top level once the center's distance to the span is paid.  None when
    that distance alone exceeds the radius or the top level admits no
    coefficient: the ball then holds no lattice point."""
    lat = t.lat
    frame = t.frame
    ws, ts, steps, rem0 = _setup(lat, t.den, r_num, r_den)
    if lat.rank < lat.dim:
        # the center's distance to the span: |center|^2 - |projection|^2
        scale = lat._plan(t.den)[0]
        rem0 -= r_den * scale * l2_sq(t.scaled) - sum(
            w * y * y for w, y in zip(ws, frame)
        )
        if rem0 < 0:
            return None
    # the range test the walk makes at every level, here at the top one
    top = lat.rank - 1
    e, tt, s = frame[top], ts[top], isqrt(rem0 // ws[top])
    if -((s - e) // tt) > (e + s) // tt:
        return None
    return ws, ts, steps, rem0


def _prune(lat: PreparedLattice, den: int, p: int, q: int):
    """The Hölder prune's data for the walk of the sup ball of squared
    radius p / q around a center on the common denominator den, whose
    Euclidean ball is set up on the radius denominator q, as
    _setup(lat, den, m * p, q) and _ball(t, m * p, q) do: (free, pk2,
    wbs, top_l1).  On that scale a node's cost C and its U (see _walk)
    pass when C <= free = p den^2 L, which is |u|_2 <= R, or when C^2 <=
    pk2 |U|_1^2 with pk2 = p q den^2, which is |u|_2^2 <= R |u|_1; at the
    top level U = diff * wbs[-1], so |U|_1 = |diff| top_l1."""
    scale, ws, _ts, _steps, wbs = lat._plan(den)
    if not wbs:
        # per level i, w_i B_i: U's change per unit of diff_i
        wbs.extend([w * c for c in b] for w, b in zip(ws, lat._stars))
    return (p * den * den * scale, p * q * den * den, wbs,
            sum(map(abs, wbs[-1])))


def _walk(t: _Target, ball, budget: int, spent: int = 0,
          prune=None) -> list:
    """The sorted lattice points of the ball around the center t whose
    setup is ball: _ball's tuple for t, None for an empty ball, or on a
    full-rank lattice one _setup shared by every center on t's
    denominator.  spent points of the budget are already used by earlier
    balls of the same search; BudgetExceeded reports the whole budget as
    its partial count.

    A sup ball |v - c|_inf <= R is walked as the Euclidean ball of radius
    R sqrt(m) with prune = _prune(...), which drops every node that no
    point of the sup ball lies under.  With levels >= k chosen, u =
    pi_k(v - c) is fixed, and |u|_2^2 = <v - c, u> <= R |u|_1 by Hölder,
    so a node at level k >= 2 breaking that is pruned; the test is
    necessary, so every point of the sup ball is still listed, in the
    same order, and only the points outside it that are listed fall.
    Levels 1 and 0 are left to the sup filter, where a node costs less
    than its test; they run as one loop (pair) over whole level-0 ranges
    (emit).  Each level tests its children's ranges inline and enters,
    and tests, only a node whose next level is not empty, which lists the
    same points.

    The test runs in integers on the walk's scale.  With diff_i = z_i t_i
    - E_i, the node's cost C = rem0 - rem = sum_{i >= k} w_i diff_i^2 is
    |u|_2^2 r_den den^2 L, and U = sum_{i >= k} diff_i (L / (D[i]
    D[i+1])) B_i is den L u, with B_i = gram_det[i] b*_i integral
    (PreparedLattice._stars); U is the node above's U plus the plan's
    vector w_k B_k times diff_k, summed only when a node needs it.  For
    R^2 = p / q on r_den = q, |u|_2 <= R is C <= p den^2 L, which passes
    without the L1 sum, and the Hölder test is C^2 <= p q den^2
    |U|_1^2."""
    if ball is None:
        return []
    ws, ts, steps, rem0 = ball
    lat = t.lat
    rows = lat.rows
    rank, top = len(rows), len(rows) - 1
    e, s = t.frame[top], isqrt(rem0 // ws[top])
    lo, hi = -((s - e) // ts[top]), (e + s) // ts[top]
    if lo > hi:
        return []
    room = budget - spent
    out: list = []
    w0, t0, row0 = ws[0], ts[0], rows[0]
    if rank > 1:
        w1, t1, row1, (step1,) = ws[1], ts[1], rows[1], steps[1]
    if prune is not None:
        free, pk2, wbs, top_l1 = prune

    def emit(acc, row, lo: int, hi: int) -> None:
        # the points acc + z row for z in [lo, hi]
        if len(out) + (hi - lo + 1) > room:
            what = "search lists" if spent else "ball holds"
            raise BudgetExceeded(
                f"{what} more than {budget} points", partial=budget
            )
        p = tuple(map(add, acc, map(mul, row, repeat(lo))))
        out.append(p)
        for _ in range(hi - lo):
            p = tuple(map(add, p, row))
            out.append(p)

    def pair(_level: int, rem: int, es, acc, lo: int, hi: int,
             *_pruned) -> None:
        # level 1 over its nonempty range [lo, hi], above level 0, whose
        # center E_0 drops by step1 per unit step here; not pruned
        e, e0 = es[1], es[0]
        for z in range(lo, hi + 1):
            diff = z * t1 - e
            ez = e0 - step1 * z
            s = isqrt((rem - w1 * diff * diff) // w0)
            a, b = -((s - ez) // t0), (ez + s) // t0
            if a <= b:
                emit(list(map(add, acc, map(mul, row1, repeat(z)))),
                     row0, a, b)

    def descend(level: int, rem: int, es, acc, lo: int, hi: int,
                big, diff0, wb0) -> None:
        # a level >= 2 over its nonempty range [lo, hi]: es[i] = E_i for
        # i <= level given the levels above, acc the integer point so
        # far.  A child is entered only when its own range is not empty.
        # While nodes are pruned, big + diff0 * wb0 is U of the node
        # above (big None: zero; wb0 None: big itself), summed when the
        # first child is entered
        t, w, row, step = ts[level], ws[level], rows[level], steps[level]
        k = level - 1
        tk, wk, sk = ts[k], ws[k], step[k]
        e, ek0 = es[level], es[k]
        down = descend if k > 1 else pair
        u, du, wu = None, 0, None
        for z in range(lo, hi + 1):
            diff = z * t - e
            r = rem - w * diff * diff
            ek = ek0 - sk * z
            s = isqrt(r // wk)
            a, b = -((s - ek) // tk), (ek + s) // tk
            if a > b:
                continue
            if prune is not None:
                if wb0 is not None:
                    big = (list(map(mul, wb0, repeat(diff0))) if big is None
                           else list(map(add, big,
                                         map(mul, wb0, repeat(diff0)))))
                    wb0 = None
                c = rem0 - r
                if c <= free:
                    u, du, wu = big, diff, wbs[level]
                elif big is None:
                    # the top level: U = diff * wb, |U|_1 = |diff| top_l1
                    if c * c > pk2 * (diff * top_l1) ** 2:
                        continue
                    u, du, wu = None, diff, wbs[level]
                else:
                    u = list(map(add, big, map(mul, wbs[level], repeat(diff))))
                    if c * c > pk2 * sum(map(abs, u)) ** 2:
                        continue
                    du, wu = 0, None
            down(k, r, list(map(sub, es, map(mul, step, repeat(z)))),
                 list(map(add, acc, map(mul, row, repeat(z)))), a, b,
                 u, du, wu)

    zero = [0] * lat.dim
    try:
        if rank > 2:
            descend(top, rem0, t.frame, zero, lo, hi, None, 0, None)
        elif rank == 2:
            pair(1, rem0, t.frame, zero, lo, hi)
        else:
            emit(zero, row0, lo, hi)
    finally:
        # the walkers refer to each other, cycles that would keep the
        # listing alive until the next full garbage collection
        del emit, pair, descend
    out.sort()
    return out


# ---------------------------------------------------------------------------
# growing searches
# ---------------------------------------------------------------------------

def _schedule(start, step, last):
    """start, step(start), step(step(start)), ... while below last, then
    last itself: the bounds of a search that must end by last."""
    bound = start
    while bound < last:
        yield bound
        bound = step(bound)
    yield last


def _grow(t: _Target, bounds, pick, budget):
    """For each squared sup bound in turn, walk the sup ball at that bound
    around the center t (the ball of squared radius bound * m, pruned) and
    apply pick(points, bound); return (pick's first result that is not
    None, points listed), or (None, points listed) when every bound comes
    up empty.  All the balls draw on the one budget."""
    lat = t.lat
    m = lat.dim
    spent = 0
    for bound_sq in bounds:
        p, q = bound_sq.numerator, bound_sq.denominator
        ball = _ball(t, p * m, q)
        pts = [] if ball is None else _walk(t, ball, budget, spent,
                                            _prune(lat, t.den, p, q))
        spent += len(pts)
        best = pick(pts, bound_sq)
        if best is not None:
            return best, spent
    return None, spent


# ---------------------------------------------------------------------------
# sup-norm shortest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvpResult:
    """found is False only for capped searches, certifying value > cap.
    ball_count is the number of points listed over all balls, and
    start_radius_sq the squared sup bound of the first ball when the search
    grew (None when a single ball at the cap decided)."""

    found: bool
    value: Optional[int]
    witness: Optional[Tuple[int, ...]]
    ball_count: int
    start_radius_sq: Optional[Fraction] = None


def _min_sup_nonzero(points, bound_sq: Fraction):
    """Smallest sup norm among nonzero points not exceeding the bound, with
    the lexicographically least witness; None when no point qualifies.

    An integer s has s^2 <= bound_sq iff s <= isqrt(floor(bound_sq)), so
    the bound is one integer limit; it drops to the best norm found, and
    a point is dropped at its first coordinate beyond the limit.
    """
    limit = isqrt(bound_sq.numerator // bound_sq.denominator)
    best = None
    for p in points:
        s = 0
        for a in p:
            if a < 0:
                a = -a
            if a > s:
                if a > limit:
                    break
                s = a
        else:
            if s and (best is None or (s, p) < best):
                best = (s, p)
                limit = s
    return best


def _sup_floor(lat: PreparedLattice) -> int:
    """max(1, ceil(min_i |b*_i| / sqrt(m))), a lower bound on the least
    sup norm of a nonzero lattice vector: min_i |b*_i| <= lambda_1 <=
    sqrt(m) * lambda_inf.  An integer s has s^2 >= q iff s^2 >= ceil(q)."""
    dets = lat.gram_det
    q = min(Fraction(dets[i + 1], dets[i]) for i in range(lat.rank)) / lat.dim
    c = -(-q.numerator // q.denominator)
    s = isqrt(c)
    return max(1, s if s * s == c else s + 1)


def svp_inf(
    basis: Lattice,
    cap: Optional[int] = None,
    budget: int = DEFAULT_POINT_BUDGET,
) -> SvpResult:
    """Exact sup-norm shortest vector.

    The least sup norm u of a reduced row bounds the minimum from above,
    and s0 = max(1, ceil(min_i |b*_i| / sqrt(m))) bounds it from below.
    The search walks the sup balls (the balls of squared radius s^2 * m,
    Hölder-pruned; see _walk) for the integer sup bounds s = s0, then
    max(s + 1, s (m + 1) // m), the last one clamped to u, and returns at
    the first nonempty filter: it holds every nonzero vector of sup norm
    <= s, so its minimum and lexicographically least witness are exact.
    The ball at u always holds that row, so the search ends there at the
    latest; start_radius_sq is s0^2.

    With cap set at or below u, one ball at the cap decides instead, and
    found=False certifies the minimum exceeds the cap.  Every ball draws
    on the one budget, and ball_count counts them all.
    """
    if basis.rank == 0:
        raise ValueError("empty lattice")
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    lat = prepare(basis)
    m = lat.dim
    u = min(linf(row) for row in lat.rows)
    if cap is not None and u >= cap:
        start, bounds = None, (cap * cap,)
    else:
        s0 = _sup_floor(lat)
        steps = _schedule(s0, lambda s: max(s + 1, s * (m + 1) // m), u)
        start, bounds = Fraction(s0 * s0), (s * s for s in steps)
    best, count = _grow(_Target(lat, 1, (0,) * m, [0] * lat.rank), bounds,
                        _min_sup_nonzero, budget)
    if best is None:
        return SvpResult(False, None, None, count)
    value, witness = best
    if start is not None and start > value * value:
        raise InternalError(
            "self-check failed: start radius exceeds the sup minimum"
        )
    return SvpResult(True, value, witness, count, start)


# ---------------------------------------------------------------------------
# sup-norm closest vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvpResult:
    """found is False only for capped searches, certifying dist > cap.
    ball_count is the number of points listed over all balls."""

    found: bool
    dist: Optional[Fraction]
    witness: Optional[Tuple[int, ...]]
    ball_count: int


def _sup_limit(bound_sq, den: int) -> int:
    """isqrt(floor(bound_sq * den^2)): a scaled sup distance g is at most
    den * sqrt(bound_sq) iff g is at most this integer."""
    return isqrt(bound_sq.numerator * den * den // bound_sq.denominator)


def _nearest(points, den: int, scaled, limit: int):
    """(g, p) for the point p nearest the center scaled / den in sup
    distance g / den, among points with g <= limit, with the
    lexicographically least witness; None when no point qualifies.  The
    limit drops to the best distance found, and a point is dropped at its
    first coordinate beyond it."""
    best = None
    for p in points:
        s = 0
        for a, c in zip(p, scaled):
            g = a * den - c
            if g < 0:
                g = -g
            if g > s:
                if g > limit:
                    break
                s = g
        else:
            if best is None or (s, p) < best:
                best = (s, p)
                limit = s
    return best


def cvp_inf(
    basis: Lattice,
    target,
    cap: Optional[Fraction] = None,
    budget: int = DEFAULT_POINT_BUDGET,
) -> CvpResult:
    """Exact sup-norm closest vector to a rational target.

    Babai rounding gives a lattice vector at sup distance d0, an upper
    bound on the answer, for the price of the target's Gram-Schmidt frame,
    which the balls then share.  The search walks the sup balls (the
    balls of squared radius b * m, Hölder-pruned; see _walk) around the
    target for squared sup bounds b = d0^2 / m growing by (1 + 1/m)^2, the
    last one clamped to d0^2, and returns at the first nonempty filter: it
    holds every vector within sqrt(b), so its minimum distance and
    lexicographically least witness are exact.  The ball at d0 holds
    Babai's vector, so the search ends there at the latest; a target on
    the lattice (d0 = 0) is its own answer and lists no ball.

    With cap set at or below d0, one ball at the cap decides instead, and
    found=False certifies the distance exceeds the cap.  A cap ball whose
    top level admits no coefficient is rejected before Babai rounding,
    listing no point: the answer is the same, as that ball would hold the
    target on the lattice or Babai's vector within the cap.  Every ball
    draws on the one budget, and ball_count counts them all.

    This wrapper checks the query and maps the target to integers once
    (_cvp_target); the search itself is the integer core _cvp_core.
    """
    t = _cvp_target(basis, target)
    if cap is not None:
        cap = _rational(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
    return _cvp_core(t, cap, budget)


def _cvp_target(basis: Lattice, target) -> _Target:
    """The checked center of a closest-vector query on the prepared
    lattice: its common denominator, scaled point and frame."""
    if basis.rank == 0:
        raise ValueError("empty lattice")
    lat = prepare(basis)
    den, scaled = _scaled(target)
    if len(scaled) != lat.dim:
        raise ValueError("target dimension does not match the basis")
    return _Target(lat, den, scaled, lat._frame(scaled))


def _cvp_core(t: _Target, cap, budget: int) -> CvpResult:
    """cvp_inf around the center t, with cap None or a nonnegative int or
    Fraction.  The ball at the cap has the integer squared radius
    cap_num^2 m / cap_den^2; a capped search first runs the walk's top
    level range test on it (_ball) and returns found=False with no point
    listed when that level is empty, before it rounds with Babai; a walk
    of that ball reuses this setup.
    Babai's distance g0 / den is compared with the cap as the integers
    g0 * cap_den and cap_num * den, and the cap ball's filter has the
    integer limit floor(cap * den), so a search that finds nothing builds
    no Fraction; growth happens only below Babai's distance, where the
    search always finds a vector."""
    den, scaled = t.den, t.scaled
    m = t.lat.dim
    if cap is not None:
        c_num, c_den = cap.numerator, cap.denominator
        p, q = c_num * c_num, c_den * c_den
        ball = _ball(t, p * m, q)
        if ball is None:
            return CvpResult(False, None, None, 0)
    v0, g0 = t.babai()
    if g0 == 0:
        return CvpResult(True, Fraction(0), v0, 0)
    if cap is not None and g0 * c_den >= c_num * den:
        pts = _walk(t, ball, budget, 0, _prune(t.lat, den, p, q))
        best = _nearest(pts, den, scaled, c_num * den // c_den)
        count = len(pts)
    else:
        d0 = Fraction(g0, den)
        growth = (1 + Fraction(1, m)) ** 2
        bounds = _schedule(d0 * d0 / m, lambda b: b * growth, d0 * d0)
        best, count = _grow(
            t, bounds,
            lambda pts, b: _nearest(pts, den, scaled, _sup_limit(b, den)),
            budget,
        )
    if best is None:
        return CvpResult(False, None, None, count)
    return CvpResult(True, Fraction(best[0], den), best[1], count)


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
    if g0 <= 0:
        raise InternalError("self-check failed: nonzero vector of gauge 0")
    if isinstance(body, Box):
        radius_sq = Fraction(m * body.d * body.d) * g0
    else:
        radius_sq = g0 / _pd_lower_bound(body)
    res = enum_ball(BallQuery(lat, zero, radius_sq), budget)
    # a box ranks by the integer sup norm and an ellipsoid by the integer
    # form L A, L the common denominator of A: the same orders as the gauge
    if isinstance(body, Box):
        rank, den = linf, body.d
    else:
        den = lcm(*(a.denominator for row in body.a for a in row))
        form = [[a.numerator * (den // a.denominator) for a in row]
                for row in body.a]

        def rank(p) -> int:
            return sum(c * sum(map(mul, row, p)) for c, row in zip(p, form))

    best = min((p for p in res.points if any(p)), key=lambda p: (rank(p), p))
    return GaugeResult(Fraction(rank(best), den), best, res.count)
