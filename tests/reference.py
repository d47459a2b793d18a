"""Rational forms of the solver's integer helpers.

The solver works on the integral Gram-Schmidt frame and on integer sup
distances; these functions state the same quantities as exact fractions,
so tests can hold the integer code against plain rational algebra.
gram_schmidt (with its GSO) is the rational Gram-Schmidt process, the
reference for the reducer's lambda/D data, and reduce_reference is the
all-integer LLL with Cohen's scalar recurrence for each new row's data,
the reference for the reducer's every swap and output; first_fit_reference
reads off its run the first row 0 that fits a box, the reference for the
reducer's stop.  mat_det,
mat_solve and mat_inverse are fraction Gaussian elimination, for Gram
determinants and basis coordinates.  ball_walk, an unpruned walk in
Fractions, is the reference listing of a Euclidean ball, and holder_walk
its Hölder-pruned form, of the sup walk.  The eigenvalue-shift relaxation
of an ellipsoid ball (relaxed_ellipsoid_ball), listed by ball_walk, is the
reference listing for the exact gauge walk.
gauge_sq is the Fraction gauge of a body, and mitm_reference is meet in
the middle on tuples, with a multiply-and-sum per half-candidate and a
bucket of first halves per sum scanned in order, the reference for the
witnesses sbl.oracle.mitm_solve decodes from the indices of its hit.
kernel_basis_reference keeps its unimodular transform as dense rows,
the reference for sbl.lattice.kernel_basis's sparse rows, and
walk_reference is the enumeration walk with level 1 in a loop of its
own, on scale tables it builds itself (_plan, _sup_plan), the reference
for sbl.enumeration._walk's visit order, limits and budget charges.  No
code in the sbl package calls them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import floor, isqrt, lcm
from operator import add, mul, sub
from typing import Optional, Sequence, Tuple

from sbl.core import (
    _as_budget,
    _frac_rows,
    Box,
    Budget,
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Verdict,
    coefficient_alphabet,
    dot,
    is_positive_definite,
    linf,
    verify_solution,
)
from sbl.enumeration import PreparedLattice, _perp, _scaled, _Target
from sbl.lattice import GaugeBody, LatticeBasis
from sbl.oracle import _target


def mat_det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    a = _frac_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def mat_solve(rows, rhs) -> tuple:
    """Solve A t = rhs for square rational A; raises on a singular system."""
    a = _frac_rows(rows)
    n = len(a)
    b = [Fraction(v) for v in rhs]
    if len(b) != n or any(len(r) != n for r in a):
        raise ValueError("dimension mismatch")
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            b[r] -= f * b[col]
    return tuple(b[i] / a[i][i] for i in range(n))


def mat_inverse(rows) -> tuple:
    """Inverse of a square rational matrix as a tuple of tuples."""
    n = len(rows)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(mat_solve(rows, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class GSO:
    """Exact Gram-Schmidt data.

    mu[i] holds the projection coefficients of row i onto rows j < i (a
    ragged lower triangle) and b_star_sq[i] the squared norm of the i-th
    orthogonalized vector, all as fractions.
    """

    mu: Tuple[Tuple[Fraction, ...], ...]
    b_star_sq: Tuple[Fraction, ...]


def gram_schmidt(basis) -> GSO:
    """Orthogonalize the rows of a basis or prepared lattice exactly;
    raises ValueError on dependent rows."""
    rows = basis.rows
    star: list = []
    mus: list = []
    sqs: list = []
    for i, row in enumerate(rows):
        v = [Fraction(a) for a in row]
        mu_row = []
        for j in range(i):
            m = dot(rows[i], star[j]) / sqs[j]
            mu_row.append(m)
            v = [a - m * b for a, b in zip(v, star[j])]
        sq = sum(a * a for a in v)
        if sq == 0:
            raise ValueError("dependent rows")
        star.append(v)
        mus.append(tuple(mu_row))
        sqs.append(sq)
    return GSO(tuple(mus), tuple(sqs))


def _gso_row(rows, k: int, D: list, lam: list, ip) -> None:
    """Set lam[k][j] for j < k and D[k+1] from the data of rows 0..k-1
    under the inner product ip (Cohen, Alg. 2.6.7, step 2); each division
    is exact.  Raises ValueError when row k depends on earlier rows."""
    rk, lk = rows[k], lam[k]
    for j in range(k + 1):
        u = ip(rk, rows[j])
        lj = lam[j]
        for i in range(j):
            u = (D[i + 1] * u - lk[i] * lj[i]) // D[i]
        if j < k:
            lk[j] = u
        elif u <= 0:
            raise ValueError("dependent rows")
        else:
            D[k + 1] = u


def reduce_reference(basis_rows, ip=dot, firsts=None):
    """All-integer LLL at delta = 3/4 under the inner product ip (Cohen,
    Alg. 2.6.7): the reduced rows as tuples and their integral
    Gram-Schmidt data (D, lam), as reduction._reduce returns them.  Each
    new row's lam and D come from k + 1 inner products and the k^2 / 2
    scalar recurrence of _gso_row.  Raises ValueError on dependent rows.
    A list passed as firsts gets row 0 as a tuple on entry and after
    every swap of rows 0 and 1, so its last entry is the output's row 0."""
    rows = [list(r) for r in basis_rows]
    nrows = len(rows)
    if firsts is not None and rows:
        firsts.append(tuple(rows[0]))
    D = [0] * (nrows + 1)
    D[0] = 1
    lam = [[0] * nrows for _ in range(nrows)]
    if nrows:
        _gso_row(rows, 0, D, lam, ip)
    kmax = 0
    k = 1

    def redi(kk: int, ll: int) -> None:
        # size-reduce row kk against row ll < kk
        if 2 * abs(lam[kk][ll]) > D[ll + 1]:
            q = (2 * lam[kk][ll] + D[ll + 1]) // (2 * D[ll + 1])
            rk, rl = rows[kk], rows[ll]
            rows[kk] = [a - q * b for a, b in zip(rk, rl)]
            lam[kk][ll] -= q * D[ll + 1]
            lk, llr = lam[kk], lam[ll]
            for i in range(ll):
                lk[i] -= q * llr[i]

    def swapi(kk: int) -> None:
        rows[kk], rows[kk - 1] = rows[kk - 1], rows[kk]
        for j in range(kk - 1):
            lam[kk][j], lam[kk - 1][j] = lam[kk - 1][j], lam[kk][j]
        lam_v = lam[kk][kk - 1]
        newd = (D[kk - 1] * D[kk + 1] + lam_v * lam_v) // D[kk]
        for i in range(kk + 1, kmax + 1):
            t = lam[i][kk]
            lam[i][kk] = (D[kk + 1] * lam[i][kk - 1] - lam_v * t) // D[kk]
            lam[i][kk - 1] = (newd * t + lam_v * lam[i][kk]) // D[kk + 1]
        D[kk] = newd

    while k < nrows:
        if k > kmax:
            kmax = k
            _gso_row(rows, k, D, lam, ip)
        while True:
            redi(k, k - 1)
            lam_v = lam[k][k - 1]
            if 4 * (D[k + 1] * D[k - 1] + lam_v * lam_v) < 3 * D[k] * D[k]:
                swapi(k)
                if k == 1 and firsts is not None:
                    firsts.append(tuple(rows[0]))
                k = max(1, k - 1)
            else:
                for ll in range(k - 2, -1, -1):
                    redi(k, ll)
                k += 1
                break
    return (tuple(tuple(r) for r in rows),
            (tuple(D), tuple(tuple(lrow[:i]) for i, lrow in enumerate(lam))))


def first_fit_reference(rows, bound: int):
    """Row 0 of reduce_reference's run on rows at the first of its states
    that lies in [-bound, bound]^n: the input's row 0 or row 0 after a
    swap of rows 0 and 1.  None when no state fits.  The whole reduction
    runs, so the stop is read off the states, not taken mid-run."""
    firsts: list = []
    reduce_reference(rows, firsts=firsts)
    return next((r for r in firsts if linf(r) <= bound), None)


def gs_coords(lat: PreparedLattice, point) -> Tuple[Fraction, ...]:
    """<point, b*_i> / |b*_i|^2 for every row i: the coordinates of the
    point's projection onto the row span in the Gram-Schmidt frame, from
    the rational Gram-Schmidt vectors (star_vectors)."""
    gso, stars = star_vectors(lat)
    point = [Fraction(c) for c in point]
    return tuple(sum(map(mul, b, point)) / sq
                 for b, sq in zip(stars, gso.b_star_sq))


def nearest_plane(lat: PreparedLattice, target) -> Tuple[int, ...]:
    """Babai rounding in the Gram-Schmidt frame; a cheap upper bound."""
    den, scaled = _scaled(target)
    return lat._round(den, lat._frame(scaled))


def min_sup_to(points, center, bound_sq: Fraction, nonzero: bool = False):
    """Smallest sup distance to the center among points within
    sqrt(bound_sq) of it (nonzero ones only, when asked), as an exact
    fraction, with the lexicographically least witness; None when no point
    qualifies."""
    center = [Fraction(c) for c in center]
    best = None
    for p in points:
        if nonzero and not any(p):
            continue
        dist = max(abs(a - c) for a, c in zip(p, center))
        if dist * dist <= bound_sq and (best is None or (dist, p) < best):
            best = (dist, p)
    return best


def star_vectors(lat: PreparedLattice):
    """(gram_schmidt of the rows, the vectors b*_i as lists of Fractions)."""
    gso = gram_schmidt(lat)
    stars: list = []
    for row, mus in zip(lat.rows, gso.mu):
        v = [Fraction(a) for a in row]
        for mu, b in zip(mus, stars):
            v = [a - mu * c for a, c in zip(v, b)]
        stars.append(v)
    return gso, stars


def _fraction_walk(lat, center, radius_sq, keep):
    """The sorted lattice points v of the Euclidean ball |v - center|_2^2
    <= radius_sq whose every node passes keep(level, u), u = pi_k(v -
    center) the node's projection, in Fractions; every point when keep is
    None.  Levels run from the last row down; lat needs only rows, dim and
    rank."""
    rows = lat.rows
    m, rank = lat.dim, lat.rank
    center = [Fraction(c) for c in center]
    gso, stars = star_vectors(lat)
    sq = gso.b_star_sq
    coords = [sum(a * c for a, c in zip(b, center)) / s
              for b, s in zip(stars, sq)]
    # the center's distance to the span is paid before any level
    perp = sum(c * c for c in center) - sum(
        c * c * s for c, s in zip(coords, sq))
    out: list = []
    zs = [0] * rank

    def descend(level, rem, u, acc):
        # acc: the integer point of the levels above
        e = coords[level] - sum(gso.mu[j][level] * zs[j]
                                for j in range(level + 1, rank))
        z0 = floor(e)
        row = rows[level]
        # (z - e)^2 sq <= rem iff the integer (z q - p)^2 is at most the
        # floor of rem q^2 / sq, for e = p / q
        p, q = e.numerator, e.denominator
        top = floor(rem * q * q / sq[level])
        for direction, z in ((-1, z0), (1, z0 + 1)):
            while (z * q - p) ** 2 <= top:
                point = tuple(a + z * b for a, b in zip(acc, row))
                if level == 0:
                    out.append(point)
                else:
                    zs[level] = z
                    w = u if keep is None else [
                        a + (z - e) * b for a, b in zip(u, stars[level])]
                    if keep is None or keep(level, w):
                        descend(level - 1, rem - (z - e) ** 2 * sq[level],
                                w, point)
                z += direction
        zs[level] = 0

    rem = Fraction(radius_sq) - perp
    if rem >= 0:
        descend(rank - 1, rem, [Fraction(0)] * m, (0,) * m)
    return sorted(out)


def ball_walk(lat, center, radius_sq):
    """The sorted lattice points of the Euclidean ball |v - center|_2^2 <=
    radius_sq, by an unpruned walk in Fractions."""
    return _fraction_walk(lat, center, radius_sq, None)


def holder_walk(lat: PreparedLattice, center, bound_sq):
    """The sorted points of a Hölder-pruned walk of the sup ball of radius
    R, R^2 = bound_sq, in Fractions: every lattice point v of the
    Euclidean ball |v - center|_2^2 <= m * bound_sq whose every node at
    level k >= 2 keeps |u|_2^2 <= R |u|_1, u = pi_k(v - center); tested as
    |u|_2^4 <= R^2 |u|_1^2.  Levels run from the last row down.  A
    superset of the sup ball: filtered to it, these are exactly the
    points a sup walk at that radius visits."""
    bound_sq = Fraction(bound_sq)

    def keep(level, w):
        l2 = sum(a * a for a in w)
        l1 = sum(abs(a) for a in w)
        return level < 2 or l2 * l2 <= bound_sq * l1 * l1

    return _fraction_walk(lat, center, lat.dim * bound_sq, keep)


def _plan(lat: PreparedLattice, den: int):
    """walk_reference's scale tables for centers on the common denominator
    den, built here from the lattice's gram_det and lam: (L, w, t, steps,
    sup) with L = lcm_i D[i] D[i+1], w_i = L / (D[i] D[i+1]), t_i = den *
    D[i+1], steps[i] = den * lam[i] and sup an empty list (_sup_plan)."""
    dets = lat.gram_det
    pair = [dets[i] * dets[i + 1] for i in range(lat.rank)]
    scale = lcm(*pair)
    return (scale, [scale // p for p in pair],
            [den * dets[i + 1] for i in range(lat.rank)],
            [[den * l for l in lrow] for lrow in lat.lam], [])


def _sup_plan(lat: PreparedLattice, den: int):
    """walk_reference's sup tables for den: (wbs, top_l1, cols, flat) with
    wbs the Hölder prune's vectors w_i B_i over the lattice's _stars,
    top_l1 = |wbs[-1]|_1, cols the (j, |den b_0j|, sign den, sign) of
    level 0's coordinates with b_0j != 0, sign that of b_0j, and flat the
    j with b_0j = 0."""
    ws = _plan(lat, den)[1]
    wbs = [[w * c for c in b] for w, b in zip(ws, lat._stars)]
    row0 = lat.rows[0]
    cols = [(j, abs(b) * den, den if b > 0 else -den, 1 if b > 0 else -1)
            for j, b in enumerate(row0) if b]
    flat = [j for j, b in enumerate(row0) if not b]
    return wbs, sum(map(abs, wbs[-1])), cols, flat


def walk_reference(t: _Target, visit, budget: Budget,
                   lim: Optional[int] = None, r_sq=None,
                   half: bool = False) -> None:
    """The walk with level 1 in a loop of its own (pair), the reference
    for sbl.enumeration._walk, whose one loop runs every level >= 1.

    Hand every lattice point of a ball around the center t to visit(p),
    in walk order, and charge them to the budget.

    With lim set this is the sup walk: the ball is |den v - scaled|_inf <=
    lim, the lattice points within sup distance lim / den of the center,
    and visit returns the limit for the rest of the walk, lim or less.
    The visitor of a search lowers it to the best distance found (see
    _sup_search); one that keeps every point returns lim.  With r_sq
    instead, the ball is |v - center|_2^2 <= r_sq, the walk is not pruned
    and what visit returns is ignored.  It raises BudgetExceeded, with the
    whole limit as its partial count, before the points charged to the
    budget by it and earlier walks pass the limit; it writes its count back
    once, on a raise too.  A visitor may end the walk early by raising:
    the exception passes through and the count, which holds every point
    of the level-0 range being handed out, is still written back.

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
    D[i+1].  Coefficient z costs |b*_i|^2 (z - e_i)^2 = (z t_i - E_i)^2 /
    (den^2 D[i] D[i+1]), so on the scale den^2 L (times r_den for a radius
    r_num / r_den) it costs w_i (z t_i - E_i)^2, an integer.  A node keeps
    its cost C, the sum over the levels chosen; with rem0 the ball's
    integer squared radius less _perp, z is admissible iff |z t_i - E_i|
    <= isqrt((rem0 - C) // w_i), one exact integer range per level.  A
    level enters, and tests, only a child whose next level is not empty.

    A sup ball lies in the Euclidean ball of squared radius m lim^2 /
    den^2, so rem0 = m lim^2 L - perp, and the sup walk prunes it three
    ways, each exact in integers:
    - at a level k >= 2, by Hölder's inequality (Schnorr and Euchner 1994;
      Ritter, max-norm enumeration, 1996): with the levels from k up
      chosen, u = pi_k(v - c) is fixed and |u|_2^2 = <v - c, u> <= (lim /
      den) |u|_1 for every v of the sup ball.  With diff_i = z_i t_i -
      E_i, C = den^2 L |u|_2^2 and U = sum_{i >= k} diff_i w_i B_i is den
      L u, B_i = gram_det[i] b*_i integral (PreparedLattice._stars), so
      the test is C <= lim |U|_1.  U is the node above's U plus the plan's
      w_k B_k times diff_k, summed only when a node needs it, and a node
      with C <= lim^2 L (|u|_2 <= lim / den) passes without it;
    - at level 0, a line acc + z b_0, the sup ball is one integer range of
      z: for each j with b_0j != 0, |den acc_j - scaled_j + z den b_0j| <=
      lim gives one ceiling and one floor division, and a coordinate with
      b_0j = 0 is a pass/fail test on acc.  It is intersected with the
      Euclidean range only when that is not empty, so every point visited
      lies in the sup ball at the limit of its level-1 node;
    - when visit lowers lim, rem0, the Hölder bound and the level-0 range
      follow it for every node not yet entered.
    Levels 1 and 0 run as one loop (pair) over whole level-0 ranges (emit).
    """
    lat = t.lat
    den = t.den
    rows = lat.rows
    m, rank, top = lat.dim, len(rows), len(rows) - 1
    scale, ws, ts, steps, tables = _plan(lat, den)
    perp = _perp(t) if rank < m else 0
    sup = lim is not None
    lines = None
    if sup:
        free = lim * lim * scale
        rem0 = m * free - perp
        wbs, top_l1, cols, flat = tables or _sup_plan(lat, den)
        scaled = t.scaled
    else:
        r_num, r_den = r_sq.numerator, r_sq.denominator
        if r_den != 1:
            ws = [r_den * w for w in ws]
        rem0 = r_num * den * den * scale - r_den * perp
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
    w0, t0, row0 = ws[0], ts[0], rows[0]
    if rank > 1:
        w1, t1, row1, (step1,) = ws[1], ts[1], rows[1], steps[1]

    def emit(acc, a: int, b: int) -> None:
        # the points acc + z row0 for z in [a, b], level 0's Euclidean
        # range, cut to the sup ball
        nonlocal count, lim, rem0, free, lines
        if sup:
            if lines is None:
                # x = sign (den acc_j - scaled_j) must keep |x + z q| <=
                # lim, q = |den b_0j|
                lines = [(j, q, sd, sg * scaled[j])
                         for j, q, sd, sg in cols]
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

    def pair(_level: int, cost: int, es, acc, lo: int, hi: int,
             *_pruned) -> None:
        # level 1 over [lo, hi], above level 0, whose center E_0 drops by
        # step1 per unit step here; not pruned
        e, e0 = es[1], es[0]
        origin = half and not any(acc)
        room = rem0 - cost
        for z in range(lo, hi + 1):
            diff = z * t1 - e
            r = room - w1 * diff * diff
            if r < 0:
                continue
            ez = e0 - step1 * z
            s = isqrt(r // w0)
            a, b = -((s - ez) // t0), (ez + s) // t0
            if origin and not z:
                b = 0
            if a <= b:
                emit(list(map(add, acc, map(mul, row1, repeat(z)))), a, b)
                room = rem0 - cost

    def descend(level: int, cost: int, es, acc, lo: int, hi: int,
                big, diff0, wb0) -> None:
        # a level >= 2 over [lo, hi]: es[i] = E_i for i <= level given the
        # levels above, acc the integer point so far.  In a sup walk, big
        # + diff0 * wb0 is U of the node above (big None: zero; wb0 None:
        # big itself), summed when the first child is entered
        t, w, row, step = ts[level], ws[level], rows[level], steps[level]
        k = level - 1
        tk, wk, sk = ts[k], ws[k], step[k]
        e, ek0 = es[level], es[k]
        down = descend if k > 1 else pair
        wb = wbs[level] if sup else None
        u, du, wu = None, 0, None
        origin = half and not any(acc)
        room = rem0 - cost
        for z in range(lo, hi + 1):
            diff = z * t - e
            r = room - w * diff * diff
            if r < 0:
                continue
            ek = ek0 - sk * z
            s = isqrt(r // wk)
            a, b = -((s - ek) // tk), (ek + s) // tk
            if origin and not z:
                b = 0
            if a > b:
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
            down(k, c, list(map(sub, es, map(mul, step, repeat(z)))),
                 list(map(add, acc, map(mul, row, repeat(z)))), a, b,
                 u, du, wu)
            room = rem0 - cost

    zero = [0] * m
    try:
        if rank > 2:
            descend(top, 0, t.frame, zero, lo, hi, None, 0, None)
        elif rank == 2:
            pair(1, 0, t.frame, zero, lo, hi)
        else:
            emit(zero, lo, hi)
    finally:
        budget.charged = count
        # the walkers refer to each other, cycles that would keep their
        # frames alive until the next full garbage collection
        del emit, pair, descend


def pd_lower_bound(ell: Ellipsoid) -> Fraction:
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


def relaxed_ellipsoid_ball(lat, ell: Ellipsoid, bound):
    """The eigenvalue-shift relaxation of the ellipsoid ball v A v^T <=
    bound: the sorted lattice points of the Euclidean ball of squared
    radius bound / mu around 0, mu = pd_lower_bound(ell), listed by
    ball_walk.  As v A v^T >= mu |v|_2^2, it holds every point of the
    ellipsoid ball, and more."""
    zero = (0,) * lat.dim
    return ball_walk(lat, zero, Fraction(bound) / pd_lower_bound(ell))


def gauge_sq(body: GaugeBody, v: Sequence) -> Fraction:
    """Squared gauge, uniform across body kinds; use for comparisons."""
    if isinstance(body, Box):
        m = linf(v)
        return Fraction(m * m, body.d * body.d)
    if isinstance(body, Ellipsoid):
        return body.quad_form(v)
    raise TypeError(f"unknown gauge body {body!r}")


def mitm_reference(inst: Instance, mode: str = "balancing", budget=None) -> Verdict:
    """Meet in the middle with every half-candidate's sum taken from scratch
    by a multiply-and-sum, and a list of first-half tuples per sum: for
    each second half in lexicographic order, the first nonzero vector its
    bucket completes.  The same witness rule as sbl.oracle.mitm_solve,
    without its layered half sums, its set filter or its decoding of
    indices."""
    budget = _as_budget(budget)
    target = _target(inst, mode)
    vals = coefficient_alphabet(inst.coeffs)
    if vals is None:
        raise ValueError("meet-in-the-middle needs a per-coordinate coefficient set")
    x = inst.x
    n = inst.n
    h = (n + 1) // 2
    if len(vals) ** h > budget.limit:
        raise BudgetExceeded(
            f"{len(vals)}^{h} half-candidates exceed the budget of "
            f"{budget.limit}"
        )
    head, tail = x[:h], x[h:]
    table: dict = {}
    for c1 in itertools.product(vals, repeat=h):
        s = sum(a * b for a, b in zip(c1, head))
        table.setdefault(s, []).append(c1)
    nonzero_needed = mode == "balancing"
    for c2 in itertools.product(vals, repeat=n - h):
        s2 = sum(a * b for a, b in zip(c2, tail))
        for c1 in table.get(target - s2, ()):
            c = c1 + c2
            if nonzero_needed and all(v == 0 for v in c):
                continue
            if not verify_solution(inst, c, mode):
                raise InternalError(
                    "self-check failed: meet-in-the-middle witness"
                )
            return Verdict.solved(c)
    return Verdict.no_solution(f"no admissible vector reaches {target}")


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b for b > 0 (ties toward +inf)."""
    return (2 * a + b) // (2 * b)


def kernel_basis_reference(x: Sequence[int]) -> LatticeBasis:
    """kernel_basis with a dense n x n transform: every touched row of U is
    rebuilt as a full-length list in every round."""
    xs = tuple(int(v) for v in x)
    if not xs or all(v == 0 for v in xs):
        raise ValueError("zero vector")
    n = len(xs)
    y = list(xs)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        nz = [i for i in range(n) if y[i] != 0]
        if len(nz) == 1:
            break
        p = min(nz, key=lambda i: (abs(y[i]), i))
        if y[p] < 0:
            y[p] = -y[p]
            u[p] = [-a for a in u[p]]
        for j in nz:
            if j == p:
                continue
            q = _round_div(y[j], y[p])
            if q:
                y[j] -= q * y[p]
                u[j] = [a - q * b for a, b in zip(u[j], u[p])]
    pivot = next(i for i in range(n) if y[i] != 0)
    rows = tuple(tuple(u[i]) for i in range(n) if i != pivot)
    if any(dot(r, xs) != 0 for r in rows):
        raise InternalError("self-check failed: kernel row not orthogonal to x")
    return LatticeBasis(rows, n)
