"""Rational forms of the solver's integer helpers.

The solver works on the integral Gram-Schmidt frame and on integer sup
distances; these functions state the same quantities as exact fractions,
so tests can hold the integer code against plain rational algebra.
gram_schmidt (with its GSO) is the rational Gram-Schmidt process, the
reference for the reducer's lambda/D data, and reduce_reference is the
all-integer LLL with Cohen's scalar recurrence for each new row's data,
the reference for the reducer's every swap and output.  mat_det,
mat_solve and mat_inverse are fraction Gaussian elimination, for Gram
determinants and basis coordinates.  The eigenvalue-shift relaxation of
an ellipsoid ball (relaxed_ellipsoid_ball), listed by a Fraction walk of
a Euclidean ball, is the reference listing for the exact gauge walk.
gauge_sq is the Fraction gauge of a body, and mitm_reference is meet in
the middle with a multiply-and-sum per half-candidate, the reference for
sbl.oracle.mitm_solve's witnesses.  kernel_basis_reference keeps its
unimodular transform as dense rows, the reference for
sbl.lattice.kernel_basis's sparse rows.  No code in the sbl package calls
them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Sequence, Tuple

from sbl.core import (
    _as_budget,
    _frac_rows,
    Box,
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
from sbl.enumeration import PreparedLattice, _scaled
from sbl.lattice import GaugeBody, LatticeBasis, _round_div
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


def reduce_reference(basis_rows, ip=dot):
    """All-integer LLL at delta = 3/4 under the inner product ip (Cohen,
    Alg. 2.6.7): the reduced rows as tuples and their integral
    Gram-Schmidt data (D, lam), as reduction._reduce returns them.  Each
    new row's lam and D come from k + 1 inner products and the k^2 / 2
    scalar recurrence of _gso_row.  Raises ValueError on dependent rows."""
    rows = [list(r) for r in basis_rows]
    nrows = len(rows)
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
                k = max(1, k - 1)
            else:
                for ll in range(k - 2, -1, -1):
                    redi(k, ll)
                k += 1
                break
    return (tuple(tuple(r) for r in rows),
            (tuple(D), tuple(tuple(lrow[:i]) for i, lrow in enumerate(lam))))


def gs_coords(lat: PreparedLattice, point) -> Tuple[Fraction, ...]:
    """<point, b*_i> / |b*_i|^2 for every row i: the coordinates of the
    point's projection onto the row span in the Gram-Schmidt frame."""
    den, scaled = _scaled(point)
    dets = lat.gram_det
    return tuple(
        Fraction(y, den * dets[j + 1])
        for j, y in enumerate(lat._frame(scaled))
    )


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
    center) the node's projection, in Fractions.  Levels run from the last
    row down; lat needs only rows, dim and rank."""
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

    def descend(level, rem, u):
        e = coords[level] - sum(gso.mu[j][level] * zs[j]
                                for j in range(level + 1, rank))
        z0 = floor(e)
        for direction, z in ((-1, z0), (1, z0 + 1)):
            while (z - e) ** 2 * sq[level] <= rem:
                zs[level] = z
                left = rem - (z - e) ** 2 * sq[level]
                w = [a + (z - e) * b for a, b in zip(u, stars[level])]
                if level == 0:
                    out.append(tuple(sum(c * row[i] for c, row in
                                         zip(zs, rows)) for i in range(m)))
                elif keep(level, w):
                    descend(level - 1, left, w)
                z += direction
        zs[level] = 0

    rem = Fraction(radius_sq) - perp
    if rem >= 0:
        descend(rank - 1, rem, [Fraction(0)] * m)
    return sorted(out)


def ball_walk(lat, center, radius_sq):
    """The sorted lattice points of the Euclidean ball |v - center|_2^2 <=
    radius_sq, by an unpruned walk in Fractions."""
    return _fraction_walk(lat, center, radius_sq, lambda level, w: True)


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
    by a multiply-and-sum: the same table, scan order and witness rule as
    sbl.oracle.mitm_solve, without its layered half sums."""
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
