"""Exact lattice reduction: rational Gram-Schmidt and all-integer LLL.

The reducer keeps the classical lambda/D integer representation of the
Gram-Schmidt data: D[k] is the Gram determinant of the first k rows and
lam[i][j] = mu_ij * D[j+1].  Every update is integer arithmetic with exact
divisions, and the Lovasz test for a rational delta = p/s is the integer
comparison s*(D[k+1]*D[k-1] + lam[k][k-1]^2) >= p*D[k]^2.  No fraction is
ever formed while reducing, which keeps the n = 64 instances fast.

integral_gso computes the same lambda/D data for a fixed basis with the
recurrence the reducer uses for each new row.  At exit the reducer holds
exactly that data for its output rows, so the basis it returns carries it
(LatticeBasis._gso) and enumeration.prepare pays no second Gram-Schmidt
pass.  The rational gram_schmidt stays as a plain reference.

The lambda/D data needs the rows only through inner products (Cohen, 2.6):
the private _reduce takes one as ip, which svp_gauge sets to an integral
form u F v^T.  Data under F never rides on a LatticeBasis's _gso.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .core import dot, gcd_vector, l2_sq
from .lattice import LatticeBasis

__all__ = ["GSO", "gram_schmidt", "integral_gso", "lll_reduce", "lll_threshold"]


@dataclass(frozen=True)
class GSO:
    """Exact Gram-Schmidt data.

    mu[i] holds the projection coefficients of row i onto rows j < i (a
    ragged lower triangle) and b_star_sq[i] the squared norm of the i-th
    orthogonalized vector, all as fractions.
    """

    mu: Tuple[Tuple[Fraction, ...], ...]
    b_star_sq: Tuple[Fraction, ...]


def gram_schmidt(basis: LatticeBasis) -> GSO:
    """Orthogonalize exactly; raises ValueError on dependent rows."""
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


def _gso_row(rows, k: int, D: list, lam: list, ip=dot) -> None:
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


def integral_gso(basis: LatticeBasis):
    """The Gram-Schmidt data of the rows in integral form, (D, lam).

    D[i] is the Gram determinant of the first i rows (D[0] = 1, so
    |b*_i|^2 = D[i+1] / D[i]) and lam[i][j] = mu_ij * D[j+1] for j < i, a
    ragged lower triangle of integers.  Raises ValueError on dependent
    rows.
    """
    rows = basis.rows
    D = [1] + [0] * len(rows)
    lam = [[0] * k for k in range(len(rows))]
    for k in range(len(rows)):
        _gso_row(rows, k, D, lam)
    return tuple(D), tuple(tuple(row) for row in lam)


def lll_reduce(basis: LatticeBasis, delta: Fraction = Fraction(3, 4)) -> LatticeBasis:
    """Delta-reduce the basis; same lattice, exact arithmetic throughout.

    Output rows satisfy |mu_ij| <= 1/2 and the Lovasz condition for delta,
    so the first row obeys the usual 2^((r-1)/4) * det^(1/r) bound on its
    Euclidean length.  The result carries the reducer's integral
    Gram-Schmidt data for its rows, integral_gso of the result.  Raises
    ValueError on dependent rows and on delta outside (1/4, 1).
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    if basis.rank == 0:
        return basis
    rows, gso = _reduce(basis.rows, delta, dot)
    out = LatticeBasis(rows, basis.dim)
    object.__setattr__(out, "_gso", gso)
    return out


def _reduce(basis_rows, delta: Fraction, ip):
    """Delta-reduce nonempty rows under the inner product ip: the reduced
    rows as tuples and their integral Gram-Schmidt data under ip, (D, lam)
    as integral_gso gives it.  Raises ValueError on dependent rows."""
    rows = [list(r) for r in basis_rows]
    nrows = len(rows)
    p_num, p_den = delta.numerator, delta.denominator
    D = [0] * (nrows + 1)
    D[0] = 1
    lam = [[0] * nrows for _ in range(nrows)]
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
            if p_den * (D[k + 1] * D[k - 1] + lam_v * lam_v) < p_num * D[k] * D[k]:
                swapi(k)
                k = max(1, k - 1)
            else:
                for ll in range(k - 2, -1, -1):
                    redi(k, ll)
                k += 1
                break
    return (tuple(tuple(r) for r in rows),
            (tuple(D), tuple(tuple(lrow[:i]) for i, lrow in enumerate(lam))))


def lll_threshold(x, d: int) -> bool:
    """Whether d is large enough that a reduced first vector must solve.

    The real-valued condition d > 2^((n-2)/4) * (|x|_2/gcd)^(1/(n-1)) - 1
    is decided exactly by clearing exponents:

        (d+1)^(4(n-1)) > 2^((n-2)(n-1)) * (|x|_2^2/gcd^2)^2.

    Needs n >= 2 and a nonzero x.
    """
    xs = tuple(int(v) for v in x)
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two entries")
    g = gcd_vector(xs)
    det_sq = l2_sq(xs) // (g * g)
    if d < 0:
        return False
    lhs = (d + 1) ** (4 * (n - 1))
    rhs = (1 << ((n - 2) * (n - 1))) * det_sq * det_sq
    return lhs > rhs
