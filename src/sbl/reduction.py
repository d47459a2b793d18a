"""Exact lattice reduction: all-integer LLL at delta = 3/4.

The reducer keeps the classical lambda/D integer representation of the
Gram-Schmidt data: D[k] is the Gram determinant of the first k rows and
lam[i][j] = mu_ij * D[j+1].  Every update is integer arithmetic with exact
divisions, and the Lovasz test for delta = p/s is the integer comparison
s*(D[k+1]*D[k-1] + lam[k][k-1]^2) >= p*D[k]^2.  No fraction is ever formed
while reducing, which keeps the n = 64 instances fast.  delta is fixed at
3/4, the value lll_threshold's 2^((n-2)/4) bound is stated for.

The private _reduce is the package's one source of Gram-Schmidt data: at
exit it holds exactly the lambda/D data of its output rows and returns it
with them.  enumeration.prepare builds its PreparedLattice from that, and
lll_reduce keeps the rows only.  The data needs the rows only through
inner products (Cohen, 2.6): _reduce takes one as ip, which svp_gauge sets
to an integral form u F v^T.
"""

from __future__ import annotations

from fractions import Fraction

from .core import dot, gcd_vector, l2_sq
from .lattice import LatticeBasis

__all__ = ["lll_reduce", "lll_threshold"]

_DELTA = Fraction(3, 4)


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


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Reduce the basis at delta = 3/4; same lattice, exact arithmetic
    throughout.

    Output rows satisfy |mu_ij| <= 1/2 and the Lovasz condition for delta,
    so the first row obeys the usual 2^((r-1)/4) * det^(1/r) bound on its
    Euclidean length.  Raises ValueError on dependent rows.
    """
    return LatticeBasis(_reduce(basis.rows)[0], basis.dim)


def _reduce(basis_rows, ip=dot):
    """Reduce rows under the inner product ip: the reduced rows as tuples
    and their integral Gram-Schmidt data under ip, (D, lam).  D[i] is the
    Gram determinant of the first i rows (D[0] = 1, so
    |b*_i|^2 = D[i+1] / D[i]) and lam[i][j] = mu_ij * D[j+1] for j < i, a
    ragged lower triangle of integers; no rows give ((), ((1,), ())).
    Raises ValueError on dependent rows."""
    rows = [list(r) for r in basis_rows]
    nrows = len(rows)
    p_num, p_den = _DELTA.numerator, _DELTA.denominator
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
