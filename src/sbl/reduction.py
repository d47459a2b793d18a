"""Exact lattice reduction: all-integer LLL at delta = 3/4.

The reducer keeps the classical lambda/D integer representation of the
Gram-Schmidt data: D[k] is the Gram determinant of the first k rows and
lam[i][j] = mu_ij * D[j+1].  Every update is integer arithmetic with exact
divisions, and the Lovasz test for delta = p/s is the integer comparison
s*(D[k+1]*D[k-1] + lam[k][k-1]^2) >= p*D[k]^2.  No fraction is ever formed
while reducing, which keeps the n = 64 instances fast.  delta is fixed at
3/4, the value lll_threshold's 2^((n-2)/4) bound is stated for.

A new row's lambda/D data comes from the integral star vectors
D[j] * b*_j of the rows before it, kept only on the columns that rows
still to come touch: the pivot columns of a kernel basis, column 0 of an
embedding.  So a row with few nonzeros costs dot products over those,
not Cohen's k^2 / 2 recurrence (see _reduce); once the last row is in,
the upkeep stops.  Rows enter as sparse dicts, column to nonzero entry,
so the setup scans (_columns, _packing_width) and the packing of each row
cost the nonzeros, not rows times dimension: a kernel basis of 64-bit
weights at n = 128 is about 93% zeros.

The private _reduce is the package's one source of Gram-Schmidt data: at
exit it holds exactly the lambda/D data of its output rows and returns it
with them.  enumeration.prepare and svp_gauge build theirs from that, and
lll_reduce keeps the rows only; all three pass dense rows through
lattice._sparse.  solve_sbp_lll passes the sparse rows of lattice._kernel_rows
and a box bound d instead, and takes row 0 the first time it lies in
[-d, d]^n; after a swap of rows 0 and 1 the integer test D[1] <= n d^2
(|b_0|^2 = D[1]) comes before row 0 is unpacked (see _reduce).  The loop
reads row m only when k first reaches m, and row 0 is tested each time
it changes, so a run on the first m rows that stops has stopped where
the run on all of them does: solve_sbp_lll passes 8 rows, then 16, 32,
..., and most runs stop on the first 8.
The data needs the rows only through inner products (Cohen, 2.6):
_reduce takes an integral form F for the inner product u F v^T, which
svp_gauge passes, and the identity otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .core import gcd_vector, l2_sq, linf
from .lattice import LatticeBasis, _dense, _sparse

__all__ = ["lll_reduce", "lll_threshold"]

_DELTA = Fraction(3, 4)


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Reduce the basis at delta = 3/4; same lattice, exact arithmetic
    throughout.

    Output rows satisfy |mu_ij| <= 1/2 and the Lovasz condition for delta,
    so the first row obeys the usual 2^((r-1)/4) * det^(1/r) bound on its
    Euclidean length.  Raises ValueError on dependent rows.
    """
    return LatticeBasis(_reduce(_sparse(basis.rows), basis.dim)[0],
                        basis.dim)


def _columns(rows, starts, dim):
    """Where the rows share columns, for _reduce: per row i, the shared
    columns it opens, the columns it alone touches and whether a shared
    column closes at it, then per column the last row touching it (-1 for
    none).  Column c opens at the first row i whose start (row i, or F
    times it) is nonzero there and closes at the last row j that is
    nonzero there; it is shared when i < j and row i's own when i == j.
    The scan reads the rows' nonzeros only."""
    nrows = len(rows)
    first = [nrows] * dim
    last = [-1] * dim
    for i in range(nrows - 1, -1, -1):
        for c in starts[i]:
            first[c] = i
    for i, r in enumerate(rows):
        for c in r:
            last[c] = i
    joins = [[] for _ in range(nrows)]
    own = [[] for _ in range(nrows)]
    drops = [False] * nrows
    for c, (i, j) in enumerate(zip(first, last)):
        if i < j:
            joins[i].append(c)
            drops[j] = True
        elif i == j:
            own[i].append(c)
    return joins, own, drops, last


def _packing_width(rows, starts, scale) -> int:
    """A slot width w, a multiple of 8, in which every entry of the rows
    reduced from these lies in [-2^(w-1), 2^(w-1)).

    _reduce keeps row b as the integer sum_c b[c] 2^(w c).  The packing is
    linear, so the packed rows at exit are the packings of the reduced
    rows however large the entries grow on the way, and they unpack
    exactly when every entry fits its slot.  A reduced basis of r rows has
    F-values at most 2^(r-1) times the largest F-value of an input row
    (Lenstra, Lenstra and Lovasz 1982, (1.12)), and |b|^2 <= tr(F)^(m-1)
    b F b^T for an integral positive definite F of dimension m, whose
    least eigenvalue is at least det F / tr(F)^(m-1) >= tr(F)^(1-m).
    scale is that factor, 1 for the identity.  The F-values are read off
    the rows' nonzeros."""
    big = max((sum(v * a.get(c, 0) for c, v in r.items())
               for r, a in zip(rows, starts)), default=0)
    return (len(rows) + (big * scale).bit_length() + 16) // 16 * 8


def _unpack(packed, width: int, dim: int):
    """The rows of dim entries in [-2^(width-1), 2^(width-1)) whose
    packings sum_c row[c] 2^(width c) are the integers in packed."""
    size = width // 8
    half = 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * dim, "little")
    cuts = range(0, size * dim, size)
    out = []
    for p in packed:
        raw = (p + offset).to_bytes(size * dim, "little")
        out.append(tuple(int.from_bytes(raw[i:i + size], "little") - half
                         for i in cuts))
    return tuple(out)


def _reduce(rows, dim, form=None, box=None):
    """Reduce rows of dimension dim under the integral form F (the
    identity when form is None), <u, v> = u F v^T: the reduced rows as
    tuples and their integral Gram-Schmidt data under F, (D, lam).  Each
    input row is a dict from the columns where it is nonzero to its
    entries (lattice._sparse makes one from a dense row, and
    lattice._kernel_rows builds a kernel basis so), and the loop reads
    nonzeros only, so the setup costs O(nonzeros), not O(rows * dim).
    D[i] is the Gram determinant of the first i rows (D[0] = 1, so
    |b*_i|^2 = D[i+1] / D[i]) and lam[i][j] = mu_ij * D[j+1] for j < i, a
    ragged lower triangle of integers; no rows give ((), ((1,), ())).
    Raises ValueError on dependent rows.

    Given a bound box, it returns instead row 0 alone, as a tuple, at the
    first moment it lies in [-box, box]^dim: the input's row 0 (before the
    rows are checked for dependence), row 0 after a swap at k = 1, the
    only step that changes it, or else the output's row 0.  D[1] is row
    0's F-value, at most t |b_0|^2 <= t dim box^2 for a row in the box,
    where t = tr(F) bounds F's largest eigenvalue (t = 1 for the
    identity); a swap that leaves D[1] above that integer cannot make row
    0 fit, so only the others unpack it.  Row 0 is read mid-run by
    unpacking its own integer, which is exact: b_0 = b*_0 and no step
    raises the largest |b*_j|, so row 0's F-value never exceeds the
    largest input row's, from which the slot width is sized.  Later rows
    may overflow their slots mid-run, so none is read before exit.  Needs
    at least one row.

    It swaps and size-reduces exactly as Cohen's Alg. 2.6.7 does, and
    differs in how a new row gets its data.  Beside lam and D the loop
    keeps, for every row j added so far, the integral star vector
    B_j = D[j] * b*_j (F B_j under a form), column by column: stars[t][j]
    is its entry in column cols[t].  A new row k reads lam[k][j] =
    <b_k, B_j> and D[k+1] = <b_k, B_k> off dot products over the shared
    columns below, where Cohen pays k + 1 inner products of full length
    and a k^2 / 2 scalar recurrence.  B_k is D[k] b_k - proj b_k
    (D[k] F b_k - proj b_k under a form), with proj = D[k] times the
    orthogonal projection onto the span of rows 0..k-1 (F times the
    F-orthogonal one, under a form).  proj is integral, since D[k] is the
    denominator of the inverse Gram matrix, and it depends on that span
    alone, so swaps and size reduction leave it as it is; a new row moves
    it to (D[k+1] proj + B_k B_k^T) / D[k], an exact division because the
    result is the integral proj of k + 1 rows.  A swap moves B_{k-1} and
    B_k by the two formulas that move the lam columns of the later rows
    (lam[i][j] is linear in B_j); they give the star vectors of the
    swapped rows, integral again, so those divisions are exact too.  Size
    reduction changes no b*_j.

    Only shared columns are kept: those that a row already added touches
    (in F b_i) and a row still to come touches (in b_i), since a new row
    reads the star vectors and proj only where it is nonzero.  A column
    that one row alone touches, such as a kernel basis row's own column,
    adds D[k] b_k[c] (F b_k)[c] to D[k+1] directly.  A column joins when its
    first row is added, with a zero entry for the rows before, and leaves
    once its last row is in.  A kernel basis shares its pivot columns, an
    embedding its column 0; once the last row is in no column is left, and
    the upkeep stops.

    The loop reads no row after adding it, so it packs each row into one
    integer as it adds it (_packing_width), and size reduction subtracts
    q times a row in one integer operation.
    """
    if box is not None and all(abs(v) <= box for v in rows[0].values()):
        return _dense(rows[0], dim)
    nrows = len(rows)
    if form is None:
        starts, tr = rows, 1
    else:
        starts = _sparse([[sum(f[j] * a for j, a in r.items()) for f in form]
                          for r in rows])
        tr = sum(f[i] for i, f in enumerate(form))
    joins, own, drops, last = _columns(rows, starts, dim)
    width = _packing_width(rows, starts, tr ** max(dim - 1, 0))
    if box is not None:
        reach = tr * dim * box * box
    packed: list = []
    p_num, p_den = _DELTA.numerator, _DELTA.denominator
    D = [1] * (nrows + 1)
    lam: list = []
    cols: list = []
    stars: list = []
    proj: list = []
    k, kmax = 0, -1
    while k < nrows:
        if k > kmax:
            kmax = k
            for c in joins[k]:
                cols.append(c)
                stars.append([0] * k)
                for qrow in proj:
                    qrow.append(0)
                proj.append([0] * len(cols))
            bk, ak, dk = rows[k], starts[k], D[k]
            packed.append(sum(v << (width * c) for c, v in bk.items()))
            bc = [bk.get(c, 0) for c in cols]
            lk = ([sum(map(mul, bc, col)) for col in zip(*stars)] if stars
                  else [0] * k)
            u = [dk * ak.get(c, 0) - sum(map(mul, qrow, bc))
                 for c, qrow in zip(cols, proj)]
            dnew = sum(map(mul, bc, u))
            for c in own[k]:
                dnew += dk * bk[c] * ak[c]
            if dnew <= 0:
                raise ValueError("dependent rows")
            D[k + 1] = dnew
            lam.append(lk)
            for s, x in zip(stars, u):
                s.append(x)
            proj = [[(dnew * q + x * y) // dk for q, y in zip(qrow, u)]
                    for qrow, x in zip(proj, u)]
            if drops[k]:
                keep = [t for t, c in enumerate(cols) if last[c] > k]
                cols = [cols[t] for t in keep]
                stars = [stars[t] for t in keep]
                proj = [[proj[t][t2] for t2 in keep] for t in keep]
            if not k:
                k = 1
                continue
        # size-reduce row k against row k - 1, then the Lovasz test
        lk = lam[k]
        dl, lv = D[k], lk[-1]
        if 2 * abs(lv) > dl:
            q = (2 * lv + dl) // (2 * dl)
            packed[k] -= q * packed[k - 1]
            lv -= q * dl
            lk[-1] = lv
            if k > 1:
                lk[:k - 1] = [a - q * b for a, b in zip(lk, lam[k - 1])]
        dk1 = D[k + 1]
        if p_den * (dk1 * D[k - 1] + lv * lv) < p_num * dl * dl:
            # swap rows k - 1 and k: lam[k][k-1] stays, the rows' earlier
            # lam swap, and columns k - 1 and k of the later rows' lam and
            # of the star vectors move by the same two formulas
            packed[k - 1], packed[k] = packed[k], packed[k - 1]
            lp = lam[k - 1]
            lk.pop()
            lp.append(lv)
            lam[k - 1], lam[k] = lk, lp
            newd = (D[k - 1] * dk1 + lv * lv) // dl
            for li in lam[k + 1:] + stars:
                t = li[k]
                li[k] = v = (dk1 * li[k - 1] - lv * t) // dl
                li[k - 1] = (newd * t + lv * v) // dk1
            D[k] = newd
            if k > 1:
                k -= 1
            elif box is not None and newd <= reach:
                first = _unpack(packed[:1], width, dim)[0]
                if linf(first) <= box:
                    return first
        else:
            for ll in range(k - 2, -1, -1):
                dl, lv = D[ll + 1], lk[ll]
                if 2 * abs(lv) > dl:
                    q = (2 * lv + dl) // (2 * dl)
                    packed[k] -= q * packed[ll]
                    lk[ll] = lv - q * dl
                    if ll:
                        lk[:ll] = [a - q * b for a, b in zip(lk, lam[ll])]
            k += 1
    if box is not None:
        return _unpack(packed[:1], width, dim)[0]
    return (_unpack(packed, width, dim), (tuple(D), tuple(map(tuple, lam))))


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
