"""Lattice constructions behind the solvers.

kernel_basis extracts an integer basis of the rank n-1 lattice of integer
vectors orthogonal to x; _kernel_rows builds it as sparse rows, column to
nonzero entry, which kernel_basis densifies.  _kernel_rows builds only
the rows it is asked for, the first count of them, by replaying a
reduction of x recorded once, so the lll engine, whose reducer stops
within the first few rows, hands the reducer a prefix of the basis and
builds no row it does not read.  embedding_basis builds the scaled
(n+1)-dimensional lattice whose short or close vectors encode solutions,
with parameters chosen so that membership in a small box forces the first
coordinate to vanish.  Shifted targets for the closest-vector reductions
live here too.  GaugeBody names the coefficient bodies whose gauge
enumeration.svp_gauge minimizes: balancing over such a body searches
kernel_basis(x) itself, of rank n-1, with no completion to full rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .core import (
    Box,
    Ellipsoid,
    InternalError,
    ceil_root,
)

GaugeBody = Union[Box, Ellipsoid]


@dataclass(frozen=True)
class LatticeBasis:
    """Row-major integer basis.

    Construction checks the shape only.  Linear independence is enforced by
    the reducer behind lll_reduce and enumeration.prepare, which rejects
    dependent rows with an exact test; everything built here is
    independent by construction.  A basis holds rows only: its
    Gram-Schmidt data lives on the PreparedLattice that prepare builds.
    """

    rows: Tuple[Tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(len(r) != self.dim for r in rows):
            raise ValueError("row length does not match dim")
        if len(rows) > self.dim:
            raise ValueError("more rows than the ambient dimension")

    @property
    def rank(self) -> int:
        return len(self.rows)


def _sparse(rows) -> list:
    """Dense rows in the sparse format that _kernel_rows builds and
    reduction._reduce reads: per row, a dict from each column where it is
    nonzero to its entry."""
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _dense(row, dim: int) -> Tuple[int, ...]:
    """The dim entries of a row in the sparse format."""
    out = [0] * dim
    for c, v in row.items():
        out[c] = v
    return tuple(out)


def kernel_basis(x: Sequence[int]) -> LatticeBasis:
    """Basis of the integer vectors orthogonal to x, rank n-1: the rows of
    _kernel_rows(x), densified."""
    xs = tuple(int(v) for v in x)
    n = len(xs)
    return LatticeBasis(tuple(_dense(r, n) for r in _kernel_rows(xs)), n)


def _kernel_rows(xs: Tuple[int, ...], count=None) -> list:
    """The first count rows of kernel_basis (all n - 1 when count is
    None) in the reducer's sparse format: per row, a dict from each column
    where it is nonzero to its entry.

    The working copy y of x is reduced, by centered division against the
    smallest nonzero entry (the least index among ties), down to a single
    nonzero entry (the gcd up to sign).  A unimodular row transform U
    follows it, and the rows of U that map to zeroed entries are the
    kernel basis.  The reduction runs on y alone and records each round's
    y and its pivot p, from which the round's quotients follow: q_i =
    y_i / |y_p| rounded, ties up, which is (y_i + h) // |y_p| for
    h = |y_p| // 2, and 0 once y_i is 0.  A row of U is built only when
    it is asked for, by replaying the rounds on its unit vector: the row's
    sign flips in a round where it is the pivot and y_p < 0, and q_i times
    that round's pivot row comes off it in a round where q_i is nonzero.
    The pivot rows, a handful per x, are replayed first, round by round,
    to give each round's pivot row.  A zero x_i leaves row i as its unit
    vector.  Every row built is checked orthogonal to x.
    """
    if not xs or all(v == 0 for v in xs):
        raise ValueError("zero vector")
    n = len(xs)
    rounds: list = []  # per round: y before it, its pivot p, |y_p| and h
    y = list(xs)
    while n - y.count(0) > 1:
        mags = list(map(abs, y))
        yp = min(filter(None, mags))
        p = mags.index(yp)  # the least index of least nonzero |y_i|
        h = yp >> 1
        rounds.append((y, p, yp, h))
        y = [(v + h) % yp - h for v in y]  # y_i - q_i y_p; 0 stays 0
        y[p] = yp
    pivot = y.index(max(y, key=abs))  # y's one nonzero entry
    pivots = {p: {p: 1} for _, p, _, _ in rounds}
    steps = []  # per round: y before it, |y_p|, h and its pivot row's items
    for y, p, yp, h in rounds:
        if y[p] < 0:
            pivots[p] = {c: -a for c, a in pivots[p].items()}
        up = tuple(pivots[p].items())
        steps.append((y, yp, h, up))
        for j, uj in pivots.items():
            q = (y[j] + h) // yp
            if q and j != p:
                for c, a in up:
                    uj[c] = uj.get(c, 0) - q * a
    kernel = []
    for i in [i for i in range(n) if i != pivot][:count]:
        ui = pivots.get(i)
        if ui is None:
            ui = {i: 1}
            for y, yp, h, up in steps:
                q = (y[i] + h) // yp
                if q:
                    for c, a in up:
                        ui[c] = ui.get(c, 0) - q * a
        kernel.append({c: a for c, a in ui.items() if a})
    if any(sum(a * xs[c] for c, a in r.items()) for r in kernel):
        raise InternalError("self-check failed: kernel row not orthogonal to x")
    return kernel


@dataclass(frozen=True)
class EmbeddingParams:
    """Scale alpha, modulus q, and the default target of the embedding."""

    alpha: int
    q: int
    target: Tuple[int, ...]


def choose_params(
    x: Sequence[int],
    d: int,
    tau: int = 0,
    m_bound=None,
) -> EmbeddingParams:
    """Embedding parameters: the worst case, or the average case when
    m_bound is given.

    worst case:    alpha = d+1, q = d*sum|x_i| + |tau| + 1, target
                   alpha*tau; at tau = 0 these are balancing's parameters.
    average case:  alpha = max(d+1, ceil(m_bound**(1/n))),
                   q = alpha*sum|x_i| + |tau| + 1, target alpha*tau.

    Either way alpha exceeds d and q exceeds the largest |sum c_i x_i -
    tau| reachable with |c_i| <= d, which is what makes small vectors of the
    embedding decode to solutions.
    """
    xs = tuple(int(v) for v in x)
    if not xs or all(v == 0 for v in xs):
        raise ValueError("zero vector")
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    sum_abs = sum(abs(v) for v in xs)
    tau = int(tau)
    if m_bound is None:
        alpha = d + 1
        q = d * sum_abs + abs(tau) + 1
    else:
        m_bound = int(m_bound)
        if m_bound < 1:
            raise ValueError("m_bound must be positive")
        alpha = max(d + 1, ceil_root(m_bound, len(xs)))
        q = alpha * sum_abs + abs(tau) + 1
    if not (alpha > d and q > d * sum_abs + abs(tau)):
        raise InternalError(
            "self-check failed: embedding scale or modulus too small"
        )
    target = (alpha * tau,) + (0,) * len(xs)
    return EmbeddingParams(alpha, q, target)


def embedding_basis(x: Sequence[int], params: EmbeddingParams) -> LatticeBasis:
    """Rows (alpha*q, 0) and (alpha*x_i, e_i): determinant alpha*q."""
    xs = tuple(int(v) for v in x)
    n = len(xs)
    rows = [(params.alpha * params.q,) + (0,) * n]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append((params.alpha * xs[i],) + tuple(e))
    return LatticeBasis(tuple(rows), n + 1)


def sign_pattern_target(
    tau: int, alpha: int, d: int, signs: Sequence[int]
) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """Target for one sign pattern and the matching decision radius.

    Coordinates i >= 1 sit at s_i*(d+1)/2, the midpoint of the positive or
    negative coefficient range; the radius (d-1)/2 spans exactly that
    range.  Attainable sup distances then live on the integers for odd d
    and on Z + 1/2 for even d.
    """
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    half = Fraction(d + 1, 2)
    target = (Fraction(alpha * tau),) + tuple(s * half for s in signs)
    return target, Fraction(d - 1, 2)


def interval_shift_target(
    tau: int, alpha: int, a: int, b: int, n: int
) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """Target centered on the interval [a, b] and the radius (b-a)/2."""
    if a > b:
        raise ValueError("interval requires a <= b")
    if n < 1:
        raise ValueError("n must be positive")
    mid = Fraction(a + b, 2)
    target = (Fraction(alpha * tau),) + (mid,) * n
    return target, Fraction(b - a, 2)

