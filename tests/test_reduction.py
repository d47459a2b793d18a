"""The rational Gram-Schmidt reference and the all-integer reduction.

Reduction correctness is stated entirely in checkable invariants: the
reduced basis spans the same lattice (equal Gram determinant plus integer
coordinates both ways), is size-reduced (|mu_ij| <= 1/2), and satisfies
the Lovasz condition at delta = 3/4.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbl.core import dot, linf
from sbl.enumeration import prepare
from sbl.lattice import (LatticeBasis, _sparse, embedding_basis,
                         choose_params, kernel_basis)
from sbl.reduction import _reduce, lll_reduce, lll_threshold

from reference import gram_schmidt, mat_det, mat_solve, reduce_reference
from test_enumeration import _forms
from test_golden import KERNELS


def _reduce_dense(basis, form=None, box=None):
    """_reduce on a LatticeBasis, its dense rows passed as _reduce reads
    them (_sparse)."""
    return _reduce(_sparse(basis.rows), basis.dim, form, box)


def _gram(rows):
    return [[dot(a, b) for b in rows] for a in rows]


def _same_lattice(a: LatticeBasis, b: LatticeBasis) -> bool:
    if a.rank != b.rank or a.dim != b.dim:
        return False
    if mat_det(_gram(a.rows)) != mat_det(_gram(b.rows)):
        return False
    ga = _gram(a.rows)
    for v in b.rows:
        coords = mat_solve(ga, [dot(r, v) for r in a.rows])
        if any(c.denominator != 1 for c in coords):
            return False
    return True


def _random_bases(max_dim=4, bound=40):
    def build(rows):
        return LatticeBasis(tuple(tuple(r) for r in rows), len(rows[0]))

    return (
        st.integers(2, max_dim)
        .flatmap(lambda m: st.lists(
            st.lists(st.integers(-bound, bound), min_size=m, max_size=m),
            min_size=m, max_size=m))
        .filter(lambda rows: mat_det(rows) != 0)
        .map(build)
    )


# ---------------------------------------------------------------------------
# Gram-Schmidt
# ---------------------------------------------------------------------------

def test_gso_simple():
    basis = LatticeBasis(((1, 1), (0, 2)), 2)
    gso = gram_schmidt(basis)
    assert gso.b_star_sq == (Fraction(2), Fraction(2))
    assert gso.mu[1][0] == Fraction(1)


def test_gso_rejects_dependent_rows():
    with pytest.raises(ValueError):
        gram_schmidt(LatticeBasis(((1, 2), (2, 4)), 2))


@given(_random_bases())
@settings(max_examples=60, deadline=None)
def test_gso_orthogonality(basis):
    gso = gram_schmidt(basis)
    m = basis.rank
    # reconstruct b*_i and check pairwise orthogonality exactly
    star = []
    for i in range(m):
        v = [Fraction(c) for c in basis.rows[i]]
        for j in range(i):
            mu = gso.mu[i][j]
            for k in range(basis.dim):
                v[k] -= mu * star[j][k]
        star.append(v)
        assert sum(c * c for c in v) == gso.b_star_sq[i]
    for i in range(m):
        for j in range(i):
            assert sum(a * b for a, b in zip(star[i], star[j])) == 0


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_lll_identity_is_fixed():
    basis = LatticeBasis(((1, 0), (0, 1)), 2)
    assert lll_reduce(basis).rows == ((1, 0), (0, 1))


def test_lll_classic_example():
    red = lll_reduce(LatticeBasis(((1, 1, 1), (-1, 0, 2), (3, 5, 6)), 3))
    assert _same_lattice(red, LatticeBasis(((1, 1, 1), (-1, 0, 2), (3, 5, 6)), 3))
    # first vector of the reduced basis is short
    assert dot(red.rows[0], red.rows[0]) <= 3


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce(LatticeBasis(((2, 4), (1, 2)), 2))


@given(_random_bases())
@settings(max_examples=60, deadline=None)
def test_lll_invariants(basis):
    red = lll_reduce(basis)
    assert _same_lattice(basis, red)
    gso = gram_schmidt(red)
    m = red.rank
    for i in range(m):
        for j in range(i):
            assert abs(gso.mu[i][j]) <= Fraction(1, 2)
    for k in range(m - 1):
        mu = gso.mu[k + 1][k]
        lhs = gso.b_star_sq[k + 1] + mu * mu * gso.b_star_sq[k]
        assert lhs >= Fraction(3, 4) * gso.b_star_sq[k]


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=6)
       .map(tuple).filter(any))
@settings(max_examples=40, deadline=None)
def test_lll_on_kernel_bases(x):
    kb = kernel_basis(x)
    red = lll_reduce(kb)
    assert _same_lattice(kb, red)
    for row in red.rows:
        assert dot(row, x) == 0


_kernel_embedding_and_random_bases = st.one_of(
    _random_bases(max_dim=6),
    st.lists(st.integers(-10**4, 10**4), min_size=2, max_size=6)
    .filter(any).map(kernel_basis),
    st.tuples(st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=6)
              .filter(any), st.integers(1, 5), st.integers(-100, 100))
    .map(lambda a: embedding_basis(a[0], choose_params(a[0], a[1], a[2]))))


@given(_random_bases())
@settings(max_examples=40, deadline=None)
def test_integral_gso_matches_the_rational_one(basis):
    """The reducer's lambda/D data at exit is the integral form of the
    rational Gram-Schmidt data of its output rows:
    D[i+1] / D[i] = |b*_i|^2 and lam[i][j] = mu_ij D[j+1]."""
    rows, (dets, lam) = _reduce_dense(basis)
    gso = gram_schmidt(LatticeBasis(rows, basis.dim))
    assert dets[0] == 1 and len(dets) == len(rows) + 1
    for i, b2 in enumerate(gso.b_star_sq):
        assert Fraction(dets[i + 1], dets[i]) == b2
        assert lam[i] == tuple(m * dets[j + 1] for j, m in enumerate(gso.mu[i]))


@given(_kernel_embedding_and_random_bases)
@settings(max_examples=60, deadline=None)
def test_reduced_basis_carries_its_integral_gso(basis):
    """prepare keeps the reducer's exit data, which is that of lll_reduce's
    output rows, so preparing needs no second pass; lll_reduce returns rows
    only, with nothing beside them in the basis's value."""
    red = lll_reduce(basis)
    rows, gso = _reduce_dense(basis)
    assert rows == red.rows
    assert (prepare(basis).gram_det, prepare(basis).lam) == gso
    assert red == LatticeBasis(red.rows, red.dim)
    assert vars(red) == vars(LatticeBasis(red.rows, red.dim))


@given(_kernel_embedding_and_random_bases)
@example(LatticeBasis(((1, 0), (7, 1)), 2))
@settings(max_examples=60, deadline=None)
def test_prepare_keeps_the_rows_of_a_reduced_basis(basis):
    """prepare reduces, and reducing a reduced basis changes no row, so a
    basis lll_reduce returned is prepared as it stands."""
    red = lll_reduce(basis)
    assert prepare(basis).rows == red.rows
    assert prepare(red) == prepare(basis)


@st.composite
def _bases_and_forms(draw):
    """A basis and an integral positive definite form F = M^T M + I of its
    dimension, for the inner product u F v^T."""
    basis = draw(_random_bases(max_dim=5, bound=12))
    m = basis.dim
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                         min_size=1, max_size=m))
    form = [[sum(r[i] * r[j] for r in rows) + (i == j) for j in range(m)]
            for i in range(m)]
    return basis, form


def _form_ip(form):
    """The inner product u F v^T of an integral form F."""
    def ip(u, v):
        return sum(a * dot(row, v) for a, row in zip(u, form))

    return ip


def _gram_gso(gram):
    """mu and |b*_i|^2 of rows with the Gram matrix gram, in Fractions."""
    mu: list = []
    sqs: list = []
    for i, gi in enumerate(gram):
        mi = []
        for j in range(i):
            mi.append((gi[j] - sum(mu[j][k] * mi[k] * sqs[k]
                                   for k in range(j))) / sqs[j])
        sqs.append(gi[i] - sum(m * m * s for m, s in zip(mi, sqs)))
        mu.append(mi)
    return mu, sqs


@given(_bases_and_forms())
@settings(max_examples=60, deadline=None)
def test_the_reducer_reduces_under_an_integral_form(case):
    """Under a form F the private reducer's lambda/D data is that of the
    Gram matrix of u F v^T (D[i] its leading minors, lam[i][j] = mu_ij
    D[j+1] for its rational Gram-Schmidt data), and the output is
    size-reduced and Lovasz-reduced under F, stated in those integers."""
    basis, form = case
    ip = _form_ip(form)
    rows, (dets, lam) = _reduce_dense(basis, form)
    assert _same_lattice(basis, LatticeBasis(rows, basis.dim))
    gram = [[Fraction(ip(a, b)) for b in rows] for a in rows]
    mu, sqs = _gram_gso(gram)
    for i in range(len(rows) + 1):
        assert dets[i] == mat_det([row[:i] for row in gram[:i]])
    for i in range(len(rows)):
        assert sqs[i] == Fraction(dets[i + 1], dets[i])
        assert list(lam[i]) == [mu[i][j] * dets[j + 1] for j in range(i)]
        for j in range(i):
            assert 2 * abs(lam[i][j]) <= dets[j + 1]
    for k in range(len(rows) - 1):
        lhs = dets[k + 2] * dets[k] + lam[k + 1][k] ** 2
        assert 4 * lhs >= 3 * dets[k + 1] ** 2


@st.composite
def _weights(draw):
    """2 to 16 weights, not all zero, drawn from a few values and 0 (so
    zeros and repeated entries are common) mixed with wide random ones."""
    pool = draw(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=4))
    x = draw(st.lists(st.one_of(st.sampled_from(pool + [0]),
                                st.integers(-2**40, 2**40)),
                      min_size=2, max_size=16))
    assume(any(x))
    return x


@st.composite
def _dense_bases(draw):
    """Rank 0 to 8 in dimension rank to rank + 2, dependent rows allowed."""
    r = draw(st.integers(0, 8))
    m = draw(st.integers(r, r + 2))
    rows = draw(st.lists(st.lists(st.integers(-30, 30), min_size=m,
                                  max_size=m), min_size=r, max_size=r))
    return LatticeBasis(tuple(map(tuple, rows)), m)


@st.composite
def _weights_with_zeros(draw):
    """_weights with at least one entry set to 0 and one left nonzero, so
    the kernel basis has a row whose only nonzero is its own column."""
    x = draw(_weights())
    keep = draw(st.sampled_from([i for i, v in enumerate(x) if v]))
    zeros = draw(st.sets(st.sampled_from([i for i in range(len(x))
                                          if i != keep]), min_size=1))
    return [0 if i in zeros else v for i, v in enumerate(x)]


@st.composite
def _zero_column_bases(draw):
    """_dense_bases of dimension 1 or more with one column all zeros."""
    basis = draw(_dense_bases().filter(lambda b: b.dim))
    c = draw(st.integers(0, basis.dim - 1))
    rows = tuple(r[:c] + (0,) + r[c + 1:] for r in basis.rows)
    return LatticeBasis(rows, basis.dim)


@st.composite
def _embeddings(draw):
    """embedding_basis of _weights with worst- and average-case
    choose_params, at tau = 0 (balancing's parameters) as well as away
    from it."""
    x = draw(_weights())
    tau = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    params = choose_params(x, draw(st.integers(1, 6)), tau,
                           draw(st.one_of(st.none(), st.integers(1, 2**20))))
    return embedding_basis(x, params)


@st.composite
def _reducer_inputs(draw):
    """A basis from one of the reducer's callers, or with an all-zero
    column, and either no form or an integral gauge form L A of its
    dimension (_forms)."""
    basis = draw(st.one_of(
        _dense_bases(),
        _zero_column_bases(),
        _weights().map(kernel_basis),
        _weights_with_zeros().map(kernel_basis),
        _embeddings()))
    if basis.dim == 0 or not draw(st.booleans()):
        return basis, None
    body = draw(_forms(basis.dim))
    den = lcm(*(a.denominator for row in body.a for a in row))
    return basis, [[int(den * a) for a in row] for row in body.a]


def _outcome(reduce, *args):
    try:
        return reduce(*args)
    except ValueError as exc:
        return repr(exc)


@given(_reducer_inputs())
@example((LatticeBasis(((1, 0), (1000, 1)), 2),
          [[1, -1000], [-1000, 1000001]]))
@example((LatticeBasis(((0, 2, 0), (0, 3, 5)), 3), None))
@example((LatticeBasis(((0, 2, 0), (0, 3, 5)), 3),
          [[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
@example((kernel_basis((0, 4, 0, -6)), None))
@settings(max_examples=300, deadline=None)
def test_reducer_matches_the_reference(case):
    """The reducer swaps, size-reduces and returns exactly as Cohen's
    all-integer LLL with its k^2 / 2 recurrence per new row
    (reference.reduce_reference): the same (rows, (D, lam)), or the same
    ValueError on dependent rows, with and without a form.  The example's
    rows have F-value 1, and the reduced row (1000, 1) still unpacks: the
    packing width allows for F's least eigenvalue.  The other examples
    have an all-zero column, which F moves into the rows' starts, and a
    kernel basis of x with zeros, whose rows for them are unit vectors."""
    basis, form = case
    ip = dot if form is None else _form_ip(form)
    assert (_outcome(_reduce_dense, basis, form)
            == _outcome(reduce_reference, basis.rows, ip))


@given(_reducer_inputs(), st.integers(0, 10**6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_stopped_reduction_returns_the_first_row_0_that_fits(case, pick,
                                                               tight):
    """Given a box bound, the reducer returns row 0 at the first of the
    reference run's states that lies in the box (the input's row 0, or row
    0 after a swap of rows 0 and 1), else the output's row 0, with and
    without a form.  The bound is a state's sup norm, or one less, so the
    stop falls on the input, on a swap or on no state; the D[1] pre-test
    must pass every state that fits."""
    basis, form = case
    rows = basis.rows
    assume(rows)
    ip = dot if form is None else _form_ip(form)
    firsts: list = []
    try:
        reduce_reference(rows, ip, firsts)
    except ValueError:
        assume(False)
    bound = linf(firsts[pick % len(firsts)]) - tight
    want = next((r for r in firsts if linf(r) <= bound), firsts[-1])
    assert _reduce_dense(basis, form, bound) == want


@pytest.mark.parametrize("case_id, inst", KERNELS)
def test_the_full_reducer_on_the_golden_kernels(case_id, inst):
    """The golden kernel records freeze the lll engine's stop, so the full
    reduction of those two kernel bases is held to the reference here:
    the same rows and the same (D, lam)."""
    basis = kernel_basis(inst.x)
    want = reduce_reference(basis.rows)
    assert _reduce_dense(basis) == want
    assert lll_reduce(basis).rows == want[0]


# ---------------------------------------------------------------------------
# the guarantee threshold
# ---------------------------------------------------------------------------

def test_threshold_examples():
    assert lll_threshold((1, 2), 2)       # 3^4 = 81 > 2^0 * 5^2 = 25
    assert not lll_threshold((1, 2), 1)
    assert lll_threshold((1, 1, 2), 1)


def test_threshold_monotone_in_d():
    x = (12, 35, 8, 41)
    held = False
    for d in range(1, 40):
        now = lll_threshold(x, d)
        assert now or not held  # once true, stays true
        held = held or now
    assert held


@given(st.lists(st.integers(-100, 100), min_size=2, max_size=6)
       .map(tuple).filter(any), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_threshold_first_vector_fits(x, d):
    assume(lll_threshold(x, d))
    red = lll_reduce(kernel_basis(x))
    assert max(abs(v) for v in red.rows[0]) <= d
