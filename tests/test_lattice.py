"""Kernel bases, embedding lattices, shifted targets, and gauges."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sbl.core import Box, Ellipsoid, dot, gcd_vector, l2_sq
from sbl.lattice import (
    LatticeBasis,
    _dense,
    _kernel_rows,
    choose_params,
    embedding_basis,
    interval_shift_target,
    kernel_basis,
    sign_pattern_target,
)
from reference import gauge_sq, kernel_basis_reference, mat_det

nonzero_vecs = (
    st.lists(st.integers(-200, 200), min_size=2, max_size=8)
    .map(tuple)
    .filter(any)
)


def _gram_det(basis: LatticeBasis) -> Fraction:
    rows = basis.rows
    return mat_det([[dot(a, b) for b in rows] for a in rows])


# ---------------------------------------------------------------------------
# kernel lattice
# ---------------------------------------------------------------------------

def test_kernel_basis_simple():
    kb = kernel_basis((3, 4))
    assert kb.rank == 1
    assert kb.rows[0] in ((4, -3), (-4, 3))


def test_kernel_of_equal_entries():
    kb = kernel_basis((5, 5))
    assert kb.rank == 1
    assert kb.rows[0] in ((1, -1), (-1, 1))


@given(nonzero_vecs)
@settings(max_examples=120, deadline=None)
def test_kernel_rows_are_orthogonal_to_x(x):
    kb = kernel_basis(x)
    assert kb.rank == len(x) - 1
    for row in kb.rows:
        assert dot(row, x) == 0


@given(nonzero_vecs)
@settings(max_examples=120, deadline=None)
def test_kernel_gram_determinant_formula(x):
    g = gcd_vector(x)
    assert _gram_det(kernel_basis(x)) == Fraction(l2_sq(x), g * g)


@st.composite
def _kernel_inputs(draw):
    """x of length 1 to 12, nonzero, with zeros, negative entries, mixed
    magnitudes and entries repeated up to sign."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(-2**64, 2**64))
    xs = draw(st.lists(entry, min_size=n, max_size=n))
    for i in range(n):
        if i and draw(st.booleans()):
            xs[i] = draw(st.sampled_from((1, -1))) * xs[draw(
                st.integers(0, i - 1))]
    assume(any(xs))
    return tuple(xs)


@given(_kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_matches_the_dense_transform(x):
    assert kernel_basis(x) == kernel_basis_reference(x)


@given(_kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_kernel_rows_build_every_prefix_of_the_dense_transform(x):
    """For every count from 0 to n - 1, _kernel_rows(x, count) densifies
    to the first count rows of the dense-transform kernel, with no zero
    entry kept."""
    want = kernel_basis_reference(x).rows
    for count in range(len(x)):
        rows = _kernel_rows(x, count)
        assert all(all(r.values()) for r in rows)
        assert tuple(_dense(r, len(x)) for r in rows) == want[:count]


def test_kernel_rejects_zero_vector():
    with pytest.raises(ValueError):
        kernel_basis((0, 0, 0))


# ---------------------------------------------------------------------------
# embedding parameters
# ---------------------------------------------------------------------------

def test_choose_params_sbp():
    """Balancing takes the default mode at tau = 0; "sbp" is no mode."""
    p = choose_params((1, 2), 1)
    assert (p.alpha, p.q, p.target) == (2, 4, (0, 0, 0))
    with pytest.raises(ValueError, match="unknown mode"):
        choose_params((1, 2), 1, 0, "sbp")


def test_choose_params_gss_worst():
    p = choose_params((2, 3), 2, 7, "gss_worst")
    assert (p.alpha, p.q, p.target) == (3, 18, (21, 0, 0))


def test_choose_params_gss_avg():
    p = choose_params((7, 9), 2, 2, "gss_avg", m_bound=16)
    assert (p.alpha, p.q, p.target) == (4, 67, (8, 0, 0))


def test_choose_params_avg_needs_m_bound():
    with pytest.raises(ValueError):
        choose_params((7, 9), 2, 2, "gss_avg")


@given(nonzero_vecs, st.integers(1, 5), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_embedding_determinant(x, d, tau):
    p = choose_params(x, d, tau, "gss_worst")
    basis = embedding_basis(x, p)
    assert basis.rank == basis.dim == len(x) + 1
    assert _gram_det(basis) == (p.alpha * p.q) ** 2
    assert p.alpha > d
    assert p.q > d * sum(abs(v) for v in x) + abs(tau) - 1


# ---------------------------------------------------------------------------
# shifted targets
# ---------------------------------------------------------------------------

def test_sign_pattern_target():
    t, r = sign_pattern_target(1, 2, 1, (-1, 1))
    assert t == (2, -1, 1)
    assert r == 0
    t, r = sign_pattern_target(0, 3, 2, (1, 1))
    assert t == (0, Fraction(3, 2), Fraction(3, 2))
    assert r == Fraction(1, 2)


def test_sign_pattern_target_validates():
    with pytest.raises(ValueError):
        sign_pattern_target(0, 2, 1, (0, 1))
    with pytest.raises(ValueError):
        sign_pattern_target(0, 2, 0, (1,))


def test_interval_shift_target():
    t, r = interval_shift_target(5, 2, 0, 1, 3)
    assert t == (10, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert r == Fraction(1, 2)
    t, r = interval_shift_target(0, 3, -2, 2, 2)
    assert t == (0, 0, 0)
    assert r == 2


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_enclosing_box_radius():
    # brute force scans an ellipsoid through the minimal box radius d
    # enclosing it
    e = Ellipsoid(((Fraction(1, 4), 0), (0, 1)))
    assert e.bounding_box_radius() == 2


def test_gauge_norms():
    e = Ellipsoid(((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert gauge_sq(Box(2), (2, -1)) == 1
    assert gauge_sq(Box(2), (3, 0)) == Fraction(9, 4)
    assert gauge_sq(e, (1, -1)) == 1
