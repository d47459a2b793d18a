"""Domain types, exact helpers, and the JSON wire format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbl.core import (
    Box,
    Ellipsoid,
    Instance,
    Interval,
    ParseError,
    Punctured,
    Verdict,
    ceil_root,
    ceil_sqrt_frac,
    coefficient_alphabet,
    dot,
    floor_sqrt_frac,
    gcd_vector,
    iroot,
    is_positive_definite,
    l2_sq,
    linf,
    parse_instance,
    parse_verdict,
    serialize_instance,
    serialize_verdict,
    verify_solution,
)

from reference import mat_det, mat_inverse, mat_solve

ints = st.integers(min_value=-10**6, max_value=10**6)
small_vecs = st.lists(ints, min_size=1, max_size=6).map(tuple)


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def test_dot_and_norms():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0
    assert l2_sq((3, 4)) == 25
    assert linf((-7, 2)) == 7
    assert linf(()) == 0


def test_gcd_vector():
    assert gcd_vector((6, 10, 15)) == 1
    assert gcd_vector((4, -6)) == 2
    with pytest.raises(ValueError):
        gcd_vector((0, 0))


@given(small_vecs)
def test_gcd_divides_every_entry(x):
    if all(v == 0 for v in x):
        return
    g = gcd_vector(x)
    assert g >= 1
    assert all(v % g == 0 for v in x)


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=8))
def test_iroot_is_exact_floor(m, n):
    r = iroot(m, n)
    assert r ** n <= m < (r + 1) ** n


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=8))
def test_ceil_root_is_exact_ceiling(m, n):
    r = ceil_root(m, n)
    assert r ** n >= m
    assert r == 0 or (r - 1) ** n < m


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_sqrt_frac_bounds(p, q):
    f = Fraction(p, q)
    lo = floor_sqrt_frac(f)
    hi = ceil_sqrt_frac(f)
    assert lo * lo <= f <= hi * hi
    assert lo <= hi <= lo + 1


# ---------------------------------------------------------------------------
# rational linear algebra
# ---------------------------------------------------------------------------

def test_mat_det_and_solve():
    a = ((2, 1), (1, 3))
    assert mat_det(a) == 5
    sol = mat_solve(a, (3, 5))
    assert sol == (Fraction(4, 5), Fraction(7, 5))
    inv = mat_inverse(a)
    assert inv[0][0] == Fraction(3, 5)


def test_mat_solve_singular():
    with pytest.raises(ValueError):
        mat_solve(((1, 2), (2, 4)), (1, 1))


def test_positive_definite():
    assert is_positive_definite(((2, 1), (1, 2)))
    assert not is_positive_definite(((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        is_positive_definite(((1, 0), (1, 1)))  # not symmetric


# ---------------------------------------------------------------------------
# coefficient sets
# ---------------------------------------------------------------------------

def test_interval_contains():
    c = Interval(-2, 3)
    assert c.contains((0, 3, -2))
    assert not c.contains((4,))
    with pytest.raises(ValueError):
        Interval(2, 1)


def test_punctured_contains():
    c = Punctured(2)
    assert c.contains((1, -2))
    assert not c.contains((0, 1))
    assert not c.contains((3,))
    with pytest.raises(ValueError):
        Punctured(0)


def test_box_contains():
    assert Box(2).contains((2, -2, 0))
    assert not Box(2).contains((3,))


def test_ellipsoid_contains_and_extents():
    # x^2/4 + y^2 <= 1: the axis-aligned 2x1 ellipse
    e = Ellipsoid(((Fraction(1, 4), 0), (0, 1)))
    assert e.contains((2, 0))
    assert e.contains((0, 1))
    assert not e.contains((2, 1))
    assert e.axis_extents_sq() == (Fraction(4), Fraction(1))
    assert e.bounding_box_radius() == 2
    with pytest.raises(ValueError):
        Ellipsoid(((1, 2), (2, 1)))  # not positive definite


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_axis_extents_are_the_inverse_diagonal(m):
    # M^T M + I/2 is positive definite for any square M
    n = len(m)
    a = [[sum(m[k][i] * m[k][j] for k in range(n))
          + (Fraction(1, 2) if i == j else 0) for j in range(n)]
         for i in range(n)]
    e = Ellipsoid(a)
    inv = mat_inverse(a)
    assert e.axis_extents_sq() == tuple(inv[i][i] for i in range(n))


def test_coefficient_alphabet():
    assert coefficient_alphabet(Interval(-1, 1)) == (-1, 0, 1)
    assert coefficient_alphabet(Punctured(2)) == (-2, -1, 1, 2)
    assert coefficient_alphabet(Box(1)) == (-1, 0, 1)
    assert coefficient_alphabet(Ellipsoid(((1, 0), (0, 1)))) is None


# ---------------------------------------------------------------------------
# instances and verdicts
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError):
        Instance((), Box(1))
    with pytest.raises(ValueError):
        Instance((1, 2), Ellipsoid(((1,),)))  # dimension mismatch
    with pytest.raises(ValueError):
        Instance((1,), Box(1), m_bound=0)


def test_verdict_witness_invariant():
    with pytest.raises(ValueError):
        Verdict("solved", None)
    with pytest.raises(ValueError):
        Verdict("no_solution", (1,))
    with pytest.raises(ValueError):
        Verdict("nope", None)


def test_verify_solution_balancing_rejects_zero():
    inst = Instance((1, 1, 2), Interval(-1, 1))
    assert not verify_solution(inst, (0, 0, 0), "balancing")
    assert verify_solution(inst, (-1, -1, 1), "balancing")
    assert verify_solution(inst, (0, 0, 0), "gss")


@pytest.mark.parametrize("bad", [(1.9, 0, 0), (1.5, 0, 0), (True, 0, 0),
                                 (Fraction(1), 0, 0), ("1", 0, 0), ([1], 0, 0)])
def test_verify_solution_rejects_non_integer_entries(bad):
    inst = Instance((0, 3, 5), Interval(-2, 2))
    for mode in ("balancing", "gss"):
        with pytest.raises(ValueError):
            verify_solution(inst, bad, mode)


def test_verify_solution_checks_membership():
    inst = Instance((1, 2), Interval(-1, 1), tau=5)
    # 1*1 + 2*2 = 5 but 2 is outside the interval
    assert not verify_solution(inst, (1, 2), "gss")


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def _roundtrip(inst):
    return parse_instance(serialize_instance(inst))


def test_instance_roundtrip_all_kinds():
    big = 12345678901234567890123456789
    insts = [
        Instance((1, 2, 3), Interval(-2, 2), tau=7),
        Instance((big, 5), Punctured(3), tau=-1, m_bound=big),
        Instance((4,), Box(2)),
        Instance((1, 1), Ellipsoid(((Fraction(1, 2), 0), (0, Fraction(1, 2))))),
    ]
    for inst in insts:
        assert _roundtrip(inst) == inst


def test_serialize_is_canonical():
    inst = Instance((3, 1), Box(1), tau=2)
    assert serialize_instance(inst) == serialize_instance(_roundtrip(inst))


def test_parse_instance_errors_name_fields():
    with pytest.raises(ParseError, match="x"):
        parse_instance('{"coeffs":{"kind":"box","d":1}}')
    with pytest.raises(ParseError, match="coeffs"):
        parse_instance('{"x":["1"]}')
    with pytest.raises(ParseError, match="tau"):
        parse_instance('{"x":["1"],"coeffs":{"kind":"box","d":1},"tau":"a"}')
    with pytest.raises(ParseError):
        parse_instance("{")
    with pytest.raises(ParseError, match="d"):
        parse_instance('{"x":["1"],"coeffs":{"kind":"box","d":0}}')
    # a float or a bool is no exact ellipsoid entry, however JSON spells it
    for entry in ("1e400", "0.1", "true"):
        with pytest.raises(ParseError, match=r"^coeffs\.a\[0\]\[1\]: "):
            parse_instance('{"x":["1","2"],"coeffs":{"kind":"ellipsoid",'
                           '"a":[["1",%s],["0","1"]]}}' % entry)


def test_verdict_roundtrip():
    for v in (
        Verdict.solved((1, -2)),
        Verdict.no_solution("because"),
        Verdict.guard_abort("short vector"),
    ):
        assert parse_verdict(serialize_verdict(v)) == v


@given(st.lists(ints, min_size=1, max_size=5), st.integers(-50, 50))
@settings(max_examples=50)
def test_instance_roundtrip_property(x, tau):
    inst = Instance(tuple(x), Interval(-3, 3), tau=tau)
    assert _roundtrip(inst) == inst
