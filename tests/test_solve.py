"""Lattice solver tests: worked instances frozen against the brute-force
oracle, the decode equivalence behind the embedding, and the gap decision
machinery including deliberately inflating oracles."""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import sbl
from sbl import enumeration
from sbl.core import (
    Box,
    Budget,
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Interval,
    Punctured,
    Verdict,
    dot,
    linf,
    verify_solution,
)
from sbl.oracle import brute_force_solve, mitm_solve
from sbl.reduction import _reduce
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
from sbl.enumeration import (
    _perp,
    _Target,
    _top_test,
    PreparedLattice,
    prepare,
    cvp_inf,
    svp_inf,
)
from sbl.experiment import (
    SUITE_NAMES,
    _load_suite,
    _route,
    bench,
    sample_instance,
    trial_stream,
)
from sbl.solve import (
    ENGINES,
    ApproxCvpOracle,
    GapConfigError,
    SIGN_PATTERN_CAP,
    ThresholdUnmet,
    _symmetric_bound,
    capped_cvp_oracle,
    check_minkowski,
    gap_decide,
    solve_gss_avg,
    solve_gss_interval,
    solve_gss_punctured,
    solve_sbp,
    solve_instance,
    solve_sbp_body,
    solve_sbp_lll,
)

from reference import (ball_walk, first_fit_reference, gauge_sq, gs_coords,
                       holder_walk, kernel_basis_reference, mat_det,
                       reduce_reference)
from test_enumeration import _forms
from test_golden import _least_threshold_d


def _z2():
    return LatticeBasis(((1, 0), (0, 1)), 2)


# ---------------------------------------------------------------------------
# existence certificate
# ---------------------------------------------------------------------------

def test_minkowski_examples():
    assert check_minkowski((1, 1, 2), 1)       # 6 < 16
    assert not check_minkowski((1, 2), 1)      # 5 > 4: no certificate
    assert check_minkowski((1, 2), 2)          # 5 < 9
    assert not check_minkowski((100, 203), 1)


def test_minkowski_rejects_bad_bound():
    with pytest.raises(ValueError):
        check_minkowski((1, 2), 0)


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=5),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_minkowski_certificate_is_sound(x, d):
    assume(any(x))
    if check_minkowski(x, d):
        v = brute_force_solve(Instance(tuple(x), Box(d)), "balancing")
        assert v.status == "solved"


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def test_sbp_small_instances():
    v = solve_sbp((1, 2), 2)
    assert v.status == "solved"
    assert dot(v.witness, (1, 2)) == 0
    assert all(abs(c) <= 2 for c in v.witness) and any(v.witness)
    v = solve_sbp((3, 5, 8), 1)
    assert v.status == "solved"
    assert dot(v.witness, (3, 5, 8)) == 0


def test_sbp_no_solution():
    # c1 = -2 c2 forces |c1| = 2 beyond the bound
    assert solve_sbp((1, 2), 1).status == "no_solution"
    assert solve_sbp((1, 10), 3).status == "no_solution"


def test_sbp_agrees_with_oracle():
    for x, d in product(((1, 2), (2, 3), (5, 7, 11), (1, 4, 9, 16)), (1, 2)):
        got = solve_sbp(x, d)
        want = brute_force_solve(Instance(x, Box(d)), "balancing")
        assert got.status == want.status
        if got.status == "solved":
            assert dot(got.witness, x) == 0


def test_sbp_stats_counts_points():
    budget = Budget()
    solve_sbp((3, 5, 8), 1, budget)
    assert budget.charged >= 1


# eight values below 2^16 from trial_stream(7, 0), and the witnesses the
# single ball at the cap found for them at d <= 6
_FLAT_RNG = trial_stream(7, 0)
_FLAT_X = tuple(_FLAT_RNG.below(1 << 16) for _ in range(8))
_FLAT_SBP = (-3, -2, 2, 3, 1, 2, 2, 1)
_FLAT_GSS = (2, 0, -1, -2, -2, 1, -1, 2)


@pytest.mark.parametrize("solve,witness", [
    (lambda d, budget: solve_sbp(_FLAT_X, d, budget), _FLAT_SBP),
    (lambda d, budget: solve_gss_interval(_FLAT_X, 123457, -d, d, budget),
     _FLAT_GSS),
], ids=["sbp", "gss_interval"])
def test_ball_points_stay_flat_in_d(solve, witness):
    """The searches walk once, at the cap or below it at a free bound,
    and lower their limit to the answer, so raising the cap d from 3 to
    12 must not raise the work above a few points; the single ball at the
    cap listed 401 and 7,693,655 points for solve_sbp at d = 3 and 12."""
    counts = {}
    for d in (3, 4, 6, 8, 12):
        budget = Budget()
        v = solve(d, budget)
        assert v.status == "solved"
        if d <= 6:
            assert v.witness == witness
        counts[d] = budget.charged
    assert all(c <= 16 for c in counts.values()), counts


def test_pruned_walk_lists_fewer_points_at_n10():
    """The n = 10 gss instance of x_i = trial_stream(11, 10).below(101) -
    50 (0 replaced by 1), tau = 17, [-2, 2]: its search listed 3,304 points
    before sup-ball walks were pruned; the Hölder prune cuts that at least
    2.5-fold with the same witness."""
    rng = trial_stream(11, 10)
    x = tuple((rng.below(101) - 50) or 1 for _ in range(10))
    budget = Budget()
    v = solve_gss_interval(x, 17, -2, 2, budget)
    assert v.witness == (-1, -1, -1, -1, -1, -1, 0, 0, -1, 1)
    assert budget.charged * 5 <= 3304 * 2


def test_sbp_lll_fast_path():
    v = solve_sbp_lll((1, 2), 2)
    assert v.status == "solved"
    assert dot(v.witness, (1, 2)) == 0
    assert all(abs(c) <= 2 for c in v.witness)


def test_sbp_lll_threshold_unmet():
    with pytest.raises(ThresholdUnmet):
        solve_sbp_lll((1, 2), 1)


@pytest.mark.parametrize("x, d, engine", [
    ((1, 2), 1, "svp"), ((1, 2), 2, "lll"), ((5,), 3, "svp")])
def test_auto_decides_the_lll_threshold_once(monkeypatch, x, d, engine):
    """auto balancing over [-d, d] evaluates lll_threshold once, inside
    solve_sbp_lll, none at n = 1, and answers as the engine it picks; an
    all-zero x still raises ValueError."""
    calls = []
    real = sbl.solve.lll_threshold

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sbl.solve, "lll_threshold", counted)
    inst = Instance(x, Interval(-d, d))
    got = solve_instance(inst, "balancing")
    assert len(calls) == (len(x) >= 2)
    assert got == solve_instance(inst, "balancing", engine)
    with pytest.raises(ValueError, match="^zero vector$"):
        solve_instance(Instance((0,) * len(x), Interval(-d, d)), "balancing")


@st.composite
def _threshold_cases(draw):
    """2 to 12 weights with negatives, zeros and a common factor up to 6,
    and a d from the least one meeting the LLL threshold up to 4 times
    it."""
    g = draw(st.integers(1, 6))
    x = draw(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)),
                      min_size=2, max_size=12))
    assume(any(x))
    x = tuple(g * v for v in x)
    least = _least_threshold_d(x)
    return x, draw(st.integers(least, 4 * least))


# (x, d, the index of the first fitting state among row 0's states)
_STOPS = (
    ((21, -36, -66, -12, 23), 5, 0),  # the input's row 0 fits
    ((24, 29, 9), 7, 1),  # the first swap's row 0 fits, a later swap moves it
    ((20, 99, 42, 11, 82), 5, 2),  # only the output's row 0 fits
)


@given(_threshold_cases())
@example(_STOPS[0][:2])
@example(_STOPS[1][:2])
@example(_STOPS[2][:2])
@settings(max_examples=150, deadline=None)
def test_sbp_lll_witness_is_the_first_row_0_that_fits(case):
    """solve_sbp_lll's witness is row 0 of Cohen's LLL on kernel_basis(x)
    at its first state in [-d, d]^n (reference.first_fit_reference),
    which exists above the threshold; auto answers the same."""
    x, d = case
    want = first_fit_reference(kernel_basis(x).rows, d)
    assert want is not None
    assert solve_sbp_lll(x, d).witness == want
    inst = Instance(x, Interval(-d, d))
    assert solve_instance(inst, "balancing").witness == want


@given(_threshold_cases())
@example(((0, 7), _least_threshold_d((0, 7))))
@example(((-4, 6), 4 * _least_threshold_d((-4, 6))))
@example(((0, 9, 0, -15, 6), _least_threshold_d((0, 9, 0, -15, 6))))
@settings(max_examples=150, deadline=None)
def test_sbp_lll_matches_the_dense_kernel_reference(case):
    """The lll engine's sparse kernel rows (lattice._kernel_rows, all of
    them when no count is given) densify to exactly the rows of the
    package-independent dense-transform kernel
    (reference.kernel_basis_reference), and its witness is row 0 of
    Cohen's LLL on those rows at its first state in [-d, d]^n.  The
    examples have n = 2, zeros (their kernel rows are unit vectors) and a
    common factor."""
    x, d = case
    want = kernel_basis_reference(x).rows
    for rows in (_kernel_rows(x), _kernel_rows(x, len(x) - 1)):
        assert all(all(r.values()) for r in rows)
        assert tuple(_dense(r, len(x)) for r in rows) == want
    assert solve_sbp_lll(x, d).witness == first_fit_reference(want, d)


@st.composite
def _long_threshold_cases(draw):
    """10 to 20 weights, up to 2^64 in magnitude, with negatives and
    zeros, and a d from the least one meeting the LLL threshold up to
    twice it: the kernel basis has 9 to 19 rows, so the reducer's first
    prefix of 8 rows is a strict one."""
    entry = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                      st.integers(-2**64, 2**64))
    x = tuple(draw(st.lists(entry, min_size=10, max_size=20)))
    assume(any(x))
    least = _least_threshold_d(x)
    return x, draw(st.integers(least, 2 * least))


# (x, d, the sup norm of row 0 where the reducer ends on the first 8
# kernel rows, the row counts of solve_sbp_lll's reducer runs): weights
# below 2^64 at their least threshold d, where the first prefix ends
# outside [-d, d]^n.  The first case then runs the whole basis; the second
# stops on 16 of its 18 rows.
_PAST_THE_FIRST_PREFIX = (
    ((1143922606339989187, 2148312479196550885, 2581023562712029215,
      2808482223106352395, 5253142616133393849, 5603893659948468841,
      6359004946677564552, 7363354391972925222, 8465265779878958901,
      9285837169997331756, 11476618381809597915, 13147880358434831776,
      13546993480202312971, 13737221159693834837, 14638150858115399796,
      15364696594922550732), 228, 244, [8, 15]),
    ((6765776289262385644, 1824337443294511248, 3284805356547350803,
      10362763655021207005, 4447092362931196344, 5834942168461636513,
      412629672469900439, 10049602115011768741, 5418973787950750901,
      5406688554778656878, 196141330336033157, 15034006809119636025,
      13475885524302094711, 8037257484922922905, 10432829220720766090,
      17031741246947200687, 11270064095555010083, 17458348282437642357,
      12142057821984013178), 234, 240, [8, 16]),
)


@given(_long_threshold_cases())
@settings(max_examples=60, deadline=None)
def test_sbp_lll_prefix_runs_stop_where_the_full_run_does(case):
    """On kernels longer than the reducer's first prefix, solve_sbp_lll's
    witness is still row 0 of Cohen's LLL on the whole of kernel_basis(x)
    at its first state in [-d, d]^n, and auto answers the same."""
    x, d = case
    want = first_fit_reference(kernel_basis(x).rows, d)
    assert want is not None
    assert solve_sbp_lll(x, d).witness == want
    inst = Instance(x, Interval(-d, d))
    assert solve_instance(inst, "balancing").witness == want


@pytest.mark.parametrize("x, d, end, sizes", _PAST_THE_FIRST_PREFIX,
                         ids=("n16-all-rows", "n19-16-rows"))
def test_sbp_lll_runs_past_the_first_prefix(monkeypatch, x, d, end, sizes):
    """Each pinned case needs a second prefix: the reducer on the first 8
    kernel rows ends with row 0 at sup norm end > d, so solve_sbp_lll
    reduces the row counts in sizes.  The witness is still the full
    run's stop, and auto answers the same."""
    assert d == _least_threshold_d(x)
    assert linf(_reduce(_kernel_rows(x, 8), len(x), box=d)) == end > d
    runs: list = []

    def sized_reduce(rows, *args, **kwargs):
        runs.append(len(rows))
        return _reduce(rows, *args, **kwargs)

    monkeypatch.setattr(sbl.solve, "_reduce", sized_reduce)
    want = first_fit_reference(kernel_basis(x).rows, d)
    assert solve_sbp_lll(x, d).witness == want
    assert runs == sizes
    inst = Instance(x, Interval(-d, d))
    assert solve_instance(inst, "balancing").witness == want


@pytest.mark.parametrize("x, d, at", _STOPS)
def test_sbp_lll_stops(x, d, at):
    """Each pinned case stops where its comment says: of the three states
    of row 0 (the input's and those after two swaps), the one at index at
    is the first in [-d, d]^n, at the least threshold d."""
    firsts: list = []
    reduce_reference(kernel_basis(x).rows, firsts=firsts)
    assert len(firsts) == 3 and d == _least_threshold_d(x)
    assert [linf(r) <= d for r in firsts].index(True) == at
    assert solve_sbp_lll(x, d).witness == firsts[at]


def test_sbp_body_box_matches_plain():
    a = solve_sbp_body((3, 5, 8), Box(1))
    b = solve_sbp((3, 5, 8), 1)
    assert a.status == b.status == "solved"
    assert dot(a.witness, (3, 5, 8)) == 0


def test_sbp_body_ellipsoid():
    # the kernel generator (3, -2) sits exactly on this boundary
    ell = Ellipsoid(((Fraction(1, 13), 0), (0, Fraction(1, 13))))
    v = solve_sbp_body((2, 3), ell)
    assert v.status == "solved"
    c = v.witness
    assert dot(c, (2, 3)) == 0 and any(c)
    assert ell.contains(c)


def test_sbp_body_ellipsoid_no_solution():
    # kernel of (2, 3) is generated by (-3, 2); a tight ball excludes it
    ell = Ellipsoid(((1, 0), (0, 1)))
    assert solve_sbp_body((2, 3), ell).status == "no_solution"


def test_sbp_body_rejects_bad_input():
    """A body of another dimension and an all-zero x are bad input, n = 1
    included."""
    with pytest.raises(ValueError, match="dimension"):
        solve_sbp_body((7,), Ellipsoid(((1, 0), (0, 1))))
    with pytest.raises(ValueError, match="dimension"):
        solve_sbp_body((2, 3), Ellipsoid(((1,),)))
    for x in ((0,), (0, 0)):
        with pytest.raises(ValueError, match="^zero vector$"):
            solve_sbp_body(x, Box(1))


@st.composite
def _body_cases(draw):
    """x of length 1 to 5, zeros among its entries but not all zero, and a
    box [-d, d]^n or an ellipsoid of dimension n (_forms)."""
    n = draw(st.integers(1, 5))
    x = draw(st.lists(st.one_of(st.just(0), st.integers(-40, 40)),
                      min_size=n, max_size=n).filter(any))
    if draw(st.booleans()):
        return tuple(x), Box(draw(st.integers(1, 3 if n < 5 else 2)))
    return tuple(x), draw(_forms(n))


def _least_balanced(x, body):
    """The least (squared gauge, min(c, -c)) over the nonzero balanced c in
    the body, by a scan of its enclosing box; None if there is none."""
    r = body.d if isinstance(body, Box) else body.bounding_box_radius()
    best = None
    for c in product(range(-r, r + 1), repeat=len(x)):
        if any(c) and dot(c, x) == 0 and body.contains(c):
            key = (gauge_sq(body, c), min(c, tuple(-v for v in c)))
            if best is None or key < best:
                best = key
    return best


@given(_body_cases())
@example(((0, 5, 0), Box(1)))
@example(((4,), Box(3)))
@example(((-3,), Ellipsoid(((1,),))))
@example(((2, 3), Ellipsoid(((Fraction(1, 13), 0), (0, Fraction(1, 13))))))
@settings(max_examples=150, deadline=None)
def test_sbp_body_witness_is_the_least_balanced_point(case):
    """solve_sbp_body's verdict, witness and reason against a scan of the
    body's enclosing box: solved with the least (gauge, min(c, -c)) over
    the nonzero balanced c in the body, else no_solution."""
    x, body = case
    want = _least_balanced(x, body)
    event("solved" if want else "no_solution")
    got = solve_sbp_body(x, body)
    if want is None:
        assert got == Verdict.no_solution(
            "shortest gauge vector lies outside the body")
    else:
        assert got == Verdict.solved(want[1])


# ---------------------------------------------------------------------------
# decode equivalence: short embedded vectors are exactly the solutions
# ---------------------------------------------------------------------------

def _embedded_coeff_sets(x, tau, d):
    """Coefficient vectors read off lattice points near the shifted target
    versus the admissible vectors found by direct iteration."""
    params = choose_params(x, d, tau)
    lat = prepare(embedding_basis(x, params))
    n = len(x)
    via_lattice = set()
    for v in ball_walk(lat, params.target, d * d * (n + 1)):
        if any(abs(a - t) > d for a, t in zip(v, params.target)):
            continue
        assert v[0] == params.alpha * tau
        via_lattice.add(v[1:])
    direct = {
        c for c in product(range(-d, d + 1), repeat=n) if dot(c, x) == tau
    }
    return via_lattice, direct


@pytest.mark.parametrize(
    "x,tau,d",
    [
        ((2, 3), 7, 2),
        ((1, 2, 4), 5, 1),
        ((2, 4), 1, 3),
        ((3, 5, 8), 0, 2),
        ((1, 1, 1, 1), 2, 1),
    ],
)
def test_embedding_decodes_exactly(x, tau, d):
    via_lattice, direct = _embedded_coeff_sets(x, tau, d)
    assert via_lattice == direct


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       st.integers(-12, 12), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_embedding_decode_property(x, tau, d):
    assume(any(x))
    via_lattice, direct = _embedded_coeff_sets(tuple(x), tau, d)
    assert via_lattice == direct


# ---------------------------------------------------------------------------
# gap decisions
# ---------------------------------------------------------------------------

def test_gap_accepts_within_radius():
    gv = gap_decide(capped_cvp_oracle(), _z2(),
                    (Fraction(3, 2), Fraction(0)), Fraction(1, 2))
    assert gv.accept
    assert gv.reported_dist == Fraction(1, 2)
    assert gv.vector in ((1, 0), (2, 0))


def test_gap_rejects_beyond_radius():
    gv = gap_decide(capped_cvp_oracle(), _z2(),
                    (Fraction(1, 2), Fraction(1, 2)), Fraction(0))
    assert not gv.accept
    assert gv.vector is None
    assert gv.reported_dist == Fraction(1)


def test_gap_radius_zero_exact_hit():
    gv = gap_decide(capped_cvp_oracle(), _z2(),
                    (Fraction(2), Fraction(-3)), Fraction(0))
    assert gv.accept and gv.vector == (2, -3)
    assert gv.reported_dist == 0


def test_gap_config_error_when_gamma_breaks_the_gap():
    fat = ApproxCvpOracle(Fraction(2), lambda basis, target, r: (None, 99))
    with pytest.raises(GapConfigError):
        gap_decide(fat, _z2(), (Fraction(0), Fraction(0)), Fraction(3))


def test_gap_wide_gamma_legal_at_radius_zero():
    fat = ApproxCvpOracle(Fraction(2), lambda basis, target, r: (None, 99))
    gv = gap_decide(fat, _z2(), (Fraction(1, 3), Fraction(0)), Fraction(0))
    assert not gv.accept


def test_capped_oracle_rejects_an_empty_lattice():
    with pytest.raises(ValueError, match="empty lattice"):
        capped_cvp_oracle().solver(LatticeBasis((), 2), (0, 0), 1)


def _never_asked():
    """An oracle that fails the test if gap_decide asks it anything."""
    def never(basis, target, r):
        raise AssertionError("the oracle was asked")

    return ApproxCvpOracle(Fraction(1), never)


def test_gap_rejects_negative_radius():
    """A negative radius is a bad argument, refused before the oracle is
    asked."""
    with pytest.raises(ValueError, match="nonnegative"):
        gap_decide(_never_asked(), _z2(), (Fraction(0), Fraction(0)),
                   Fraction(-1))


def test_gap_rejects_a_radius_off_the_grid():
    """r names its grid, so a radius that is not a multiple of 1/2 lies on
    neither grid and is a bad argument, refused before the oracle is
    asked."""
    oracle = _never_asked()
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        gap_decide(oracle, _z2(), (Fraction(0), Fraction(0)), Fraction(1, 3))


_NON_FINITE_CALLS = {
    "svp_inf-cap": lambda v: svp_inf(_z2(), cap=v),
    "cvp_inf-target": lambda v: cvp_inf(_z2(), (v, 0)),
    "cvp_inf-cap": lambda v: cvp_inf(_z2(), (0, 0), cap=v),
    "gap_decide-r": lambda v: gap_decide(_never_asked(), _z2(), (0, 0), v),
    "oracle-gamma": lambda v: ApproxCvpOracle(v, _never_asked().solver),
    "oracle-report": lambda v: gap_decide(
        ApproxCvpOracle(1, lambda basis, target, r: (None, v)), _z2(),
        (0, 0), 1),
}


@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", list(_NON_FINITE_CALLS))
def test_a_non_finite_float_is_a_value_error(call, value):
    """An infinity or a NaN has no exact ratio, so as a radius, a cap, a
    target entry, a gamma or an oracle's reported distance (which breaks
    reported <= gamma * dist) it is bad input: ValueError, not the
    OverflowError of Fraction(inf)."""
    with pytest.raises(ValueError, match="integer ratio"):
        _NON_FINITE_CALLS[call](value)


def _fixed_oracle(vector):
    """A gamma = 1 oracle that answers every question with the vector, at
    its sup distance over the coordinates the two share."""
    def solver(basis, target, r):
        return vector, max(abs(Fraction(a) - Fraction(b))
                           for a, b in zip(vector, target))

    return ApproxCvpOracle(Fraction(1), solver)


@pytest.mark.parametrize("vector", [(1, 5), (0,), (0, 4, 0)])
def test_gap_refuses_an_answer_off_the_lattice(vector):
    """On 2Z^2 around (0, 5) at radius 1, an answer that is not a lattice
    vector of the target's dimension fails a self-check instead of being
    accepted: (1, 5) is off the lattice, and (0,) and (0, 4, 0) have the
    wrong length."""
    with pytest.raises(InternalError, match="not a lattice vector"):
        gap_decide(_fixed_oracle(vector), LatticeBasis(((2, 0), (0, 2)), 2),
                   (Fraction(0), Fraction(5)), 1)


def test_gap_rejects_a_target_of_another_dimension():
    """A target whose dimension is not the lattice's is a bad argument,
    whatever the oracle answers."""
    with pytest.raises(ValueError, match="target dimension"):
        gap_decide(_fixed_oracle((0, 4, 0)), LatticeBasis(((2, 0), (0, 2)), 2),
                   (0, 5, 0), 1)


def test_gap_asks_its_oracle_on_the_prepared_lattice(monkeypatch):
    """gap_decide reduces the basis once and hands the oracle the prepared
    lattice, so the capped oracle's cvp_inf reduces nothing again."""
    reduce = enumeration._reduce
    calls, seen = [], []

    def counted_reduce(rows, *args, **kwargs):
        calls.append(1)
        return reduce(rows, *args, **kwargs)

    monkeypatch.setattr(enumeration, "_reduce", counted_reduce)
    capped = capped_cvp_oracle()

    def solver(basis, target, r):
        seen.append(basis)
        return capped.solver(basis, target, r)

    basis = LatticeBasis(((2, 1), (0, 3)), 2)
    gv = gap_decide(ApproxCvpOracle(Fraction(1), solver), basis,
                    (Fraction(4), Fraction(2)), 1)
    assert gv.accept and len(calls) == 1
    assert [type(b) for b in seen] == [PreparedLattice]


def _inflating_oracle(gamma):
    """Exact witness, inflated report: the worst case the contract allows."""
    gamma = Fraction(gamma)

    def solver(basis, target, r):
        res = cvp_inf(basis, target)
        return res.witness, gamma * res.dist

    return ApproxCvpOracle(gamma, solver)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
       st.integers(-10, 10), st.integers(1, 3), st.integers(0, 1))
@example([3, 5], -8, 1, 1)
@settings(max_examples=50, deadline=None)
def test_gap_decision_survives_inflation(x, tau, d, odd):
    """An oracle that inflates its reports as far as the gap tolerates
    must still decide interval feasibility exactly, on [-d, d] at an
    integer radius d and on [-d, d - 1], of odd width, at the half-integer
    radius d - 1/2."""
    assume(any(x))
    xs = tuple(x)
    n = len(xs)
    a, b = -d, d - odd
    params = choose_params(xs, d, tau)
    basis = embedding_basis(xs, params)
    target, r = interval_shift_target(tau, params.alpha, a, b, n)
    assert r.denominator == 1 + odd
    gamma = 1 + Fraction(1, 2 * r) if r > 0 else Fraction(1)
    gv = gap_decide(_inflating_oracle(gamma), basis, target, r)
    want = brute_force_solve(Instance(xs, Interval(a, b), tau=tau), "gss")
    assert gv.accept == (want.status == "solved")
    if gv.accept:
        c = gv.vector[1:]
        assert dot(c, xs) == tau
        assert all(a <= v <= b for v in c)


# ---------------------------------------------------------------------------
# generalized subset sum over an interval
# ---------------------------------------------------------------------------

def test_gss_interval_examples():
    v = solve_gss_interval((2, 3), 7, 0, 2)
    assert v.status == "solved"
    assert dot(v.witness, (2, 3)) == 7
    assert all(0 <= c <= 2 for c in v.witness)

    v = solve_gss_interval((1, 2, 4), 5, 0, 1)
    assert v.witness == (1, 0, 1)

    assert solve_gss_interval((2, 4), 1, -3, 3).status == "no_solution"


def test_gss_interval_constant_case():
    assert solve_gss_interval((2, 3), 10, 2, 2).witness == (2, 2)
    assert solve_gss_interval((2, 3), 9, 2, 2).status == "no_solution"


def test_gss_interval_rejects_swapped_bounds():
    with pytest.raises(ValueError):
        solve_gss_interval((1, 2), 0, 3, 1)


def test_gss_interval_witness_is_deterministic():
    a = solve_gss_interval((3, 5, 7), 15, 0, 3)
    b = solve_gss_interval((3, 5, 7), 15, 0, 3)
    assert a.witness == b.witness


def test_gss_interval_stats():
    budget = Budget()
    solve_gss_interval((2, 3), 7, 0, 2, budget)
    assert budget.charged >= 1


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       st.integers(-15, 15), st.integers(-2, 1), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_gss_interval_agrees_with_oracle(x, tau, a, width):
    assume(any(x))
    xs = tuple(x)
    b = a + width
    got = solve_gss_interval(xs, tau, a, b)
    want = brute_force_solve(Instance(xs, Interval(a, b), tau=tau), "gss")
    assert got.status == want.status
    if got.status == "solved":
        assert verify_solution(Instance(xs, Interval(a, b), tau=tau),
                               got.witness, "gss")


# ---------------------------------------------------------------------------
# generalized subset sum with the origin punched out
# ---------------------------------------------------------------------------

def test_gss_punctured_examples():
    v = solve_gss_punctured((2, 3), 1, 1)
    assert v.witness == (-1, 1)

    v = solve_gss_punctured((1, 2), 9, 3)
    assert v.witness == (3, 3)

    assert solve_gss_punctured((2, 2), 3, 2).status == "no_solution"


def test_gss_punctured_first_accepting_pattern_wins():
    # x = (1, 1), tau = 0, d = 1: solutions (-1, 1) and (1, -1); the
    # pattern order (-1, -1), (-1, 1), (1, -1), (1, 1) fixes the witness
    v = solve_gss_punctured((1, 1), 0, 1)
    assert v.witness == (-1, 1)


def test_gss_punctured_rejects_bad_bound():
    with pytest.raises(ValueError):
        solve_gss_punctured((1, 2), 0, 0)


def test_gss_punctured_pattern_cap():
    n = SIGN_PATTERN_CAP + 1
    with pytest.raises(BudgetExceeded):
        solve_gss_punctured((1,) * n, 0, 1)


def _count_patterns(monkeypatch):
    """Count the sign patterns a sweep tries: it tests each once with the
    top-level test _top_test returns."""
    tried = []
    top_test = sbl.solve._top_test

    def counted_top_test(*args):
        empty = top_test(*args)

        def counted(frame):
            tried.append(1)
            return empty(frame)

        return counted

    monkeypatch.setattr(sbl.solve, "_top_test", counted_top_test)
    return tried


def test_gss_punctured_stats(monkeypatch):
    """x = (2, 3), d = 1: the box holds 9 vectors, no more than c.x has
    values, so one walk of its ball decides, with no sign pattern tried,
    and charges its one point c = (-1, 1)."""
    assert _walks_the_box((2, 3), 1)
    walks = _count_calls(monkeypatch, sbl.enumeration._walk)
    tried = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured((2, 3), 1, 1, budget)
    assert v == Verdict.solved((-1, 1))
    assert (len(walks), len(tried), budget.charged) == (
        1, 0, _box_points((2, 3), 1, 1))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       st.integers(-15, 15), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_gss_punctured_agrees_with_oracle(x, tau, d):
    assume(any(x))
    xs = tuple(x)
    got = solve_gss_punctured(xs, tau, d)
    inst = Instance(xs, Punctured(d), tau=tau)
    want = brute_force_solve(inst, "gss")
    assert got.status == want.status
    if got.status == "solved":
        assert verify_solution(inst, got.witness, "gss")


def _count_calls(monkeypatch, fn):
    """Route every sbl module's binding of fn through a counter, since
    modules call the functions they import under their own names."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "sbl" or name.startswith("sbl."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _walks_the_box(xs, d) -> bool:
    """Whether a punctured solve decides by one walk of the box ball: the
    box [-d, d]^n holds no more vectors than c.x has values."""
    return (2 * d + 1) ** len(xs) <= 2 * d * sum(map(abs, xs)) + 1


def _rejected_patterns(xs, d) -> int:
    """The sign patterns a no-solution punctured solve tries: none when one
    walk of the box ball decides, else all 2^n."""
    return 0 if _walks_the_box(xs, d) else 2 ** len(xs)


def _box_points(xs, tau, d) -> int:
    """#{c in [-d, d]^n : c.x = tau}, counted by listing every c of each
    half of the coordinates and pairing the two halves' sums."""
    k = len(xs) // 2

    def sums(part):
        return Counter(dot(c, part)
                       for c in product(range(-d, d + 1), repeat=len(part)))

    right = sums(xs[k:])
    return sum(m * right[tau - s] for s, m in sums(xs[:k]).items())


# the first two are decided by one walk with no pattern tried; the last has
# even x and an odd tau, and its box is too dense for that walk, so the
# sweep tries all 32 patterns
@pytest.mark.parametrize("x, tau", [
    ((499047, 273516, 775852, 994162, 137423), 55),
    ((812874, 895347, 828298, 932437, 281331, 766550), -76),
    ((2, 4, 6, 8, 10), 7),
])
def test_gss_punctured_prepares_the_lattice_once(monkeypatch, x, tau):
    # a Gram-Schmidt pass is one call of the reducer, the one source of
    # the data prepare keeps, made through enumeration
    gso_calls = []
    reduce = enumeration._reduce

    def counted_reduce(rows, *form):
        gso_calls.append(1)
        return reduce(rows, *form)

    monkeypatch.setattr(enumeration, "_reduce", counted_reduce)
    frame_calls = []
    frame = PreparedLattice._frame

    def counted_frame(self, scaled):
        frame_calls.append(1)
        return frame(self, scaled)

    monkeypatch.setattr(PreparedLattice, "_frame", counted_frame)
    tried = _rejected_patterns(x, 2)
    patterns = _count_patterns(monkeypatch)
    v = solve_gss_punctured(x, tau, 2)
    assert v.status == "no_solution"
    assert len(patterns) == tried
    assert len(gso_calls) <= 1
    # at most one frame for the base target and one per coordinate; the
    # patterns update it by sign flips
    assert len(frame_calls) <= len(x) + 1
    # the counter does see a query that prepares its own lattice
    before = len(gso_calls)
    cvp_inf(_z2(), (0, 0))
    assert len(gso_calls) >= before + 1


# three no-solution instances and the points their sign patterns'
# Euclidean cap balls hold.  One walk of the box ball decides the first
# two with no pattern tried: the first box holds no c with c.x = tau, the
# second some with c_2 = 0 but no punctured one.  The box of the third is
# too dense for that walk (c_5 would need to be a multiple of 6), so the
# sweep tries all 32 patterns
_REJECTED_SWEEPS = [
    ((817970, 32519, 863577, 907572, 282520, 495714), 52, 3, 0),
    ((35, 734441, 23, 15, 28, 5), -96, 5, 1155),
    ((12, 6, -24, -12, 1), -36, 3, 32),
]


def _swept_points(x, tau, d, points):
    """The points the sweep visits: per sign pattern, the reference walk of
    the sup ball at the cap filtered to that ball, after checking that the
    patterns' Euclidean cap balls hold the given points in all."""
    params = choose_params(x, d, tau)
    lat = prepare(embedding_basis(x, params))
    cap = Fraction(d - 1, 2)
    held = visited = 0
    for signs in product((-1, 1), repeat=len(x)):
        target, _ = sign_pattern_target(tau, params.alpha, d, signs)
        held += len(ball_walk(lat, target, cap * cap * lat.dim))
        visited += sum(
            1 for p in holder_walk(lat, target, cap * cap)
            if max(abs(a - c) for a, c in zip(p, target)) <= cap)
    assert held == points
    return visited


def _counted_rounds(monkeypatch):
    rounds = []
    round_ = PreparedLattice._round

    def counted(self, den, frame):
        rounds.append(1)
        return round_(self, den, frame)

    monkeypatch.setattr(PreparedLattice, "_round", counted)
    return rounds


@pytest.mark.parametrize("x, tau, d, points", _REJECTED_SWEEPS)
def test_gss_punctured_rounds_fewer_targets_than_it_tries(monkeypatch, x,
                                                         tau, d, points):
    """The points charged are those of the box ball where one walk of it
    decides, with no pattern tried and no target rounded with Babai;
    elsewhere they are those of a sweep that walks every pattern's sup ball
    at the cap, and fewer targets are rounded than patterns are tried."""
    tried = _rejected_patterns(x, d)
    swept = _swept_points(x, tau, d, points)
    want = (tried, _box_points(x, tau, d) if _walks_the_box(x, d) else swept)
    rounds = _counted_rounds(monkeypatch)
    patterns = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured(x, tau, d, budget)
    assert v.status == "no_solution"
    assert (len(patterns), budget.charged) == want
    if tried:
        assert len(rounds) < len(patterns)
    else:
        assert len(rounds) == 0


@pytest.mark.parametrize("x, tau, d, points", _REJECTED_SWEEPS)
def test_gss_punctured_rejects_without_rounding(monkeypatch, x, tau, d,
                                                points):
    """No target is rounded with Babai.  One walk of the box ball decides
    where it runs, charged the box ball's points, those with a zero
    coordinate too.  Elsewhere the sweep's walks visit only points within
    the cap, so a rejected pattern costs no point, though the patterns'
    Euclidean cap balls hold points."""
    tried = _rejected_patterns(x, d)
    assert _swept_points(x, tau, d, points) == 0
    rounds = _counted_rounds(monkeypatch)
    walks = _count_calls(monkeypatch, sbl.enumeration._walk)
    patterns = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured(x, tau, d, budget)
    assert v.status == "no_solution"
    assert len(rounds) == 0
    if tried:
        # some patterns pass the top-level test, and their walks visit none
        assert (len(patterns), budget.charged) == (tried, 0)
        assert len(walks) >= 1
    else:
        assert (len(walks), len(patterns), budget.charged) == (
            1, 0, _box_points(x, tau, d))


def _reference_sweep(xs, tau, d):
    """The sign-pattern loop spelled out with the public gap machinery:
    one capped oracle, one target and one gap decision per pattern.
    Returns the verdict and the number of patterns tried."""
    params = choose_params(xs, d, tau)
    lat = prepare(embedding_basis(xs, params))
    oracle = capped_cvp_oracle()
    tried = 0
    for signs in product((-1, 1), repeat=len(xs)):
        target, r = sign_pattern_target(tau, params.alpha, d, signs)
        gv = gap_decide(oracle, lat, target, r)
        tried += 1
        if gv.accept:
            return Verdict.solved(gv.vector[1:]), tried
    return Verdict.no_solution("every sign pattern rejected"), tried


def _outcome(solve):
    try:
        return solve()
    except BudgetExceeded as e:
        return "budget", str(e), e.partial


@st.composite
def _punctured_cases(draw):
    """Cases on both sides of the guard of the box ball's walk
    (_walks_the_box): x with zeros, negative entries and, on the walked
    side, mixed magnitudes; n from 1 to 6 and d from 1 to 5; tau zero,
    small, wide or planted as c.x for a punctured c; the default budget or
    one from 0 to 6."""
    walked = draw(st.booleans())
    small = st.one_of(st.just(0), st.integers(-9, 9))
    if walked:
        n = draw(st.integers(1, 5))
        entry = st.one_of(small, st.integers(-2**20, 2**20))
    else:
        n = draw(st.integers(3, 6))
        entry = small
    xs = tuple(draw(st.lists(entry, min_size=n, max_size=n).filter(any)))
    d = draw(st.integers(1, 5))
    assume(_walks_the_box(xs, d) == walked)
    kind = draw(st.sampled_from(("zero", "small", "wide", "planted")))
    if kind == "zero":
        tau = 0
    elif kind == "small":
        tau = draw(st.integers(-60, 60))
    elif kind == "wide":
        tau = draw(st.integers(-2**22, 2**22))
    else:
        c = draw(st.lists(st.integers(1, d).flatmap(
            lambda a: st.sampled_from((-a, a))), min_size=n, max_size=n))
        tau = dot(c, xs)
    budget = draw(st.one_of(st.just(10**7), st.integers(0, 6)))
    return xs, tau, d, budget


@given(_punctured_cases())
@settings(max_examples=200, deadline=None)
def test_gss_punctured_matches_the_gap_decision_loop(case):
    """The solve gives the verdict of the gap-decision loop on both sides
    of the guard.  Where one walk of the box ball decides, it tries no
    pattern and charges #{c in [-d, d]^n : c.x = tau}.  Elsewhere it tries
    the loop's patterns, and its walks visit points only on the accepting
    pattern.  Either way its one budget overruns, naming the ball, exactly
    when the points charged exceed the budget."""
    xs, tau, d, budget = case
    want, want_tried = _reference_sweep(xs, tau, d)
    meter = Budget()
    with pytest.MonkeyPatch.context() as mp:
        tried = _count_patterns(mp)
        full = solve_gss_punctured(xs, tau, d, meter)
    assert full == want
    points = meter.charged
    if _walks_the_box(xs, d):
        event(f"one walk, {want.status}, box ball "
              f"{'empty' if not points else 'holds points'}")
        assert (len(tried), points) == (0, _box_points(xs, tau, d))
    else:
        event("sweep")
        assert len(tried) == want_tried
        assert (points > 0) == (want.status == "solved")
    got = _outcome(lambda: solve_gss_punctured(xs, tau, d, budget))
    assert got == (full if points <= budget else
                   ("budget", f"ball holds more than {budget} points",
                    budget))


def test_gss_punctured_dense_box_runs_the_sweep(monkeypatch):
    """n = 12, d = 2, even x below 60 and an odd tau: a parity obstruction
    with 5^12 vectors in the box for at most 945 values of c.x.  The box
    ball is not walked there (on boxes this dense that can take seconds).
    The sweep tries all 4096 patterns; 2974 pass its top-level test, and
    their walks visit no point."""
    x = (18, 2, 2, 44, 18, 18, 8, 6, 42, 8, 42, 28)
    assert not _walks_the_box(x, 2)
    walks = _count_calls(monkeypatch, sbl.enumeration._walk)
    patterns = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured(x, 41, 2, budget)
    assert v == Verdict.no_solution("every sign pattern rejected")
    assert (len(walks), len(patterns), budget.charged) == (2974, 2 ** 12,
                                                         0)


def test_gss_punctured_certifies_a_sparse_n14_instance(monkeypatch):
    """x of 14 values below 2^40 and d = 2: the box holds 5^14 vectors,
    fewer than c.x has values, and none sums to tau, so one walk of the
    box ball decides the solve with no pattern tried and no point
    charged."""
    s = trial_stream(7, 1)
    x = tuple(s.below(2**40) for _ in range(14))
    tau = 12345
    assert _walks_the_box(x, 2)
    assert mitm_solve(Instance(x, Interval(-2, 2), tau=tau),
                      "gss").status == "no_solution"
    walks = _count_calls(monkeypatch, sbl.enumeration._walk)
    patterns = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured(x, tau, 2, budget)
    assert v == Verdict.no_solution("every sign pattern rejected")
    assert (len(walks), len(patterns), budget.charged) == (1, 0, 0)


def test_gss_punctured_solves_a_planted_n16_instance_in_one_walk(
        monkeypatch):
    """x of 16 values below 2^40, d = 2 and tau = c.x for a planted
    punctured c: the box holds 5^16 vectors, fewer than c.x has values, so
    one walk of the box ball decides the solve and no sign pattern is
    tried.  The walk charges every point of the ball; one point means the
    planted c is the only c of the box with c.x = tau, so it is the
    witness."""
    s = trial_stream(7, 2)
    x = tuple(s.below(2**40) for _ in range(16))
    c = tuple((1 + s.below(2)) * (2 * s.below(2) - 1) for _ in range(16))
    assert _walks_the_box(x, 2)
    walks = _count_calls(monkeypatch, sbl.enumeration._walk)
    patterns = _count_patterns(monkeypatch)
    budget = Budget()
    v = solve_gss_punctured(x, dot(c, x), 2, budget)
    assert v == Verdict.solved(c)
    assert (len(walks), len(patterns), budget.charged) == (1, 0, 1)


@st.composite
def _sign_pattern_lattices(draw):
    """x with zeros, negative entries and mixed magnitudes, n from 1 to 6,
    d from 1 to 5, and a small tau."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-2**20, 2**20))
    xs = tuple(draw(st.lists(entry, min_size=n, max_size=n).filter(any)))
    return xs, draw(st.integers(-60, 60)), draw(st.integers(1, 5))


@given(_sign_pattern_lattices())
@settings(max_examples=60, deadline=None)
def test_shared_cap_ball_matches_each_patterns_ball(case):
    """The top-level test a sweep sets up once rejects a sign pattern
    exactly when no coefficient of the top level fits the Euclidean ball
    around the sup ball at the cap, worked out in Fractions for that
    pattern's own center; a pattern it rejects has no point within the
    cap."""
    xs, tau, d = case
    n = len(xs)
    params = choose_params(xs, d, tau)
    lat = prepare(embedding_basis(xs, params))
    cap = Fraction(d - 1, 2)
    den = 1 if d % 2 else 2
    lim = cap.numerator * den // cap.denominator
    empty = _top_test(lat, den, lim)
    dets = lat.gram_det
    top_sq = Fraction(dets[-1], dets[-2])
    for signs in product((-1, 1), repeat=n):
        target, _ = sign_pattern_target(tau, params.alpha, d, signs)
        t = _Target.of(lat, target)
        assert t.den == den and _perp(t) == 0
        e = gs_coords(lat, target)[-1]
        fits = (round(e) - e) ** 2 * top_sq <= lat.dim * cap * cap
        assert empty(t.frame) == (not fits)
        if not fits:
            assert not cvp_inf(lat, target, cap=cap).found


# ---------------------------------------------------------------------------
# density-regime solver
# ---------------------------------------------------------------------------

def test_gss_avg_worked_instance():
    v = solve_gss_avg((7, 9), 2, 2, 16)
    assert v.witness == (-1, 1)
    params = choose_params((7, 9), 2, 2, 16)
    assert params.alpha == 4 and params.q == 67


def test_gss_avg_guard_and_ball_share_one_budget():
    """The n = 8 row of the avg-small bench suite at seed 20240: the guard
    search visits 1 point (0) and the walk of the sup ball 1, the
    witness, so 2 points in all."""
    rng = trial_stream(20240, 2)
    x = tuple(rng.below(4 ** 8) for _ in range(8))
    budget = Budget(2)
    v = solve_gss_avg(x, 5, 2, 4 ** 8, budget=budget)
    assert v.status == "solved" and budget.charged == 2
    with pytest.raises(BudgetExceeded) as info:
        solve_gss_avg(x, 5, 2, 4 ** 8, budget=1)
    assert str(info.value) == "search lists more than 1 points"
    assert info.value.partial == 1
    with pytest.raises(BudgetExceeded, match="^ball holds more than 0 "):
        solve_gss_avg(x, 5, 2, 4 ** 8, budget=0)


@pytest.mark.parametrize("tau", [-7, 0, 5])
def test_box_center_is_the_checked_target(tau, monkeypatch):
    """The center (alpha tau, 0, ..., 0) of _box_least's walk, built in
    O(m) off column 0 of the lattice's vectors gram_det[i] b*_i, has the
    denominator, scaled point and frame that _Target.of gives it."""
    x = (11, 23, 37, 41)
    params = choose_params(x, 2, tau, 256)
    lat = enumeration.prepare(embedding_basis(x, params))
    centers = []
    walk = enumeration._walk
    monkeypatch.setattr(enumeration, "_walk",
                        lambda t, *args: centers.append(t) or walk(t, *args))
    enumeration._box_least(lat, params.alpha * tau, 2, Budget(), lambda v: v)
    [got] = centers
    want = _Target.of(lat, params.target)
    assert (got.lat, got.den, got.scaled, got.frame) == (
        want.lat, want.den, want.scaled, want.frame)


def test_gss_avg_guard_abort():
    # x = (8, 8) embeds (0, 1, -1), sup norm 1, inside the guard at M = 16
    v = solve_gss_avg((8, 8), 2, 2, 16)
    assert v.status == "guard_abort"


def test_gss_avg_large_bound_no_solution():
    # m_bound above |C|^(2n): 3^4 = 81 < 100 and 2^4 = 16 < 20.  No c in
    # the alphabet sums to 1, and the walk finds no point that decodes
    no = Verdict.no_solution("no lattice point near the target decodes")
    assert solve_gss_avg((3, 5), 1, 1, 100) == no
    assert solve_gss_avg((3, 5), 1, 1, 20, cset="punctured") == no


@pytest.mark.parametrize("cset", ["interval", "punctured"])
def test_gss_avg_large_bound_solves(cset):
    """m_bound = 100 is above |C|^(2n) (3^4 = 81, 2^4 = 16), but c = (1, 1)
    sums (3, 7) to 10: a no_solution verdict must not rest on the bound."""
    assert solve_gss_avg((3, 7), 10, 1, 100, cset) == Verdict.solved((1, 1))


def test_gss_avg_punctured_filters_zero_coords():
    v = solve_gss_avg((7, 9), 2, 2, 16, cset="punctured")
    if v.status == "solved":
        assert all(c != 0 for c in v.witness)
        assert dot(v.witness, (7, 9)) == 2


def test_gss_avg_validation():
    with pytest.raises(ValueError):
        solve_gss_avg((1, 2), 0, 0, 16)
    with pytest.raises(ValueError):
        solve_gss_avg((1, 2), 0, 1, 0)
    with pytest.raises(ValueError):
        solve_gss_avg((1, 2), 0, 1, 16, cset="simplex")


@given(st.lists(st.integers(1, 30), min_size=2, max_size=3),
       st.integers(-8, 8), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_gss_avg_solutions_verify(x, tau, d):
    assume(any(x))
    xs = tuple(x)
    m_bound = 4 ** len(xs)
    v = solve_gss_avg(xs, tau, d, m_bound)
    if v.status == "solved":
        inst = Instance(xs, Interval(-d, d), tau=tau, m_bound=m_bound)
        assert verify_solution(inst, v.witness, "gss")
    elif v.status == "no_solution":
        want = brute_force_solve(
            Instance(xs, Interval(-d, d), tau=tau), "gss"
        )
        assert want.status == "no_solution"


@given(st.lists(st.integers(1, 30), min_size=2, max_size=4),
       st.integers(-8, 8), st.integers(1, 2),
       st.sampled_from(("interval", "punctured")))
@settings(max_examples=40, deadline=None)
def test_gss_avg_witness_is_the_least_decodable_point(x, tau, d, cset):
    """The walk's visitor keeps the lexicographically least point within
    sup distance d of the target that decodes: the first one of the
    sorted listing of the Euclidean ball around that sup ball."""
    xs = tuple(x)
    n = len(xs)
    v = solve_gss_avg(xs, tau, d, 4 ** n, cset)
    assume(v.status != "guard_abort")
    params = choose_params(xs, d, tau, 4 ** n)
    lat = prepare(embedding_basis(xs, params))
    listing = ball_walk(lat, params.target, (n + 1) * d * d)
    want = next((p[1:] for p in listing
                 if max(abs(a - b) for a, b in zip(p, params.target)) <= d
                 and (cset == "interval" or all(p[1:]))), None)
    assert v.witness == want


# ---------------------------------------------------------------------------
# gap decisions against the exact search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("basis, target, r, match", [
    (kernel_basis((3, 5, 7)), (0, 0, 0), Fraction(1, 2),
     "^accepted distance 0 is off the grid of the radius 1/2"),
    (kernel_basis((3, 5, 7)), (Fraction(1, 3),) * 3, 2, "1/3"),
], ids=["integer-target", "third-target"])
def test_gap_decide_refuses_a_distance_off_the_grid(basis, target, r, match):
    """The capped oracle's accepted distance is off r's grid: bad input,
    not a defect.  Asked at r = 1/2 on an integer target it accepts the
    distance 0.  Distances to (1/3, 1/3, 1/3) lie on Z/3, so at r = 2 it
    accepts the distance 1/3, which lies on no radius's grid."""
    with pytest.raises(ValueError, match=match):
        gap_decide(capped_cvp_oracle(), basis, target, r)


@st.composite
def _grid_targets(draw):
    """A full-rank basis of dimension 2-4 with small entries and a target
    whose entries are all integers or all halves of odd integers, so that
    every sup distance to the lattice lies on one grid."""
    m = draw(st.integers(2, 4))
    rows = []
    for i in range(m):
        row = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        # a nonzero diagonal keeps most draws independent
        row[i] = draw(st.integers(1, 4)) * draw(st.sampled_from((-1, 1)))
        rows.append(tuple(row))
    assume(mat_det([[dot(a, b) for b in rows] for a in rows]) != 0)
    half = draw(st.booleans())
    target = tuple(Fraction(2 * a + 1, 2) if half else Fraction(a)
                   for a in draw(st.lists(st.integers(-9, 9), min_size=m,
                                          max_size=m)))
    return LatticeBasis(tuple(rows), m), target, half


@given(_grid_targets())
@example((LatticeBasis(((2, 1), (0, 3)), 2), (Fraction(5), Fraction(-3)),
          False))
@example((LatticeBasis(((3, 0), (1, 4)), 2), (Fraction(-6), Fraction(2)),
          False))
@example((LatticeBasis(((2, 0), (0, 2)), 2), (Fraction(1), Fraction(3)),
          False))
@example((kernel_basis((3, 5, 7)), (Fraction(1, 2),) * 3, True))
@settings(max_examples=120, deadline=None)
def test_gap_decide_matches_direct_cvp(case):
    """Asked at the uncapped cvp_inf's distance, the capped oracle's gap
    question accepts with cvp_inf's witness, and asked one grid step
    below it rejects, on full-rank bases of dimension 2-4 and a rank 2
    kernel lattice with integer or half-integer targets."""
    basis, target, half = case
    res = cvp_inf(basis, target)
    assert res.dist.denominator == (2 if half else 1)
    oracle = capped_cvp_oracle()
    gv = gap_decide(oracle, basis, target, res.dist)
    assert gv.accept and gv.vector == res.witness
    assert gv.reported_dist == res.dist
    if res.dist >= 1:
        assert not gap_decide(oracle, basis, target, res.dist - 1).accept


# ---------------------------------------------------------------------------
# one point budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_budget_is_charged_what_bench_reports(suite):
    """Every engine that applies to a bench instance charges the Budget
    passed to solve_instance with the points its walks visit: exactly
    the enumerated_points bench reports for it, and a limit of that
    count fits the solve while one point less overruns it.  The
    baselines and the LLL shortcut visit no point and charge 0."""
    rows = iter(bench(suite))
    for idx, run in enumerate(_load_suite(suite)):
        inst = sample_instance(run["n"], run["m_bound"], run["d"],
                               run["tau"], run["cset"],
                               trial_stream(20240, idx))
        charged = {}
        for engine in ENGINES:
            mode, _ = _route(engine, run["tau"], run["cset"])
            budget = Budget()
            try:
                verdict = solve_instance(inst, mode, engine, budget)
            except ValueError:  # the engine does not apply
                continue
            points = charged[engine] = budget.charged
            if engine in ("mitm", "brute", "lll"):
                assert points == 0, engine
            elif points:
                assert solve_instance(inst, mode, engine, points) == verdict
                with pytest.raises(BudgetExceeded):
                    solve_instance(inst, mode, engine, points - 1)
        for solver in run["solvers"]:
            row = next(rows)
            mode, engine = _route(solver, run["tau"], run["cset"])
            assert row[6] == charged[engine], (idx, solver)
    assert next(rows, None) is None


@st.composite
def _dispatch_cases(draw):
    """One to five weights with zeros and negatives, all zero in about one
    case of six; a symmetric or asymmetric interval, a punctured set or a
    box of bound up to 6, or a small ellipsoid; and a target up to 10^6 in
    size, drawn outright or planted as c.x for a c in the set's range.
    m_bound is set, so avg applies wherever its coefficient set does."""
    n = draw(st.integers(1, 5))
    weight = st.one_of(st.just(0), st.integers(-20, 20),
                       st.integers(-3 * 10**4, 3 * 10**4))
    if draw(st.integers(0, 5)) == 0:
        x = (0,) * n
    else:
        x = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    d = draw(st.integers(1, 6))
    lo, hi = -d, d
    kind = draw(st.sampled_from(
        ("symmetric", "interval", "punctured", "box", "ellipsoid")))
    if kind == "symmetric":
        coeffs = Interval(-d, d)
    elif kind == "interval":
        lo = draw(st.integers(-d, d))
        hi = draw(st.integers(lo, d))
        coeffs = Interval(lo, hi)
    elif kind == "punctured":
        coeffs = Punctured(d)
    elif kind == "box":
        coeffs = Box(d)
    else:
        # a positive diagonal plus a rank-one term v v^T / q
        v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        q = draw(st.sampled_from((1, 2, 5)))
        coeffs = Ellipsoid(tuple(
            tuple(Fraction(v[i] * v[j], q)
                  + (Fraction(1, draw(st.integers(1, 9))) if i == j else 0)
                  for j in range(n))
            for i in range(n)))
    if draw(st.booleans()):
        tau = draw(st.integers(-10**6, 10**6))
    else:
        tau = dot(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                  x)
    return Instance(x, coeffs, tau, max(abs(v) for v in x) + 1)


@given(_dispatch_cases())
@settings(max_examples=150, deadline=None)
def test_every_engine_agrees_with_brute_force(inst):
    """In both modes, every engine of solve_instance either raises
    ValueError, as it does where it does not apply, or returns brute
    force's status with a witness that verifies; none answers where brute
    force raises.  avg may also give guard_abort where a solution
    exists, but a witness of its must verify too.  gss on an
    all-zero x is the exception: auto, and avg where it applies, must
    answer, and with brute force's status."""
    cs = inst.coeffs
    zero_gss = ()
    if not any(inst.x):
        zero_gss = ("auto",)
        if inst.m_bound is not None and (
                isinstance(cs, Punctured) or _symmetric_bound(cs) is not None):
            zero_gss += ("avg",)
    for mode in ("balancing", "gss"):
        strict = zero_gss if mode == "gss" else ()
        try:
            want = brute_force_solve(inst, mode).status
        except ValueError:
            want = None
        for engine in ENGINES:
            try:
                got = solve_instance(inst, mode, engine)
            except ValueError:
                assert engine not in strict, (mode, engine)
                continue
            event(f"{mode} {engine} {got.status}")
            assert want is not None, (mode, engine)
            if got.status == "solved":
                assert verify_solution(inst, got.witness, mode), (mode, engine)
            if engine == "avg" and engine not in strict:
                assert got.status in (want, "guard_abort")
            else:
                assert got.status == want, (mode, engine)


def test_one_budget_spans_two_solves():
    """A Budget handed to two solves draws on one limit: their points
    add up, and the second solve overruns a limit that either fits
    alone, naming the search, as the budget already held points."""
    def sbp(budget):
        return solve_sbp(_FLAT_X, 4, budget)

    def gss(budget):
        return solve_gss_interval(_FLAT_X, 123457, -4, 4, budget)

    counts = []
    for solve in (sbp, gss):
        budget = Budget()
        solve(budget)
        counts.append(budget.charged)
    total = sum(counts)
    assert min(counts) > 0
    shared = Budget(total)
    first, second = sbp(shared), gss(shared)
    assert shared.charged == total
    assert gss(max(counts)) == second
    short = Budget(total - 1)
    assert sbp(short) == first
    with pytest.raises(BudgetExceeded,
                       match=f"^search lists more than {total - 1} points$"):
        gss(short)


def test_capped_oracle_draws_on_one_budget():
    """Gap questions at radii 10, 5, 2 and 1 around (17, -14) all accept,
    and each answer's walk visits 2 points, so any one of them fits a
    budget of 2.  One capped oracle's answers share its Budget: the four
    charge 8 in all, and a limit of 7 overruns at the fourth."""
    basis = LatticeBasis(((2, 1), (0, 3)), 2)
    target = (Fraction(17), Fraction(-14))
    radii = (10, 5, 2, 1)
    budget = Budget()
    oracle = capped_cvp_oracle(budget)
    charged = []
    for r in radii:
        assert gap_decide(capped_cvp_oracle(2), basis, target, r).accept
        gv = gap_decide(oracle, basis, target, r)
        assert gv.accept
        charged.append(budget.charged)
    assert charged == [2, 4, 6, 8]
    assert gv.vector == (16, -13) and gv.reported_dist == 1
    oracle = capped_cvp_oracle(Budget(7))
    for r in radii[:-1]:
        assert gap_decide(oracle, basis, target, r).accept
    with pytest.raises(BudgetExceeded,
                       match="^search lists more than 7 points$"):
        gap_decide(oracle, basis, target, radii[-1])


@pytest.mark.parametrize("budget", [True, False, 2.0, 2.5, "100"])
@pytest.mark.parametrize("engine", ["svp", "mitm", "brute"])
def test_a_budget_is_none_an_int_or_a_budget(engine, budget):
    """A bool, a float or a string is no budget: True is not a limit of 1,
    and a float is not truncated to one."""
    inst = Instance((3, 5, 8), Interval(-1, 1))
    with pytest.raises(TypeError, match="^budget must be None, an int or a "
                                        "Budget, got (bool|float|str)$"):
        solve_instance(inst, "balancing", engine, budget)


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------

_REJECT_EVERY_WITNESS = textwrap.dedent("""
    from fractions import Fraction

    import sbl.enumeration
    import sbl.lattice
    import sbl.oracle
    import sbl.reduction
    import sbl.solve
    from sbl.core import Box, Ellipsoid, Instance, InternalError, Interval
    from sbl.lattice import LatticeBasis

    if __debug__:
        raise SystemExit("asserts are enabled")

    def reject(*args, **kwargs):
        return False

    unpack = sbl.reduction._unpack

    def off_grid(make):
        # make's target, its center moved by 1/2 off r's grid
        def moved(*args):
            target, r = make(*args)
            return (target[0],) + tuple(t + Fraction(1, 2)
                                        for t in target[1:]), r
        return moved

    def corrupt(*args):
        # the unpacked rows, each with its first entry moved by one
        return tuple((r[0] + 1,) + r[1:] for r in unpack(*args))

    # at its least threshold d, 15720, the lll engine's stop fires on row 0
    # after the 15th of 18 swaps of rows 0 and 1
    x64 = (15462672028412579011, 2860057215721066269, 5093864130114332198,
           13949615191934156634, 16814580501698033916, 12239598833768735179)

    lat = LatticeBasis(((5, 0), (2, 3)), 2)
    ellipse = Ellipsoid(((Fraction(1, 4), 0), (0, 1)))
    inst = Instance((2, 3), Interval(0, 2), tau=7)
    # (module, global, a stand-in that breaks the check, a call reaching it)
    cases = [
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_sbp((3, 5, 8), 1)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_sbp_lll((3, 5, 8, 13), 5)),
        (sbl.reduction, "_unpack", corrupt,
         lambda: sbl.solve.solve_sbp_lll(x64, 15720)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_sbp_body((3, 5, 8), Box(1))),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_interval((2, 3), 7, 0, 2)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_punctured((2, 3), 1, 1)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_avg((7, 9), 2, 2, 16)),
        (sbl.enumeration, "_walk", lambda *a, **k: 0,
         lambda: sbl.enumeration.svp_inf(lat)),
        (sbl.enumeration, "_walk", lambda *a, **k: 0,
         lambda: sbl.enumeration.cvp_inf(lat, (Fraction(1, 3), 0))),
        (sbl.enumeration, "_walk", lambda *a, **k: 0,
         lambda: sbl.enumeration.svp_gauge(lat, ellipse)),
        (sbl.lattice, "sum", lambda *a: 1,
         lambda: sbl.lattice.kernel_basis((3, 5, 8))),
        (sbl.lattice, "sum", lambda *a: 1,
         lambda: sbl.solve.solve_sbp_lll((3, 5, 8, 13), 5)),
        (sbl.lattice, "max", min,
         lambda: sbl.lattice.choose_params((3, 5), 1, 0, 1)),
        (sbl.solve, "sign_pattern_target",
         off_grid(sbl.solve.sign_pattern_target),
         lambda: sbl.solve.solve_gss_punctured((2, 3), 1, 1)),
        (sbl.solve, "interval_shift_target",
         off_grid(sbl.solve.interval_shift_target),
         lambda: sbl.solve.solve_gss_interval((2, 3), 7, 0, 2)),
        (sbl.oracle, "verify_solution", reject,
         lambda: sbl.oracle.mitm_solve(inst, "gss")),
        (sbl.oracle, "coefficient_alphabet", lambda cs: None,
         lambda: sbl.oracle.brute_force_solve(inst, "gss")),
    ]
    for mod, name, stand_in, call in cases:
        original = vars(mod).get(name)
        setattr(mod, name, stand_in)
        try:
            call()
        except InternalError:
            print("internal-error")
        finally:
            if original is None:
                delattr(mod, name)
            else:
                setattr(mod, name, original)
""")


def test_self_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sbl.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", _REJECT_EVERY_WITNESS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["internal-error"] * 17


def test_failed_self_check_is_not_invalid_input(monkeypatch, tmp_path,
                                               capsys):
    from sbl.cli import EXIT_INTERNAL, EXIT_INVALID, main
    from sbl.core import serialize_instance

    assert not issubclass(InternalError, ValueError)
    monkeypatch.setattr(sbl.solve, "verify_solution", lambda *a, **k: False)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(Instance((2, 3), Interval(0, 2), tau=7)))
    code = main(["solve", str(path)])
    assert code == EXIT_INTERNAL and code != EXIT_INVALID
    err = capsys.readouterr().err
    assert err == "sbl: internal error: self-check failed: gss witness\n"
