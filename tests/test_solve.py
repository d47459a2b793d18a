"""Lattice solver tests: worked instances frozen against the brute-force
oracle, the decode equivalence behind the embedding, and the gap decision
machinery including deliberately inflating oracles."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbl
from sbl import core, reduction
from sbl.core import (
    Box,
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Interval,
    Punctured,
    dot,
    verify_solution,
)
from sbl.oracle import brute_force_solve
from sbl.lattice import (
    LatticeBasis,
    choose_params,
    embedding_basis,
    interval_shift_target,
)
from sbl.enumeration import BallQuery, cvp_inf, enum_ball
from sbl.solve import (
    ApproxCvpOracle,
    GapConfigError,
    HALF_INTEGER,
    INTEGER,
    SIGN_PATTERN_CAP,
    ThresholdUnmet,
    capped_cvp_oracle,
    check_minkowski,
    cvp_via_gap_search,
    gap_decide,
    solve_gss_avg,
    solve_gss_interval,
    solve_gss_punctured,
    solve_sbp,
    solve_sbp_body,
    solve_sbp_lll,
)


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
    stats = {}
    solve_sbp((3, 5, 8), 1, stats=stats)
    assert stats["ball_points"] >= 1


def test_sbp_lll_fast_path():
    v = solve_sbp_lll((1, 2), 2)
    assert v.status == "solved"
    assert dot(v.witness, (1, 2)) == 0
    assert all(abs(c) <= 2 for c in v.witness)


def test_sbp_lll_threshold_unmet():
    with pytest.raises(ThresholdUnmet):
        solve_sbp_lll((1, 2), 1)


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


# ---------------------------------------------------------------------------
# decode equivalence: short embedded vectors are exactly the solutions
# ---------------------------------------------------------------------------

def _embedded_coeff_sets(x, tau, d):
    """Coefficient vectors read off lattice points near the shifted target
    versus the admissible vectors found by direct iteration."""
    params = choose_params(x, d, tau, "gss_worst")
    basis = embedding_basis(x, params)
    n = len(x)
    center = tuple(Fraction(t) for t in params.target)
    ball = enum_ball(BallQuery(basis, center, Fraction(d * d * (n + 1))))
    via_lattice = set()
    for v in ball.points:
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
    gv = gap_decide(capped_cvp_oracle(Fraction(1, 2)), _z2(),
                    (Fraction(3, 2), Fraction(0)), Fraction(1, 2), HALF_INTEGER)
    assert gv.accept
    assert gv.reported_dist == Fraction(1, 2)
    assert gv.vector in ((1, 0), (2, 0))


def test_gap_rejects_beyond_radius():
    gv = gap_decide(capped_cvp_oracle(Fraction(0)), _z2(),
                    (Fraction(1, 2), Fraction(1, 2)), Fraction(0), INTEGER)
    assert not gv.accept
    assert gv.vector is None
    assert gv.reported_dist == Fraction(1)


def test_gap_radius_zero_exact_hit():
    gv = gap_decide(capped_cvp_oracle(Fraction(0)), _z2(),
                    (Fraction(2), Fraction(-3)), Fraction(0), INTEGER)
    assert gv.accept and gv.vector == (2, -3)
    assert gv.reported_dist == 0


def test_gap_config_error_when_gamma_breaks_the_gap():
    fat = ApproxCvpOracle(Fraction(2), lambda basis, target: (None, 99))
    with pytest.raises(GapConfigError):
        gap_decide(fat, _z2(), (Fraction(0), Fraction(0)), Fraction(3),
                   INTEGER)


def test_gap_wide_gamma_legal_at_radius_zero():
    fat = ApproxCvpOracle(Fraction(2), lambda basis, target: (None, 99))
    gv = gap_decide(fat, _z2(), (Fraction(1, 3), Fraction(0)), Fraction(0),
                    INTEGER)
    assert not gv.accept


def test_gap_rejects_unknown_grid():
    with pytest.raises(ValueError):
        gap_decide(capped_cvp_oracle(Fraction(1)), _z2(),
                   (Fraction(0), Fraction(0)), Fraction(1), "thirds")


def test_gap_rejects_negative_radius():
    oracle = capped_cvp_oracle(Fraction(0))  # the oracle itself refuses -1
    with pytest.raises(ValueError):
        gap_decide(oracle, _z2(), (Fraction(0), Fraction(0)), Fraction(-1),
                   INTEGER)


def _inflating_oracle(gamma):
    """Exact witness, inflated report: the worst case the contract allows."""
    gamma = Fraction(gamma)

    def solver(basis, target):
        res = cvp_inf(basis, target)
        return res.witness, gamma * res.dist

    return ApproxCvpOracle(gamma, solver)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
       st.integers(-10, 10), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_gap_decision_survives_inflation(x, tau, d):
    """An oracle that inflates its reports as far as the gap tolerates
    must still decide interval feasibility exactly."""
    assume(any(x))
    xs = tuple(x)
    n = len(xs)
    params = choose_params(xs, d, tau, "gss_worst")
    basis = embedding_basis(xs, params)
    target, r = interval_shift_target(tau, params.alpha, -d, d, n)
    grid = INTEGER  # b - a = 2d is even
    gamma = 1 + Fraction(1, 2 * r) if r > 0 else Fraction(1)
    gv = gap_decide(_inflating_oracle(gamma), basis, target, r, grid)
    want = brute_force_solve(
        Instance(xs, Interval(-d, d), tau=tau), "gss"
    )
    assert gv.accept == (want.status == "solved")
    if gv.accept:
        c = gv.vector[1:]
        assert dot(c, xs) == tau
        assert all(abs(v) <= d for v in c)


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
    stats = {}
    solve_gss_interval((2, 3), 7, 0, 2, stats=stats)
    assert stats["ball_points"] >= 1


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


def test_gss_punctured_stats():
    stats = {}
    solve_gss_punctured((2, 3), 1, 1, stats=stats)
    assert stats["patterns_tried"] >= 1
    assert stats["ball_points"] >= 0


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


@pytest.mark.parametrize("x, tau", [
    ((499047, 273516, 775852, 994162, 137423), 55),
    ((812874, 895347, 828298, 932437, 281331, 766550), -76),
])
def test_gss_punctured_prepares_the_lattice_once(monkeypatch, x, tau):
    gso_calls = _count_calls(monkeypatch, reduction.integral_gso)
    solve_calls = _count_calls(monkeypatch, core.mat_solve)
    stats = {}
    v = solve_gss_punctured(x, tau, 2, stats=stats)
    assert v.status == "no_solution"
    assert stats["patterns_tried"] == 2 ** len(x)
    assert len(gso_calls) <= 1
    assert len(solve_calls) == 0
    # the counter does see a query that prepares its own lattice
    enum_ball(BallQuery(_z2(), (0, 0), 1))
    assert len(gso_calls) >= 1


# ---------------------------------------------------------------------------
# density-regime solver
# ---------------------------------------------------------------------------

def test_gss_avg_worked_instance():
    stats = {}
    v = solve_gss_avg((7, 9), 2, 2, 16, stats=stats)
    assert v.witness == (-1, 1)
    assert stats["alpha"] == 4 and stats["q"] == 67


def test_gss_avg_guard_abort():
    # x = (8, 8) embeds (0, 1, -1), sup norm 1, inside the guard at M = 16
    v = solve_gss_avg((8, 8), 2, 2, 16)
    assert v.status == "guard_abort"


def test_gss_avg_large_bound_short_circuit():
    # interval alphabet has 3 values at d = 1; 3^4 = 81 < 100
    v = solve_gss_avg((3, 5), 1, 1, 100)
    assert v.status == "no_solution"
    v = solve_gss_avg((3, 5), 1, 1, 20, cset="punctured")
    assert v.status == "no_solution"  # 2^4 = 16 < 20


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


# ---------------------------------------------------------------------------
# distance recovery from gap decisions
# ---------------------------------------------------------------------------

def test_gap_search_exact_hit():
    vec, dist = cvp_via_gap_search(_z2(), (Fraction(3), Fraction(-4)))
    assert vec == (3, -4) and dist == 0


def test_gap_search_half_grid():
    vec, dist = cvp_via_gap_search(
        _z2(), (Fraction(1, 2), Fraction(0)), grid=HALF_INTEGER
    )
    assert dist == Fraction(1, 2)
    assert vec in ((0, 0), (1, 0))


def test_gap_search_needs_grid_aligned_r_max():
    with pytest.raises(ValueError):
        cvp_via_gap_search(_z2(), (Fraction(0), Fraction(0)),
                           r_max=Fraction(3, 2))


def test_gap_search_rejects_unknown_grid():
    with pytest.raises(ValueError):
        cvp_via_gap_search(_z2(), (Fraction(0), Fraction(0)), grid="thirds")


def test_gap_search_fails_when_r_max_too_small():
    coarse = LatticeBasis(((3, 0), (0, 3)), 2)
    with pytest.raises(ValueError):
        cvp_via_gap_search(coarse, (Fraction(1), Fraction(1)),
                           r_max=Fraction(0))
    vec, dist = cvp_via_gap_search(coarse, (Fraction(1), Fraction(1)),
                                   r_max=Fraction(2))
    assert dist == 1 and vec == (0, 0)


@given(st.sampled_from([((2, 1), (0, 3)), ((3, 0), (1, 4)), ((2, 0), (0, 2))]),
       st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_gap_search_matches_direct_cvp(rows, p, q):
    basis = LatticeBasis(rows, 2)
    target = (Fraction(p), Fraction(q))
    res = cvp_inf(basis, target)
    grid = INTEGER if res.dist.denominator == 1 else HALF_INTEGER
    vec, dist = cvp_via_gap_search(basis, target, grid=grid)
    assert dist == res.dist
    got = max(abs(Fraction(a) - b) for a, b in zip(vec, target))
    assert got == dist


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------

_REJECT_EVERY_WITNESS = textwrap.dedent("""
    from fractions import Fraction

    import sbl.enumeration
    import sbl.lattice
    import sbl.oracle
    import sbl.solve
    from sbl.core import Box, Instance, InternalError, Interval
    from sbl.lattice import LatticeBasis

    if __debug__:
        raise SystemExit("asserts are enabled")

    def reject(*args, **kwargs):
        return False

    lat = LatticeBasis(((5, 0), (2, 3)), 2)
    inst = Instance((2, 3), Interval(0, 2), tau=7)
    # (module, global, a stand-in that breaks the check, a call reaching it)
    cases = [
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_sbp((3, 5, 8), 1)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_sbp_lll((3, 5, 8, 13), 5)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_interval((2, 3), 7, 0, 2)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_punctured((2, 3), 1, 1)),
        (sbl.solve, "verify_solution", reject,
         lambda: sbl.solve.solve_gss_avg((7, 9), 2, 2, 16)),
        (sbl.enumeration, "_min_sup_nonzero", lambda *a: (0, (1, 0)),
         lambda: sbl.enumeration.svp_inf(lat)),
        (sbl.enumeration, "gauge_sq", lambda *a: Fraction(0),
         lambda: sbl.enumeration.svp_gauge(lat, Box(1))),
        (sbl.lattice, "dot", lambda *a: 1,
         lambda: sbl.lattice.kernel_basis((3, 5, 8))),
        (sbl.lattice, "max", min,
         lambda: sbl.lattice.choose_params((3, 5), 1, 0, "gss_avg", 1)),
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
    assert proc.stdout.split() == ["internal-error"] * 11


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
