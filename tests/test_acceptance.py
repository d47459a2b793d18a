"""Acceptance suite: eleven standalone criteria covering oracle
equivalence, the exact set and determinant identities behind the
embeddings, the reduction fast path, distance-grid structure, gap
soundness under adversarial inflation, the density-regime statistics,
the existence dichotomy, and byte-level determinism.

Each criterion is one test; it prints a single summary line and asserts
its stated tolerance.  Sampling is seeded, so every run sees the same
corpus.  Where a reference oracle is exhaustive, the (n, d) cells are
jointly capped to keep its cost bounded while both range endpoints stay
exercised; the caps never touch the solver under test.
"""

import time
from fractions import Fraction
from itertools import product

from sbl.cli import main
from sbl.core import (
    Box,
    Instance,
    Interval,
    Punctured,
    dot,
    gcd_vector,
    l2_sq,
    verify_solution,
)
from sbl.enumeration import cvp_inf, prepare
from sbl.experiment import (
    ProbeConfig,
    SplitMix64,
    probe_existence,
    trial_stream,
)
from sbl.lattice import (
    choose_params,
    embedding_basis,
    interval_shift_target,
    kernel_basis,
    sign_pattern_target,
)
from sbl.oracle import brute_force_solve, mitm_solve
from sbl.reduction import lll_threshold
from sbl.solve import (
    ApproxCvpOracle,
    capped_cvp_oracle,
    check_minkowski,
    gap_decide,
    solve_gss_avg,
    solve_gss_interval,
    solve_gss_punctured,
    solve_sbp,
    solve_sbp_lll,
)

import pytest

from reference import ball_walk, mat_det


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _nonzero(x):
    return x if any(x) else (1,) + x[1:]


# ---------------------------------------------------------------------------
# 1. balancing solver agrees with exhaustive search
# ---------------------------------------------------------------------------

# largest d per n keeping (2d+1)^n affordable for the exhaustive reference
_SBP_DMAX = {2: 4, 3: 4, 4: 4, 5: 4, 6: 2, 7: 2, 8: 1}


def test_criterion_01_balancing_oracle_equivalence():
    t0 = time.monotonic()
    for i in range(500):
        rng = trial_stream(777, i)
        n = rng.span(2, 8)
        d = rng.span(1, _SBP_DMAX[n])
        x = _nonzero(tuple(rng.span(-100, 100) for _ in range(n)))
        inst = Instance(x, Box(d))
        got = solve_sbp(x, d)
        want = brute_force_solve(inst, "balancing")
        assert got.status == want.status, (x, d)
        if got.status == "solved":
            assert verify_solution(inst, got.witness, "balancing"), (x, d)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _line(1, ok, f"500/500 statuses agree, witnesses verify, {elapsed:.1f} s")
    assert ok, f"runtime {elapsed:.1f} s exceeds 60 s"


# ---------------------------------------------------------------------------
# 2. the embedded sup ball is exactly the solution set
# ---------------------------------------------------------------------------

_SET_DMAX = {2: 4, 3: 4, 4: 4, 5: 4, 6: 2}


def test_criterion_02_embedded_ball_set_equality():
    for i in range(100):
        rng = trial_stream(888, i)
        n = rng.span(2, 6)
        d = rng.span(1, _SET_DMAX[n])
        x = _nonzero(tuple(rng.span(-40, 40) for _ in range(n)))
        params = choose_params(x, d)
        lat = prepare(embedding_basis(x, params))
        ball = ball_walk(lat, (0,) * (n + 1), d * d * (n + 1))
        via_lattice = {v for v in ball if max(abs(c) for c in v) <= d}
        direct = {
            (0,) + c
            for c in product(range(-d, d + 1), repeat=n)
            if dot(c, x) == 0
        }
        assert via_lattice == direct, (x, d)
    _line(2, True, "100/100 exact set equalities")


# ---------------------------------------------------------------------------
# 3. the existence certificate never lies
# ---------------------------------------------------------------------------

def test_criterion_03_certificate_scan():
    certified = 0
    for i in range(10000):
        rng = trial_stream(333, i)
        n = rng.span(2, 5)
        d = rng.span(1, 3)
        x = tuple(rng.span(-60, 60) for _ in range(n))
        if not any(x):
            continue
        if check_minkowski(x, d):
            v = brute_force_solve(Instance(x, Box(d)), "balancing")
            assert v.status == "solved", (x, d)
            certified += 1
    _line(3, True, f"10000 scanned, {certified} certificates, 0 counterexamples")


# ---------------------------------------------------------------------------
# 4. kernel Gram determinant identity
# ---------------------------------------------------------------------------

def test_criterion_04_kernel_determinant():
    for i in range(200):
        rng = trial_stream(444, i)
        n = rng.span(2, 8)
        x = _nonzero(tuple(rng.span(-10 ** 6, 10 ** 6) for _ in range(n)))
        rows = kernel_basis(x).rows
        gram = [[Fraction(dot(u, v)) for v in rows] for u in rows]
        g = gcd_vector(x)
        assert mat_det(gram) == Fraction(l2_sq(x), g * g), x
    _line(4, True, "200/200 Gram determinants exact")


# ---------------------------------------------------------------------------
# 5. reduction fast path solves whenever its threshold holds
# ---------------------------------------------------------------------------

def _min_threshold_d(x):
    d = 1
    while not lll_threshold(x, d):
        d *= 2
    lo, hi = max(1, d // 2), d
    while lo < hi:
        mid = (lo + hi) // 2
        if lll_threshold(x, mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def test_criterion_05_reduction_path():
    for i in range(60):
        rng = trial_stream(555, i)
        n = rng.span(2, 12)
        bits = rng.span(8, 48)
        x = _nonzero(tuple(rng.below(1 << bits) for _ in range(n)))
        d0 = _min_threshold_d(x)
        for d in (d0, 2 * d0):
            v = solve_sbp_lll(x, d)
            assert v.status == "solved", (x, d)
            assert dot(v.witness, x) == 0 and any(v.witness)
            assert max(abs(c) for c in v.witness) <= d

    rng = SplitMix64(2024)
    big = tuple(rng.below(1 << 64) for _ in range(64))
    d0 = _min_threshold_d(big)
    t0 = time.monotonic()
    v = solve_sbp_lll(big, d0)
    elapsed = time.monotonic() - t0
    assert v.status == "solved"
    assert dot(v.witness, big) == 0 and any(v.witness)
    assert max(abs(c) for c in v.witness) <= d0
    ok = elapsed < 10.0
    _line(5, ok, f"120 threshold cases verified; n=64 64-bit in {elapsed:.2f} s")
    assert ok, f"n=64 instance took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 6 and 7 share one corpus: GSS equivalence, then the distance grid
# ---------------------------------------------------------------------------

def _gss_case(i):
    rng = trial_stream(606, i)
    cset = "interval" if rng.below(2) == 0 else "punctured"
    if cset == "interval":
        n = rng.span(2, 10)
        dmax = 4 if n <= 6 else (3 if n == 7 else (2 if n == 8 else 1))
    else:
        n = rng.span(2, 7)
        dmax = 4 if n <= 6 else 3
    d = rng.span(1, dmax)
    tau = rng.span(-50, 50)
    x = _nonzero(tuple(rng.span(-50, 50) for _ in range(n)))
    return cset, x, tau, d


@pytest.fixture(scope="module")
def gss_corpus():
    punctured = []
    for i in range(300):
        cset, x, tau, d = _gss_case(i)
        if cset == "interval":
            inst = Instance(x, Interval(-d, d), tau=tau)
            got = solve_gss_interval(x, tau, -d, d)
        else:
            inst = Instance(x, Punctured(d), tau=tau)
            got = solve_gss_punctured(x, tau, d)
            punctured.append((x, tau, d))
        want = mitm_solve(inst, "gss")
        assert got.status == want.status, (cset, x, tau, d)
        if got.status == "solved":
            assert verify_solution(inst, got.witness, "gss"), (cset, x, tau, d)
    return punctured


def test_criterion_06_gss_oracle_equivalence(gss_corpus):
    _line(6, True,
          f"300/300 statuses agree ({300 - len(gss_corpus)} interval, "
          f"{len(gss_corpus)} punctured), witnesses verify")


def test_criterion_07_distance_grid(gss_corpus):
    realized = 0
    for x, tau, d in gss_corpus:
        params = choose_params(x, d, tau)
        basis = prepare(embedding_basis(x, params))
        oracle = capped_cvp_oracle()
        for signs in product((-1, 1), repeat=len(x)):
            target, r = sign_pattern_target(tau, params.alpha, d, signs)
            gv = gap_decide(oracle, basis, target, r)
            if not gv.accept:
                continue
            exact = max(abs(Fraction(a) - b)
                        for a, b in zip(gv.vector, target))
            shifted = exact if d % 2 == 1 else exact - Fraction(1, 2)
            assert shifted.denominator == 1, (x, tau, d, signs, exact)
            realized += 1
    _line(7, True,
          f"{realized} realized distances across all sign patterns, "
          f"0 off-grid")


# ---------------------------------------------------------------------------
# 8. gap decisions survive adversarial report inflation
# ---------------------------------------------------------------------------

def _inflated_oracle(gamma, factor):
    def solver(basis, target, r):
        res = cvp_inf(basis, target)
        return res.witness, factor * res.dist

    return ApproxCvpOracle(gamma, solver)


def test_criterion_08_gap_soundness_under_inflation():
    for i in range(1000):
        rng = trial_stream(808, i)
        n = rng.span(2, 4)
        d = rng.span(1, 4)
        tau = rng.span(-30, 30)
        x = _nonzero(tuple(rng.span(-20, 20) for _ in range(n)))
        gamma = 1 + Fraction(1, 2 * d)
        # worst legal factor first, then interior points of [1, gamma]
        factor = (gamma, (1 + gamma) / 2, Fraction(1))[i % 3]
        params = choose_params(x, d, tau)
        basis = embedding_basis(x, params)
        target, r = interval_shift_target(tau, params.alpha, -d, d, n)
        gv = gap_decide(_inflated_oracle(gamma, factor), basis, target, r)
        truth = cvp_inf(basis, target).dist <= r
        assert gv.accept == truth, (x, tau, d, factor)
        if gv.accept:
            c = gv.vector[1:]
            assert dot(c, x) == tau and max(abs(v) for v in c) <= d
    _line(8, True, "1000/1000 inflated decisions match ground truth")


# ---------------------------------------------------------------------------
# 9. density-regime solver statistics
# ---------------------------------------------------------------------------

def _avg_trial_stats(seed, cset, trials=100):
    agree = aborts = invalid = 0
    for i in range(trials):
        rng = trial_stream(seed, i)
        tau = rng.span(-100, 100)
        n, m_bound, d = 8, 4 ** 8, 2
        x = tuple(rng.below(m_bound) for _ in range(n))
        coeffs = Interval(-d, d) if cset == "interval" else Punctured(d)
        inst = Instance(x, coeffs, tau=tau, m_bound=m_bound)
        got = solve_gss_avg(x, tau, d, m_bound, cset)
        if got.status == "guard_abort":
            aborts += 1
        if got.status == "solved":
            if verify_solution(inst, got.witness, "gss"):
                agree += 1
            else:
                invalid += 1
        else:
            want = mitm_solve(inst, "gss" if tau else "balancing")
            if got.status == want.status:
                agree += 1
    return Fraction(agree, trials), Fraction(aborts, trials), invalid


def test_criterion_09_density_solver_agreement():
    freq_i, aborts_i, invalid_i = _avg_trial_stats(901, "interval")
    freq_p, aborts_p, invalid_p = _avg_trial_stats(902, "punctured")
    ok = (freq_i >= Fraction(9, 10) and freq_p >= Fraction(8, 10)
          and invalid_i == invalid_p == 0)
    _line(9, ok,
          f"interval agreement {float(freq_i):.2f} (aborts "
          f"{float(aborts_i):.2f}), punctured {float(freq_p):.2f} (aborts "
          f"{float(aborts_p):.2f}), 0 invalid witnesses")
    assert invalid_i == 0 and invalid_p == 0
    assert freq_i >= Fraction(9, 10), f"interval agreement {freq_i}"
    assert freq_p >= Fraction(8, 10), f"punctured agreement {freq_p}"


# ---------------------------------------------------------------------------
# 10. existence dichotomy between the dense and sparse regimes
# ---------------------------------------------------------------------------

def test_criterion_10_existence_dichotomy():
    dense = probe_existence(
        ProbeConfig(n=8, m_bound=2 ** 16, d=2, trials=200, seed=1601)
    ).existence_freq
    sparse = probe_existence(
        ProbeConfig(n=8, m_bound=5 ** 20, d=2, trials=200, seed=1602)
    ).existence_freq
    ok = dense >= Fraction(9, 10) and sparse <= Fraction(1, 20)
    _line(10, ok,
          f"dense frequency {float(dense):.3f} (want >= 0.90), sparse "
          f"{float(sparse):.3f} (want <= 0.05)")
    assert sparse <= Fraction(1, 20), f"sparse frequency {sparse}"
    assert dense >= Fraction(9, 10), f"dense frequency {dense}"


# ---------------------------------------------------------------------------
# 11. byte-level determinism of the command line surface
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, capsys):
    from sbl.core import serialize_instance

    instances = [
        Instance((2, 3), Interval(0, 2), tau=7),
        Instance((1, 2, 4), Interval(0, 1), tau=5),
        Instance((2, 3), Punctured(1), tau=1),
        Instance((7, 9), Interval(-2, 2), tau=2, m_bound=16),
        Instance((3, 5, 8), Interval(-1, 1)),
        Instance((2, 4), Interval(-3, 3), tau=1),
    ]
    runs = []
    for k, inst in enumerate(instances):
        p = tmp_path / f"i{k}.json"
        p.write_text(serialize_instance(inst) + "\n", encoding="utf-8")
        runs.append(["solve", str(p)])
    runs[3].extend(["--engine", "avg"])
    runs.append(["solve", str(tmp_path / "i4.json"), "--mode", "sbp"])
    for seed in ("1", "7", "42"):
        runs.append(["gen", "--n", "5", "--M", "1000", "--d", "2",
                     "--seed", seed])
    runs.append(["probe", "--n", "3", "--M", "64", "--d", "1",
                 "--trials", "8", "--seed", "5"])
    runs.append(["probe", "--kind", "avg", "--n", "4", "--M", "256",
                 "--d", "2", "--tau", "5", "--trials", "5", "--seed", "6"])

    def run_all():
        out = []
        for argv in runs:
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    first = run_all()
    second = run_all()
    assert first == second
    _line(11, True, f"{len(runs)} command runs byte-identical across "
          f"two executions")
