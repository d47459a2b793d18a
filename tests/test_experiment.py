"""Determinism tests for the experiment layer: the generator against its
published outputs, byte-stable reports, and benchmark plumbing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbl.core import BudgetExceeded, Instance, Interval, Punctured
from sbl.experiment import (
    BENCH_HEADER,
    ProbeConfig,
    SUITE_NAMES,
    SplitMix64,
    TAU_PROBE_RANGE,
    bench,
    probe_avg_solver,
    probe_existence,
    report_json,
    sample_instance,
    trial_stream,
)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_splitmix_reference_outputs():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    g = SplitMix64(1)
    assert g.next_u64() == 0x910A2DEC89025CC1
    assert g.next_u64() == 0xBEEB8DA1658EEC67


def test_splitmix_seed_is_masked():
    a = SplitMix64(5)
    b = SplitMix64(5 + (1 << 64))
    assert a.next_u64() == b.next_u64()


def test_below_validates_bound():
    g = SplitMix64(3)
    with pytest.raises(ValueError):
        g.below(0)
    with pytest.raises(ValueError):
        g.below(-4)


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 10 ** 30))
@settings(max_examples=80, deadline=None)
def test_below_stays_in_range(seed, bound):
    g = SplitMix64(seed)
    for _ in range(4):
        assert 0 <= g.below(bound) < bound


def test_below_handles_bounds_past_the_word_size():
    g = SplitMix64(9)
    big = (1 << 130) + 7
    vals = [g.below(big) for _ in range(8)]
    assert all(0 <= v < big for v in vals)
    g2 = SplitMix64(9)
    assert vals == [g2.below(big) for _ in range(8)]


def test_span_inclusive_and_validated():
    g = SplitMix64(11)
    vals = {g.span(-2, 2) for _ in range(200)}
    assert vals == {-2, -1, 0, 1, 2}
    with pytest.raises(ValueError):
        g.span(3, 2)


def test_trial_streams_are_independent():
    a = [trial_stream(123, i).next_u64() for i in range(6)]
    assert len(set(a)) == 6
    # re-deriving a stream never depends on the others having been drawn
    assert trial_stream(123, 3).next_u64() == a[3]
    with pytest.raises(ValueError):
        trial_stream(123, -1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            trial_stream(seed, 0)


@pytest.mark.parametrize("seed", [123, (1 << 64) - 5])
def test_trial_stream_matches_stepping_the_outer_stream(seed):
    """The direct seeding equals drawing index+1 outputs one by one."""
    for index in (0, 1, 2, 17, 4095):
        outer = SplitMix64(seed)
        for _ in range(index + 1):
            s = outer.next_u64()
        want = SplitMix64(s)
        got = trial_stream(seed, index)
        assert [got.next_u64() for _ in range(4)] == [
            want.next_u64() for _ in range(4)
        ]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_instance_deterministic():
    a = sample_instance(5, 1000, 2, 7, "interval", SplitMix64(77))
    b = sample_instance(5, 1000, 2, 7, "interval", SplitMix64(77))
    assert a == b
    assert isinstance(a.coeffs, Interval)
    assert a.coeffs == Interval(-2, 2)
    assert a.tau == 7 and a.m_bound == 1000
    assert all(0 <= v < 1000 for v in a.x)


def test_sample_instance_punctured():
    inst = sample_instance(3, 50, 1, 0, "punctured", SplitMix64(5))
    assert inst.coeffs == Punctured(1)


def test_sample_instance_m_one_gives_zero_entries():
    inst = sample_instance(4, 1, 1, 0, "interval", SplitMix64(2))
    assert inst.x == (0, 0, 0, 0)


def test_sample_instance_validation():
    g = SplitMix64(0)
    with pytest.raises(ValueError):
        sample_instance(0, 10, 1, 0, "interval", g)
    with pytest.raises(ValueError):
        sample_instance(2, 0, 1, 0, "interval", g)
    with pytest.raises(ValueError):
        sample_instance(2, 10, 0, 0, "interval", g)
    with pytest.raises(ValueError):
        sample_instance(2, 10, 1, 0, "simplex", g)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(n=0, m_bound=10, d=1, trials=5, seed=1)
    with pytest.raises(ValueError):
        ProbeConfig(n=2, m_bound=10, d=1, trials=0, seed=1)
    with pytest.raises(ValueError):
        ProbeConfig(n=2, m_bound=10, d=1, trials=5, seed=1 << 64)
    with pytest.raises(ValueError):
        ProbeConfig(n=2, m_bound=10, d=1, trials=5, seed=1, cset="simplex")
    with pytest.raises(ValueError):
        ProbeConfig(n=2, m_bound=10, d=1, trials=5, seed=1, solver="magic")


def test_probe_existence_reproducible():
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=12, seed=9)
    r1 = probe_existence(cfg)
    r2 = probe_existence(cfg)
    assert r1.statuses == r2.statuses
    assert r1.taus == r2.taus
    assert r1.existence_freq == r2.existence_freq
    assert len(r1.statuses) == 12
    assert all(-TAU_PROBE_RANGE <= t <= TAU_PROBE_RANGE for t in r1.taus)


def test_probe_existence_fixed_tau():
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=6, seed=9, tau=5)
    r = probe_existence(cfg)
    assert r.taus == (5,) * 6


def test_probe_existence_solver_agreement():
    # "both" raises on any status mismatch, so finishing is the assertion
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=10, seed=4, solver="both")
    r = probe_existence(cfg)
    assert r.existence_freq is not None


def test_probe_existence_lattice_only():
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=8, seed=4, solver="lattice")
    mit = ProbeConfig(n=3, m_bound=64, d=1, trials=8, seed=4, solver="mitm")
    assert probe_existence(cfg).statuses == probe_existence(mit).statuses


def test_probe_existence_regime_flag():
    low = ProbeConfig(n=4, m_bound=4 ** 4 - 1, d=1, trials=1, seed=0)
    high = ProbeConfig(n=4, m_bound=4 ** 4, d=1, trials=1, seed=0)
    assert probe_existence(low).outside_guarantee_regime
    assert not probe_existence(high).outside_guarantee_regime


def test_probe_avg_solver_reproducible():
    cfg = ProbeConfig(n=4, m_bound=4 ** 4, d=2, trials=10, seed=13, tau=5)
    r1 = probe_avg_solver(cfg)
    r2 = probe_avg_solver(cfg)
    assert r1.statuses == r2.statuses
    assert r1.solver_success_freq == r2.solver_success_freq
    assert r1.guard_abort_freq == r2.guard_abort_freq
    assert set(r1.statuses) <= {"solved", "no_solution", "guard_abort"}


def test_probe_avg_solver_runs_the_reference_only_when_unsolved():
    """Every trial of this config solves within 7 points, while
    meet-in-the-middle needs 7^3 half-candidates at n = 6, d = 3.  So a
    budget of 10 passes, since no solved trial runs the reference; at
    n = 4, d = 2 a trial without a solution still runs it and overruns
    a budget of 10 (5^2 = 25 half-candidates)."""
    cfg = ProbeConfig(n=6, m_bound=1 << 12, d=3, trials=6, seed=13, tau=7)
    report = probe_avg_solver(cfg, budget=10)
    assert report.statuses == ("solved",) * 6
    assert report.solver_success_freq == 1
    unsolved = ProbeConfig(n=4, m_bound=4 ** 4, d=2, trials=1, seed=13,
                           tau=5)
    assert probe_avg_solver(unsolved).statuses == ("no_solution",)
    with pytest.raises(BudgetExceeded, match="^5\\^2 half-candidates"):
        probe_avg_solver(unsolved, budget=10)


@pytest.mark.parametrize("solver", ["lattice", "both"])
def test_probe_avg_solver_refuses_a_solver_it_does_not_run(solver):
    cfg = ProbeConfig(n=4, m_bound=4 ** 4, d=2, trials=1, seed=13, tau=5,
                      solver=solver)
    with pytest.raises(ValueError, match="reference is mitm"):
        probe_avg_solver(cfg)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_json_is_canonical_and_timing_free():
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=5, seed=21)
    text1 = report_json(probe_existence(cfg))
    text2 = report_json(probe_existence(cfg))
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["config"]["seed"] == "21"
    assert doc["config"]["m_bound"] == "64"
    assert len(doc["statuses"]) == 5
    assert "/" in doc["existence_freq"]
    assert doc["solver_success_freq"] is None
    assert "mean_wall_s" not in doc
    # canonical form: sorted keys, no whitespace
    assert text1 == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_report_json_with_timing():
    cfg = ProbeConfig(n=3, m_bound=64, d=1, trials=3, seed=21)
    doc = json.loads(report_json(probe_existence(cfg), include_timing=True))
    assert "mean_wall_s" in doc and "p50_wall_s" in doc and "p90_wall_s" in doc


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

def test_bench_builtin_suite_schema():
    rows = bench("sbp-small", seed=5)
    assert rows
    assert len(BENCH_HEADER) == 7
    for row in rows:
        assert len(row) == len(BENCH_HEADER)
        solver, n, d, m, status, wall, points = row
        assert solver in ("brute", "mitm", "lattice", "avg")
        assert status in ("solved", "no_solution", "guard_abort")
        assert wall >= 0 and points >= 0
    # instance columns are seed-deterministic; wall times are not
    again = bench("sbp-small", seed=5)
    strip = lambda rs: [(r[0], r[1], r[2], r[3], r[4], r[6]) for r in rs]
    assert strip(rows) == strip(again)


def test_bench_suite_names_registered():
    assert set(SUITE_NAMES) == {"sbp-small", "gss-small", "avg-small"}


def test_bench_inline_suite_and_defaults():
    rows = bench([{"n": 3, "d": 1}], seed=1)
    assert len(rows) == 1
    assert rows[0][0] == "mitm"


def test_bench_unknown_suite():
    with pytest.raises(ValueError):
        bench("no-such-suite")


def test_bench_empty_suite_rejected(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError):
        bench(str(p))
    q = tmp_path / "notalist.json"
    q.write_text('{"n": 3}', encoding="utf-8")
    with pytest.raises(ValueError):
        bench(str(q))


def test_bench_suite_file_round_trip(tmp_path):
    p = tmp_path / "suite.json"
    p.write_text(
        json.dumps([{"n": 3, "d": 1, "tau": 4, "solvers": ["mitm", "lattice"]}]),
        encoding="utf-8",
    )
    rows = bench(str(p), seed=3)
    assert [r[0] for r in rows] == ["mitm", "lattice"]
    assert rows[0][4] == rows[1][4]


def test_bench_rejects_unknown_solvers_before_running(monkeypatch):
    import sbl.experiment

    calls = []
    monkeypatch.setattr(sbl.experiment, "solve_instance",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="unknown solver 'quantum'"):
        bench([{"n": 3, "d": 1, "solvers": ["mitm"]},
               {"n": 3, "d": 1, "solvers": ["quantum"]}])
    assert calls == []


@pytest.mark.parametrize("field,value,message", [
    ("n", 0, "n must be positive"),
    ("d", 0, "coefficient bound must be positive"),
    ("m_bound", 0, "m_bound must be positive"),
    ("cset", "bogus", "unknown coefficient set kind 'bogus'"),
    ("n", 2.7, "n: expected an integer, got float"),
    ("d", True, "d: expected an integer"),
    ("m_bound", "1e3", "m_bound: not a decimal integer: '1e3'"),
    ("tau", 0.5, "tau: expected an integer, got float"),
    ("solvers", [],
     "solvers: expected a nonempty list of solver names, got []"),
    ("solvers", "mitm",
     "solvers: expected a nonempty list of solver names, got 'mitm'"),
])
def test_bench_checks_values_before_running(monkeypatch, field, value,
                                            message):
    import sbl.experiment

    calls = []
    monkeypatch.setattr(sbl.experiment, "solve_instance",
                        lambda *a, **k: calls.append(a))
    bad = {"n": 3, "d": 1, field: value}
    with pytest.raises(ValueError) as info:
        bench([{"n": 3, "d": 1}, bad])
    assert str(info.value) == f"suite entry 1: {message}"
    assert calls == []


@pytest.mark.parametrize("probe,solver", [
    (probe_existence, "mitm"),
    (probe_existence, "both"),
    (probe_avg_solver, "mitm"),
])
def test_probes_pass_their_budget_to_every_solve(monkeypatch, probe, solver):
    import sbl.experiment

    seen = []
    solve = sbl.experiment.solve_instance

    def spy(inst, mode, engine, *rest, **kw):
        seen.append((engine, rest))
        return solve(inst, mode, engine, *rest, **kw)

    monkeypatch.setattr(sbl.experiment, "solve_instance", spy)
    probe(ProbeConfig(n=4, m_bound=256, d=2, trials=3, seed=11, tau=5,
                      solver=solver), budget=12345)
    assert "mitm" in {engine for engine, _ in seen}
    assert all(rest == (12345,) for _, rest in seen), seen
