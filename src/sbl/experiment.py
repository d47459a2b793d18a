"""Random instance sampling, empirical probes, and benchmark plumbing.

Randomness comes from SplitMix64, a 64-bit generator small enough to
reimplement in any language from its two-line description: the state
advances by the constant 0x9E3779B97F4A7C15 and the output is the state
scrambled by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9 with shift
30, 0x94D049BB133111EB with shift 27, final shift 31).  Seed 0 produces
0xE220A8397B1DCDAF first, which tests pin down.  Bounded draws use
rejection sampling, so every value in [0, bound) is exactly equally
likely and streams are reproducible bit for bit.

Each trial of a probe owns its own stream, seeded by the (index+1)-th
output of an outer stream over the probe seed; trials are therefore
independent of ordering and can run in any schedule without changing the
report.  All reported frequencies are exact rationals; wall-clock numbers
are informational floats kept out of deterministic output.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from .core import (
    DEFAULT_POINT_BUDGET,
    GUARD_ABORT,
    SOLVED,
    Budget,
    Instance,
    InternalError,
    Interval,
    Punctured,
    _parse_int,
    _parse_json,
    verify_solution,
)
from .solve import solve_instance

__all__ = [
    "SplitMix64",
    "trial_stream",
    "sample_instance",
    "ProbeConfig",
    "ProbeReport",
    "probe_existence",
    "probe_avg_solver",
    "report_json",
    "BENCH_HEADER",
    "SUITE_NAMES",
    "bench",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

TAU_PROBE_RANGE = 100  # sampled tau lies in [-100, 100]


def _mix(z: int) -> int:
    """SplitMix64's output function of a 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


class SplitMix64:
    """The 64-bit SplitMix generator; deterministic and portable."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform on [0, bound) by rejection; bound may exceed 2^64."""
        bound = int(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = ((bound - 1).bit_length() + 63) // 64 if bound > 1 else 1
        space = 1 << (64 * words)
        limit = space - space % bound
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % bound

    def span(self, lo: int, hi: int) -> int:
        """Uniform on the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


def trial_stream(seed: int, index: int) -> SplitMix64:
    """The per-trial generator: seeded by the (index+1)-th output of the
    outer stream, so trials never share state.  The outer state after k
    steps is seed + k * gamma mod 2^64, so that output costs O(1).  The
    seed must lie in [0, 2^64), so no two seeds share a stream."""
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must fit in 64 bits")
    if index < 0:
        raise ValueError("index must be nonnegative")
    return SplitMix64(_mix((seed + (index + 1) * _GAMMA) & _MASK))


def _check_sample(n: int, m_bound: int, d: int, cset: str) -> None:
    """Raise ValueError unless sample_instance can draw with these."""
    if n < 1:
        raise ValueError("n must be positive")
    if m_bound < 1:
        raise ValueError("m_bound must be positive")
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    if cset not in ("interval", "punctured"):
        raise ValueError(f"unknown coefficient set kind {cset!r}")


def sample_instance(
    n: int,
    m_bound: int,
    d: int,
    tau: int,
    cset: str,
    rng: SplitMix64,
) -> Instance:
    """x uniform on [0, m_bound - 1]^n with the requested coefficient set."""
    _check_sample(n, m_bound, d, cset)
    coeffs = Interval(-d, d) if cset == "interval" else Punctured(d)
    x = tuple(rng.below(m_bound) for _ in range(n))
    return Instance(x, coeffs, tau=int(tau), m_bound=m_bound)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    """tau None means each trial draws its own target in the probe range."""

    n: int
    m_bound: int
    d: int
    trials: int
    seed: int
    tau: Optional[int] = None
    cset: str = "interval"
    solver: str = "mitm"

    def __post_init__(self):
        _check_sample(self.n, self.m_bound, self.d, self.cset)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.solver not in ("mitm", "lattice", "both"):
            raise ValueError(f"unknown solver choice {self.solver!r}")


@dataclass(frozen=True)
class ProbeReport:
    """Exact frequencies over exactly cfg.trials samples; timings are
    wall-clock floats and carry no reproducibility promise."""

    config: ProbeConfig
    statuses: Tuple[str, ...]
    taus: Tuple[int, ...]
    existence_freq: Optional[Fraction] = None
    solver_success_freq: Optional[Fraction] = None
    guard_abort_freq: Optional[Fraction] = None
    outside_guarantee_regime: bool = False
    mean_wall: float = 0.0
    p50_wall: float = 0.0
    p90_wall: float = 0.0


def _percentile(samples, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def _route(solver: str, tau: int, cset: str) -> Tuple[str, str]:
    """solve_instance's (mode, engine) for a probe or bench solver name.

    tau 0 asks for a nonzero balancing witness, not the trivial c = 0;
    avg decides gss only, at tau 0 too; and lattice keeps interval
    balancing on the plain SVP route, since auto would switch to LLL above
    the threshold and change the reported enumeration counts."""
    if solver == "avg":
        return "gss", "avg"
    mode = "balancing" if tau == 0 else "gss"
    if solver != "lattice":
        return mode, solver
    return mode, "svp" if mode == "balancing" and cset == "interval" else "auto"


def _run_trials(cfg: ProbeConfig, judge) -> Tuple[ProbeReport, Fraction]:
    """Draw cfg.trials instances and judge each one.

    Trial i takes its stream, then its tau when cfg.tau is None, then its
    instance; judge(i, inst, tau) returns (status, wall, ok).  Returns the
    report without frequencies and the fraction of trials judged ok."""
    statuses = []
    taus = []
    walls = []
    oks = 0
    for i in range(cfg.trials):
        rng = trial_stream(cfg.seed, i)
        tau = cfg.tau
        if tau is None:
            tau = rng.span(-TAU_PROBE_RANGE, TAU_PROBE_RANGE)
        inst = sample_instance(cfg.n, cfg.m_bound, cfg.d, tau, cfg.cset, rng)
        status, wall, ok = judge(i, inst, tau)
        statuses.append(status)
        taus.append(tau)
        walls.append(wall)
        oks += ok
    report = ProbeReport(
        config=cfg,
        statuses=tuple(statuses),
        taus=tuple(taus),
        outside_guarantee_regime=cfg.m_bound < 4 ** cfg.n,
        mean_wall=sum(walls) / len(walls),
        p50_wall=_percentile(walls, 0.5),
        p90_wall=_percentile(walls, 0.9),
    )
    return report, Fraction(oks, cfg.trials)


def probe_existence(
    cfg: ProbeConfig, budget: int = DEFAULT_POINT_BUDGET
) -> ProbeReport:
    """Fraction of sampled instances admitting a solution.

    The oracle is meet-in-the-middle by default; solver "lattice" swaps in
    the reduction-based solvers, and "both" runs the two and insists they
    agree on every trial.
    """
    first = "lattice" if cfg.solver == "lattice" else "mitm"

    def judge(i, inst, tau):
        t0 = time.perf_counter()
        v = solve_instance(inst, *_route(first, tau, cfg.cset), budget)
        if cfg.solver == "both":
            w = solve_instance(inst, *_route("lattice", tau, cfg.cset), budget)
            if w.status != v.status:
                raise InternalError(
                    f"oracle disagreement on trial {i}: {v.status} vs {w.status}"
                )
        return v.status, time.perf_counter() - t0, v.status == SOLVED

    report, hits = _run_trials(cfg, judge)
    return replace(report, existence_freq=hits)


def probe_avg_solver(
    cfg: ProbeConfig, budget: int = DEFAULT_POINT_BUDGET
) -> ProbeReport:
    """Agreement of the density-regime solver with meet-in-the-middle.

    A trial succeeds when the solver returns Solved with a witness that
    verifies, or else when its status matches meet-in-the-middle's; an
    unverified witness never counts (it would fail the solver's own checks
    first).  The reference runs only on trials the solver does not solve,
    so a solved trial never overruns the budget in the reference.  Guard
    aborts are reported separately, and m_bound below 4^n flags the report
    as outside the regime where the enumeration radius provably covers
    every witness.  cfg.solver must name that reference, "mitm".
    """
    if cfg.solver != "mitm":
        raise ValueError(f"avg probe's reference is mitm, not {cfg.solver!r}")

    def judge(i, inst, tau):
        t0 = time.perf_counter()
        got = solve_instance(inst, *_route("avg", tau, cfg.cset), budget)
        wall = time.perf_counter() - t0
        if got.status == SOLVED:
            ok = verify_solution(inst, got.witness, "gss")
        else:
            reference = solve_instance(inst, *_route("mitm", tau, cfg.cset),
                                       budget)
            ok = got.status == reference.status
        return got.status, wall, ok

    report, agree = _run_trials(cfg, judge)
    aborts = Fraction(report.statuses.count(GUARD_ABORT), cfg.trials)
    return replace(report, solver_success_freq=agree, guard_abort_freq=aborts)


def report_json(report: ProbeReport, include_timing: bool = False) -> str:
    """Canonical JSON for a report: sorted keys, rationals as "p/q", big
    integers as decimal strings.  Timing fields only appear on request,
    keeping the default output reproducible byte for byte."""

    def frac(f: Optional[Fraction]):
        if f is None:
            return None
        return f"{f.numerator}/{f.denominator}"

    cfg = report.config
    doc = {
        "config": {
            "n": cfg.n,
            "m_bound": str(cfg.m_bound),
            "d": cfg.d,
            "trials": cfg.trials,
            "seed": str(cfg.seed),
            "tau": cfg.tau,
            "cset": cfg.cset,
            "solver": cfg.solver,
        },
        "statuses": list(report.statuses),
        "taus": list(report.taus),
        "existence_freq": frac(report.existence_freq),
        "solver_success_freq": frac(report.solver_success_freq),
        "guard_abort_freq": frac(report.guard_abort_freq),
        "outside_guarantee_regime": report.outside_guarantee_regime,
    }
    if include_timing:
        doc["mean_wall_s"] = report.mean_wall
        doc["p50_wall_s"] = report.p50_wall
        doc["p90_wall_s"] = report.p90_wall
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

BENCH_HEADER = (
    "solver", "n", "d", "M", "status", "wall_micros", "enumerated_points"
)

_SUITES = {
    "sbp-small": [
        {"n": n, "m_bound": 100, "d": d, "tau": 0, "cset": "interval",
         "solvers": ("brute", "mitm", "lattice")}
        for n in (3, 4, 5, 6) for d in (1, 2)
    ],
    "gss-small": [
        {"n": n, "m_bound": 100, "d": d, "tau": 17, "cset": cset,
         "solvers": ("mitm", "lattice")}
        for n in (3, 4, 5) for d in (1, 2)
        for cset in ("interval", "punctured")
    ],
    "avg-small": [
        {"n": n, "m_bound": 4 ** n, "d": 2, "tau": 5, "cset": "interval",
         "solvers": ("mitm", "avg")}
        for n in (4, 6, 8)
    ],
}

SUITE_NAMES = tuple(sorted(_SUITES))

_BENCH_SOLVERS = ("brute", "mitm", "lattice", "avg")


def _load_suite(suite) -> list:
    if isinstance(suite, str) and suite in _SUITES:
        return _SUITES[suite]
    if isinstance(suite, (list, tuple)):
        runs = list(suite)
    else:
        if not (isinstance(suite, str) and os.path.exists(suite)):
            raise ValueError(f"unknown suite {suite!r}")
        try:
            with open(suite, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read {suite}: {e.strerror or e}")
        runs = _parse_json(text)
        if not isinstance(runs, list):
            raise ValueError("suite file must hold a list of runs")
    if not runs:
        raise ValueError("empty suite")
    out = []
    for i, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise ValueError(f"suite entry {i}: expected an object")
        try:
            run = {
                "n": _parse_int(entry["n"], "n"),
                "m_bound": _parse_int(entry.get("m_bound", 100), "m_bound"),
                "d": _parse_int(entry["d"], "d"),
                "tau": _parse_int(entry.get("tau", 0), "tau"),
                "cset": entry.get("cset", "interval"),
                "solvers": entry.get("solvers", ("mitm",)),
            }
        except KeyError as e:
            raise ValueError(f"suite entry {i}: missing field {e.args[0]!r}")
        except (TypeError, ValueError) as e:
            raise ValueError(f"suite entry {i}: {e}")
        solvers = run["solvers"]
        if not isinstance(solvers, (list, tuple)) or not solvers:
            raise ValueError(f"suite entry {i}: solvers: expected a nonempty "
                             f"list of solver names, got {solvers!r}")
        run["solvers"] = tuple(solvers)
        for solver in run["solvers"]:
            if solver not in _BENCH_SOLVERS:
                raise ValueError(f"suite entry {i}: unknown solver {solver!r}")
        try:
            _check_sample(run["n"], run["m_bound"], run["d"], run["cset"])
        except ValueError as e:
            raise ValueError(f"suite entry {i}: {e}")
        out.append(run)
    return out


def bench(suite, seed: int = 20240, budget: int = DEFAULT_POINT_BUDGET) -> list:
    """Rows of (solver, n, d, M, status, wall_micros, enumerated_points).

    suite is a built-in name, a path to a JSON list of run descriptors, or
    the list itself.  Each solve draws on a Budget of its own at the limit
    budget, and enumerated_points is the count charged to it.  Instance
    columns are deterministic in the seed; wall times are informational
    only.
    """
    runs = _load_suite(suite)
    rows = []
    for idx, run in enumerate(runs):
        inst = sample_instance(run["n"], run["m_bound"], run["d"], run["tau"],
                               run["cset"], trial_stream(seed, idx))
        for solver in run["solvers"]:
            mode, engine = _route(solver, run["tau"], run["cset"])
            meter = Budget(budget)
            t0 = time.perf_counter()
            verdict = solve_instance(inst, mode, engine, meter)
            wall = time.perf_counter() - t0
            rows.append((
                solver,
                run["n"],
                run["d"],
                run["m_bound"],
                verdict.status,
                int(wall * 1_000_000),
                meter.charged,
            ))
    return rows
