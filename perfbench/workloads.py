"""Seeded corpora for the four benchmark workloads.

A workload is a fixed-size corpus of cases, generated from the workload
seed with the benchmark's own random streams, so the program under test
only ever receives finished instances (probe-mitm is the exception: there
the program's own trial seeding is the thing being measured).  Cases are
laid out as repetitions of a short cell cycle, so any prefix of the corpus
has the same mix as the whole; the timed loop walks the corpus in order and
wraps around when it runs out.

Cell weights are chosen so that the median and the tail percentile of each
workload fall inside one cell rather than on the boundary between two
cells, where a quantile would jump between unrelated instance families from
one seed to the next.

This module imports nothing from sbl at import time; functions that need
the package receive it through an import inside the function.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

NAMES = ("sweep-sparse", "ball-dense", "lll-kernel", "probe-mitm")
SCALES = ("full", "tiny")

DEFAULT_SEED = 101
HELD_OUT_SEED = 202

ROOT = Path(__file__).resolve().parent.parent


def load_sbl():
    """Put the checkout's src/ first on sys.path and import sbl from it.

    Exits with a nonzero status when the checkout has no sources: the benchmark
    measures the tree it sits in, never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "sbl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sbl sources under {src}")
    sys.path.insert(0, str(src))
    import sbl

    if Path(sbl.__file__).resolve().parent != src / "sbl":
        sys.exit(f"perfbench: imported sbl from {sbl.__file__}, not {src}")
    return sbl


@dataclass(frozen=True)
class Case:
    """One op of a workload.

    inst is the instance the op solves (for probe-mitm, the instance the
    trial stream must produce); argv holds the extra `sbl solve` flags;
    verify_mode is the mode core.verify_solution checks a witness in;
    ref names the independent engine that supplies the expected status.
    """

    cell: str
    inst: object
    argv: Tuple[str, ...]
    verify_mode: str
    ref: str
    trial: Optional[int] = None


@dataclass(frozen=True)
class Spec:
    """Static shape of a workload.

    corpus and window are the full-scale sizes, tiny_* those of the smoke
    scale.  tail_pct is the highest percentile with at least ten samples
    beyond it at the op count of a 20 s run; window is how many leading ops
    the deterministic counters cover.
    """

    name: str
    why: str
    corpus: int
    tail_pct: float
    window: int
    tiny_corpus: int
    tiny_window: int


SPECS = {
    s.name: s
    for s in (
        Spec(
            "sweep-sparse",
            "punctured gss, n in {5,6}, x < 2^20: nearly all no_solution, so "
            "each op runs 2^n gap decisions and per-query Gram-Schmidt setup "
            "dominates; tail = p90",
            corpus=130, tail_pct=90, window=50, tiny_corpus=10,
            tiny_window=10,
        ),
        Spec(
            "ball-dense",
            "dense interval, avg, box and ellipsoid instances that mostly "
            "solve: 1-2 balls per op, ~2e3 points on average, so enumeration "
            "and the sup filter dominate; tail = p90",
            corpus=144, tail_pct=90, window=48, tiny_corpus=12,
            tiny_window=12,
        ),
        Spec(
            "lll-kernel",
            "balancing on 64-bit x, n in {48..128}, at the least d meeting "
            "the LLL threshold: lll_reduce is nearly all of op time and "
            "enumeration never runs; tail = p80",
            corpus=84, tail_pct=80, window=36, tiny_corpus=6, tiny_window=6,
        ),
        Spec(
            "probe-mitm",
            "probe trials n=8, M=2^16, d=2 with rising trial index: "
            "trial_stream seeding plus mitm_solve, all lattice layers "
            "bypassed; tail = p99.5",
            corpus=128, tail_pct=99.5, window=1024, tiny_corpus=8,
            tiny_window=8,
        ),
    )
}


def corpus_size(name: str, scale: str) -> int:
    spec = SPECS[name]
    return spec.corpus if scale == "full" else spec.tiny_corpus


def counter_window(name: str, scale: str) -> int:
    spec = SPECS[name]
    return spec.window if scale == "full" else spec.tiny_window


# ---------------------------------------------------------------------------
# the benchmark's own exact helpers (independent of the program)
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 as specified in sbl.experiment's docstring, written out
    again here so probe instances are checked against an independent
    implementation of the trial seeding."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        words = ((bound - 1).bit_length() + 63) // 64 if bound > 1 else 1
        space = 1 << (64 * words)
        limit = space - space % bound
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % bound


def min_threshold_d(x) -> int:
    """Least d with (d+1)^(4(n-1)) > 2^((n-2)(n-1)) * (|x|^2/g^2)^2, the
    exact form of the LLL balancing threshold."""
    from math import gcd

    n = len(x)
    g = 0
    for v in x:
        g = gcd(g, v)
    det_sq = sum(v * v for v in x) // (g * g)
    rhs = (1 << ((n - 2) * (n - 1))) * det_sq * det_sq

    def holds(d):
        return (d + 1) ** (4 * (n - 1)) > rhs

    hi = 1
    while not holds(hi):
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


# ---------------------------------------------------------------------------
# corpus builders
# ---------------------------------------------------------------------------

def _rng(name: str, seed: int, scale: str) -> random.Random:
    return random.Random(f"perfbench/{name}/{scale}/{seed}")


def _nonzero(x):
    return x if any(x) else (1,) + tuple(x[1:])


def _sweep_sparse(seed, scale, size):
    from sbl.core import Instance, Punctured

    rng = _rng("sweep-sparse", seed, scale)
    small, large = (5, 6) if scale == "full" else (3, 4)
    cycle = ((small, 2), (small, 3), (large, 3), (small, 3), (large, 2),
             (small, 2), (small, 3), (large, 3), (small, 3), (large, 3))
    cases = []
    for k in range(size):
        n, d = cycle[k % len(cycle)]
        x = _nonzero(tuple(rng.randrange(1 << 20) for _ in range(n)))
        tau = rng.randint(-100, 100)
        inst = Instance(x, Punctured(d), tau=tau)
        cases.append(Case(f"n{n}d{d}", inst, (), "gss", "mitm"))
    return cases


# fixed axis-aligned body c.A.c <= 1 with semi-axes 2 and 3; it makes the
# CLI take the gauge path (solve_sbp_body, svp_gauge)
def _ellipsoid(n):
    from sbl.core import Ellipsoid

    diag = [Fraction(1, 4) if i < n // 2 else Fraction(1, 9) for i in range(n)]
    return Ellipsoid(tuple(
        tuple(diag[i] if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    ))


def _ball_dense(seed, scale, size):
    from sbl.core import Box, Instance, Interval

    rng = _rng("ball-dense", seed, scale)
    if scale == "full":
        n_int, n_avg, n_box, n_ell = (6, 7), 8, (7, 8), 6
    else:
        n_int, n_avg, n_box, n_ell = (3, 4), 4, (3, 4), 3
    m_avg = 4 ** n_avg
    cycle = ("box_b", "int_a", "box_b", "int_b", "box_b", "ell", "box_b",
             "avg", "box_b", "box_a", "box_b", "int_b")
    cases = []
    for k in range(size):
        cell = cycle[k % len(cycle)]
        if cell.startswith("int"):
            n = n_int[0] if cell == "int_a" else n_int[1]
            x = _nonzero(tuple(rng.randint(-50, 50) for _ in range(n)))
            tau = rng.randint(-50, 50)
            inst = Instance(x, Interval(-2, 2), tau=tau)
            cases.append(Case(f"interval_n{n}", inst, (), "gss", "mitm"))
        elif cell == "avg":
            x = _nonzero(tuple(rng.randrange(m_avg) for _ in range(n_avg)))
            tau = rng.randint(-100, 100)
            inst = Instance(x, Interval(-2, 2), tau=tau, m_bound=m_avg)
            cases.append(Case(f"avg_n{n_avg}", inst, ("--engine", "avg"),
                              "gss", "avg-guard"))
        elif cell.startswith("box"):
            n = n_box[0] if cell == "box_a" else n_box[1]
            x = _nonzero(tuple(rng.randrange(1000) for _ in range(n)))
            inst = Instance(x, Box(2))
            cases.append(Case(f"box_n{n}", inst, ("--mode", "sbp"),
                              "balancing", "mitm"))
        else:
            x = _nonzero(tuple(rng.randrange(100) for _ in range(n_ell)))
            inst = Instance(x, _ellipsoid(n_ell))
            cases.append(Case(f"ellipsoid_n{n_ell}", inst, ("--mode", "sbp"),
                              "balancing", "brute"))
    return cases


def _lll_kernel(seed, scale, size):
    from sbl.core import Instance, Interval

    rng = _rng("lll-kernel", seed, scale)
    if scale == "full":
        cycle = (48, 64, 96, 96, 128, 128)
    else:
        cycle = (6, 8, 10, 10, 12, 12)
    cases = []
    for k in range(size):
        n = cycle[k % len(cycle)]
        x = _nonzero(tuple(rng.randrange(1 << 64) for _ in range(n)))
        d = min_threshold_d(x)
        inst = Instance(x, Interval(-d, d))
        cases.append(Case(f"n{n}", inst, ("--mode", "sbp"), "balancing",
                          "threshold"))
    return cases


PROBE_FULL = {"n": 8, "m_bound": 1 << 16, "d": 2, "stride": 16}
PROBE_TINY = {"n": 4, "m_bound": 1 << 8, "d": 2, "stride": 1}


def probe_params(scale: str) -> dict:
    return PROBE_FULL if scale == "full" else PROBE_TINY


def _probe_mitm(seed, scale, size):
    """Trials i = 0, stride, 2*stride, ... of a probe over the workload
    seed, with the instance each trial must yield under SplitMix64."""
    from sbl.core import Instance, Interval

    p = probe_params(scale)
    outer = SplitMix64(seed)
    cases = []
    step = 0
    for k in range(size):
        i = k * p["stride"]
        while step <= i:
            s = outer.next_u64()
            step += 1
        rng = SplitMix64(s)
        tau = -100 + rng.below(201)
        x = tuple(rng.below(p["m_bound"]) for _ in range(p["n"]))
        inst = Instance(x, Interval(-p["d"], p["d"]), tau=tau,
                        m_bound=p["m_bound"])
        mode = "balancing" if tau == 0 else "gss"
        cases.append(Case("trial", inst, (), mode, "brute", trial=i))
    return cases


_BUILDERS = {
    "sweep-sparse": _sweep_sparse,
    "ball-dense": _ball_dense,
    "lll-kernel": _lll_kernel,
    "probe-mitm": _probe_mitm,
}


def build_corpus(name: str, seed: int, scale: str = "full") -> list:
    """The workload's cases for this seed; same seed, same cases."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _BUILDERS[name](seed, scale, corpus_size(name, scale))


def fingerprint(cases) -> str:
    """sha256 over the canonical instance bytes and flags of every case."""
    from sbl.core import serialize_instance

    h = hashlib.sha256()
    for c in cases:
        h.update(serialize_instance(c.inst).encode())
        h.update(repr((c.argv, c.verify_mode, c.ref, c.trial)).encode())
    return h.hexdigest()
