"""One workload process: set up, run the closed loop, check, report.

Started by run.py, never by hand.  Prints one JSON object on stdout.

Modes:
  setup   set up and exit; reports only setup_s
  timed   untraced closed loop for --seconds; reports end-to-end metrics
  traced  the untraced loop, then the same ops again under span tracing;
          reports per-layer metrics, and fails the check when the traced
          statuses differ from the untraced ones
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from array import array
from fractions import Fraction
from pathlib import Path

import spec
import workloads
from spans import Tracer

_EXIT_STATUS = {0: "solved", 1: "no_solution", 2: "guard_abort"}

# Timings are normalized to host speed.  On a shared host the speed of a
# core drifts by tens of percent over seconds, and it moves every op time
# alike; a fixed calibration unit timed next to the ops moves with it.
# Each op's wall time is scaled by CAL_REF_S over the median time of the
# CAL_NEIGHBOURS calibration runs nearest to it, so reported times read as
# seconds on a host where the unit takes CAL_REF_S.  The unit is benchmark
# code and never calls sbl, so a change to the program cannot move it.
CAL_REF_S = 1e-3
CAL_PERIOD_S = 0.05
CAL_NEIGHBOURS = 5


def calibration_unit():
    """Fixed pure-Python work in the solver's mix: fractions, big-integer
    multiply and floor divide, tuples in a dict."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, 11) - Fraction(1, i)
    big = 3 ** 200
    for i in range(1, 200):
        big = (big * (i + 12345678901234567)) // (i + 7)
    table = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                key = a * 1009 + b * 9176 + c * 65011
                table.setdefault(key, []).append((a, b, c))
    return acc, big, len(table)


class Workload:
    """The corpus of one run, ready to execute."""

    def __init__(self, sbl, args, workdir: Path):
        self.sbl = sbl
        # captured before tracing starts, so checks never land in a span
        self.parse_verdict = sbl.core.parse_verdict
        self.verify_solution = sbl.core.verify_solution
        self.name = args.workload
        self.seed = args.seed
        self.cases = workloads.build_corpus(self.name, self.seed, args.scale)
        self.probe = workloads.probe_params(args.scale)
        budget = () if args.budget is None else ("--budget", str(args.budget))
        self.budget = args.budget
        self.argvs = []
        if self.name != "probe-mitm":
            from sbl.core import serialize_instance

            for k, case in enumerate(self.cases):
                path = workdir / f"{k}.json"
                path.write_text(serialize_instance(case.inst) + "\n",
                                encoding="utf-8")
                self.argvs.append(("solve", str(path)) + case.argv + budget)
        doc = json.loads(Path(args.reference).read_text(encoding="utf-8"))
        if doc["fingerprint"] != workloads.fingerprint(self.cases):
            raise SystemExit("perfbench: reference does not match the corpus")
        self.expected = doc["statuses"]

    def op(self, k: int):
        """Run case k once; returns the raw outcome, checked later."""
        sbl = self.sbl
        try:
            if self.name == "probe-mitm":
                p = self.probe
                rng = sbl.experiment.trial_stream(self.seed, self.cases[k].trial)
                tau = rng.span(-100, 100)
                inst = sbl.experiment.sample_instance(
                    p["n"], p["m_bound"], p["d"], tau, "interval", rng)
                mode = "balancing" if tau == 0 else "gss"
                v = sbl.oracle.mitm_solve(inst, mode, self.budget)
                return ("verdict", v.status, v.witness, inst)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sbl.cli.main(list(self.argvs[k]))
            return ("exit", code, out.getvalue())
        except Exception as e:  # an op that raises is a failed op
            return ("raised", f"{type(e).__name__}: {e}")

    def check(self, k: int, outcome):
        """(status or None, failed, wrong, message) for one outcome."""
        case = self.cases[k]
        if outcome[0] == "raised":
            return None, True, False, outcome[1]
        if outcome[0] == "exit":
            code, text = outcome[1], outcome[2]
            if code not in _EXIT_STATUS:
                return None, True, False, f"exit {code}"
            v = self.parse_verdict(text)
            status, witness = v.status, v.witness
            if _EXIT_STATUS[code] != status:
                return status, True, True, f"exit {code} with {status}"
        else:
            _, status, witness, inst = outcome
            if inst.x != case.inst.x or inst.tau != case.inst.tau:
                return status, True, True, f"trial {case.trial} instance"
        want = self.expected[k]
        if status != want:
            return status, True, True, f"case {k}: {status}, expected {want}"
        if status == "solved" and not self.verify_solution(
                case.inst, witness, case.verify_mode):
            return status, True, True, f"case {k}: witness rejected"
        return status, False, False, ""


class Run:
    """Latency and checked status of every op of one closed-loop run, with
    the calibration runs interleaved between ops."""

    def __init__(self):
        self.latencies = array("d")  # wall seconds per op
        self.midpoints = array("d")  # clock reading at each op's middle
        self.cal_at = array("d")
        self.cal_s = array("d")
        self.statuses: list = []
        self.failed = 0
        self.wrong = 0
        self.messages: list = []

    def calibrate(self, clock) -> float:
        t0 = clock()
        calibration_unit()
        t1 = clock()
        self.cal_at.append((t0 + t1) / 2)
        self.cal_s.append(t1 - t0)
        return t1

    def normalized(self) -> list:
        """Each op's wall time in reference-host seconds."""
        out = []
        n_cal = len(self.cal_s)
        width = min(CAL_NEIGHBOURS, n_cal)
        for dt, mid in zip(self.latencies, self.midpoints):
            j = bisect.bisect_left(self.cal_at, mid)
            lo = min(max(0, j - width // 2), n_cal - width)
            local = statistics.median(self.cal_s[lo:lo + width])
            out.append(dt * CAL_REF_S / local)
        return out


def closed_loop(wl: Workload, seconds: float, min_ops: int,
                n_ops=None, tracer=None) -> Run:
    """Run ops back to back over the corpus, wrapping around.

    Each op is timed alone and checked right after, outside its timed
    region, so only a status per op is kept; a calibration unit runs
    between ops at most every CAL_PERIOD_S.  Stops after n_ops ops when
    given, else at the first op boundary past `seconds` once at least
    min_ops ops ran.
    """
    size = len(wl.cases)
    run = Run()
    clock = time.perf_counter
    start = last_cal = run.calibrate(clock)
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= min_ops and clock() - start >= seconds:
            break
        k = i % size
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        outcome = wl.op(k)
        t1 = clock()
        run.latencies.append(t1 - t0)
        run.midpoints.append((t0 + t1) / 2)
        status, failed, wrong, msg = wl.check(k, outcome)
        run.statuses.append(status)
        run.failed += failed
        run.wrong += wrong
        if msg and len(run.messages) < 5:
            run.messages.append(msg)
        if clock() - last_cal >= CAL_PERIOD_S:
            last_cal = run.calibrate(clock)
        i += 1
    run.calibrate(clock)
    return run


def nearest_rank(sorted_values, pct: float):
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(run: Run, tail_pct: float) -> dict:
    lat = sorted(dt * 1000 for dt in run.normalized())
    n = len(lat)
    return {
        "ops_per_s": n * 1000 / sum(lat),
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_tail": nearest_rank(lat, tail_pct),
        "ok_frac": (n - run.failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(summary, window, traced: Run, untraced: Run) -> dict:
    """Per-layer metrics; span times are scaled to reference-host seconds
    by the traced run's overall calibration factor."""
    zero = {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0}
    enum = summary.get("enumeration.enum_ball", zero)
    traced_busy = sum(traced.normalized())
    scale = traced_busy / sum(traced.latencies)
    derived = {
        "enumeration.points_per_op": enum["count"] / window,
        "enumeration.queries_per_op": enum["calls"] / window,
        "trace.op_s": traced_busy / len(traced.latencies),
        "trace.ops_per_s_gap": 1 - sum(untraced.normalized()) / traced_busy,
    }
    out = {}
    for m in spec.PER_LAYER:
        name = m["name"]
        if name in derived:
            out[name] = derived[name]
            continue
        fn, stat = name.rsplit(".", 1)
        rec = summary.get(fn, zero)
        if stat in ("points", "accepts"):
            out[name] = rec["count"]
        elif stat == "accept_frac":
            out[name] = rec["count"] / rec["calls"] if rec["calls"] else 0.0
        elif stat == "calls":
            out[name] = rec["calls"]
        else:
            out[name] = rec[stat] * scale
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True, choices=workloads.SCALES)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "traced"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--budget", type=int, default=None)
    args = ap.parse_args()

    sbl = workloads.load_sbl()
    import sbl.cli  # noqa: F401  (the CLI module is not imported by sbl)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(sbl, args, workdir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            result.update(measure(wl, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(wl: Workload, args) -> dict:
    window = workloads.counter_window(wl.name, args.scale)
    run = closed_loop(wl, args.seconds, window)
    result = {"attempted": len(run.statuses), "failed": run.failed,
              "wrong": run.wrong, "messages": run.messages}
    if args.mode == "timed":
        result["metrics"] = end_to_end(run, workloads.SPECS[wl.name].tail_pct)
        return result
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(wl, args.seconds, window,
                             n_ops=len(run.statuses), tracer=tracer)
    finally:
        tracer.uninstall()
    if traced.statuses != run.statuses:
        result["wrong"] += 1
        result["messages"].append("traced statuses differ from untraced")
    result["wrong"] += traced.wrong
    result["messages"] += traced.messages[:2]
    summary = tracer.summary(len(traced.statuses), window)
    result["metrics"] = per_layer(summary, window, traced, run)
    return result


if __name__ == "__main__":
    main()
