"""The benchmark's definition: workloads, metrics, bounds and design notes.

This file is the single source of BENCHMARK.json (at the repository root)
and of perfbench/design.json, which carries what BENCHMARK.json's fixed
schema has no room for: seeds, the loop model, tail percentiles, counter
windows and the layer-to-end-to-end map.  Rewrite both with

    python3 perfbench/spec.py

and check they are current with `python3 perfbench/spec.py --check`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

RUN_SECONDS = 20

# bound: the share of the parent's median by which a metric may worsen.
# Timing metrics are host-normalized (see worker.py); the residual spread
# between seeds comes from the instance mix, largest on ball-dense, as does
# the seed-to-seed spread of peak memory (the largest ball listed).
END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_STAT_UNITS = {
    "calls": ("count", "lower"),
    "points": ("count", "lower"),
    "accepts": ("count", "higher"),
    "accept_frac": ("frac", "higher"),
    "s": ("s/op", "lower"),
    "self_s": ("s/op", "lower"),
}

_LAYER_STATS = [
    ("reduction.gram_schmidt", ("calls", "s")),
    ("core.mat_solve", ("calls", "s")),
    ("enumeration.enum_ball", ("calls", "self_s", "points")),
    ("enumeration.cvp_inf", ("self_s",)),
    ("enumeration.svp_inf", ("s",)),
    ("enumeration.svp_gauge", ("s",)),
    ("solve.gap_decide", ("calls", "accepts", "accept_frac", "self_s")),
    ("solve.solve_gss_punctured", ("self_s",)),
    ("solve.solve_gss_interval", ("self_s",)),
    ("solve.solve_gss_avg", ("self_s",)),
    ("solve.solve_sbp", ("self_s",)),
    ("solve.solve_sbp_lll", ("self_s",)),
    ("solve.solve_sbp_body", ("self_s",)),
    ("reduction.lll_reduce", ("calls", "s", "self_s")),
    ("lattice.kernel_basis", ("s",)),
    ("lattice.embedding_basis", ("s",)),
    ("oracle.mitm_solve", ("calls", "s")),
    ("experiment.trial_stream", ("calls", "s")),
    ("experiment.sample_instance", ("s",)),
    ("cli.main", ("self_s",)),
    ("core.parse_instance", ("s",)),
    ("core.verify_solution", ("calls", "s")),
]

# metrics derived from several spans or from the traced run as a whole
DERIVED = [
    {"name": "enumeration.points_per_op", "unit": "points/op",
     "better": "lower"},
    {"name": "enumeration.queries_per_op", "unit": "calls/op",
     "better": "lower"},
    {"name": "trace.op_s", "unit": "s/op", "better": "lower"},
    {"name": "trace.ops_per_s_gap", "unit": "frac", "better": "lower"},
]

PER_LAYER = [
    {"name": f"{fn}.{stat}", "unit": _STAT_UNITS[stat][0],
     "better": _STAT_UNITS[stat][1]}
    for fn, stats in _LAYER_STATS for stat in stats
] + DERIVED

LAYER_MAP = [
    {"layer_metrics": ["reduction.gram_schmidt.{calls,s}",
                       "core.mat_solve.{calls,s}"],
     "moves": ["ops_per_s", "latency_ms_p50"], "on": ["sweep-sparse"],
     "little_or_none_on": ["ball-dense", "lll-kernel"]},
    {"layer_metrics": ["enumeration.enum_ball.{calls,self_s,points}",
                       "enumeration.cvp_inf.self_s (sup filter)",
                       "enumeration.svp_inf.s", "enumeration.svp_gauge.s",
                       "enumeration.points_per_op",
                       "enumeration.queries_per_op"],
     "moves": ["ops_per_s", "latency_ms_tail", "peak_rss_mb"],
     "on": ["ball-dense"], "little_or_none_on": ["lll-kernel", "probe-mitm"]},
    {"layer_metrics": ["solve.gap_decide.{calls,accepts,accept_frac,self_s}",
                       "solve.<entry point>.self_s"],
     "moves": ["latency_ms_p50"], "on": ["sweep-sparse"],
     "little_or_none_on": ["probe-mitm"]},
    {"layer_metrics": ["reduction.lll_reduce.{calls,s,self_s}",
                       "lattice.kernel_basis.s", "lattice.embedding_basis.s"],
     "moves": ["ops_per_s"], "on": ["lll-kernel"],
     "little_or_none_on": ["sweep-sparse"]},
    {"layer_metrics": ["oracle.mitm_solve.{calls,s}",
                       "experiment.trial_stream.{calls,s}",
                       "experiment.sample_instance.s"],
     "moves": ["ops_per_s", "latency_ms_tail"], "on": ["probe-mitm"],
     "little_or_none_on": ["sweep-sparse", "ball-dense", "lll-kernel"]},
    {"layer_metrics": ["cli.main.self_s", "core.parse_instance.s",
                       "core.verify_solution.{calls,s}"],
     "moves": [], "on": [],
     "little_or_none_on": ["sweep-sparse", "ball-dense", "lll-kernel",
                           "probe-mitm"],
     "note": "guards the one-dispatch refactor and the -O-safe checks"},
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workloads.SPECS[name].why}
            for name in workloads.NAMES
        ],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def design_json() -> dict:
    return {
        "loop": "closed loop, one client, one process, one thread; each "
                "workload runs in its own worker process, one after another",
        "op": "one `sbl solve` through sbl.cli.main in process, or for "
              "probe-mitm one trial: trial_stream, sample_instance, "
              "mitm_solve",
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "held_out_rule": "a gain claimed on the default seed must also hold "
                         "on the held-out seed",
        "reference_command": "python3 perfbench/reference.py --workload all "
                             "--seed <n>",
        "timing": "op wall times are scaled to a reference host: each is "
                  "multiplied by 1 ms over the median time of the 5 "
                  "nearest runs of a fixed pure-Python calibration unit "
                  "interleaved with the ops (perfbench/worker.py). On the "
                  "2-vCPU shared host it was tuned on, 3 s windows of fixed "
                  "solver work varied with an IQR of 39-41% of the median "
                  "in raw wall time and 5-12% normalized. setup_s stays raw.",
        "metrics": {
            "ops_per_s": "ops completed per second of normalized op time",
            "latency_ms_p50": "median normalized wall time of one op",
            "latency_ms_tail": "nearest-rank percentile tail_pct of "
                               "normalized op wall time",
            "ok_frac": "1 - failed/attempted; an op fails when it raises, "
                       "exits 3 or 4, disagrees with the reference status "
                       "or returns a witness verify_solution rejects",
            "peak_rss_mb": "ru_maxrss of the untraced worker process",
            "setup_s": "median over 7 fresh worker processes of the time "
                       "from spawn to the first op: interpreter start, "
                       "import sbl, corpus generation, instance files, "
                       "loading the expected statuses",
            "per_layer": "<module>.<function>.<stat> from the traced replay: "
                         "calls, points and accepts count the first "
                         "counter_window ops; s (inclusive) and self_s "
                         "(minus wrapped children) are normalized seconds "
                         "per op",
        },
        "workloads": {
            name: {
                "corpus": spec.corpus,
                "tail_pct": spec.tail_pct,
                "counter_window": spec.window,
            }
            for name, spec in workloads.SPECS.items()
        },
        "layer_map": LAYER_MAP,
    }


_TARGETS = (
    (workloads.ROOT / "BENCHMARK.json", benchmark_json),
    (Path(__file__).resolve().parent / "design.json", design_json),
)


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if a generated file is out of date")
    args = ap.parse_args()
    stale = []
    for path, make in _TARGETS:
        text = render(make())
        if args.check:
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                stale.append(path)
        else:
            path.write_text(text, encoding="utf-8")
    for path in stale:
        print(f"{path} is out of date; run python3 perfbench/spec.py",
              file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
