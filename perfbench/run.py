"""Benchmark of the sbl solvers: four seeded workloads, checked verdicts.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--scale full|tiny] [--budget B]

Each workload runs in its own single-threaded worker process, one after
another, as a closed loop with one client.  With --trace 0 the last line
of stdout is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics of a traced
replay of the same ops.  Without --workload every workload runs and the
last line merges them as "<workload>/<metric>".

Every op's status is checked against an independent reference and every
witness against core.verify_solution, outside the timed region.  An op
that raises, exits 3 or 4, disagrees with the reference or returns a
rejected witness counts as failed; "correct" is false when any op gave a
wrong answer (as opposed to no answer) or the traced replay disagreed with
the untraced run.  Op times are scaled to a reference host speed by a
calibration unit interleaved with the ops (see worker.py).

Reads and writes only inside the checkout: sources from src/, expected
statuses from perfbench/data or .perfbench/ref, scratch instance files in
.perfbench/work.  See perfbench/design.json for the design notes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spec
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # fresh processes timed for setup_s, the timed one included
WORKER_TIMEOUT_S = 150


def _spawn(args, name: str, mode: str, ref: Path) -> dict:
    workdir = workloads.ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--scale", args.scale,
        "--mode", mode, "--seconds", str(args.seconds),
        "--reference", str(ref), "--workdir", str(workdir),
    ]
    if args.budget is not None:
        cmd += ["--budget", str(args.budget)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {name} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, name: str) -> dict:
    cases = workloads.build_corpus(name, args.seed, args.scale)
    ref = reference.ensure(name, args.seed, args.scale,
                           workloads.fingerprint(cases))
    if args.trace:
        out = _spawn(args, name, "traced", ref)
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    else:
        setups = [_spawn(args, name, "setup", ref)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        out = _spawn(args, name, "timed", ref)
        out["metrics"]["setup_s"] = statistics.median(setups + [out["setup_s"]])
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    for msg in out["messages"]:
        print(f"perfbench: {name}: {msg}", file=sys.stderr)
    return {
        "correct": out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            key: {"value": out["metrics"][key], "unit": unit}
            for key, unit in units.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                         f"held-out seed {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="timed loop length per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES,
                    help="tiny runs the same workloads at toy sizes")
    ap.add_argument("--budget", type=int, default=None,
                    help="point budget passed to every op")
    args = ap.parse_args()
    if not 0 <= args.seed < 1 << 64:
        ap.error("seed must fit in 64 bits")
    if args.seconds <= 0:
        ap.error("seconds must be positive")
    workloads.load_sbl()

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        for key, m in results[name]["metrics"].items():
            print(f"{name:>12}  {key:<34} {m['value']:>14.6g} {m['unit']}",
                  file=sys.stderr)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m
                for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
