"""Command line front end.

Exit codes are part of the interface: 0 solved (or verified), 1 no
solution (or witness rejected), 2 guard abort, 3 invalid input, 4
enumeration budget exceeded, 5 a failed internal self-check (a defect in
sbl, reported on stderr without a traceback).  Output on stdout is a
single JSON document (solve, verify, probe, gen without --out) or CSV
(bench); everything diagnostic goes to stderr.  SBL_BUDGET overrides the
default point budget when no --budget flag is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from typing import Optional, Sequence

from .core import (
    DEFAULT_POINT_BUDGET,
    BudgetExceeded,
    GUARD_ABORT,
    InternalError,
    NO_SOLUTION,
    SOLVED,
    Verdict,
    _parse_int,
    _parse_json,
    _verdict_from_doc,
    parse_instance,
    serialize_instance,
    serialize_verdict,
    verify_solution,
)
from .experiment import (
    BENCH_HEADER,
    ProbeConfig,
    SUITE_NAMES,
    bench,
    probe_avg_solver,
    probe_existence,
    report_json,
    sample_instance,
    trial_stream,
)
from .solve import ENGINES, solve_instance

__all__ = ["main"]

EXIT_SOLVED = 0
EXIT_NO_SOLUTION = 1
EXIT_GUARD_ABORT = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

_STATUS_EXIT = {SOLVED: 0, NO_SOLUTION: 1, GUARD_ABORT: 2}

BUDGET_ENV = "SBL_BUDGET"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags, which collides with guard_abort
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _budget(args) -> int:
    if args.budget is not None:
        if args.budget < 1:
            raise ValueError("budget must be positive")
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV} must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"{BUDGET_ENV} must be positive")
        return value
    return DEFAULT_POINT_BUDGET


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}")


def _emit(verdict: Verdict) -> int:
    print(serialize_verdict(verdict))
    return _STATUS_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    budget = _budget(args)
    inst = parse_instance(_read(args.instance))
    mode = "balancing" if args.nonzero or args.mode == "sbp" else "gss"
    return _emit(solve_instance(inst, mode, args.engine, budget))


# ---------------------------------------------------------------------------
# gen / verify
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    rng = trial_stream(args.seed, 0)
    inst = sample_instance(args.n, args.M, args.d, args.tau, args.cset, rng)
    text = serialize_instance(inst) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e.strerror or e}")
    else:
        sys.stdout.write(text)
    return EXIT_SOLVED


def cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    doc = _parse_json(_read(args.solution))
    if isinstance(doc, list):
        witness = [_parse_int(v, f"c[{i}]") for i, v in enumerate(doc)]
    else:
        verdict = _verdict_from_doc(doc)
        if verdict.witness is None:
            print(serialize_verdict(Verdict.no_solution("no witness to verify")))
            return EXIT_NO_SOLUTION
        witness = list(verdict.witness)
    mode = "balancing" if args.mode == "sbp" else "gss"
    if verify_solution(inst, witness, mode):
        print(serialize_verdict(Verdict.solved(witness)))
        return EXIT_SOLVED
    print(serialize_verdict(Verdict.no_solution("witness rejected")))
    return EXIT_NO_SOLUTION


# ---------------------------------------------------------------------------
# probe / bench
# ---------------------------------------------------------------------------

def cmd_probe(args) -> int:
    budget = _budget(args)
    cfg = ProbeConfig(
        n=args.n,
        m_bound=args.M,
        d=args.d,
        trials=args.trials,
        seed=args.seed,
        tau=args.tau,
        cset=args.cset,
        solver=args.solver,
    )
    if args.kind == "existence":
        report = probe_existence(cfg, budget=budget)
    else:
        report = probe_avg_solver(cfg, budget=budget)
    print(report_json(report, include_timing=args.timing))
    return EXIT_SOLVED


def cmd_bench(args) -> int:
    rows = bench(args.suite, seed=args.seed, budget=_budget(args))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    writer.writerows(rows)
    return EXIT_SOLVED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="sbl", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="path to an instance JSON file")
    p.add_argument("--mode", choices=("sbp", "gss"), default="gss",
                   help="sbp demands a nonzero witness with c.x=0")
    p.add_argument("--engine", choices=ENGINES, default="auto")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration point budget")
    p.add_argument("--nonzero", action="store_true",
                   help="force balancing semantics (reject c = 0)")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("gen", help="sample a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True,
                   help="entries drawn uniformly from [0, M-1]")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--cset", choices=("interval", "punctured"),
                   default="interval")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("instance")
    p.add_argument("solution",
                   help="verdict JSON or a bare JSON list of coefficients")
    p.add_argument("--mode", choices=("sbp", "gss"), default="gss")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("probe", help="empirical frequency probes")
    p.add_argument("--kind", choices=("existence", "avg"), default="existence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", type=int, default=None,
                   help="fixed target; omitted means per-trial in [-100,100]")
    p.add_argument("--cset", choices=("interval", "punctured"),
                   default="interval")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--solver", choices=("mitm", "lattice", "both"),
                   default="mitm")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fields in the report")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(run=cmd_probe)

    p = sub.add_parser("bench", help="benchmark suites as CSV")
    p.add_argument("--suite", required=True,
                   help="one of %s or a JSON suite file" % (", ".join(SUITE_NAMES)))
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(run=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one sbl command on argv (sys.argv[1:] when None) and return its
    exit code; a bad flag exits 3 through SystemExit.

    The parser is built on the first call and reused by every later call
    in the process, since parsing leaves it unchanged: a caller that runs
    many commands in one process pays for it once."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceeded as e:
        print(f"sbl: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as e:
        print(f"sbl: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as e:
        print(f"sbl: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
