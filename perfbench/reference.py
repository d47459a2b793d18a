"""Expected statuses for every case of a workload corpus.

Each status comes from an engine other than the one the workload times:

- mitm: oracle.mitm_solve on the same instance (sweep-sparse, and the
  interval and box cases of ball-dense);
- brute: oracle.brute_force_solve (the ellipsoid cases, and probe-mitm,
  whose timed engine is mitm_solve itself);
- threshold: "solved", by the LLL threshold theorem (lll-kernel builds
  every instance at a d where the threshold holds);
- avg-guard: the exact verdict solve_gss_avg is specified to give.  Its
  guard aborts iff the embedding lattice has a nonzero vector of sup norm
  at most cap = floor(M^(1/n)) // 4.  With alpha > cap such a vector has
  first coordinate 0, so it is exactly a nonzero c in [-cap, cap]^n with
  c.x = 0, which mitm_solve decides.  Otherwise the solver is complete and
  its status is mitm_solve's gss status.

Statuses for the default and held-out seeds are committed under
perfbench/data; any other seed is computed on first use and cached under
.perfbench/ref in the checkout.  Regenerate the committed files with

    python3 perfbench/reference.py --workload all --seed 101 --seed 202
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads

DATA_DIR = Path(__file__).resolve().parent / "data"
CACHE_DIR = workloads.ROOT / ".perfbench" / "ref"


def _iroot(m: int, n: int) -> int:
    lo, hi = 0, 1
    while hi ** n <= m:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** n <= m:
            lo = mid
        else:
            hi = mid
    return lo


def _avg_guard_status(case) -> str:
    from sbl.core import Instance, Interval
    from sbl.oracle import mitm_solve

    inst = case.inst
    n, m_bound, d = inst.n, inst.m_bound, inst.coeffs.hi
    if m_bound > (2 * d + 1) ** (2 * n):
        return "no_solution"
    root = _iroot(m_bound, n)
    cap = root // 4
    alpha = max(d + 1, root if root ** n == m_bound else root + 1)
    if cap >= 1:
        if alpha <= cap:
            raise ValueError("guard reference needs alpha > cap")
        short = mitm_solve(Instance(inst.x, Interval(-cap, cap)), "balancing")
        if short.status == "solved":
            return "guard_abort"
    return mitm_solve(inst, "gss").status


def expected_status(case) -> str:
    from sbl.oracle import brute_force_solve, mitm_solve

    if case.ref == "mitm":
        return mitm_solve(case.inst, case.verify_mode).status
    if case.ref == "brute":
        return brute_force_solve(case.inst, case.verify_mode).status
    if case.ref == "threshold":
        return "solved"
    if case.ref == "avg-guard":
        return _avg_guard_status(case)
    raise ValueError(f"unknown reference engine {case.ref!r}")


def build(name: str, seed: int, scale: str) -> dict:
    cases = workloads.build_corpus(name, seed, scale)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "fingerprint": workloads.fingerprint(cases),
        "statuses": [expected_status(c) for c in cases],
    }


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)


def committed_path(name: str, seed: int) -> Path:
    return DATA_DIR / f"{name}-{seed}.json"


def ensure(name: str, seed: int, scale: str, fingerprint: str) -> Path:
    """Path of a reference file matching this corpus, building it if needed.

    A committed file whose fingerprint differs from the corpus is an error:
    the corpus changed and the data must be regenerated.
    """
    if scale == "full":
        path = committed_path(name, seed)
        if path.is_file():
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc["fingerprint"] != fingerprint:
                raise SystemExit(
                    f"perfbench: {path} does not match the {name} corpus; "
                    f"regenerate it with perfbench/reference.py"
                )
            return path
    path = CACHE_DIR / f"{name}-{scale}-{seed}.json"
    if path.is_file():
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["fingerprint"] == fingerprint:
            return path
    _write(path, build(name, seed, scale))
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args()
    workloads.load_sbl()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for seed in args.seed:
        for name in names:
            doc = build(name, seed, "full")
            path = committed_path(name, seed)
            _write(path, doc)
            print(f"{path}: {len(doc['statuses'])} statuses")


if __name__ == "__main__":
    main()
