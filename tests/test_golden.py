"""Golden verdict corpus: the exact exit code, stdout and stderr of the
command line over a small fixed corpus, frozen in tests/data/golden.json.

The corpus runs `sbl solve` on every coefficient set kind (symmetric and
asymmetric intervals, punctured intervals, boxes, ellipsoids), with tau
zero and nonzero, with and without m_bound, at n = 1, with a zero weight,
on meet in the middle's zero rule and at a bound meeting the LLL
threshold, under every --mode and every --engine, plus --nonzero and an
exhausted --budget.  A second set runs punctured gss (n in {5, 6}, d
from 2 to 5, weights below 2^20, rejections and solved cases, each
decided by one walk of the box ball, then mixed small and large weights,
some dense enough for the sign-pattern sweep), with budgets the walk
exhausts, a solved sweep under one it exhausts and rejections under
budgets of 10 and 1 that they fit.  A third set runs balancing
(--mode sbp) on the diagonal ellipsoids of perfbench's ball-dense cell
(n = 6, weights below 100, semi-axes 2 and 3) and on a tighter body with
semi-axes 1 and 2, solved and no_solution.  A fourth set balances 64-bit
weights at n = 24 and 48 at the least d meeting the LLL threshold, under
--engine lll and auto, so the lll engine's stop is frozen too: row 0 at
the first moment it fits the box, after some of the reducer's swaps (the
full reduction of these two bases is held to the reference in
test_reduction.py).  It also freezes the `bench` CSV (wall-clock column dropped) of the built-in
suites and the `probe` JSON of each solver choice.  A refactor that keeps
this test passing keeps every verdict byte.

Regenerate the data only when a change of output is intended, by running
the file with no arguments (any argument but `--diff OLD_JSON` prints a
usage line and exits 1, leaving the data alone):

    python tests/test_golden.py

and list the records whose bytes moved against an earlier copy of the
data (say, `git show HEAD:tests/data/golden.json > old.json`) with

    python tests/test_golden.py --diff old.json

Run as a script, the file imports the sbl of the checkout it sits in,
so neither command needs an install or PYTHONPATH.
"""

import contextlib
import csv
import functools
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

if __name__ == "__main__":
    # run as a script from a checkout: import this checkout's sbl
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbl.cli import main
from sbl.core import (
    Box,
    Ellipsoid,
    Instance,
    Interval,
    Punctured,
    serialize_instance,
)
from sbl.experiment import SplitMix64
from sbl.reduction import lll_threshold

DATA = Path(__file__).parent / "data" / "golden.json"

INSTANCE = "{instance}"  # argv placeholder for the instance file's path

MODES = ("sbp", "gss")
ENGINES = ("auto", "svp", "lll", "mitm", "brute", "body", "avg")

_ELLIPSE = (
    (Fraction(1, 2), Fraction(1, 8), Fraction(0)),
    (Fraction(1, 8), Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1, 4)),
)

CORPUS = (
    ("interval-sym-tau0", Instance((3, 5, 7), Interval(-2, 2))),
    ("interval-sym-tau-mbound",
     Instance((11, 23, 37, 41), Interval(-2, 2), tau=17, m_bound=256)),
    ("interval-sym-tau-mbound-abort",
     Instance((8, 8), Interval(-2, 2), tau=2, m_bound=16)),
    ("interval-sym-no-solution", Instance((2, 4), Interval(-3, 3), tau=1)),
    ("interval-asym-tau", Instance((2, 3), Interval(0, 2), tau=7)),
    ("interval-asym-tau0", Instance((4, 6, 9), Interval(-1, 3))),
    # meet in the middle's first hit pairs c2 = 0 with the zero vector,
    # so the next entry of that sum's bucket, (1, 1), wins
    ("interval-asym-zero-rule", Instance((1, -1, 5), Interval(0, 2))),
    ("interval-asym-tau-mbound",
     Instance((4, 6, 9), Interval(-1, 3), tau=5, m_bound=64)),
    ("punctured-tau-mbound",
     Instance((5, 9, 14), Punctured(2), tau=3, m_bound=4096)),
    ("punctured-tau0", Instance((3, 5, 8), Punctured(1))),
    ("box-tau0", Instance((6, 10, 15), Box(1))),
    ("box-tau-mbound", Instance((7, 12, 19, 26), Box(2), tau=9, m_bound=1024)),
    ("ellipsoid-tau0", Instance((3, 5, 7), Ellipsoid(_ELLIPSE))),
    ("ellipsoid-tau-mbound",
     Instance((2, 3, 5), Ellipsoid(_ELLIPSE), tau=4, m_bound=64)),
    ("n1-tau", Instance((5,), Interval(-2, 2), tau=10)),
    ("n1-tau0", Instance((5,), Interval(-2, 2))),
    ("zero-weight", Instance((0, 3, 5), Interval(-2, 2))),
    ("all-zero", Instance((0, 0), Interval(-1, 1))),
    ("lll-threshold", Instance((18, 18, 27), Interval(-2, 2))),
)

# punctured gss: random weights below 2^20 with a random tau (rejected) or
# the sum of a planted coefficient vector (solved), each decided by one
# walk of its box ball, then mixed small and large weights, whose
# sign-pattern balls hold points; the last of these is walked too, and the
# boxes of the other three are dense enough for the sweep
SWEEPS = (
    ("sweep-n5-d2-reject",
     Instance((421301, 690939, 133735, 959095, 242387), Punctured(2),
              tau=-44)),
    ("sweep-n5-d2-solved",
     Instance((117469, 571774, 537093, 389428, 102969), Punctured(2),
              tau=-1512795)),
    ("sweep-n5-d3-reject",
     Instance((162070, 214608, 358547, 190133, 89629), Punctured(3),
              tau=45)),
    ("sweep-n5-d3-solved",
     Instance((67551, 707169, 241525, 617471, 204077), Punctured(3),
              tau=3176554)),
    ("sweep-n5-d4-reject",
     Instance((414400, 62798, 1041415, 418968, 414235), Punctured(4),
              tau=87)),
    ("sweep-n5-d4-solved",
     Instance((45962, 280546, 247531, 641261, 848392), Punctured(4),
              tau=-2235521)),
    ("sweep-n5-d5-reject",
     Instance((315777, 395592, 167573, 752928, 456593), Punctured(5),
              tau=4)),
    ("sweep-n5-d5-solved",
     Instance((837803, 369562, 955139, 934885, 394039), Punctured(5),
              tau=-335206)),
    ("sweep-n6-d2-reject",
     Instance((672367, 280773, 567180, 803338, 94655, 1048064),
              Punctured(2), tau=97)),
    ("sweep-n6-d2-solved",
     Instance((830712, 854047, 792550, 490896, 729382, 224062),
              Punctured(2), tau=-3276837)),
    ("sweep-n6-d3-reject",
     Instance((346575, 580173, 527441, 800941, 586372, 802305),
              Punctured(3), tau=-13)),
    ("sweep-n6-d3-solved",
     Instance((803776, 422890, 118170, 369442, 663863, 614557),
              Punctured(3), tau=-568632)),
    ("sweep-n6-d4-reject",
     Instance((828537, 113280, 314376, 540235, 568880, 659147),
              Punctured(4), tau=-22)),
    ("sweep-n6-d4-solved",
     Instance((941093, 129778, 539286, 61179, 466588, 306863),
              Punctured(4), tau=2965886)),
    ("sweep-n6-d5-reject",
     Instance((322406, 450979, 817873, 388907, 279921, 282084),
              Punctured(5), tau=91)),
    ("sweep-n6-d5-solved",
     Instance((42977, 934599, 219150, 1022998, 85275, 254035),
              Punctured(5), tau=2249692)),
    ("sweep-mixed-n5-d4-reject",
     Instance((10, 5, 221, 8, 6), Punctured(4), tau=41)),
    ("sweep-mixed-n6-d3-solved",
     Instance((22, 54, 26, 252, 14, 1), Punctured(3), tau=-82)),
    ("sweep-mixed-n6-d5-solved",
     Instance((34, 4, 38, 13, 251, 12), Punctured(5), tau=-34)),
    ("sweep-mixed-n6-d5-reject",
     Instance((35, 734441, 23, 15, 28, 5), Punctured(5), tau=-96)),
)

# a box too dense for the box ball's walk, (2d+1)^n > 2 d sum|x_i| + 1, so
# the sign sweep runs: even weights and an odd tau, rejected
DENSE_REJECT = Instance((18, 2, 2, 44, 18, 18, 8, 6, 42, 8, 42, 28),
                        Punctured(2), tau=41)


def _axes(n: int, a: int, b: int) -> Ellipsoid:
    """The diagonal body sum c_i^2 / s_i^2 <= 1 with semi-axis s_i = a on
    the first n // 2 coordinates and b on the rest."""
    diag = [Fraction(1, a * a) if i < n // 2 else Fraction(1, b * b)
            for i in range(n)]
    return Ellipsoid(tuple(
        tuple(diag[i] if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    ))


# ball-dense's ellipsoid cell: solved and rejected at semi-axes 2 and 3,
# then rejected and solved (a zero weight) on the tighter body
ELLIPSOIDS = (
    ("ellipsoid-n6-solved", Instance((10, 36, 43, 51, 9, 76), _axes(6, 2, 3))),
    ("ellipsoid-n6-solved-two",
     Instance((20, 82, 2, 50, 7, 46), _axes(6, 2, 3))),
    ("ellipsoid-n6-solved-ones",
     Instance((43, 52, 40, 77, 45, 35), _axes(6, 2, 3))),
    ("ellipsoid-n6-no-solution",
     Instance((59, 2, 66, 72, 91, 50), _axes(6, 2, 3))),
    ("ellipsoid-n6-tight-no-solution",
     Instance((10, 36, 43, 51, 9, 76), _axes(6, 1, 2))),
    ("ellipsoid-n6-tight-zero-weight",
     Instance((61, 3, 12, 15, 41, 0), _axes(6, 1, 2))),
)



def _least_threshold_d(x) -> int:
    """The least d at which lll_threshold(x, d) holds."""
    hi = 1
    while not lll_threshold(x, hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if lll_threshold(x, mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _kernel_instance(seed: int, n: int) -> Instance:
    """n weights below 2^64 drawn by SplitMix64(seed), balanced over
    [-d, d] at the least d meeting the LLL threshold: the reducer swaps
    rows 0 and 1 17 to 22 times before row 0 fits, where the lll-threshold
    record barely swaps."""
    rng = SplitMix64(seed)
    x = tuple(rng.below(1 << 64) for _ in range(n))
    d = _least_threshold_d(x)
    return Instance(x, Interval(-d, d))


# balancing by the reduced kernel basis (--engine lll) and by the dispatch
# that picks it (--engine auto) at the least threshold d
KERNELS = (
    ("kernel-n24", _kernel_instance(2024, 24)),
    ("kernel-n48", _kernel_instance(2025, 48)),
)

PROBES = (
    ("probe-both", ["probe", "--n", "5", "--M", "256", "--d", "1",
                    "--trials", "12", "--seed", "5", "--solver", "both"]),
    ("probe-lattice-interval",
     ["probe", "--n", "4", "--M", "100", "--d", "2", "--trials", "10",
      "--seed", "9", "--solver", "lattice"]),
    ("probe-lattice-punctured",
     ["probe", "--n", "4", "--M", "100", "--d", "2", "--trials", "10",
      "--seed", "9", "--cset", "punctured", "--solver", "lattice"]),
    ("probe-avg", ["probe", "--kind", "avg", "--n", "4", "--M", "256",
                   "--d", "2", "--tau", "5", "--trials", "8", "--seed", "11"]),
)

BENCHES = (
    ("bench-sbp-small", "sbp-small", 20240),
    ("bench-gss-small", "gss-small", 20240),
    ("bench-avg-small", "avg-small", 20240),
    ("bench-sbp-small-seed60", "sbp-small", 60),
)


def cases():
    """(id, argv, instance document or None) for every corpus entry."""
    out = []
    for name, inst in CORPUS:
        doc = serialize_instance(inst)
        for mode in MODES:
            for engine in ENGINES:
                out.append((f"{name}-{mode}-{engine}",
                            ["solve", INSTANCE, "--mode", mode,
                             "--engine", engine], doc))
        out.append((f"{name}-nonzero", ["solve", INSTANCE, "--nonzero"], doc))
    out.append(("budget-exhausted",
                ["solve", INSTANCE, "--mode", "sbp", "--engine", "svp",
                 "--budget", "1"],
                serialize_instance(CORPUS[0][1])))
    for name, inst in SWEEPS:
        out.append((name, ["solve", INSTANCE], serialize_instance(inst)))
    last = serialize_instance(SWEEPS[-1][1])
    out.append(("sweep-mode-sbp", ["solve", INSTANCE, "--mode", "sbp"], last))
    # the last sweep is decided by one walk of its box ball, which holds
    # 311 points, each with a zero coordinate, so its first two records
    # exhaust their budgets; the third is a dense box whose sign sweep
    # solves, its accepting pattern's walk visiting 17 points.  The last two
    # answer under tiny budgets: a dense box whose sweep visits no point
    # and a box ball that holds none
    out.append(("sweep-budget-exhausted",
                ["solve", INSTANCE, "--budget", "30"], last))
    out.append(("sweep-budget-exhausted-10",
                ["solve", INSTANCE, "--budget", "10"], last))
    out.append(("sweep-solved-budget-exhausted-10",
                ["solve", INSTANCE, "--budget", "10"],
                serialize_instance(SWEEPS[-2][1])))
    out.append(("sweep-dense-reject-budget-10",
                ["solve", INSTANCE, "--budget", "10"],
                serialize_instance(DENSE_REJECT)))
    out.append(("sweep-n5-d2-reject-budget-1",
                ["solve", INSTANCE, "--budget", "1"],
                serialize_instance(SWEEPS[0][1])))
    for name, inst in ELLIPSOIDS:
        out.append((name, ["solve", INSTANCE, "--mode", "sbp"],
                    serialize_instance(inst)))
    for name, inst in KERNELS:
        for engine in ("lll", "auto"):
            out.append((f"{name}-sbp-{engine}",
                        ["solve", INSTANCE, "--mode", "sbp", "--engine",
                         engine], serialize_instance(inst)))
    for name, suite, seed in BENCHES:
        out.append((name, ["bench", "--suite", suite, "--seed", str(seed)],
                    None))
    for name, argv in PROBES:
        out.append((name, argv, None))
    return out


def _drop_wall(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "wall_micros" not in rows[0]:
        return text
    col = rows[0].index("wall_micros")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        row[:col] + row[col + 1:] for row in rows
    )
    return buf.getvalue()


def run_case(argv, doc):
    """Run main on argv with the instance written to a temporary file;
    returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        if doc is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        argv = [path if a == INSTANCE else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "bench":
        stdout = _drop_wall(stdout)
    return code, stdout, err.getvalue()


@functools.lru_cache(maxsize=None)
def _load():
    return {r["id"]: r for r in json.loads(DATA.read_text(encoding="utf-8"))}


_CASES = cases()


def test_corpus_matches_the_data():
    assert [c[0] for c in _CASES] == list(_load())


@pytest.mark.parametrize("case_id,argv,doc", _CASES, ids=[c[0] for c in _CASES])
def test_golden(case_id, argv, doc, monkeypatch):
    monkeypatch.delenv("SBL_BUDGET", raising=False)
    want = _load()[case_id]
    assert want["argv"] == argv and want["instance"] == doc
    code, stdout, stderr = run_case(argv, doc)
    assert (code, stdout, stderr) == (want["exit"], want["stdout"],
                                      want["stderr"])


def regenerate():
    os.environ.pop("SBL_BUDGET", None)
    records = []
    for case_id, argv, doc in _CASES:
        code, stdout, stderr = run_case(argv, doc)
        records.append({"id": case_id, "argv": argv, "instance": doc,
                        "exit": code, "stdout": stdout, "stderr": stderr})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def diff(old_path) -> None:
    """Print the ids of records added, dropped or changed against the
    data in old_path, then the count of byte-identical ones."""
    old = {r["id"]: r
           for r in json.loads(Path(old_path).read_text(encoding="utf-8"))}
    new = _load()
    for case_id in sorted(old.keys() | new.keys()):
        if old.get(case_id) != new.get(case_id):
            state = ("added" if case_id not in old else
                     "dropped" if case_id not in new else "changed")
            print(f"{state}: {case_id}")
    same = sum(old[k] == new[k] for k in old.keys() & new.keys())
    print(f"identical: {same} of {len(old)}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args:
        regenerate()
    elif len(args) == 2 and args[0] == "--diff":
        diff(args[1])
    else:
        sys.exit("usage: python tests/test_golden.py [--diff OLD_JSON]")
