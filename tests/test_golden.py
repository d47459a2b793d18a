"""Golden verdict corpus: the exact exit code, stdout and stderr of the
command line over a small fixed corpus, frozen in tests/data/golden.json.

The corpus runs `sbl solve` on every coefficient set kind (symmetric and
asymmetric intervals, punctured intervals, boxes, ellipsoids), with tau
zero and nonzero, with and without m_bound, at n = 1, with a zero weight
and at a bound meeting the LLL threshold, under every --mode and every
--engine, plus --nonzero and an exhausted --budget.  It also freezes the
`bench` CSV (wall-clock column dropped) of the built-in suites and the
`probe` JSON of each solver choice.  A refactor that keeps this test
passing keeps every verdict byte.

Regenerate the data only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
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

from sbl.cli import main
from sbl.core import (
    Box,
    Ellipsoid,
    Instance,
    Interval,
    Punctured,
    serialize_instance,
)

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


if __name__ == "__main__":
    regenerate()
