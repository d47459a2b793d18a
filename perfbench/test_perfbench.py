"""Smoke tests of the benchmark at toy sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import workloads

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
TINY = ["--scale", "tiny", "--seconds", "0.3", "--seed", "5"]


def _run(*extra, cwd=workloads.ROOT):
    proc = subprocess.run(RUN + list(extra), capture_output=True, text=True,
                          cwd=cwd, timeout=170)
    return proc


def _result(*extra):
    proc = _run(*extra)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def _expected(metrics, names=workloads.NAMES):
    return {f"{w}/{m['name']}": m["unit"] for w in names for m in metrics}


@pytest.fixture(scope="module")
def traced():
    return _result("--trace", "1", *TINY)


def test_every_end_to_end_metric_has_a_unit():
    doc = _result("--trace", "0", *TINY)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == _expected(spec.END_TO_END)
    for key, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), key
        assert m["value"] > 0, key


def test_every_per_layer_metric_has_a_unit(traced):
    assert traced["correct"] and traced["failed"] == 0
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == _expected(spec.PER_LAYER)


def test_counters_repeat_exactly(traced):
    again = _result("--trace", "1", *TINY)
    counts = {k for k, v in traced["metrics"].items()
              if v["unit"] in ("count", "points/op", "calls/op")
              or k.endswith(".accept_frac")}
    assert counts
    for key in counts:
        assert again["metrics"][key] == traced["metrics"][key], key
    # the workloads exercise the layers they were chosen for
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["sweep-sparse/solve.gap_decide.calls"] > 0
    assert m["ball-dense/enumeration.enum_ball.points"] > 0
    assert m["lll-kernel/reduction.lll_reduce.calls"] > 0
    assert m["lll-kernel/enumeration.enum_ball.calls"] == 0
    assert m["probe-mitm/oracle.mitm_solve.calls"] > 0
    assert m["probe-mitm/reduction.lll_reduce.calls"] == 0


@pytest.mark.parametrize("name", ["ball-dense", "probe-mitm"])
def test_budget_overrun_is_a_failed_op(name):
    doc = _result("--workload", name, "--budget", "1", *TINY)
    assert doc["correct"]
    assert 0 < doc["failed"] <= doc["attempted"]
    ok = doc["metrics"]["ok_frac"]["value"]
    assert ok == (doc["attempted"] - doc["failed"]) / doc["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-mitm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_files_are_current():
    proc = subprocess.run(
        [sys.executable, str(Path(spec.__file__)), "--check"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_avg_reference_predicts_the_guard():
    workloads.load_sbl()
    import reference
    from sbl.core import Instance, Interval
    from sbl.solve import solve_gss_avg

    m_bound = 4 ** 4
    for x, tau in (((3, 3, 100, 200), 7), ((17, 90, 141, 250), 7),
                   ((17, 90, 141, 250), 0)):
        inst = Instance(x, Interval(-2, 2), tau=tau, m_bound=m_bound)
        case = workloads.Case("avg", inst, (), "gss", "avg-guard")
        got = solve_gss_avg(x, tau, 2, m_bound).status
        assert reference.expected_status(case) == got, (x, tau)
