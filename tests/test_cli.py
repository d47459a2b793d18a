"""End-to-end command line tests: exit codes, JSON and CSV output, the
budget flag, and engine agreement on a small corpus."""

import contextlib
import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbl.cli import main
from sbl.core import (
    Box,
    Ellipsoid,
    Instance,
    Interval,
    ParseError,
    Punctured,
    dot,
    parse_instance,
    parse_verdict,
    serialize_instance,
)
from sbl.experiment import _load_suite
from sbl.solve import ENGINES


def _write_instance(tmp_path, inst, name="inst.json"):
    p = tmp_path / name
    p.write_text(serialize_instance(inst) + "\n", encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_solved_exit_zero(tmp_path, capsys):
    path = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2), tau=7))
    assert main(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "solved"
    v = parse_verdict(json.dumps(doc))
    assert dot(v.witness, (2, 3)) == 7


def test_solve_no_solution_exit_one(tmp_path, capsys):
    path = _write_instance(tmp_path, Instance((2, 4), Interval(-3, 3), tau=1))
    assert main(["solve", path]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "no_solution"


def test_solve_guard_abort_exit_two(tmp_path, capsys):
    inst = Instance((8, 8), Interval(-2, 2), tau=2, m_bound=16)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, "--engine", "avg"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "guard_abort"


def test_solve_internal_error_exit_five(tmp_path, capsys, monkeypatch):
    import sbl.solve
    from sbl.core import InternalError

    def broken(*args, **kwargs):
        raise InternalError("self-check failed: planted")

    monkeypatch.setattr(sbl.solve, "solve_gss_interval", broken)
    path = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2), tau=7))
    assert main(["solve", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sbl: internal error: self-check failed: planted\n"


def test_solve_missing_file_exit_three(capsys):
    assert main(["solve", "/no/such/file.json"]) == 3
    assert capsys.readouterr().out == ""


def test_solve_overflowing_ellipsoid_entry_exit_three(tmp_path, capsys):
    # JSON reads 1e400 as a float infinity, which no exact entry can be
    path = tmp_path / "inst.json"
    path.write_text('{"x":["2","3"],"coeffs":{"kind":"ellipsoid",'
                    '"a":[[1e400,"0"],["0","1"]]}}', encoding="utf-8")
    assert main(["solve", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sbl: coeffs.a[0][0]: not a rational: inf\n"


@pytest.mark.parametrize("flags,message", [
    (["--engine", "quantum"], "invalid choice: 'quantum'"),
    (["--nonzero"], "unrecognized arguments: --nonzero"),
], ids=["engine-quantum", "nonzero"])
def test_solve_bad_flag_exit_three(tmp_path, capsys, flags, message):
    """A bad value and an unknown flag exit 3 before anything is solved;
    --nonzero is unknown (--mode sbp asks for balancing)."""
    path = _write_instance(tmp_path, Instance((1, 2), Interval(0, 1)))
    with pytest.raises(SystemExit) as e:
        main(["solve", path, *flags])
    assert e.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_solve_budget_exhaustion_exit_four(tmp_path, capsys):
    path = _write_instance(tmp_path, Instance((3, 5, 8), Interval(-1, 1)))
    assert main(["solve", path, "--budget", "1", "--mode", "sbp"]) == 4


_HUGE = 10 ** 13
_TINY = Fraction(1, _HUGE ** 2)


@pytest.mark.parametrize("inst,flags", [
    (Instance((3, 5), Interval(1 - _HUGE, _HUGE)), ["--mode", "sbp"]),
    (Instance((3, 5), Box(_HUGE), tau=1), ["--engine", "mitm"]),
    (Instance((3, 5), Punctured(_HUGE), tau=1), ["--engine", "mitm"]),
    (Instance((3, 5), Ellipsoid(((_TINY, 0), (0, _TINY))), tau=1), []),
], ids=["interval-auto-mitm", "box-mitm", "punctured-mitm",
        "ellipsoid-auto-brute"])
def test_solve_huge_range_is_refused_unlisted(tmp_path, capsys, inst, flags):
    """Baselines over 2 * 10^13 coefficient values refuse by the count
    alone, exit 4, without listing the values first."""
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, *flags]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "exceed the budget" in out.err


@pytest.mark.parametrize("coeffs,least", [
    (Interval(-7, 2 * _HUGE), -7),
    (Box(_HUGE), -_HUGE),
    (Punctured(_HUGE), -_HUGE),
])
def test_solve_zero_weights_over_a_huge_range(tmp_path, capsys, coeffs,
                                              least):
    """gss on x = 0 at tau = 0 answers the least vector of C^n without
    listing C."""
    path = _write_instance(tmp_path, Instance((0, 0), coeffs))
    assert main(["solve", path]) == 0
    assert parse_verdict(capsys.readouterr().out).witness == (least, least)


def test_solve_mode_sbp_changes_the_question(tmp_path, capsys):
    # tau 0 over [-1, 1]: c = 0 answers gss, balancing wants more
    inst = Instance((1, 10), Interval(-1, 1), tau=0)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path]) == 0
    v = parse_verdict(capsys.readouterr().out)
    assert v.status == "solved"
    assert v.witness == (0, 0)
    assert main(["solve", path, "--mode", "sbp"]) == 1


def test_solve_avg_requires_m_bound(tmp_path, capsys):
    path = _write_instance(tmp_path, Instance((7, 9), Interval(-2, 2), tau=2))
    assert main(["solve", path, "--engine", "avg"]) == 3


def test_solve_avg_worked_instance(tmp_path, capsys):
    inst = Instance((7, 9), Interval(-2, 2), tau=2, m_bound=16)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, "--engine", "avg"]) == 0
    assert parse_verdict(capsys.readouterr().out).witness == (-1, 1)


def test_solve_punctured_auto(tmp_path, capsys):
    path = _write_instance(tmp_path, Instance((2, 3), Punctured(1), tau=1))
    assert main(["solve", path]) == 0
    assert parse_verdict(capsys.readouterr().out).witness == (-1, 1)


def test_solve_engines_agree(tmp_path, capsys):
    corpus = [
        Instance((1, 2), Interval(-2, 2), tau=0),
        Instance((3, 5, 8), Interval(-1, 1), tau=0),
        Instance((1, 10), Interval(-3, 3), tau=0),
        Instance((5, 7, 11), Interval(-2, 2), tau=0),
    ]
    for inst in corpus:
        path = _write_instance(tmp_path, inst)
        codes = {}
        for engine in ("svp", "mitm", "brute"):
            codes[engine] = main(["solve", path, "--mode", "sbp",
                                  "--engine", engine])
            capsys.readouterr()
        assert len(set(codes.values())) == 1, codes


def test_solve_output_round_trips(tmp_path, capsys):
    inst = Instance((1, 2, 4), Interval(0, 1), tau=5)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path]) == 0
    v = parse_verdict(capsys.readouterr().out)
    assert v.witness == (1, 0, 1)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_deterministic_bytes(capsys):
    assert main(["gen", "--n", "4", "--M", "100", "--d", "2",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "4", "--M", "100", "--d", "2",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert len(inst.x) == 4 and all(0 <= v < 100 for v in inst.x)
    assert inst.coeffs == Interval(-2, 2)


def test_gen_out_file(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", "--n", "3", "--M", "50", "--d", "1",
                 "--tau", "5", "--cset", "punctured",
                 "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    inst = parse_instance(out.read_text(encoding="utf-8"))
    assert inst.coeffs == Punctured(1) and inst.tau == 5


def test_gen_bad_params_exit_three(capsys):
    assert main(["gen", "--n", "0", "--M", "10", "--d", "1"]) == 3
    assert main(["gen", "--n", "2", "--M", "10", "--d", "1",
                 "--seed", "-1"]) == 3


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sbl: ") and captured.err.count("\n") == 1
    return captured.err


def test_gen_unwritable_out_exit_three(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["gen", "--n", "2", "--M", "10", "--d", "1",
                 "--out", str(out)]) == 3
    assert "cannot write" in _one_error_line(capsys)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_good_witness(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2),
                                                   tau=7))
    sol = tmp_path / "sol.json"
    sol.write_text("[2,1]", encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "solved"


def test_verify_rejects_bad_witness(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2),
                                                   tau=7))
    sol = tmp_path / "sol.json"
    sol.write_text("[1,1]", encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 1


def test_verify_reads_verdict_documents(tmp_path, capsys):
    inst = Instance((2, 3), Interval(0, 2), tau=7)
    inst_path = _write_instance(tmp_path, inst)
    assert main(["solve", inst_path]) == 0
    verdict_text = capsys.readouterr().out
    sol = tmp_path / "verdict.json"
    sol.write_text(verdict_text, encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 0


def test_verify_verdict_without_witness(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((2, 4), Interval(-3, 3),
                                                   tau=1))
    assert main(["solve", inst_path]) == 1
    verdict_text = capsys.readouterr().out
    sol = tmp_path / "verdict.json"
    sol.write_text(verdict_text, encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 1


@pytest.mark.parametrize("witness", ["[1.9,0,0]", "[1.5,0,0]", "[true,0,0]",
                                     "[[1],2,3]", '[null,0,0]'])
def test_verify_non_integer_witness_exit_three(tmp_path, capsys, witness):
    # a float used to be truncated into the balanced c = (1, 0, 0)
    inst_path = _write_instance(tmp_path, Instance((0, 3, 5), Interval(-2, 2)))
    sol = tmp_path / "sol.json"
    sol.write_text(witness, encoding="utf-8")
    assert main(["verify", inst_path, str(sol), "--mode", "sbp"]) == 3
    assert "c[0]" in _one_error_line(capsys)


def test_verify_bare_list_takes_decimal_strings(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((0, 3, 5), Interval(-2, 2)))
    sol = tmp_path / "sol.json"
    sol.write_text('["1",0,"0"]', encoding="utf-8")
    assert main(["verify", inst_path, str(sol), "--mode", "sbp"]) == 0
    assert parse_verdict(capsys.readouterr().out).witness == (1, 0, 0)


def test_verify_balancing_mode_rejects_zero(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((1, 2), Interval(-2, 2),
                                                   tau=0))
    sol = tmp_path / "sol.json"
    sol.write_text("[0,0]", encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 0
    capsys.readouterr()
    assert main(["verify", inst_path, str(sol), "--mode", "sbp"]) == 1


def test_verify_malformed_inputs_exit_three(tmp_path, capsys):
    inst_path = _write_instance(tmp_path, Instance((1, 2), Interval(0, 1)))
    sol = tmp_path / "sol.json"
    sol.write_text("not json", encoding="utf-8")
    assert main(["verify", inst_path, str(sol)]) == 3
    sol.write_text("[1,2,3]", encoding="utf-8")  # dimension mismatch
    assert main(["verify", inst_path, str(sol)]) == 3


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def test_probe_existence_json(capsys):
    args = ["probe", "--n", "3", "--M", "64", "--d", "1",
            "--trials", "6", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert len(doc["statuses"]) == 6
    assert doc["config"]["solver"] == "mitm"
    assert "mean_wall_s" not in doc
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_probe_avg_kind(capsys):
    assert main(["probe", "--kind", "avg", "--n", "4", "--M", "256",
                 "--d", "2", "--tau", "5", "--trials", "5",
                 "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver_success_freq"] is not None
    assert doc["guard_abort_freq"] is not None
    assert doc["outside_guarantee_regime"] is False


@pytest.mark.parametrize("solver", ["lattice", "both"])
def test_probe_avg_runs_only_against_mitm(capsys, solver):
    """The avg probe's reference is meet-in-the-middle: another --solver
    is bad input, not a report naming a solver that never ran."""
    assert main(["probe", "--kind", "avg", "--n", "4", "--M", "256",
                 "--d", "2", "--tau", "5", "--trials", "5", "--seed", "11",
                 "--solver", solver]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "reference is mitm" in out.err


def test_probe_timing_flag(capsys):
    assert main(["probe", "--n", "2", "--M", "16", "--d", "1",
                 "--trials", "2", "--seed", "0", "--timing"]) == 0
    assert "mean_wall_s" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("solver", ["lattice", "mitm", "both"])
def test_probe_budget_bounds_every_solver(capsys, solver):
    assert main(["probe", "--n", "6", "--M", "64", "--d", "2",
                 "--trials", "2", "--seed", "3", "--solver", solver,
                 "--budget", "1"]) == 4


def test_probe_bad_trials_exit_three(capsys):
    assert main(["probe", "--n", "2", "--M", "16", "--d", "1",
                 "--trials", "0", "--seed", "0"]) == 3


def test_probe_oracle_disagreement_exit_five(capsys, monkeypatch):
    """Two oracles that disagree under --solver both are a defect in sbl,
    not bad input: exit 5 with one line on stderr and no traceback."""
    from sbl.core import Verdict

    def planted(inst, mode, engine="auto", budget=None):
        if engine == "mitm":
            return Verdict.no_solution("planted")
        return Verdict.solved((0,) * inst.n)

    monkeypatch.setattr("sbl.experiment.solve_instance", planted)
    assert main(["probe", "--n", "3", "--M", "64", "--d", "1",
                 "--trials", "2", "--seed", "3", "--solver", "both"]) == 5
    assert _one_error_line(capsys) == (
        "sbl: internal error: oracle disagreement on trial 0: "
        "no_solution vs solved\n")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_csv_parses(capsys):
    assert main(["bench", "--suite", "sbp-small", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["solver", "n", "d", "M", "status", "wall_micros",
                       "enumerated_points"]
    assert len(rows) > 1
    for row in rows[1:]:
        assert row[4] in ("solved", "no_solution", "guard_abort")
        int(row[5]); int(row[6])


def test_bench_unknown_suite_exit_three(capsys):
    assert main(["bench", "--suite", "nope"]) == 3


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_bench_seed_outside_64_bits_exit_three(capsys, seed):
    # -1 used to wrap to seed 2^64 - 1 and print its rows
    assert main(["bench", "--suite", "sbp-small", "--seed", seed]) == 3
    assert _one_error_line(capsys) == "sbl: seed must fit in 64 bits\n"


@pytest.mark.parametrize("suite,message", [
    ('[{"d": 1}]', "suite entry 0: missing field 'n'"),
    ('[{"n": 3, "d": 1}, 7]', "suite entry 1: expected an object"),
    ('[{"n": 3, "d": 1, "solvers": ["mitm", "quantum"]}]',
     "suite entry 0: unknown solver 'quantum'"),
    ('[{"n": null, "d": 1}]', "suite entry 0: "),
    ('[{"n": 3, "d": 1, "solvers": []}]', "suite entry 0: solvers: "),
    ('[{"n": 3, "d": 1, "solvers": "mitm"}]', "suite entry 0: solvers: "),
])
def test_bench_malformed_suite_file_exit_three(tmp_path, capsys, suite,
                                               message):
    path = tmp_path / "suite.json"
    path.write_text(suite, encoding="utf-8")
    assert main(["bench", "--suite", str(path)]) == 3
    assert _one_error_line(capsys).startswith("sbl: " + message)


def test_bench_directory_suite_exit_three(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path)]) == 3
    assert "cannot read" in _one_error_line(capsys)


def test_engine_choices_are_the_dispatch_engines():
    from sbl.cli import _build_parser
    from sbl.solve import ENGINES

    sub = next(a for a in _build_parser()._actions
               if a.dest == "command").choices["solve"]
    engine = next(a for a in sub._actions if a.dest == "engine")
    assert tuple(engine.choices) == ENGINES


def test_reused_parser_answers_as_a_fresh_process(tmp_path, capsys):
    """main builds its parser once per process; every command run on the
    reused parser gives the exit code and output of a fresh interpreter."""
    from sbl.cli import _build_parser

    path = _write_instance(tmp_path, Instance((3, 5, 8), Interval(-1, 1)))
    runs = [
        (["solve", path, "--mode", "sbp", "--budget", "1"], 4),
        (["solve", path, "--mode", "sbp"], 0),
        (["solve", path, "--engine", "quantum"], 3),
        (["solve", path, "--mode", "sbp", "--engine", "brute"], 0),
        (["solve", path, "--mode", "sbp"], 0),
    ]
    _build_parser.cache_clear()
    for argv, code in runs:
        try:
            got = main(argv)
        except SystemExit as e:
            got = e.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "sbl.cli"] + argv,
                               capture_output=True, text=True)
        assert got == code
        assert (got, out.out, out.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(runs) - 1)


# ---------------------------------------------------------------------------
# bad input never ends in a traceback
# ---------------------------------------------------------------------------

def test_deeply_nested_json_exit_three(tmp_path):
    """A document nested past the JSON decoder's recursion limit is bad
    input to every command that reads one: exit 3, one line on stderr."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    ok = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2), tau=7))
    for argv in (["solve", str(deep)], ["verify", ok, str(deep)],
                 ["bench", "--suite", str(deep)]):
        proc = subprocess.run([sys.executable, "-m", "sbl.cli"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "sbl: invalid JSON: nested too deeply\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)

_VALID_DOCS = (
    {"x": ["2", 3], "coeffs": {"kind": "interval", "lo": 0, "hi": "2"},
     "tau": "7", "m_bound": 16},
    {"x": [1, 2], "coeffs": {"kind": "punctured", "d": 2}},
    {"x": [1, 2], "coeffs": {"kind": "box", "d": "1"}},
    {"x": [1, 2], "coeffs": {"kind": "ellipsoid",
                             "a": [["1/2", 0], ["0", 1]]}},
    {"status": "solved", "c": ["1", -1], "reason": ""},
    {"status": "no_solution", "c": None},
    [{"n": 3, "d": 1, "m_bound": 100, "tau": 0, "cset": "interval",
      "solvers": ["mitm", "avg"]}],
)


def _one_part_wrong(doc):
    """Copies of doc with one part replaced by a value of each JSON type
    or, in an object, dropped."""
    yield from (None, True, 0, -1, 2.5, "", "x", [], [[]], {}, {"": 0})
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield {k: v for k, v in doc.items() if k != key}
            for wrong in _one_part_wrong(value):
                yield {**doc, key: wrong}
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            for wrong in _one_part_wrong(value):
                yield doc[:i] + [wrong] + doc[i + 1:]


def _parse_all(text, path):
    """Run the instance and verdict parsers on text and the suite loader
    on a file at path holding it; any exception but ParseError, or
    ValueError from the loader, passes through."""
    for parse in (parse_instance, parse_verdict):
        with contextlib.suppress(ParseError):
            parse(text)
    path.write_text(text, encoding="utf-8")
    with contextlib.suppress(ValueError):
        _load_suite(str(path))


@given(_json_values)
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_value_errors(tmp_path_factory, doc):
    """Any JSON document makes the instance and verdict parsers return or
    raise ParseError, and the suite loader return or raise ValueError."""
    _parse_all(json.dumps(doc),
               tmp_path_factory.getbasetemp() / "fuzzed-suite.json")


def test_parsers_take_every_one_part_wrong_document(tmp_path):
    """Each well-formed document with one part dropped or replaced by a
    value of each JSON type gives only ParseError or ValueError."""
    for base in _VALID_DOCS:
        for doc in _one_part_wrong(base):
            _parse_all(json.dumps(doc), tmp_path / "suite.json")


@st.composite
def _solve_runs(draw):
    """A well-formed instance of one to four weights of every coefficient
    set kind, and a solve command line over every engine and mode with a
    budget of 1 to 30 points."""
    n = draw(st.integers(1, 4))
    x = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("interval", "punctured", "box", "ellipsoid")))
    small = st.integers(1, 3)
    if kind == "interval":
        lo = draw(st.integers(-3, 3))
        coeffs = Interval(lo, lo + draw(st.integers(0, 4)))
    elif kind == "punctured":
        coeffs = Punctured(draw(small))
    elif kind == "box":
        coeffs = Box(draw(small))
    else:
        # a positive diagonal plus a rank-one term v v^T / q
        v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        q = draw(st.sampled_from((1, 2, 5)))
        coeffs = Ellipsoid(tuple(
            tuple(Fraction(v[i] * v[j], q)
                  + (Fraction(1, draw(st.integers(1, 9))) if i == j else 0)
                  for j in range(n))
            for i in range(n)))
    m_bound = draw(st.one_of(st.none(), st.integers(1, 64)))
    inst = Instance(tuple(x), coeffs, draw(st.integers(-20, 20)), m_bound)
    flags = ["--engine", draw(st.sampled_from(ENGINES)),
             "--mode", draw(st.sampled_from(("sbp", "gss"))),
             "--budget", str(draw(st.integers(1, 30)))]
    return inst, flags


@given(_solve_runs())
@settings(max_examples=60, deadline=None)
def test_solve_exits_zero_to_four_on_well_formed_input(tmp_path_factory, run):
    """Every engine and mode on a well-formed instance under a small
    budget ends in a verdict, bad input or an exhausted budget: never an
    internal error and never a traceback."""
    inst, flags = run
    path = tmp_path_factory.getbasetemp() / "fuzzed-instance.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)] + flags)
    assert code in (0, 1, 2, 3, 4), err.getvalue()


# ---------------------------------------------------------------------------
# settings come from argv alone
# ---------------------------------------------------------------------------

def test_env_budget_is_ignored(tmp_path, capsys, monkeypatch):
    """The budget comes from --budget or the default alone: with
    SBL_BUDGET=1 in the environment, the exit code and stdout are those
    without it."""
    path = _write_instance(tmp_path, Instance((3, 5, 8), Interval(-1, 1)))
    argv = ["solve", path, "--mode", "sbp"]
    monkeypatch.delenv("SBL_BUDGET", raising=False)
    want = main(argv), capsys.readouterr().out
    monkeypatch.setenv("SBL_BUDGET", "1")
    assert (main(argv), capsys.readouterr().out) == want
    assert want[0] == 0


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_smoke(tmp_path):
    inst_path = _write_instance(tmp_path, Instance((2, 3), Interval(0, 2),
                                                   tau=7))
    proc = subprocess.run([sys.executable, "-m", "sbl.cli", "solve",
                           inst_path], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "solved"


def test_console_script_missing_command(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "sbl.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
