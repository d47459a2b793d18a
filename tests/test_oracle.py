"""Reference solvers: exhaustive search and meet-in-the-middle.

These two are the ground truth everything lattice-based is measured
against, so they get their own cross-check here: on every random small
instance the two must agree on status, and every witness must verify.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbl.oracle
from sbl.core import (
    Box,
    Budget,
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Interval,
    Punctured,
    verify_solution,
)
from sbl.oracle import brute_force_solve, mitm_solve
from reference import mitm_reference


def _coeff_sets():
    return st.one_of(
        st.integers(1, 3).map(lambda d: Interval(-d, d)),
        st.integers(1, 3).map(Punctured),
        st.builds(Interval, st.integers(-3, 0), st.integers(0, 3)),
    )


small_instances = st.builds(
    Instance,
    st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(tuple),
    _coeff_sets(),
    st.integers(-20, 20),
)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_examples():
    v = brute_force_solve(Instance((1, 1, 2), Interval(-1, 1)))
    assert v.status == "solved" and v.witness == (-1, -1, 1)
    assert brute_force_solve(Instance((1, 2), Interval(-1, 1))).status == "no_solution"


def test_brute_force_gss():
    v = brute_force_solve(Instance((2, 3), Interval(-2, 2), tau=7), "gss")
    assert v.status == "solved"
    assert sum(c * x for c, x in zip(v.witness, (2, 3))) == 7


def test_brute_force_lexicographic_witness():
    # both (-1,-1,1) and (1,1,-1) balance; the smaller one wins
    v = brute_force_solve(Instance((1, 1, 2), Interval(-1, 1)))
    assert v.witness == (-1, -1, 1)


def test_brute_force_ellipsoid():
    e = Ellipsoid(((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    v = brute_force_solve(Instance((5, 5), e))
    assert v.status == "solved"
    assert v.witness == (-1, 1)


def test_brute_force_budget():
    inst = Instance(tuple(range(1, 9)), Interval(-4, 4))
    with pytest.raises(BudgetExceeded):
        brute_force_solve(inst, budget=Budget(1000))


def test_zero_x_balancing_rejected():
    with pytest.raises(ValueError):
        brute_force_solve(Instance((0, 0), Interval(-1, 1)))


# ---------------------------------------------------------------------------
# meet in the middle
# ---------------------------------------------------------------------------

def test_mitm_examples():
    v = mitm_solve(Instance((2, 3), Interval(-1, 1), tau=1), "gss")
    assert v.status == "solved" and v.witness == (-1, 1)
    assert mitm_solve(Instance((1, 2), Interval(-1, 1))).status == "no_solution"


def test_mitm_rejects_ellipsoid():
    e = Ellipsoid(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        mitm_solve(Instance((1, 2), e))


def test_mitm_balancing_skips_zero():
    # tau=0 with 0 in C: balancing must not return the zero vector
    v = mitm_solve(Instance((3, 5), Interval(-2, 2)))
    assert v.status == "no_solution"


def test_mitm_budget_boundary():
    # 7 coordinates split 4 + 3: the budget counts the |C|^4 first-half
    # candidates, and one fewer refuses the call before any work
    inst = Instance((3, -5, 8, 13, -21, 34, 55), Interval(-2, 2), tau=1)
    v = mitm_solve(inst, "gss", budget=Budget(5 ** 4))
    assert v.status == "solved"
    assert verify_solution(inst, v.witness, "gss")
    with pytest.raises(BudgetExceeded) as info:
        mitm_solve(inst, "gss", budget=Budget(5 ** 4 - 1))
    assert str(info.value) == "5^4 half-candidates exceed the budget of 624"


@pytest.mark.parametrize("inst,mode,witness", [
    # the first hit is c2 = (0,), whose sum-0 bucket starts with c1 = (0, 0):
    # that bucket's next entry, (1, 1), wins
    (Instance((1, -1, 5), Interval(0, 2)), "balancing", (1, 1, 0)),
    # c2 = (0,) hits a bucket holding only c1 = (0, 0), so the scan goes on
    # to c2 = (1,); c2 = (-1,) missed before it
    (Instance((3, 5, -16), Interval(-1, 2)), "balancing", (2, 2, 1)),
    # the same, and then the sum 0 comes back at c2 = (1, 1): the scan
    # looks it up past the zero pair's c2 = (0, 0), not at it
    (Instance((3, 5, 2, -2), Interval(0, 2)), "balancing", (0, 0, 1, 1)),
    # n = 1: the second half is empty, its one sum is 0
    (Instance((5,), Interval(-2, 2), tau=10), "gss", (2,)),
    (Instance((5,), Interval(-2, 2)), "balancing", None),
    (Instance((5,), Interval(0, 2)), "gss", (0,)),
    # |C| = 13: indices decode in base 13
    (Instance((7, -11, 13, 17, 19), Interval(-6, 6), tau=-250), "gss",
     (-6, 4, 4, -6, -6)),
    (Instance((7, -11, 13, 17, 19), Interval(-6, 6)), "balancing",
     (4, -6, 5, -6, -3)),
    # no 0 in C, so the zero rule never applies
    (Instance((3, 5, 8), Punctured(2)), "balancing", (2, 2, -2)),
    (Instance((3, 5, 8), Punctured(1), tau=1), "gss", None),
    # zeros in x, one in each half
    (Instance((0, 4, 0, 6), Interval(-1, 1)), "balancing", (-1, 0, -1, 0)),
    (Instance((0, 4, 0, 6), Box(2), tau=2), "gss", (-2, 2, -2, -1)),
])
def test_mitm_decodes_the_least_hit(inst, mode, witness):
    # the witness is the least second half that completes, with the least
    # first half for it that is not the zero vector; reasons are unchanged
    v = mitm_solve(inst, mode)
    assert v == mitm_reference(inst, mode)
    if witness is None:
        target = inst.tau if mode == "gss" else 0
        assert v.status == "no_solution"
        assert v.reason == f"no admissible vector reaches {target}"
    else:
        assert v.status == "solved" and v.witness == witness


def test_mitm_self_check_rejects_a_bad_witness(monkeypatch):
    # the decoded witness goes through oracle.verify_solution before it is
    # returned, so a broken decoder cannot answer
    monkeypatch.setattr(sbl.oracle, "verify_solution", lambda *a: False)
    with pytest.raises(InternalError,
                       match="^self-check failed: meet-in-the-middle witness$"):
        mitm_solve(Instance((1, -1, 5), Interval(0, 2)))


def _outcome(solver, inst, mode):
    try:
        return solver(inst, mode)
    except ValueError as exc:
        return type(exc), str(exc)


def _random_case(rng):
    n = rng.randint(1, 8)
    d = rng.randint(1, 3 if n <= 6 else 2)
    cset = rng.choice(
        (Interval(-d, d), Interval(0, d), Box(d), Punctured(d),
         Interval(-rng.randint(0, d), d))
    )
    zeros = rng.random() < 0.3
    x = tuple(0 if zeros and rng.random() < 0.4 else rng.randint(-40, 40)
              for _ in range(n))
    if rng.random() < 0.5:
        return Instance(x, cset), "balancing"
    reach = d * sum(abs(v) for v in x)
    if rng.random() < 0.2:
        tau = rng.choice((-1, 1)) * (reach + rng.randint(1, 20))
    else:
        tau = rng.randint(-reach // 3 - 5, reach // 3 + 5)
    return Instance(x, cset, tau), "gss"


def test_mitm_witnesses_match_the_reference():
    # the layered half sums must change no status, witness or reason: the
    # same first-half table in the same order, the same lexicographic scan
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(2400):
        inst, mode = _random_case(rng)
        got = _outcome(mitm_solve, inst, mode)
        assert got == _outcome(mitm_reference, inst, mode), (inst, mode)
        status = got.status if hasattr(got, "status") else "error"
        seen[mode, type(inst.coeffs).__name__, status] += 1
        seen["n", inst.n] += 1
        seen["zero in x", 0 in inst.x] += 1
    for n in range(1, 9):
        assert seen["n", n] > 0
    assert seen["zero in x", True] > 0
    for mode in ("balancing", "gss"):
        for kind in ("Interval", "Box", "Punctured"):
            assert seen[mode, kind, "solved"] > 0
            assert seen[mode, kind, "no_solution"] > 0
    assert seen["balancing", "Interval", "error"] > 0  # all-zero x


@given(small_instances)
@settings(max_examples=150, deadline=None)
def test_mitm_agrees_with_brute_force(inst):
    mode = "gss" if inst.tau != 0 else "balancing"
    assume(mode == "gss" or any(inst.x))
    a = brute_force_solve(inst, mode)
    b = mitm_solve(inst, mode)
    assert a.status == b.status
    for v in (a, b):
        if v.status == "solved":
            assert verify_solution(inst, v.witness, mode)


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=4).map(tuple),
       st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_punctured_agreement(x, d):
    assume(any(x))
    inst = Instance(x, Punctured(d))
    a = brute_force_solve(inst)
    b = mitm_solve(inst)
    assert a.status == b.status
