"""Exhaustive and meet-in-the-middle baseline solvers.

These are the ground truth the lattice pipeline is measured against: slow,
obviously correct, deterministic.  Both always agree on status; witnesses
may differ between the two but every returned witness verifies.
"""

from __future__ import annotations

import itertools

from .core import (
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Verdict,
    _as_budget,
    coefficient_alphabet,
    verify_solution,
)


def _target(inst: Instance, mode: str) -> int:
    if mode == "balancing":
        if all(v == 0 for v in inst.x):
            raise ValueError("balancing requires a nonzero x")
        return 0
    if mode == "gss":
        return inst.tau
    raise ValueError(f"unknown mode {mode!r}")


def brute_force_solve(inst: Instance, mode: str = "balancing", budget=None) -> Verdict:
    """Scan C^n in lexicographic order and return the first solution.

    The witness, when one exists, is the lexicographically smallest
    admissible vector.  An ellipsoid set is scanned through its bounding box
    with an exact membership filter.  Refuses to start when |C|^n exceeds
    the budget's limit, and charges nothing to it.
    """
    budget = _as_budget(budget)
    target = _target(inst, mode)
    x = inst.x
    n = inst.n
    cs = inst.coeffs
    joint = None
    vals = coefficient_alphabet(cs)
    if vals is None:
        if not isinstance(cs, Ellipsoid):
            raise InternalError(
                "self-check failed: no alphabet for a per-coordinate set"
            )
        r = cs.bounding_box_radius()
        vals = tuple(range(-r, r + 1))
        joint = cs.contains
    k = len(vals)
    if k ** n > budget.limit:
        raise BudgetExceeded(
            f"{k}^{n} candidates exceed the budget of {budget.limit}"
        )
    nonzero_needed = mode == "balancing"

    # odometer with prefix sums: advancing position p only recomputes the
    # suffix sums from p on, which is amortized O(1) per candidate
    idx = [0] * n
    c = [vals[0]] * n
    prefix = [0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] + c[i] * x[i]
    while True:
        if prefix[n] == target:
            if not (nonzero_needed and all(v == 0 for v in c)):
                if joint is None or joint(c):
                    return Verdict.solved(tuple(c))
        pos = n - 1
        while pos >= 0 and idx[pos] == k - 1:
            idx[pos] = 0
            c[pos] = vals[0]
            pos -= 1
        if pos < 0:
            break
        idx[pos] += 1
        c[pos] = vals[idx[pos]]
        for i in range(pos, n):
            prefix[i + 1] = prefix[i] + c[i] * x[i]
    return Verdict.no_solution(f"no admissible vector reaches {target}")


def _half_sums(vals, coeffs) -> list:
    """c·coeffs for every c of itertools.product(vals, repeat=len(coeffs)),
    in that order, one coordinate at a time: one integer add per entry and
    layer, no product per candidate."""
    sums = [0]
    for a in coeffs:
        steps = [v * a for v in vals]
        sums = [s + t for s in sums for t in steps]
    return sums


def mitm_solve(inst: Instance, mode: str = "balancing", budget=None) -> Verdict:
    """Meet in the middle: tabulate first-half partial sums, scan the rest.

    Work is about |C|^ceil(n/2) integer additions per half: each half's
    sums are built coordinate by coordinate from the previous layer's, not
    by a multiply-and-sum per candidate.  Memory is the first-half table
    plus one list of sums per half; second-half vectors are generated as
    the scan reaches them.  The first half is tabulated in lexicographic
    order (ties in a sum bucket keep insertion order) and the second half
    is scanned lexicographically, so the returned witness is deterministic,
    though not necessarily the same one brute force finds.  Refuses to
    start when |C|^ceil(n/2) exceeds the budget's limit, and charges
    nothing to it.
    """
    budget = _as_budget(budget)
    target = _target(inst, mode)
    vals = coefficient_alphabet(inst.coeffs)
    if vals is None:
        raise ValueError("meet-in-the-middle needs a per-coordinate coefficient set")
    x = inst.x
    n = inst.n
    h = (n + 1) // 2
    if len(vals) ** h > budget.limit:
        raise BudgetExceeded(
            f"{len(vals)}^{h} half-candidates exceed the budget of "
            f"{budget.limit}"
        )
    head, tail = x[:h], x[h:]
    table: dict = {}
    for c1, s in zip(itertools.product(vals, repeat=h), _half_sums(vals, head)):
        table.setdefault(s, []).append(c1)
    nonzero_needed = mode == "balancing"
    second = zip(itertools.product(vals, repeat=n - h), _half_sums(vals, tail))
    for c2, s2 in second:
        for c1 in table.get(target - s2, ()):
            c = c1 + c2
            if nonzero_needed and all(v == 0 for v in c):
                continue
            if not verify_solution(inst, c, mode):
                raise InternalError(
                    "self-check failed: meet-in-the-middle witness"
                )
            return Verdict.solved(c)
    return Verdict.no_solution(f"no admissible vector reaches {target}")
