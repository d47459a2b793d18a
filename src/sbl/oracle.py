"""Exhaustive and meet-in-the-middle baseline solvers.

These are the ground truth the lattice pipeline is measured against:
obviously correct and deterministic.  Brute force walks all of C^n.
Meet in the middle filters the second half's sums through a set of the
first half's in one C-level pass and decodes the witness from the least
indices of the first hit, so its work and memory go as |C|^ceil(n/2).
Both always agree on status; witnesses may differ between the two but
every returned witness verifies.
"""

from __future__ import annotations

from .core import (
    BudgetExceeded,
    Ellipsoid,
    Instance,
    InternalError,
    Verdict,
    _as_budget,
    alphabet_size,
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
    the budget's limit, before listing C, and charges nothing to it.
    """
    budget = _as_budget(budget)
    target = _target(inst, mode)
    x = inst.x
    n = inst.n
    cs = inst.coeffs
    if isinstance(cs, Ellipsoid):
        r = cs.bounding_box_radius()
        k, joint = 2 * r + 1, cs.contains
    else:
        k, joint = alphabet_size(cs), None
    if k ** n > budget.limit:
        raise BudgetExceeded(
            f"{k}^{n} candidates exceed the budget of {budget.limit}"
        )
    vals = range(-r, r + 1) if joint else coefficient_alphabet(cs)
    if vals is None:
        raise InternalError(
            "self-check failed: no alphabet for a per-coordinate set"
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


def _half_sums(vals, coeffs, start: int = 0) -> list:
    """start + c·coeffs for every c of itertools.product(vals,
    repeat=len(coeffs)), in that order, one coordinate at a time: one
    integer add per entry and layer, no product per candidate."""
    sums = [start]
    for a in coeffs:
        steps = [v * a for v in vals]
        sums = [s + t for s in sums for t in steps]
    return sums


def _decode(index: int, vals, length: int) -> tuple:
    """The index-th vector of itertools.product(vals, repeat=length): the
    digits of index in base len(vals), most significant first."""
    k = len(vals)
    c = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digit = divmod(index, k)
        c[pos] = vals[digit]
    return tuple(c)


def mitm_solve(inst: Instance, mode: str = "balancing", budget=None) -> Verdict:
    """Meet in the middle: a set of first-half sums, one scan of the rest.

    Each half's sums are listed over itertools.product(vals, repeat=k) in
    that order, built coordinate by coordinate from the previous layer's
    (about |C|^ceil(n/2) integer additions per half), the second half's
    as target - c2·x2.  One C-level pass filters those through the set of
    first-half sums, so no Python code runs per candidate.  list.index
    turns a hit s back into indices: j, the first place of s in the second
    list after the previous hit, and i, the least first-half index with
    sum s.  Only that pair is decoded into c1 and c2, in base |C|.  In
    balancing the hit may be the zero vector, c1 = c2 = 0; then the next
    first-half index with sum s wins, or else the scan goes on.  So the
    witness has the least second half that completes to a solution, and
    the least first half for it: deterministic, though not necessarily
    the vector brute force finds.  Memory is two lists of |C|^ceil(n/2)
    ints and the set.  Refuses to start when |C|^ceil(n/2) exceeds the
    budget's limit, before listing C, and charges nothing to it.
    """
    budget = _as_budget(budget)
    target = _target(inst, mode)
    k = alphabet_size(inst.coeffs)
    if k is None:
        raise ValueError("meet-in-the-middle needs a per-coordinate coefficient set")
    x = inst.x
    n = inst.n
    h = (n + 1) // 2
    if k ** h > budget.limit:
        raise BudgetExceeded(
            f"{k}^{h} half-candidates exceed the budget of {budget.limit}"
        )
    vals = coefficient_alphabet(inst.coeffs)
    sums1 = _half_sums(vals, x[:h])
    rest = _half_sums(vals, [-a for a in x[h:]], target)
    nonzero_needed = mode == "balancing"
    j = -1
    for s in filter(set(sums1).__contains__, rest):
        j = rest.index(s, j + 1)
        i = sums1.index(s)
        c2 = _decode(j, vals, n - h)
        c = _decode(i, vals, h) + c2
        if nonzero_needed and not any(c):
            try:
                i = sums1.index(s, i + 1)
            except ValueError:
                continue
            c = _decode(i, vals, h) + c2
        if not verify_solution(inst, c, mode):
            raise InternalError(
                "self-check failed: meet-in-the-middle witness"
            )
        return Verdict.solved(c)
    return Verdict.no_solution(f"no admissible vector reaches {target}")
