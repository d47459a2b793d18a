"""Balancing and generalized subset sum solvers.

Every solver here is a thin assembly of the same parts: build an embedding
or kernel lattice, run the exact enumerator in one of its guises, decode
the coefficients back out, and verify before returning.  Distances,
determinants, and guards are exact integers or rationals throughout, so a
Solved verdict is always accompanied by a checked witness and a NoSolution
verdict is a certificate, not a timeout.

The gap machinery: a gap question (oracle, lattice, target, r) accepts
iff the oracle, asked at r, reports a distance below r + 1.  Attainable
sup distances on the shifted targets fall on r's grid (the integers, or
the integers plus one half) with nothing in the open interval (r, r + 1),
so acceptance pins the distance down to at most r even when the oracle
overstates it by a factor gamma < (r+1)/r.  The capped oracle asked at r
runs an exact search capped at r; rejection reports r + 1, which is sound
on grid lattices since the true distance can only be the next grid value.

solve_instance is the one place that maps a mode, a coefficient set and
an engine name to a solver; the command line, probes and benchmarks all
go through it.  Every walk of a solve draws on its one core.Budget, whose
charged count a caller that passes it reads.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add
from typing import Callable, Optional, Sequence, Tuple

from .core import (
    DEFAULT_POINT_BUDGET,
    Budget,
    BudgetExceeded,
    Box,
    Ellipsoid,
    Instance,
    InternalError,
    Interval,
    Punctured,
    Verdict,
    dot,
    gcd_vector,
    iroot,
    l2_sq,
    linf,
    _as_budget,
    verify_solution,
)
from .enumeration import (
    Lattice,
    _sup_search,
    _Target,
    _top_test,
    _walk,
    cvp_inf,
    prepare,
    svp_gauge,
    svp_inf,
)
from .lattice import (
    GaugeBody,
    _kernel_rows,
    choose_params,
    embedding_basis,
    interval_shift_target,
    kernel_basis,
    sign_pattern_target,
)
from .oracle import brute_force_solve, mitm_solve
from .reduction import _reduce, lll_threshold

__all__ = [
    "SIGN_PATTERN_CAP",
    "INTEGER",
    "HALF_INTEGER",
    "ThresholdUnmet",
    "GapConfigError",
    "GapVerdict",
    "ApproxCvpOracle",
    "capped_cvp_oracle",
    "gap_decide",
    "check_minkowski",
    "solve_sbp",
    "solve_sbp_lll",
    "solve_sbp_body",
    "solve_gss_interval",
    "solve_gss_punctured",
    "solve_gss_avg",
    "cvp_via_gap_search",
    "ENGINES",
    "solve_instance",
]

# 2^n sign patterns; beyond this the loop alone is hopeless
SIGN_PATTERN_CAP = 24

INTEGER = "integer"
HALF_INTEGER = "half_integer"
_GRIDS = (INTEGER, HALF_INTEGER)


class ThresholdUnmet(ValueError):
    """The reduction guarantee does not apply at this coefficient bound."""


class GapConfigError(ValueError):
    """Oracle approximation factor too large for the requested radius."""


def _check(ok: bool, what: str) -> None:
    """A self-check on a witness or a decision; unlike assert it also runs
    under python -O."""
    if not ok:
        raise InternalError(f"self-check failed: {what}")


# ---------------------------------------------------------------------------
# existence certificate
# ---------------------------------------------------------------------------

def check_minkowski(x: Sequence[int], d: int) -> bool:
    """One-sided existence certificate for balancing with |c_i| <= d.

    True iff |x|_2^2 / gcd^2 < (d+1)^(2(n-1)), an exact integer-free
    comparison of squares.  True guarantees a nonzero balanced c exists;
    False says nothing.
    """
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    xs = tuple(int(v) for v in x)
    g = gcd_vector(xs)
    n = len(xs)
    return Fraction(l2_sq(xs), g * g) < Fraction(d + 1) ** (2 * (n - 1))


# ---------------------------------------------------------------------------
# balancing solvers
# ---------------------------------------------------------------------------

def solve_sbp(
    x: Sequence[int],
    d: int,
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """Decide balancing with coefficients in [-d, d] by one sup-norm
    shortest vector call on the embedding lattice.

    Any nonzero embedded vector of sup norm <= d has first coordinate
    zero and decodes to a balanced c; absence of one is a proof of
    NoSolution.
    """
    xs = tuple(int(v) for v in x)
    params = choose_params(xs, d)
    basis = embedding_basis(xs, params)
    res = svp_inf(basis, cap=d, budget=budget)
    if not res.found:
        return Verdict.no_solution("no nonzero lattice vector within the bound")
    v = res.witness
    _check(v[0] == 0, "short vector has a nonzero first coordinate")
    c = v[1:]
    _check(verify_solution(Instance(xs, Box(d)), c, "balancing"),
           "balancing witness")
    return Verdict.solved(c)


def solve_sbp_lll(x: Sequence[int], d: int) -> Verdict:
    """Polynomial-time balancing when the bound clears the reduction
    threshold; raises ThresholdUnmet below it.

    The witness is the first row of the LLL reducer run on kernel_basis(x)
    at the first moment it lies in [-d, d]^n: the input's first row, or
    the first row after a swap, the only step that changes it.  The
    reduction stops there.  Above the threshold the fully reduced first
    row fits, so the stop always comes, at the latest where lll_reduce
    ends.  The witness is short, not least: svp's solve_sbp gives the
    least sup norm.

    The stop comes early, so the reducer runs on a prefix of the basis
    first: the first m sparse rows that lattice._kernel_rows builds, for
    m = 8, 16, 32, ..., until a run stops in the box or m reaches all
    n - 1 rows, which is the full run.  A prefix run's stop is the full
    run's.  The reducer reads row m only when k first reaches m, so up to
    then the prefix run and the full run take the same steps; its setup
    reads every row it is given, but only to choose the columns it keeps
    and the width it packs to, which change no value it computes.  Row 0
    changes only at a swap at k = 1 and is tested each time it does, so
    a prefix run that stops has stopped where the full run does, and one
    that ends without a stop has passed none."""
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    xs = tuple(int(v) for v in x)
    gcd_vector(xs)
    n = len(xs)
    if n < 2 or not lll_threshold(xs, d):
        raise ThresholdUnmet(
            "bound below the reduction guarantee; use solve_sbp"
        )
    m = 8
    while True:
        c = _reduce(_kernel_rows(xs, m), n, box=d)
        if linf(c) <= d or m >= n - 1:
            break
        m *= 2
    _check(linf(c) <= d and dot(c, xs) == 0,
           "first reduced vector is not a balanced c")
    _check(verify_solution(Instance(xs, Box(d)), c, "balancing"),
           "balancing witness")
    return Verdict.solved(c)


def solve_sbp_body(
    x: Sequence[int],
    body: GaugeBody,
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """Balancing over an arbitrary box or ellipsoid coefficient body.

    One gauge-shortest vector search on kernel_basis(x), the lattice of
    integer c with c.x = 0; gauge <= 1 is exactly membership.  The search
    is exact on a lattice of any rank, so the kernel needs no completion
    to full rank.  For n = 1 the kernel is {0} and no search runs.
    """
    xs = tuple(int(v) for v in x)
    basis = kernel_basis(xs)
    inst = Instance(xs, body)
    if basis.rank:
        res = svp_gauge(basis, body, budget=budget)
        if res.value <= 1:
            _check(verify_solution(inst, res.witness, "balancing"),
                   "balancing witness")
            return Verdict.solved(res.witness)
    return Verdict.no_solution("shortest gauge vector lies outside the body")


# ---------------------------------------------------------------------------
# the gap decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapVerdict:
    """Outcome of one gap query; vector is present exactly on accept."""

    accept: bool
    reported_dist: Fraction
    vector: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class ApproxCvpOracle:
    """A closest-vector oracle with a stated overestimation factor.

    solver(basis, target, r) answers at radius r with (vector, reported),
    |vector - target|_inf <= reported <= gamma * dist(target, L); the vector
    may be None when reported >= r + 1 certifies a rejection on its own.
    """

    gamma: Fraction
    solver: Callable

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")


def capped_cvp_oracle(budget=DEFAULT_POINT_BUDGET) -> ApproxCvpOracle:
    """A gamma = 1 oracle that answers at radius r by cvp_inf capped at r;
    cvp_via_gap_search's default.  Each answer draws on the budget: a
    Budget is shared by all of them, and an int or None gives each its
    own.

    When nothing lies within r it reports r + 1 with no vector, which is a
    valid distance lower bound exactly when attainable distances skip the
    open interval (r, r + 1); use it only on grid-structured targets.
    """
    def solver(basis: Lattice, target, r):
        res = cvp_inf(basis, target, cap=r, budget=budget)
        if res.found:
            return res.witness, res.dist
        return None, r + 1

    return ApproxCvpOracle(Fraction(1), solver)


def gap_decide(
    oracle: ApproxCvpOracle,
    basis: Lattice,
    target,
    r,
) -> GapVerdict:
    """The gap question (oracle, basis, target, r): accept iff the oracle,
    asked at r, reports a distance below r + 1.

    Requires r in Z or Z + 1/2, attainable distances on r's grid and gamma
    < (r+1)/r for r > 0.  Acceptance then guarantees the oracle's vector
    lies within r (its true distance is below r + 1 and on the grid), and
    rejection guarantees the true distance exceeds r (it is at least
    reported / gamma >= (r+1)/gamma > r).  The basis is prepared once, and
    the oracle is asked on the prepared lattice, whose rows are reduced
    (see enumeration.prepare).
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r.denominator > 2:
        raise ValueError(f"radius {r} is not a multiple of 1/2")
    if r > 0 and oracle.gamma * r >= r + 1:
        raise GapConfigError(
            f"gamma {oracle.gamma} breaks the gap at radius {r}; "
            f"need gamma < {Fraction(r + 1, 1) / r}"
        )
    lat = prepare(basis)
    if len(target) != lat.dim:
        raise ValueError("target dimension does not match the basis")
    return _gap_verdict(lat, target, r, *oracle.solver(lat, target, r))


def _gap_verdict(lat, target, r: Fraction, vector, reported) -> GapVerdict:
    """gap_decide's verdict on an answer (vector, reported) for the target
    on the prepared lattice at the radius r: reject when reported is r + 1
    or more; otherwise accept the vector once it is checked to be a
    lattice vector of the target's dimension (Babai rounding on the
    lattice returns a lattice vector unchanged) whose exact distance is at
    most reported, on r's grid and at most r."""
    reported = Fraction(reported)
    if reported >= r + 1:
        return GapVerdict(False, reported)
    _check(vector is not None, "oracle accepted without a vector")
    vector = tuple(vector)
    _check(len(vector) == len(target)
           and lat._round(1, lat._frame(vector)) == vector,
           "accepted vector is not a lattice vector of the target's "
           "dimension")
    exact = max(
        (abs(Fraction(a) - Fraction(b)) for a, b in zip(vector, target)),
        default=Fraction(0),
    )
    _check(exact <= reported, "oracle understated its vector's distance")
    _check((r - exact).denominator == 1 and exact <= r,
           "accepted distance is off the radius's grid or beyond it")
    return GapVerdict(True, reported, tuple(int(v) for v in vector))


# ---------------------------------------------------------------------------
# generalized subset sum, worst case
# ---------------------------------------------------------------------------

def solve_gss_interval(
    x: Sequence[int],
    tau: int,
    a: int,
    b: int,
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """c.x = tau with every c_i in [a, b], by one gap decision.

    The target centers every coefficient coordinate on the interval
    midpoint; radius (b-a)/2 covers exactly the admissible range, and the
    first coordinate forces the sum because alpha exceeds the radius.
    """
    if a > b:
        raise ValueError("interval requires a <= b")
    xs = tuple(int(v) for v in x)
    gcd_vector(xs)
    tau = int(tau)
    n = len(xs)
    inst = Instance(xs, Interval(a, b), tau=tau)
    if a == b:
        c = (a,) * n
        if dot(c, xs) == tau:
            return Verdict.solved(c)
        return Verdict.no_solution("constant interval misses the target sum")
    d = max(abs(a), abs(b))
    params = choose_params(xs, d, tau, "gss_worst")
    basis = embedding_basis(xs, params)
    target, r = interval_shift_target(tau, params.alpha, a, b, n)
    gv = gap_decide(capped_cvp_oracle(budget), basis, target, r)
    if not gv.accept:
        return Verdict.no_solution("gap decision rejected")
    c = gv.vector[1:]
    _check(verify_solution(inst, c, "gss"), "gss witness")
    return Verdict.solved(c)


def _box_center(lat, head: int) -> _Target:
    """_Target.of(lat, (head, 0, ..., 0)) in O(m): the center alpha tau
    e_0 of the box walks, whose frame is head times column 0 of
    lat._stars."""
    return _Target(lat, 1, (head,) + (0,) * (lat.dim - 1),
                   [head * b[0] for b in lat._stars])


def _first_pattern(lat, head: int, den: int, h: int, limit: int,
                   budget: Budget):
    """The sign sweep of solve_gss_punctured: (signs, g, p) for the first
    pattern, -1 before +1, whose sup ball of limit limit around (head,
    h s_1, ..., h s_n) on the denominator den holds a lattice point, with
    the least (g, p) there, g its scaled sup distance; None when no ball
    holds one.

    The frame is linear, so a sign flip adds +-2h frame(e_i), about two
    flips per pattern in this order, and frame(e_l) is column l of the
    lattice's vectors gram_det[i] b*_i (PreparedLattice._stars), which the
    sup walk needs anyway.  The embedding lattice has full rank, so the
    walk's top-level range test at the limit is set up once
    (enumeration._top_test), and a pattern it rejects costs two floor
    divisions.  Any other pattern runs the sup walk at that limit.  No
    pattern rounds with Babai, and a rejection builds no Fraction."""
    _check(lat.rank == lat.dim,
           "a shared top-level test on a rank-deficient lattice")
    n = lat.dim - 1
    stars = lat._stars
    empty = _top_test(lat, den, limit)
    units = list(zip(*stars))[1:]
    ups = [[2 * h * u for u in unit] for unit in units]
    downs = [[-v for v in up] for up in ups]
    # frame = frame(base + h * last), starting at the all -1 pattern
    frame = [head * b[0] - h * sum(b[1:]) for b in stars]
    last = (-1,) * n
    for signs in product((-1, 1), repeat=n):
        for i in range(n):
            if signs[i] != last[i]:
                frame = list(map(add, frame,
                                 ups[i] if signs[i] > 0 else downs[i]))
        last = signs
        if not empty(frame):
            scaled = (head,) + tuple(h * s for s in signs)
            best = _sup_search(_Target(lat, den, scaled, frame), limit,
                               budget)
            if best is not None:
                return (signs,) + best
    return None


def solve_gss_punctured(
    x: Sequence[int],
    tau: int,
    d: int,
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """c.x = tau with 1 <= |c_i| <= d, the paper's reduction: one gap
    decision per sign pattern.

    Pattern s centers coordinate i on s_i (d+1)/2 with radius (d-1)/2, so
    a hit is exactly a coefficient vector of signs s.  Patterns run in
    lexicographic order with -1 before +1; the first acceptance wins, with
    the capped search's witness, the least (sup distance, point) in its
    ball.  Realized accepted distances land on the integers for odd d and
    on integers plus one half for even d, which is what makes the radius
    decision exact.  On their common denominator den (1 for odd d, 2 for
    even d) the targets are base + h * sum s_i e_i with h = den (d+1) / 2.

    Where the box holds no more coefficient vectors than c.x has values,
    (2d+1)^n <= 2 d sum|x_i| + 1, one sup walk gives the sweep's verdict.
    The sup ball of radius d around (alpha tau, 0, ..., 0) holds exactly
    the lattice points (alpha tau, c) with c in [-d, d]^n and c.x = tau
    (alpha exceeds d, and q every |c.x - tau|), and pattern s's ball holds
    exactly those of them with no zero coordinate and signs s, at scaled
    sup distance max_i |den |c_i| - h|.  So the sweep's witness is the
    least zero-free point of that ball by (signs, that distance, point),
    which the walk's visitor keeps, and a walk that keeps none gives the
    sweep's no_solution.  The walk charges the solve's Budget with every
    point of the ball, those with a zero coordinate too.

    On a denser box (x below 60 at n = 10 or 12, say) that walk can take
    seconds where the sign sweep (_first_pattern) takes milliseconds, so
    the sweep runs there, its walks drawing on the solve's Budget too.
    Either way a witness builds its pattern's target and gets
    gap_decide's verdict and checks on its point (_gap_verdict), with no
    oracle, then the sign check and verify_solution.
    """
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    xs = tuple(int(v) for v in x)
    gcd_vector(xs)
    tau = int(tau)
    n = len(xs)
    if n > SIGN_PATTERN_CAP:
        raise BudgetExceeded(
            f"{n} coordinates means 2^{n} sign patterns; cap is "
            f"2^{SIGN_PATTERN_CAP}"
        )
    inst = Instance(xs, Punctured(d), tau=tau)
    budget = _as_budget(budget)
    params = choose_params(xs, d, tau, "gss_worst")
    lat = prepare(embedding_basis(xs, params))
    den = 1 if d % 2 == 1 else 2
    h = den * (d + 1) // 2
    if (2 * d + 1) ** n <= 2 * d * sum(map(abs, xs)) + 1:
        best = None

        def keep(v) -> int:
            nonlocal best
            c = v[1:]
            if all(c):
                key = (tuple(1 if a > 0 else -1 for a in c),
                       max(abs(den * abs(a) - h) for a in c), v)
                if best is None or key < best:
                    best = key
            return d

        _walk(_box_center(lat, params.alpha * tau), keep, budget, d)
    else:
        best = _first_pattern(lat, den * params.alpha * tau, den, h,
                              (d - 1) * den // 2, budget)
    if best is None:
        return Verdict.no_solution("every sign pattern rejected")
    signs, g, p = best
    # gap_decide's verdict, on the point found
    target, r = sign_pattern_target(tau, params.alpha, d, signs)
    gv = _gap_verdict(lat, target, r, p, Fraction(g, den))
    _check(gv.accept, "the gap decision rejects a vector within r")
    c = gv.vector[1:]
    _check(all(v * s > 0 for v, s in zip(c, signs)),
           "witness signs differ from the pattern")
    _check(verify_solution(inst, c, "gss"), "gss witness")
    return Verdict.solved(c)


# ---------------------------------------------------------------------------
# generalized subset sum, average-case parameters
# ---------------------------------------------------------------------------

def solve_gss_avg(
    x: Sequence[int],
    tau: int,
    d: int,
    m_bound: int,
    cset: str = "interval",
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """Density-regime solver: a short-vector guard, then one sup walk
    around the target.

    The guard aborts when the lattice has a sup-short nonzero vector
    (length at most M^(1/n)/4, tested as the integer inequality
    (4 lambda)^n <= M), since then the walk may visit too many points.
    Otherwise every lattice point within sup distance d of the target
    decodes to a witness (a punctured one when no coefficient is 0), for
    every m_bound, as alpha > d and q exceeds every |c.x - tau|: the sup
    walk at the fixed limit d visits exactly those points, and its
    visitor keeps the lexicographically least that decodes, the witness.
    The guard search and the walk draw on one Budget.
    """
    if d < 1:
        raise ValueError("coefficient bound must be positive")
    if m_bound < 1:
        raise ValueError("m_bound must be positive")
    if cset not in ("interval", "punctured"):
        raise ValueError(f"unknown coefficient set kind {cset!r}")
    xs = tuple(int(v) for v in x)
    gcd_vector(xs)
    tau = int(tau)
    n = len(xs)
    coeffs = Interval(-d, d) if cset == "interval" else Punctured(d)
    inst = Instance(xs, coeffs, tau=tau, m_bound=m_bound)
    params = choose_params(xs, d, tau, "gss_avg", m_bound=m_bound)
    lat = prepare(embedding_basis(xs, params))
    budget = _as_budget(budget)
    guard_cap = iroot(m_bound, n) // 4
    if guard_cap >= 1:
        gres = svp_inf(lat, cap=guard_cap, budget=budget)
        if gres.found:
            _check((4 * gres.value) ** n <= m_bound,
                   "guard vector is longer than the guard")
            return Verdict.guard_abort(
                f"nonzero lattice vector of sup norm {gres.value} within the guard"
            )
    best = None

    def keep(v) -> int:
        nonlocal best
        if (cset == "interval" or all(v[1:])) and (best is None or v < best):
            best = v
        return d

    _walk(_box_center(lat, params.alpha * tau), keep, budget, d)
    if best is None:
        return Verdict.no_solution("no lattice point near the target decodes")
    _check(best[0] == params.alpha * tau,
           "ball point does not decode to the target sum")
    c = best[1:]
    _check(verify_solution(inst, c, "gss"), "gss witness")
    return Verdict.solved(c)


# ---------------------------------------------------------------------------
# gap oracle to approximate distances
# ---------------------------------------------------------------------------

def cvp_via_gap_search(
    basis: Lattice,
    target,
    grid: str = INTEGER,
    r_max=None,
    oracle: Optional[ApproxCvpOracle] = None,
    budget=DEFAULT_POINT_BUDGET,
) -> Tuple[Tuple[int, ...], Fraction]:
    """Recover a closest vector from gap questions (oracle, basis, target,
    r) alone by binary search over the radii r of the grid.

    The one oracle is asked at every radius; the default is
    capped_cvp_oracle, cvp_inf capped at the radius asked, making the
    result an exact closest vector on grid-structured targets, and the
    walks of all its radii draw on one Budget.  The search needs an
    accepting radius to start from; r_max defaults to the rounding bound
    of a nearest-plane walk, which always accepts.  The lattice is
    prepared once for the whole search.
    """
    if grid not in _GRIDS:
        raise ValueError(f"unknown grid {grid!r}")
    lat = prepare(basis)
    tgt = tuple(Fraction(t) for t in target)
    if oracle is None:
        oracle = capped_cvp_oracle(_as_budget(budget))
    base = Fraction(0) if grid == INTEGER else Fraction(1, 2)
    if r_max is None:
        center = _Target.of(lat, tgt)
        d0 = Fraction(center.babai()[1], center.den)
        if d0 > base:
            f = d0 - base
            steps = -((-f.numerator) // f.denominator)
        else:
            steps = 0
        r_max = base + steps
    r_max = Fraction(r_max)
    if r_max < base or (r_max - base).denominator != 1:
        raise ValueError("r_max must lie on the declared grid")
    hi = int(r_max - base)
    gv = gap_decide(oracle, lat, tgt, r_max)
    if not gv.accept:
        raise ValueError("no lattice vector within r_max of the target")
    best = gv.vector
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        r = base + mid
        gv = gap_decide(oracle, lat, tgt, r)
        if gv.accept:
            hi = mid
            best = gv.vector
        else:
            lo = mid + 1
    dist = max(
        (abs(Fraction(a) - b) for a, b in zip(best, tgt)),
        default=Fraction(0),
    )
    return tuple(best), dist


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

ENGINES = ("auto", "svp", "lll", "mitm", "brute", "body", "avg")


def _symmetric_bound(coeffs) -> Optional[int]:
    """The d of a [-d, d] coefficient range, else None."""
    if isinstance(coeffs, Box):
        return coeffs.d
    if isinstance(coeffs, Interval) and coeffs.lo == -coeffs.hi and coeffs.hi >= 1:
        return coeffs.hi
    return None


def _zero_weights(inst: Instance) -> Verdict:
    """gss on an all-zero x, where c.x = 0 for every c in C^n: brute
    force's verdict without a lattice, its least vector when tau = 0."""
    if inst.tau == 0:
        cs = inst.coeffs
        least = cs.lo if isinstance(cs, Interval) else -cs.d
        return Verdict.solved((least,) * inst.n)
    return Verdict.no_solution(f"no admissible vector reaches {inst.tau}")


def solve_instance(
    inst: Instance,
    mode: str,
    engine: str = "auto",
    budget=DEFAULT_POINT_BUDGET,
) -> Verdict:
    """Solve inst in mode "balancing" (nonzero c with c.x = 0) or "gss"
    (c.x = tau) with the named engine from ENGINES.

    auto takes the reduction for the coefficient set: a punctured set, in
    either mode, gets the verdict of one gap decision per sign pattern,
    from one sup walk of the box [-d, d]^n where the box holds no more
    vectors than c.x has values, (2d+1)^n <= 2 d sum|x_i| + 1, and from
    the sign sweep elsewhere (see solve_gss_punctured).  Balancing over [-d, d] or a box is one SVP
    call, or solve_sbp_lll's first reduced row once d clears
    lll_threshold, which solve_sbp_lll alone evaluates; over an
    ellipsoid it is a gauge SVP, and an asymmetric interval goes to
    meet-in-the-middle.  gss over an interval or box is one gap decision,
    over an ellipsoid brute force.  gss on an all-zero x, under auto or
    avg, gets brute force's verdict without a lattice; balancing on one
    raises.  An engine that does not apply raises ValueError.
    """
    if mode not in ("balancing", "gss"):
        raise ValueError(f"unknown mode {mode!r}")
    x, coeffs = inst.x, inst.coeffs
    tau = inst.tau if mode == "gss" else 0
    d = _symmetric_bound(coeffs)
    if engine == "auto":
        if mode == "gss" and not any(x) and not isinstance(coeffs, Ellipsoid):
            return _zero_weights(inst)
        if isinstance(coeffs, Punctured):
            return solve_gss_punctured(x, tau, coeffs.d, budget=budget)
        if mode == "gss":
            if isinstance(coeffs, Ellipsoid):
                # ellipsoid targets have no lattice route here; small cases only
                return brute_force_solve(inst, mode, budget)
            lo, hi = (coeffs.lo, coeffs.hi) if d is None else (-d, d)
            return solve_gss_interval(x, tau, lo, hi, budget=budget)
        if isinstance(coeffs, Ellipsoid):
            engine = "body"
        elif d is not None:
            # solve_sbp_lll decides the threshold; below it, one SVP call
            if len(x) >= 2:
                with suppress(ThresholdUnmet):
                    return solve_sbp_lll(x, d)
            engine = "svp"
        else:
            engine = "mitm"
    if engine == "mitm":
        if isinstance(coeffs, Ellipsoid):
            raise ValueError("mitm engine does not handle ellipsoid bodies")
        return mitm_solve(inst, mode, budget)
    if engine == "brute":
        return brute_force_solve(inst, mode, budget)
    if mode == "gss":
        if engine != "avg":
            raise ValueError(f"engine {engine} does not apply to gss")
        if inst.m_bound is None:
            raise ValueError("avg engine: m_bound required on the instance")
        if isinstance(coeffs, Punctured):
            d, cset = coeffs.d, "punctured"
        elif d is None:
            raise ValueError(
                "avg engine needs a symmetric [-d,d] or punctured coefficient set"
            )
        else:
            cset = "interval"
        if not any(x):
            return _zero_weights(inst)
        return solve_gss_avg(x, tau, d, inst.m_bound, cset, budget=budget)
    if engine in ("svp", "lll"):
        if d is None:
            raise ValueError(
                f"{engine} engine needs a symmetric [-d,d] coefficient range"
            )
        if engine == "lll":
            return solve_sbp_lll(x, d)
        return solve_sbp(x, d, budget=budget)
    if engine == "body":
        if isinstance(coeffs, Ellipsoid):
            return solve_sbp_body(x, coeffs, budget=budget)
        if d is None:
            raise ValueError("body engine needs a box or ellipsoid coefficient set")
        return solve_sbp_body(x, Box(d), budget=budget)
    if engine == "avg":
        raise ValueError("avg engine solves gss; use --mode gss")
    raise ValueError(f"engine {engine} does not apply to balancing")
