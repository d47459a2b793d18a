"""Ball enumeration and the sup-norm searches.

The enumerator is checked against a direct coefficient sweep: on a small
basis, walk all integer combinations in a crude box and keep those inside
the ball.  Both listings must agree exactly, order included.
"""

import contextlib
import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbl.enumeration
from sbl.core import (
    _as_budget,
    Box,
    Budget,
    BudgetExceeded,
    Ellipsoid,
    ceil_sqrt_frac,
    dot,
    linf,
)
from sbl.enumeration import (
    _scaled,
    _sup_search,
    _Target,
    _top_test,
    _walk,
    CvpResult,
    PreparedLattice,
    SvpResult,
    cvp_inf,
    prepare,
    svp_gauge,
    svp_inf,
)
from sbl.lattice import (
    LatticeBasis,
    _sparse,
    choose_params,
    embedding_basis,
    kernel_basis,
    sign_pattern_target,
)
from sbl.reduction import _reduce, lll_reduce

from reference import (
    ball_walk,
    gram_schmidt,
    gs_coords,
    holder_walk,
    mat_det,
    mat_inverse,
    mat_solve,
    min_sup_to,
    nearest_plane,
    relaxed_ellipsoid_ball,
    star_vectors,
    walk_reference,
)


def _basis(*rows):
    return LatticeBasis(tuple(tuple(r) for r in rows), len(rows[0]))


def _charged(search):
    """search(budget)'s result on a fresh Budget and the points charged to
    it."""
    budget = Budget()
    return search(budget), budget.charged


def _sweep(basis, span):
    """Every lattice point with coefficients in [-span, span]."""
    for coeffs in product(range(-span, span + 1), repeat=basis.rank):
        v = [0] * basis.dim
        for c, row in zip(coeffs, basis.rows):
            for i in range(basis.dim):
                v[i] += c * row[i]
        yield tuple(v)


def _brute_ball(basis, center, radius_sq, span):
    """Ball points found by a coefficient sweep; complete only when span
    covers the ball, so callers use it for one-sided checks."""
    pts = [
        p for p in _sweep(basis, span)
        if sum((Fraction(a) - Fraction(b)) ** 2
               for a, b in zip(p, center)) <= radius_sq
    ]
    return sorted(pts)


small_bases = (
    st.integers(2, 3)
    .flatmap(lambda m: st.lists(
        st.lists(st.integers(-6, 6), min_size=m, max_size=m),
        min_size=m, max_size=m))
    .filter(lambda rows: mat_det(rows) != 0)
    .map(lambda rows: _basis(*rows))
)


# ---------------------------------------------------------------------------
# the Euclidean walk
# ---------------------------------------------------------------------------

def _euclidean_walk(basis, center, r_sq, budget=None):
    """The sorted points that _walk's Euclidean mode, the walk of
    svp_gauge, visits in the ball |v - center|_2^2 <= r_sq, an integer, on
    the prepared basis."""
    out: list = []
    _walk(_Target.of(prepare(basis), center), out.append, _as_budget(budget),
          r_sq=r_sq)
    return sorted(out)


def test_euclidean_walk_z2():
    pts = _euclidean_walk(_basis((1, 0), (0, 1)), (0, 0), 2)
    assert len(pts) == 9
    assert pts[0] == (-1, -1)
    assert (0, 0) in pts


def test_euclidean_walk_translated():
    pts = _euclidean_walk(_basis((1, 0), (0, 1)),
                          (Fraction(1, 2), Fraction(1, 2)), 1)
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_euclidean_walk_empty():
    assert _euclidean_walk(_basis((5, 0), (0, 5)),
                           (Fraction(5, 2), Fraction(5, 2)), 1) == []


def test_euclidean_walk_lower_rank():
    # the line through (3, 4); center off the line pays the offset
    basis = LatticeBasis(((3, 4),), 2)
    assert _euclidean_walk(basis, (3, 4), 0) == [(3, 4)]
    assert _euclidean_walk(basis, (0, 1), 1) == [(0, 0)]
    assert _euclidean_walk(basis, (0, 2), 1) == []


def test_euclidean_walk_budget():
    basis = _basis((1, 0), (0, 1))
    with pytest.raises(BudgetExceeded) as info:
        _euclidean_walk(basis, (0, 0), 10**4, budget=10)
    assert info.value.partial == 10


def test_euclidean_walk_equals_sweep_on_fixed_bases():
    """Full two-sided equality where the sweep provably covers the ball."""
    cases = [
        (_basis((1, 0), (0, 1)), (Fraction(1, 3), Fraction(-1, 2)), 9, 5),
        (_basis((2, 1), (1, 2)), (0, 0), 12, 6),
        (_basis((3, 1, 0), (0, 2, 1), (1, 0, 4)), (1, 1, 1), 6, 5),
    ]
    for basis, center, radius_sq, span in cases:
        assert (_euclidean_walk(basis, center, radius_sq)
                == _brute_ball(basis, center, radius_sq, span))


@given(small_bases,
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=2, max_size=3),
       st.integers(0, 16))
@settings(max_examples=30, deadline=None)
def test_euclidean_walk_sound_and_covers_sweep(basis, center, radius_sq):
    assume(len(center) == basis.dim)
    center = tuple(center)
    pts = _euclidean_walk(basis, center, radius_sq)
    for p in pts:
        assert sum((Fraction(a) - b) ** 2 for a, b in zip(p, center)) <= radius_sq
    # completeness against the small-coefficient part of the lattice
    inside = set(_brute_ball(basis, center, radius_sq, 4))
    assert inside <= set(pts)


def _box_scan(basis, center, radius_sq):
    """Every lattice point in the ball, by a scan independent of the walk.

    Coefficients are t = G^-1 B v for v in the row span, and v -> t_i has
    operator norm sqrt((G^-1)_ii), so every ball point has
    |t_i - t_i(center)| <= sqrt(radius_sq * (G^-1)_ii): the coefficient box
    below covers the ball, and each of its points is tested exactly.
    """
    rows = basis.rows
    inv = mat_inverse([[dot(a, b) for b in rows] for a in rows])
    tc = [sum(inv[i][j] * dot(rows[j], center) for j in range(len(rows)))
          for i in range(len(rows))]
    ranges = []
    for i, t in enumerate(tc):
        h = ceil_sqrt_frac(radius_sq * inv[i][i])
        lo, hi = t - h, t + h
        ranges.append(range(lo.numerator // lo.denominator,
                            -(-hi.numerator // hi.denominator) + 1))
    pts = []
    for coeffs in product(*ranges):
        v = [0] * basis.dim
        for c, row in zip(coeffs, rows):
            for i in range(basis.dim):
                v[i] += c * row[i]
        if sum((a - b) ** 2 for a, b in zip(v, center)) <= radius_sq:
            pts.append(tuple(v))
    return sorted(pts)


@st.composite
def _ball_queries(draw):
    """Full-rank embedding and rank-deficient kernel bases (reduced, so the
    scan's box stays small), centers with mixed denominators, and integer
    squared radii that are 0, free, or exactly some lattice point's
    distance."""
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
        params = choose_params(x, draw(st.integers(1, 2)),
                               draw(st.integers(-20, 20)), "gss_worst")
        basis = lll_reduce(embedding_basis(x, params))
    else:
        x = [draw(st.integers(1, 30))] + draw(
            st.lists(st.integers(-30, 30), min_size=1, max_size=3))
        basis = lll_reduce(kernel_basis(x))
    center = tuple(
        Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 2, 3, 5, 6))))
        for _ in range(basis.dim)
    )
    kind = draw(st.sampled_from(("zero", "free", "boundary")))
    if kind == "zero":
        radius_sq = 0
    elif kind == "free":
        radius_sq = draw(st.integers(0, 30))
    else:
        # move the center an integer step from a lattice point v and put v
        # on the sphere
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=basis.rank,
                               max_size=basis.rank))
        v = [sum(c * row[i] for c, row in zip(coeffs, basis.rows))
             for i in range(basis.dim)]
        offset = draw(st.lists(st.integers(-2, 2), min_size=basis.dim,
                               max_size=basis.dim))
        center = tuple(a + b for a, b in zip(v, offset))
        radius_sq = sum(b * b for b in offset)
    return basis, center, radius_sq


@given(_ball_queries(), st.one_of(st.none(), st.integers(0, 12)))
@settings(max_examples=80, deadline=None)
def test_euclidean_walk_equals_the_box_scan(query, budget):
    basis, center, radius_sq = query
    want = _box_scan(basis, center, radius_sq)
    if budget is not None and len(want) > budget:
        with pytest.raises(BudgetExceeded) as info:
            _euclidean_walk(basis, center, radius_sq, budget)
        assert info.value.partial == budget
        return
    assert _euclidean_walk(basis, center, radius_sq, budget) == want


def test_euclidean_walk_includes_the_boundary():
    basis = _basis((2, 1), (1, 3))
    center = (Fraction(3, 5), Fraction(4, 5))
    # 0 and the row (2, 1) lie at squared distances 1 and 2
    assert _euclidean_walk(basis, center, 2) == [(0, 0), (2, 1)]
    assert _euclidean_walk(basis, center, 1) == [(0, 0)]
    assert _euclidean_walk(basis, center, 0) == []
    assert _euclidean_walk(basis, (3, 4), 0) == [(3, 4)]


def test_min_sup_to_breaks_ties_toward_the_least_point():
    center = (Fraction(1, 2), Fraction(1, 3))
    # (0, 0) and (1, 0) both sit at sup distance 1/2; (0, 1), (1, 1) at 2/3
    points = [(1, 1), (1, 0), (0, 1), (0, 0)]
    for order in (points, points[::-1]):
        dist, witness = min_sup_to(order, center, Fraction(1, 4))
        assert witness == (0, 0)
        assert dist == Fraction(1, 2) and isinstance(dist, Fraction)
    assert min_sup_to(points, center, Fraction(1, 4) - Fraction(1, 10**9)) is None
    dist, witness = min_sup_to([(0, 1), (1, 1)], center, Fraction(4, 9))
    assert (dist, witness) == (Fraction(2, 3), (0, 1))


def test_sup_search_skips_zero_and_keeps_ties():
    """Around 0 on Z^2 the eight points of sup norm 1 tie; the search
    keeps the lexicographically least, and visits half the sup ball, 0
    and one of each +-pair, as ties stay in when the limit drops to the
    best norm."""
    lat = prepare(_basis((1, 0), (0, 1)))
    t = _Target(lat, 1, (0, 0), [0, 0])
    assert _charged(lambda b: _sup_search(t, 1, b, nonzero=True)) == (
        (1, (-1, -1)), 5)
    assert _sup_search(t, 1, Budget()) == (0, (0, 0))
    assert _charged(lambda b: _sup_search(t, 0, b, nonzero=True)) == (None, 1)


# ---------------------------------------------------------------------------
# prepared lattices
# ---------------------------------------------------------------------------

def _random_lattices(seed, count):
    """Full-rank embedding bases and rank-deficient kernel bases, with
    rational centers of mixed denominators."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 5)
        if k % 2 == 0:
            x = tuple(rng.randint(1, 400) for _ in range(n))
            params = choose_params(x, 2, rng.randint(-30, 30), "gss_worst")
            basis = embedding_basis(x, params)
        else:
            x = tuple(rng.randint(-40, 40) or 1 for _ in range(n + 1))
            basis = kernel_basis(x)
        center = tuple(
            Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 5)))
            for _ in range(basis.dim)
        )
        yield basis, center, Fraction(rng.randint(0, 300), rng.choice((1, 2)))


def test_prepare_is_a_noop_on_a_prepared_lattice():
    lat = prepare(_basis((2, 1), (1, 2)))
    assert isinstance(lat, PreparedLattice)
    assert prepare(lat) is lat
    assert (lat.rank, lat.dim) == (2, 2)


def test_prepare_on_rank_zero_and_one():
    empty = prepare(LatticeBasis((), 3))
    assert (empty.rows, empty.gram_det, empty.lam) == ((), (1,), ())
    with pytest.raises(ValueError, match="empty lattice"):
        cvp_inf(empty, (0, 0, 0))
    line = prepare(LatticeBasis(((3, 4, 0),), 3))
    assert (line.rows, line.gram_det, line.lam) == (((3, 4, 0),), (1, 25),
                                                     ((),))
    with pytest.raises(ValueError, match="target dimension"):
        cvp_inf(line, (0, 0))


def test_prepare_rejects_dependent_rows():
    for rows in (((1, 2), (2, 4)), ((0, 0),)):
        with pytest.raises(ValueError, match="dependent rows"):
            prepare(LatticeBasis(rows, 2))


def test_gs_coords_match_the_gram_solve():
    """The rational Gram-Schmidt coordinates, and the integer frame on the
    center's denominator, against plain elimination on the Gram system:
    the projection's basis coordinates t, carried to the Gram-Schmidt
    frame."""
    for basis, center, _ in _random_lattices(7, 40):
        lat = prepare(basis)
        rows = lat.rows
        t = mat_solve([[dot(a, b) for b in rows] for a in rows],
                      [dot(row, center) for row in rows])
        mu = gram_schmidt(lat).mu
        frame = tuple(
            t[i] + sum(mu[j][i] * t[j] for j in range(i + 1, lat.rank))
            for i in range(lat.rank)
        )
        assert gs_coords(lat, center) == frame
        den, scaled = _scaled(center)
        assert tuple(Fraction(y, den * d) for y, d in
                     zip(lat._frame(scaled), lat.gram_det[1:])) == frame


def test_nearest_plane_matches_rational_rounding():
    for basis, center, _ in _random_lattices(17, 40):
        lat = prepare(basis)
        mu = gram_schmidt(lat).mu
        zc = gs_coords(lat, center)
        z = [0] * lat.rank
        for i in range(lat.rank - 1, -1, -1):
            c = zc[i] - sum(mu[j][i] * z[j] for j in range(i + 1, lat.rank))
            half = c + Fraction(1, 2)
            z[i] = half.numerator // half.denominator
        want = tuple(sum(zi * row[k] for zi, row in zip(z, lat.rows))
                     for k in range(lat.dim))
        assert nearest_plane(lat, center) == want


def test_prepared_enumeration_matches_plain_basis():
    """The same answer, and the same partial count on a budget overrun,
    from svp_inf and cvp_inf whether the lattice is prepared once or per
    query."""
    overruns = 0
    for k, (basis, center, _) in enumerate(_random_lattices(11, 80)):
        red = lll_reduce(basis)
        budget = (3, 40, 10**6)[k % 3]

        def outcomes(b):
            return (_outcome(lambda n: svp_inf(b, budget=n), budget),
                    _outcome(lambda n: cvp_inf(b, center, budget=n), budget))

        plain = outcomes(red)
        assert outcomes(prepare(red)) == plain
        assert outcomes(basis) == plain
        overruns += sum(isinstance(o, tuple) for o in plain)
    assert overruns >= 5


def test_searches_accept_prepared_lattices():
    for basis, center, _ in _random_lattices(13, 12):
        lat = prepare(basis)
        assert cvp_inf(lat, center) == cvp_inf(basis, center)
        assert cvp_inf(lat, center, cap=2) == cvp_inf(basis, center, cap=2)
        assert svp_inf(lat) == svp_inf(basis)
        assert svp_inf(lat, cap=3) == svp_inf(basis, cap=3)
        assert svp_gauge(lat, Box(2)) == svp_gauge(basis, Box(2))


# ---------------------------------------------------------------------------
# sup-norm shortest vector
# ---------------------------------------------------------------------------

def test_svp_inf_z2():
    res = svp_inf(_basis((1, 0), (0, 1)))
    assert res.found and res.value == 1
    # ties on sup norm break toward the lexicographically least vector
    assert res.witness == (-1, -1)


def test_svp_inf_skewed():
    res = svp_inf(_basis((5, 0), (2, 3)))
    assert res.value == 3
    assert res.witness == (-3, 3)


def test_svp_inf_cap():
    basis = _basis((5, 0), (2, 3))
    miss = svp_inf(basis, cap=2)
    assert not miss.found and miss.value is None
    hit = svp_inf(basis, cap=3)
    assert hit.found and hit.value == 3


def test_svp_inf_walks_a_rational_cap_at_its_floor(monkeypatch):
    """Sup norms are integers: an int cap, a Fraction and a float between
    it and the next integer give one result and one charge, each walked
    at an int limit."""
    lat, _ = _grown_instance()
    search, limits = sbl.enumeration._sup_search, []

    def logged(t, lim, *args, **kwargs):
        limits.append(lim)
        return search(t, lim, *args, **kwargs)

    monkeypatch.setattr(sbl.enumeration, "_sup_search", logged)
    for caps in ((2, Fraction(5, 2), 2.5), (3, Fraction(7, 2), 3.5)):
        runs = [_charged(lambda b: svp_inf(lat, cap=cap, budget=b))
                for cap in caps]
        assert runs[1:] == runs[:1] * 2
    assert [type(lim) for lim in limits] == [int] * 6
    assert runs[0][0] == SvpResult(True, 3, runs[0][0].witness)
    with pytest.raises(ValueError):
        svp_inf(lat, cap=-0.5)


def test_svp_inf_rejects_empty():
    with pytest.raises(ValueError):
        svp_inf(LatticeBasis((), 2))


@given(small_bases)
@settings(max_examples=40, deadline=None)
def test_svp_inf_never_beaten_by_sweep(basis):
    res = svp_inf(basis)
    assert any(res.witness)
    assert linf(res.witness) == res.value
    for p in _sweep(basis, 3):
        if any(p):
            assert linf(p) >= res.value


# ---------------------------------------------------------------------------
# sup-norm closest vector
# ---------------------------------------------------------------------------

def test_cvp_inf_exact_hit():
    res = cvp_inf(_basis((1, 0), (0, 1)), (3, 4))
    assert res.found and res.dist == 0 and res.witness == (3, 4)


def test_cvp_inf_z2():
    res = cvp_inf(_basis((1, 0), (0, 1)), (Fraction(2, 5), Fraction(3, 5)))
    assert res.dist == Fraction(2, 5)
    assert res.witness == (0, 1)


def test_cvp_inf_cap():
    basis = _basis((1, 0), (0, 1))
    t = (Fraction(1, 2), Fraction(1, 2))
    miss = cvp_inf(basis, t, cap=Fraction(1, 4))
    assert not miss.found
    hit = cvp_inf(basis, t, cap=Fraction(1, 2))
    assert hit.found and hit.dist == Fraction(1, 2)
    assert hit.witness == (0, 0)  # lexicographically least of the four corners


@given(small_bases,
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_cvp_inf_never_beaten_by_sweep(basis, target):
    assume(len(target) == basis.dim)
    target = tuple(target)
    res = cvp_inf(basis, target)
    assert res.found
    got = max(abs(Fraction(a) - b) for a, b in zip(res.witness, target))
    assert got == res.dist
    for p in _sweep(basis, 3):
        d = max(abs(Fraction(a) - b) for a, b in zip(p, target))
        assert d >= res.dist


# ---------------------------------------------------------------------------
# gauge search
# ---------------------------------------------------------------------------

def test_svp_gauge_box():
    res = svp_gauge(_basis((4, 0), (1, 3)), Box(2))
    assert res.value == Fraction(3, 2)
    assert res.witness == (-3, 3)


def test_svp_gauge_ellipsoid():
    e = Ellipsoid(((Fraction(1, 4), 0), (0, 1)))
    res = svp_gauge(_basis((4, 0), (1, 3)), e)
    assert res.value == 4  # squared gauge of (+-4, 0)
    assert res.witness == (-4, 0)


@given(small_bases, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_svp_gauge_box_agrees_with_svp_inf(basis, d):
    g = svp_gauge(basis, Box(d))
    s = svp_inf(basis)
    assert g.value == Fraction(s.value, d)
    assert linf(g.witness) == s.value


@st.composite
def _forms(draw, m):
    """A rational positive-definite form of dimension m: rank-one terms
    v v^T / q with mixed denominators q, plus a positive rational
    diagonal."""
    a = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        q = draw(st.sampled_from((1, 2, 3, 5, 12)))
        for i in range(m):
            for j in range(m):
                a[i][j] += Fraction(v[i] * v[j], q)
    for i in range(m):
        a[i][i] += Fraction(draw(st.integers(1, 9)),
                            draw(st.sampled_from((1, 2, 4, 7, 9))))
    return Ellipsoid(tuple(tuple(row) for row in a))


@st.composite
def _gauge_cases(draw):
    """A small full-rank basis and a form of its dimension (_forms)."""
    basis = draw(small_bases)
    return basis, draw(_forms(basis.dim))


@given(_gauge_cases())
@settings(max_examples=60, deadline=None)
def test_svp_gauge_ranks_like_the_rational_form(case):
    """svp_gauge's value and witness are the least (quad_form, p), ties
    broken lexicographically, over the reference listing: the eigenvalue
    relaxation of the ellipsoid ball at g0 / L, with g0 the least F-value
    of a row reduced under F = L A.  Its walk visits one of each +-pair of
    the reference points within that ellipsoid ball, and 0: it lists half
    the ellipsoid and nothing more."""
    basis, body = case
    den = lcm(*(a.denominator for row in body.a for a in row))
    form = [[int(den * a) for a in row] for row in body.a]
    rows, _ = _reduce(_sparse(basis.rows), basis.dim, form)
    bound = min(body.quad_form(row) for row in rows)
    listing = relaxed_ellipsoid_ball(basis, body, bound)
    want = min((body.quad_form(p), p) for p in listing if any(p))
    got, count = _charged(lambda b: svp_gauge(basis, body, budget=b))
    assert (got.value, got.witness) == want
    inside = sum(body.quad_form(p) <= bound for p in listing)
    assert count == (inside + 1) // 2


def test_svp_gauge_rejects_a_body_of_another_dimension():
    basis = _basis((4, 0), (1, 3))
    for n in (1, 3):
        body = Ellipsoid(tuple(tuple(Fraction(int(i == j)) for j in range(n))
                               for i in range(n)))
        with pytest.raises(ValueError, match="dimension"):
            svp_gauge(basis, body)


def test_a_gauge_search_draws_on_one_budget():
    """An ellipsoid or box gauge search walks once: it fits a budget of the
    points it visits exactly, and one point less overruns with the whole
    budget as its partial count.  The body is ball-dense's ellipsoid cell
    (n = 6, semi-axes 2 and 3), and the lattice is the kernel that
    solve_sbp_body searches."""
    diag = (Fraction(1, 4),) * 3 + (Fraction(1, 9),) * 3
    body = Ellipsoid(tuple(tuple(diag[i] if i == j else 0 for j in range(6))
                           for i in range(6)))
    basis = kernel_basis((10, 36, 43, 51, 9, 76))
    for b in (body, Box(2)):
        def search(budget, b=b):
            return svp_gauge(basis, b, budget=budget)

        res, count = _charged(search)
        assert count > 1
        assert search(count) == res
        assert _outcome(search, count - 1) == (
            f"ball holds more than {count - 1} points", count - 1)


# ---------------------------------------------------------------------------
# half walks around the origin
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _full_walks():
    """Every walk in the block is a full walk, _walk's half switch off."""
    walk = sbl.enumeration._walk

    def full(*args, **kwargs):
        return walk(*args, **{**kwargs, "half": False})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sbl.enumeration, "_walk", full)
        yield


@st.composite
def _origin_searches(draw):
    """A basis of rank 1 to 6 with independent rows in dimension rank to
    rank + 2, entries in [-5, 5], and a form of its dimension (_forms)."""
    r = draw(st.integers(1, 6))
    m = draw(st.integers(r, min(r + 2, 7)))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=m,
                                  max_size=m), min_size=r, max_size=r))
    basis = _basis(*rows)
    try:
        prepare(basis)
    except ValueError:
        assume(False)
    return basis, draw(_forms(m))


@given(_origin_searches())
@settings(max_examples=80, deadline=None)
def test_half_walks_answer_like_full_walks(case):
    """svp_inf and svp_gauge walk one of each +-pair around 0 and fold
    each point p they visit to min(p, -p): they give the full walk's
    found, value and witness, uncapped and capped below, at and above the
    answer, and charge no more points; an ellipsoid walk, whose ball does
    not shrink, charges one of each pair and 0.  Each search fits a budget
    of its own count and overruns one less."""
    basis, body = case
    with _full_walks():
        value = svp_inf(basis).value
    searches = [lambda b, cap=cap: svp_inf(basis, cap=cap, budget=b)
                for cap in (None, 0, value - 1, value, value + 1)
                if cap is None or cap >= 0]
    searches += [lambda b: svp_gauge(basis, Box(2), budget=b),
                 lambda b: svp_gauge(basis, body, budget=b)]
    counts = []
    for search in searches:
        half, count = _charged(search)
        with _full_walks():
            full, full_count = _charged(search)
        assert half == full
        assert count <= full_count
        assert search(count) == half
        assert _outcome(search, count - 1) == (
            f"ball holds more than {count - 1} points", count - 1)
        counts.append((count, full_count))
    ellipsoid, ellipsoid_full = counts[-1]
    assert ellipsoid == (ellipsoid_full + 1) // 2


def test_half_walk_lists_one_of_each_pair():
    """Around 0, the half walk lists 0 and one of each +-pair of the
    ball: the one whose last nonzero coefficient on the reduced rows is
    negative."""
    for basis, _, radius_sq in _random_lattices(17, 30):
        lat = prepare(basis)
        zero = (0,) * lat.dim
        seen = []
        # the squared norms are integers, so the ball of the radius's
        # floor holds the same points
        _walk(_Target.of(lat, zero), seen.append, Budget(),
              r_sq=int(radius_sq), half=True)
        full = ball_walk(lat, zero, radius_sq)
        assert len(seen) == len(set(seen)) == (len(full) + 1) // 2
        assert sorted(seen + [tuple(-a for a in p) for p in seen
                              if any(p)]) == full
        gram = [[dot(u, v) for v in lat.rows] for u in lat.rows]
        for p in seen[:20]:
            coeffs = mat_solve(gram, [dot(u, p) for u in lat.rows])
            assert not any(p) or next(c for c in reversed(coeffs) if c) < 0


# ---------------------------------------------------------------------------
# capped searches against one ball at the cap
# ---------------------------------------------------------------------------

def _sup_to(p, target):
    return max(abs(Fraction(a) - t) for a, t in zip(p, target))


def _one_ball_cvp(lat, target, cap):
    """The capped sup-norm closest vector as one ball at the cap, listed
    by the Fraction reference walk, and an exact filter in Fractions:
    (found, dist, witness)."""
    pts = ball_walk(lat, target, cap * cap * lat.dim)
    best = min(((_sup_to(p, target), p) for p in pts
                if _sup_to(p, target) <= cap), default=None)
    return (False, None, None) if best is None else (True,) + best


@st.composite
def _capped_queries(draw):
    """Reduced embedding and kernel lattices, targets with mixed
    denominators, on half-integers (ties between lattice points) or on the
    lattice itself, and caps from 0 to 4 in halves."""
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4))
        params = choose_params(x, draw(st.integers(1, 3)),
                               draw(st.integers(-40, 40)), "gss_worst")
        basis = embedding_basis(x, params)
    else:
        x = [draw(st.integers(1, 60))] + draw(
            st.lists(st.integers(-60, 60), min_size=1, max_size=3))
        basis = kernel_basis(x)
    lat = prepare(basis)
    kind = draw(st.sampled_from(("mixed", "half", "lattice")))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=lat.rank,
                           max_size=lat.rank))
    v = [sum(c * row[i] for c, row in zip(coeffs, lat.rows))
         for i in range(lat.dim)]
    if kind == "mixed":
        target = tuple(a + Fraction(draw(st.integers(-12, 12)),
                                    draw(st.sampled_from((1, 2, 3, 5, 6))))
                       for a in v)
    elif kind == "half":
        target = tuple(a + Fraction(draw(st.sampled_from((-1, 0, 1))), 2)
                       for a in v)
    else:
        target = tuple(v)
    return lat, target, Fraction(draw(st.integers(0, 8)), 2)


@given(_capped_queries())
@settings(max_examples=120, deadline=None)
def test_capped_searches_equal_one_ball_at_the_cap(query):
    lat, target, cap = query
    got = cvp_inf(lat, target, cap=cap)
    assert (got.found, got.dist, got.witness) == _one_ball_cvp(lat, target,
                                                                cap)


def _sup_ball(lat, target, bound):
    """The points of the sup ball of radius bound around the target: the
    Fraction reference walk's listing, filtered exactly, sorted."""
    return sorted(p for p in holder_walk(lat, target, bound * bound)
                  if _sup_to(p, target) <= bound)


@given(_capped_queries())
@settings(max_examples=150, deadline=None)
def test_searches_return_the_reference_minimum(query):
    """svp_inf and cvp_inf, capped and uncapped, on full-rank and
    rank-deficient lattices, give the least sup norm or distance and the
    lexicographically least witness over the reference walk's points
    within the cap, or within a bound known to hold a point (a reduced
    row's sup norm, Babai's distance)."""
    lat, target, cap = query
    zero = (0,) * lat.dim
    u = min(linf(row) for row in lat.rows)
    d0 = _sup_to(nearest_plane(lat, target), target)
    int_cap = int(cap)

    def outcome(want):
        return (False, None, None) if want is None else (True,) + want

    for bound, res in ((min(int_cap, u), svp_inf(lat, cap=int_cap)),
                       (u, svp_inf(lat))):
        want = min_sup_to(holder_walk(lat, zero, bound * bound), zero,
                          bound * bound, nonzero=True)
        assert (res.found, res.value, res.witness) == outcome(want)
    for bound, res in ((min(cap, d0), cvp_inf(lat, target, cap=cap)),
                       (d0, cvp_inf(lat, target))):
        want = min_sup_to(holder_walk(lat, target, bound * bound), target,
                          bound * bound)
        assert (res.found, res.dist, res.witness) == outcome(want)


def _outcome(search, budget):
    try:
        return search(budget)
    except BudgetExceeded as e:
        return str(e), e.partial


@st.composite
def _sup_walks(draw):
    """_capped_queries' lattices and targets with an integer sup limit on
    the target's denominator."""
    lat, target, _ = draw(_capped_queries())
    return lat, target, draw(st.integers(0, 12))


@given(_sup_walks())
@settings(max_examples=150, deadline=None)
def test_pruned_sup_walk_equals_the_reference_walk(query):
    """A sup walk whose visitor keeps its limit visits every lattice point
    within lim / den of the center once and nothing else: the reference
    walk's points filtered to the sup ball, and those of the unpruned
    Euclidean ball around it.  It overruns a budget one point short, with
    the whole budget as its partial count, names the search when earlier
    work was charged to the budget, and adds its points to that charge."""
    lat, target, lim = query
    t = _Target.of(lat, target)
    bound = Fraction(lim, t.den)
    seen = []

    def keep(p):
        seen.append(p)
        return lim

    _, count = _charged(lambda b: _walk(t, keep, b, lim))
    assert count == len(seen) == len(set(seen))
    assert sorted(seen) == _sup_ball(lat, target, bound)
    full = ball_walk(lat, target, bound * bound * lat.dim)
    assert sorted(seen) == [v for v in full if _sup_to(v, target) <= bound]
    if count:
        def walk(limit, charged=0):
            budget = Budget(limit, charged)
            _walk(t, keep, budget, lim)
            return budget.charged

        assert _outcome(walk, count - 1) == (
            f"ball holds more than {count - 1} points", count - 1)
        assert _outcome(lambda b: walk(b, 1), count) == (
            f"search lists more than {count} points", count)
        assert walk(count + 1, 1) == count + 1


@st.composite
def _walks(draw):
    """A walk's whole input: a prepared lattice of rank 1-6 in dimension
    rank to rank + 2, a center on the denominator 1 or 2 near a lattice
    point (0 for a half walk), a sup limit or an integer squared Euclidean
    radius, whether the visitor lowers the limit, and a budget's limit and
    earlier charge."""
    rank = draw(st.integers(1, 6))
    m = rank + draw(st.integers(0, 2))
    small = st.integers(-2, 2)
    rows = []
    for i in range(rank):
        row = draw(st.lists(small, min_size=m, max_size=m))
        # a nonzero diagonal keeps most draws independent
        row[i] = draw(st.integers(1, 4)) * draw(st.sampled_from((-1, 1)))
        rows.append(tuple(row))
    assume(mat_det([[dot(a, b) for b in rows] for a in rows]) != 0)
    lat = prepare(LatticeBasis(tuple(rows), m))
    den = draw(st.integers(1, 2))
    half = draw(st.booleans())
    if half:
        scaled = (0,) * m
    else:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank,
                               max_size=rank))
        shift = draw(st.lists(st.integers(-den, den), min_size=m,
                              max_size=m))
        scaled = tuple(den * sum(c * row[j] for c, row in zip(coeffs, rows))
                       + s for j, s in enumerate(shift))
    t = _Target(lat, den, scaled, lat._frame(scaled))
    if draw(st.booleans()):
        lim, r_sq = draw(st.integers(0, 3 * den)), None
    else:
        lim, r_sq = None, draw(st.integers(0, 40))
    budget = (draw(st.integers(0, 2000)), draw(st.sampled_from((0, 0, 3))))
    return t, lim, r_sq, half, draw(st.booleans()), budget


def _logged_walk(walk, t, lim, r_sq, half, lower, budget):
    """walk's visits as (point, the limit visit returned), the budget's
    charge after it, and its BudgetExceeded text and partial count (None
    when it ends).  A lowering visitor keeps the least (sup distance,
    point) like _sup_search, folding each point to min(p, -p) in a half
    walk and skipping 0 there; the other returns the limit it was given."""
    den, scaled = t.den, t.scaled
    log, best = [], None

    def visit(p):
        nonlocal best, lim
        if lower and lim is not None:
            g = max(abs(a * den - c) for a, c in zip(p, scaled))
            if g or not half:
                q = min(p, tuple(-a for a in p)) if half else p
                if best is None or (g, q) < best:
                    best, lim = (g, q), g
        log.append((p, lim))
        return lim

    budget = Budget(*budget)
    try:
        walk(t, visit, budget, lim, r_sq=r_sq, half=half)
        raised = None
    except BudgetExceeded as e:
        raised = (str(e), e.partial)
    return log, budget.charged, raised


@given(_walks())
@settings(max_examples=100, deadline=None)
def test_walk_matches_the_walk_with_a_level_1_loop(case):
    """The one-loop walk hands the same points, in the same order, to a
    visitor that lowers the limit and to one that keeps it, on sup and
    Euclidean balls, half and full, and charges and overruns its budget
    exactly as the walk with level 1 in a loop of its own."""
    assert (_logged_walk(_walk, *case)
            == _logged_walk(walk_reference, *case))


def _top_level_empty(lat, target, bound) -> bool:
    """Whether the top level of the Euclidean ball of squared radius m
    bound^2 around the target, which holds the sup ball of radius bound,
    admits no coefficient, in Fractions: the target's squared distance to
    the row span is paid first, and the top coefficient z costs (z -
    e)^2 |b*_top|^2 with e the target's top Gram-Schmidt coordinate."""
    gso, _ = star_vectors(lat)
    coords = gs_coords(lat, target)
    room = (lat.dim * bound * bound - sum(Fraction(c) ** 2 for c in target)
            + sum(e * e * sq for e, sq in zip(coords, gso.b_star_sq)))
    e = coords[-1]
    return room < 0 or (round(e) - e) ** 2 * gso.b_star_sq[-1] > room


@given(_capped_queries())
@settings(max_examples=150, deadline=None)
def test_capped_search_rejects_an_empty_cap_ball_with_no_point(query):
    """When the top level of the walk's ball at the cap admits no
    coefficient, a capped search rejects with no point charged, and the
    sup ball at the cap is indeed empty.  On a full-rank lattice the
    shared top-level test _top_test tells the same."""
    lat, target, cap = query
    t = _Target.of(lat, target)
    lim = cap.numerator * t.den // cap.denominator
    empty = _top_level_empty(lat, target, Fraction(lim, t.den))
    res, count = _charged(lambda b: cvp_inf(lat, target, cap, b))
    if empty:
        assert (res, count) == (CvpResult(False, None, None), 0)
        assert _sup_ball(lat, target, cap) == []
    if lat.rank == lat.dim:
        assert _top_test(lat, t.den, lim)(t.frame) == empty


def _grown_instance():
    """The embedding lattice of eight values below 2^16, whose sup minimum
    3 lies well below the cap 4 of its balancing search."""
    x = (52805, 51454, 4763, 7741, 51238, 37318, 20430, 61840)
    lat = prepare(embedding_basis(x, choose_params(x, 4)))
    return lat, x


def test_capped_searches_visit_only_their_sup_ball():
    """A search walks once, at its cap or below it at a free bound (a
    reduced row's sup norm), and visits only points of that sup ball: a
    fraction of what the Euclidean ball at the cap holds."""
    lat, _ = _grown_instance()
    svp, count = _charged(lambda b: svp_inf(lat, cap=4, budget=b))
    assert svp.found and svp.value == 3
    zero = (0,) * lat.dim
    u = min(linf(row) for row in lat.rows)
    assert 1 <= count <= len(_sup_ball(lat, zero, min(4, u)))
    assert count * 5 < len(ball_walk(lat, zero, 4 * 4 * lat.dim))


def test_a_search_draws_on_its_budget():
    """The points a search visits fit a budget of that count exactly; one
    point less overruns its one walk."""
    lat, _ = _grown_instance()
    target = (Fraction(7, 2),) + (Fraction(1, 3),) * (lat.dim - 1)
    searches = (
        lambda budget: svp_inf(lat, cap=4, budget=budget),
        lambda budget: svp_inf(lat, budget=budget),
        lambda budget: cvp_inf(lat, target, cap=4, budget=budget),
        lambda budget: cvp_inf(lat, target, budget=budget),
    )
    for search in searches:
        res, count = _charged(search)
        assert res.found and count > 1
        assert search(count) == res
        assert _outcome(search, count - 1) == (
            f"ball holds more than {count - 1} points", count - 1)


def test_cvp_inf_on_the_lattice_lists_no_ball():
    lat, _ = _grown_instance()
    v = tuple(map(sum, zip(lat.rows[0], lat.rows[2])))
    for cap in (None, 0, 2):
        res, count = _charged(lambda b: cvp_inf(lat, v, cap=cap, budget=b))
        assert (res.found, res.dist, res.witness, count) == (True, 0, v, 0)


# ---------------------------------------------------------------------------
# the integer data a query sets up once
# ---------------------------------------------------------------------------

@st.composite
def _frame_vectors(draw):
    """A reduced full-rank embedding lattice or a rank-deficient kernel
    lattice, two integer vectors of its dimension and an integer factor."""
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-2**20, 2**20), min_size=1,
                          max_size=5).filter(any))
        params = choose_params(x, draw(st.integers(1, 5)),
                               draw(st.integers(-100, 100)), "gss_worst")
        lat = prepare(embedding_basis(x, params))
    else:
        x = [draw(st.integers(1, 500))] + draw(
            st.lists(st.integers(-500, 500), min_size=1, max_size=4))
        lat = prepare(kernel_basis(x))
        assert lat.rank < lat.dim
    vec = st.lists(st.integers(-10**6, 10**6), min_size=lat.dim,
                   max_size=lat.dim)
    return lat, draw(vec), draw(vec), draw(st.integers(-50, 50))


@given(_frame_vectors())
@settings(max_examples=80, deadline=None)
def test_frame_is_additive_over_integer_vectors(case):
    lat, u, v, k = case
    fu, fv = lat._frame(u), lat._frame(v)
    w = [a + k * b for a, b in zip(u, v)]
    assert lat._frame(w) == [a + k * b for a, b in zip(fu, fv)]
    # the frame is the sum of the unit vectors' frames
    units = [lat._frame([int(i == j) for j in range(lat.dim)])
             for i in range(lat.dim)]
    assert fu == [sum(c * f[j] for c, f in zip(u, units))
                  for j in range(lat.rank)]


@given(_frame_vectors())
@settings(max_examples=40, deadline=None)
def test_stars_are_the_scaled_gram_schmidt_vectors(case):
    """B_i = gram_det[i] b*_i, and the frame of v is gram_det[i] <v, b*_i>,
    both against the rational Gram-Schmidt vectors."""
    lat, v, _, _ = case
    _, stars = star_vectors(lat)
    assert lat._stars == tuple(
        tuple(d * c for c in b) for d, b in zip(lat.gram_det, stars))
    assert lat._frame(v) == [d * sum(a * c for a, c in zip(v, b))
                             for d, b in zip(lat.gram_det, stars)]


def test_queries_on_mixed_denominators_match_a_fresh_lattice():
    """Each walk scales by its own center's denominator: on one prepared
    lattice, searches around centers on the denominators 6, 2 and 1
    (svp_inf), interleaved, answer and charge exactly what each does on a
    freshly prepared copy of the lattice."""
    lat, _ = _grown_instance()
    m = lat.dim
    six = (Fraction(7, 2),) + (Fraction(1, 3),) * (m - 1)
    two = ((Fraction(-3, 2),) + (Fraction(1, 2), Fraction(4)) * m)[:m]
    queries = (
        lambda lat, b: cvp_inf(lat, six, budget=b),
        lambda lat, b: cvp_inf(lat, two, budget=b),
        lambda lat, b: svp_inf(lat, budget=b),
        lambda lat, b: cvp_inf(lat, six, cap=Fraction(5, 7), budget=b),
        lambda lat, b: svp_inf(lat, cap=3, budget=b),
        lambda lat, b: cvp_inf(lat, two, cap=Fraction(3, 2), budget=b),
        lambda lat, b: cvp_inf(lat, six, budget=b),
    )
    counts = []
    for query in queries:
        fresh, _ = _grown_instance()
        res, count = _charged(lambda b: query(lat, b))
        assert (res, count) == _charged(lambda b: query(fresh, b))
        counts.append(count)
    assert min(counts[:3]) > 1


def _fraction_builds(fn):
    """(fn(), the number of Fractions built while it ran)."""
    builds = []
    code = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            builds.append(1)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
    return out, len(builds)


def test_capped_search_builds_a_fraction_only_for_its_answer():
    """The sign-pattern targets of a punctured gss instance at d = 5,
    capped at the decision radius 2: a search that finds nothing builds
    no Fraction, from its target's check through Babai rounding and the
    walk, and visits no point."""
    x, tau, d = (35, 734441, 23, 15, 28, 5), -96, 5
    params = choose_params(x, d, tau, "gss_worst")
    lat = prepare(embedding_basis(x, params))
    cap = Fraction(d - 1, 2)
    empty = _top_test(lat, 1, (d - 1) // 2)
    walked = 0
    for signs in product((-1, 1), repeat=len(x)):
        target, _ = sign_pattern_target(tau, params.alpha, d, signs)
        budget = Budget()
        res, builds = _fraction_builds(
            lambda: cvp_inf(lat, target, cap, budget))
        assert (res.found, res.dist, res.witness) == _one_ball_cvp(
            lat, target, cap)
        if not res.found:
            assert builds == 0 and budget.charged == 0
            # past the top-level test, so walked
            walked += not empty(_Target.of(lat, target).frame)
    assert walked > 0
