"""Core domain types: instances, coefficient sets, verdicts, serialization.

Everything in this package is exact.  Integers are Python ints of unbounded
size, every non-integer quantity is a `fractions.Fraction`, and no
correctness decision is made in floating point.  Timing measurements are the
only floats anywhere, and they never feed back into a result.

The shared exact helpers (vector arithmetic, the exact positive
definiteness test, integer roots) live here because every other module
needs them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

__all__ = [
    "ParseError",
    "Budget",
    "BudgetExceeded",
    "InternalError",
    "dot",
    "l2_sq",
    "linf",
    "gcd_vector",
    "is_positive_definite",
    "iroot",
    "ceil_root",
    "floor_sqrt_frac",
    "ceil_sqrt_frac",
    "Interval",
    "Punctured",
    "Box",
    "Ellipsoid",
    "CoefficientSet",
    "coefficient_alphabet",
    "alphabet_size",
    "Instance",
    "Verdict",
    "SOLVED",
    "NO_SOLUTION",
    "GUARD_ABORT",
    "verify_solution",
    "parse_instance",
    "serialize_instance",
    "parse_verdict",
    "serialize_verdict",
]


class ParseError(ValueError):
    """Raised when an instance or verdict document is malformed."""


DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(slots=True)
class Budget:
    """The work cap of a solve and the lattice points charged to it.

    limit caps the points that the walks handed this Budget visit together,
    and the candidates a baseline solver may touch; charged counts the
    points visited so far.  Baselines check the limit but charge nothing.
    """

    limit: int = DEFAULT_POINT_BUDGET
    charged: int = 0


def _as_budget(budget) -> Budget:
    """The Budget a search draws on: None is a fresh one at the default
    limit, an int a fresh one at that limit, a Budget itself.  Anything
    else, a bool or a float included, is a TypeError."""
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    if isinstance(budget, int) and not isinstance(budget, bool):
        return Budget(budget)
    raise TypeError(
        f"budget must be None, an int or a Budget, got {type(budget).__name__}"
    )


class BudgetExceeded(RuntimeError):
    """A solver or enumerator refused to exceed its work budget.

    ``partial`` is the amount of work finished before aborting, so callers
    can report progress.  Nothing is ever truncated silently: hitting the
    budget always raises.
    """

    def __init__(self, message: str, partial: int = 0):
        super().__init__(message)
        self.partial = partial


class InternalError(RuntimeError):
    """A solver's own check on its answer failed: a defect in sbl, never
    bad input, so it is deliberately not a ValueError."""


# ---------------------------------------------------------------------------
# exact vector helpers
# ---------------------------------------------------------------------------

def dot(u: Sequence, v: Sequence):
    """Inner product of two equal-length sequences, exact."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum(map(mul, u, v))


def l2_sq(v: Sequence):
    """Squared Euclidean norm."""
    return sum(a * a for a in v)


def linf(v: Sequence):
    """Sup norm; 0 for the empty vector."""
    return max((abs(a) for a in v), default=0)


def gcd_vector(x: Sequence[int]) -> int:
    """gcd of the absolute values of the entries of a nonzero vector."""
    if not x or all(a == 0 for a in x):
        raise ValueError("zero vector")
    return math.gcd(*(abs(int(a)) for a in x))


# ---------------------------------------------------------------------------
# the exact LDL factorisation of a symmetric rational matrix
#
# It runs at desk scale (a dozen rows, say), where plain fraction
# elimination is fine and trivially exact.
# ---------------------------------------------------------------------------

def _frac_rows(rows) -> list:
    return [[Fraction(a) for a in row] for row in rows]


def _ldl(a: list) -> Optional[list]:
    """Factor a symmetric rational matrix as L diag(piv) L^T in place.

    Returns the pivots, with the multipliers of the unit lower triangular
    L left below the diagonal of a, or None at the first pivot that is not
    positive (the matrix is then not positive definite).
    """
    n = len(a)
    piv = []
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return None
        piv.append(p)
        inv = 1 / p
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            f = a[r][k] * inv
            for c in range(k + 1, n):
                a[r][c] -= f * a[k][c]
            a[r][k] = f
    return piv


def is_positive_definite(rows) -> bool:
    """Sylvester test for a symmetric rational matrix, via exact LDL pivots."""
    a = _frac_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    return _ldl(a) is not None


# ---------------------------------------------------------------------------
# exact integer roots
# ---------------------------------------------------------------------------

def iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0, n >= 1, by pure integer Newton steps."""
    if n < 1:
        raise ValueError("root order must be positive")
    if m < 0:
        raise ValueError("negative radicand")
    if m < 2 or n == 1:
        return m
    x = 1 << ((m.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > m:
        x -= 1
    while (x + 1) ** n <= m:
        x += 1
    return x


def ceil_root(m: int, n: int) -> int:
    """Smallest integer k with k**n >= m."""
    r = iroot(m, n)
    return r if r ** n == m else r + 1


def floor_sqrt_frac(q: Fraction) -> int:
    """floor(sqrt(q)) for a nonnegative rational q.

    Uses sqrt(p/s) = sqrt(p*s)/s, so a single integer square root suffices.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def ceil_sqrt_frac(q: Fraction) -> int:
    """Smallest integer k >= 0 with k*k >= q."""
    q = Fraction(q)
    f = floor_sqrt_frac(q)
    return f if Fraction(f * f) >= q else f + 1


# ---------------------------------------------------------------------------
# coefficient sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """All integers in [lo, hi], applied per coordinate."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval requires lo <= hi")

    def contains(self, c: Sequence[int]) -> bool:
        return all(self.lo <= v <= self.hi for v in c)


@dataclass(frozen=True)
class Punctured:
    """Integers c with 1 <= |c| <= d, applied per coordinate."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("puncture radius must be positive")

    def contains(self, c: Sequence[int]) -> bool:
        return all(1 <= abs(v) <= self.d for v in c)


@dataclass(frozen=True)
class Box:
    """Integer vectors with sup norm at most d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("box radius must be positive")

    def contains(self, c: Sequence[int]) -> bool:
        return linf(c) <= self.d


@dataclass(frozen=True)
class Ellipsoid:
    """Integer vectors c with c A c^T <= 1, A positive definite rational."""

    a: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.a)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("ellipsoid form must be a nonempty square matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("ellipsoid form must be symmetric")
        if not is_positive_definite(rows):
            raise ValueError("ellipsoid form must be positive definite")
        object.__setattr__(self, "a", rows)

    @property
    def dim(self) -> int:
        return len(self.a)

    def quad_form(self, v: Sequence) -> Fraction:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        total = Fraction(0)
        for i, row in enumerate(self.a):
            total += v[i] * dot(row, v)
        return total

    def contains(self, c: Sequence[int]) -> bool:
        return self.quad_form(c) <= 1

    def axis_extents_sq(self) -> tuple:
        """Squared coordinate extents of the body: the diagonal of A^-1.

        With A = L diag(piv) L^T, (A^-1)_ii = sum_k (L^-1)_ki^2 / piv_k,
        and column i of L^-1 is one forward substitution, so a single
        factorization gives the whole diagonal.
        """
        a = _frac_rows(self.a)
        piv = _ldl(a)
        n = self.dim
        out = []
        for i in range(n):
            col = [Fraction(0)] * n  # column i of L^-1
            col[i] = Fraction(1)
            for k in range(i + 1, n):
                col[k] = -sum(a[k][j] * col[j] for j in range(i, k))
            out.append(sum(col[k] * col[k] / piv[k] for k in range(i, n)))
        return tuple(out)

    def bounding_box_radius(self) -> int:
        """Minimal integer d with the body inside [-d, d]^n."""
        return max(ceil_sqrt_frac(e) for e in self.axis_extents_sq())


CoefficientSet = Union[Interval, Punctured, Box, Ellipsoid]


def coefficient_alphabet(cs: CoefficientSet) -> Optional[tuple]:
    """Per-coordinate candidate values in ascending order, or None if the
    set constrains coordinates jointly (ellipsoid)."""
    if isinstance(cs, Interval):
        return tuple(range(cs.lo, cs.hi + 1))
    if isinstance(cs, Punctured):
        return tuple(range(-cs.d, 0)) + tuple(range(1, cs.d + 1))
    if isinstance(cs, Box):
        return tuple(range(-cs.d, cs.d + 1))
    if isinstance(cs, Ellipsoid):
        return None
    raise TypeError(f"unknown coefficient set {cs!r}")


def alphabet_size(cs: CoefficientSet) -> Optional[int]:
    """len(coefficient_alphabet(cs)) without listing the alphabet, or None
    for an ellipsoid."""
    if isinstance(cs, Interval):
        return cs.hi - cs.lo + 1
    if isinstance(cs, Punctured):
        return 2 * cs.d
    if isinstance(cs, Box):
        return 2 * cs.d + 1
    if isinstance(cs, Ellipsoid):
        return None
    raise TypeError(f"unknown coefficient set {cs!r}")


# ---------------------------------------------------------------------------
# instances and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A solve instance: weights x, a coefficient set, a target, and an
    optional magnitude bound used by the average-case routine."""

    x: tuple
    coeffs: CoefficientSet
    tau: int = 0
    m_bound: Optional[int] = None

    def __post_init__(self):
        xs = tuple(int(v) for v in self.x)
        if not xs:
            raise ValueError("empty x")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "tau", int(self.tau))
        if isinstance(self.coeffs, Ellipsoid) and self.coeffs.dim != len(xs):
            raise ValueError("ellipsoid dimension does not match x")
        if self.m_bound is not None:
            mb = int(self.m_bound)
            if mb < 1:
                raise ValueError("m_bound must be positive")
            object.__setattr__(self, "m_bound", mb)

    @property
    def n(self) -> int:
        return len(self.x)


SOLVED = "solved"
NO_SOLUTION = "no_solution"
GUARD_ABORT = "guard_abort"

_STATUSES = (SOLVED, NO_SOLUTION, GUARD_ABORT)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solve: a status, a witness iff solved, and a reason."""

    status: str
    witness: Optional[tuple] = None
    reason: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == SOLVED) != (self.witness is not None):
            raise ValueError("witness must be present exactly when solved")
        if self.witness is not None:
            object.__setattr__(self, "witness", tuple(int(v) for v in self.witness))

    @classmethod
    def solved(cls, c: Sequence[int], reason: str = "") -> "Verdict":
        return cls(SOLVED, tuple(c), reason)

    @classmethod
    def no_solution(cls, reason: str = "") -> "Verdict":
        return cls(NO_SOLUTION, None, reason)

    @classmethod
    def guard_abort(cls, reason: str = "") -> "Verdict":
        return cls(GUARD_ABORT, None, reason)


def verify_solution(inst: Instance, c: Sequence[int], mode: str = "balancing") -> bool:
    """Exact check that c solves the instance under the given mode.

    balancing: c.x == 0 and c != 0.  gss: c.x == tau, the zero vector is
    admitted when it lies in the coefficient set and tau == 0.  Membership
    in the coefficient set is always required.  Every entry must be an int
    (not a bool): a float or any other value raises ValueError rather than
    being truncated into a witness the caller never gave.
    """
    if mode not in ("balancing", "gss"):
        raise ValueError(f"unknown mode {mode!r}")
    c = tuple(c)
    if any(isinstance(v, bool) or not isinstance(v, int) for v in c):
        raise ValueError("witness entries must be integers")
    if len(c) != inst.n:
        raise ValueError("witness length does not match x")
    target = 0 if mode == "balancing" else inst.tau
    if dot(c, inst.x) != target:
        return False
    if mode == "balancing" and all(v == 0 for v in c):
        return False
    return inst.coeffs.contains(c)


# ---------------------------------------------------------------------------
# JSON codecs
#
# Large integers travel as decimal strings so documents survive parsers that
# silently lose precision on big numbers.  Rational matrix entries are "p/q"
# strings.  Serialization is canonical: sorted keys, no whitespace.
# ---------------------------------------------------------------------------

def _parse_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{field}: expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"{field}: not a decimal integer: {value!r}") from None
    raise ParseError(f"{field}: expected an integer, got {type(value).__name__}")


# "p" or "p/q" in decimal digits, q nonzero
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _parse_rational(value, field: str) -> Fraction:
    """A JSON integer (not a bool) or a "p" or "p/q" string, exactly."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return Fraction(value)
    raise ParseError(f"{field}: not a rational: {value!r}")


def _parse_coeffs(doc, n: int) -> CoefficientSet:
    if not isinstance(doc, dict):
        raise ParseError("coeffs: expected an object")
    kind = doc.get("kind")
    try:
        if kind == "interval":
            lo = _parse_int(doc["lo"], "coeffs.lo")
            hi = _parse_int(doc["hi"], "coeffs.hi")
            return Interval(lo, hi)
        if kind == "punctured":
            return Punctured(_parse_int(doc["d"], "coeffs.d"))
        if kind == "box":
            return Box(_parse_int(doc["d"], "coeffs.d"))
        if kind == "ellipsoid":
            raw = doc["a"]
            if not isinstance(raw, list) or not raw:
                raise ParseError("coeffs.a: expected a nonempty matrix")
            rows = []
            for i, row in enumerate(raw):
                if not isinstance(row, list):
                    raise ParseError(f"coeffs.a[{i}]: expected a row")
                rows.append(tuple(_parse_rational(entry, f"coeffs.a[{i}][{j}]")
                                  for j, entry in enumerate(row)))
            if len(rows) != n:
                raise ParseError("coeffs.a: dimension does not match x")
            return Ellipsoid(tuple(rows))
    except KeyError as e:
        raise ParseError(f"coeffs: missing field {e.args[0]!r}") from None
    except ValueError as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"coeffs: {e}") from None
    raise ParseError(f"coeffs.kind: unknown kind {kind!r}")


def _parse_json(text):
    """The JSON document in text; ParseError when text is not JSON or
    nests too deeply for the decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def parse_instance(text) -> Instance:
    """Parse an instance document; errors name the offending field."""
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level: expected an object")
    raw_x = doc.get("x")
    if not isinstance(raw_x, list):
        raise ParseError("x: expected a list")
    if not raw_x:
        raise ParseError("x: empty")
    x = tuple(_parse_int(v, f"x[{i}]") for i, v in enumerate(raw_x))
    if "coeffs" not in doc:
        raise ParseError("coeffs: missing")
    coeffs = _parse_coeffs(doc["coeffs"], len(x))
    tau = _parse_int(doc.get("tau", 0), "tau")
    m_bound = None
    if doc.get("m_bound") is not None:
        m_bound = _parse_int(doc["m_bound"], "m_bound")
        if m_bound < 1:
            raise ParseError("m_bound: must be positive")
    try:
        return Instance(x, coeffs, tau, m_bound)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _coeffs_doc(cs: CoefficientSet) -> dict:
    if isinstance(cs, Interval):
        return {"kind": "interval", "lo": cs.lo, "hi": cs.hi}
    if isinstance(cs, Punctured):
        return {"kind": "punctured", "d": cs.d}
    if isinstance(cs, Box):
        return {"kind": "box", "d": cs.d}
    if isinstance(cs, Ellipsoid):
        return {
            "kind": "ellipsoid",
            "a": [[str(v) for v in row] for row in cs.a],
        }
    raise TypeError(f"unknown coefficient set {cs!r}")


def serialize_instance(inst: Instance) -> str:
    doc = {
        "x": [str(v) for v in inst.x],
        "coeffs": _coeffs_doc(inst.coeffs),
        "tau": str(inst.tau),
    }
    if inst.m_bound is not None:
        doc["m_bound"] = str(inst.m_bound)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def serialize_verdict(v: Verdict) -> str:
    doc = {"status": v.status, "reason": v.reason}
    if v.witness is not None:
        doc["c"] = [str(a) for a in v.witness]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def parse_verdict(text) -> Verdict:
    return _verdict_from_doc(_parse_json(text))


def _verdict_from_doc(doc) -> Verdict:
    """The verdict a decoded JSON document holds; ParseError names the
    offending field."""
    if not isinstance(doc, dict):
        raise ParseError("top-level: expected an object")
    status = doc.get("status")
    if status not in _STATUSES:
        raise ParseError(f"status: unknown status {status!r}")
    witness = None
    if "c" in doc and doc["c"] is not None:
        raw = doc["c"]
        if not isinstance(raw, list):
            raise ParseError("c: expected a list")
        witness = tuple(_parse_int(v, f"c[{i}]") for i, v in enumerate(raw))
    reason = doc.get("reason", "")
    if not isinstance(reason, str):
        raise ParseError("reason: expected a string")
    try:
        return Verdict(status, witness, reason)
    except ValueError as e:
        raise ParseError(str(e)) from None
