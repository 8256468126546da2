"""Arithmetic/analytic decomposition of the totient error term.

With E2(x) the symmetric-convention error term, the identity under test is

    E2(x) = x f1(x) + (1/2) g1(x)        for x >= 1,

where f1(x) = sum_n (alpha(n)/n) s(x/n) with s the midpoint sawtooth
(0 at integers, 1/2 - {x} otherwise) and
g1(x) = sum_n alpha(n) {x/n}({x/n} - 1).

f1 has the closed form  f1(x) = A1/2 - 2 C x + S_f(x)  where
S_f(x) = sum_{n<=x} (alpha(n)/n) floor(x/n) taken as a right limit; since
floor(x/n) depends only on floor(x), S_f(x) equals the cumulative sum of
phi(j)/j up to floor(x), with a half-jump correction -phi(N)/(2N) exactly at
integers.  The remainder R = E2 - x f1 satisfies R' = -f1 between integers
and R(x) = g1(x)/2 for x >= 1, giving three independent routes to R.

Every formula has one body, built from three private pieces:

  * _Numbers, the number type of a call, chosen once by _numbers: exact
    rationals when the table is exact and x is an int or Fraction, floats
    otherwise.  It lifts C, A1, A2 (and any other operand) into that type.
  * _PrefixSums, the prefix sums A0(k) = sum_{n<=k} alpha(n),
    P1(k) = sum_{n<=k} alpha(n)/n and P2(k) = sum_{n<=k} alpha(n)/n^2, kept
    on the table and grown to the largest k asked.  On exact tables they are
    Python-int numerators over one common denominator per sum; on float
    tables, numpy cumulative sums.  Terms n > x of both series collapse onto
    A1 - P1 and A2 - P2, which is how f1_series and g1 sum their infinite
    tails.
  * _point_sums, which gives S_g(x) = sum_{n<=x} alpha(n) {x/n}({x/n} - 1)
    (for g1, the decompose verdict and verify_identity_batch).  In exact
    mode it expands S_g into P2(k), P1(k) and sums of P1 and A0 at k//j,
    and sums those over the O(sqrt k) blocks of constant k//j in integers.
    In float mode it sums S_g term by term over {x/n} from _frac, the one
    fractional-part routine, which also feeds the bare sawtooth sum of
    f1_series_raw.

Only the primitives branch on exact/float, since that is where Python
integer loops and numpy arrays really differ.  The routes that check each
other stay separate code: f1_closed reads S_f from the phi table while
f1_series sums the sawtooth and the P1/P2 tail; r_function's definition,
integral and closed routes share no formula; and the exact verdict compares
the phi sieve's cumulative sum against a right-hand side built from S_g, P1,
P2 and S_f, never from the residual and with no terms cancelled.  (The block
sum of P1 at k//j equals S_f(k) algebraically; the verdict keeps both.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .coeffs import TotientTable, _float_prefix, error_term
from .errors import (
    MBeyondTable,
    ModeUnavailable,
    MSmallerThanX,
    NonPositiveX,
    UsageError,
    XBelowN,
    XBelowOne,
    XBeyondTable,
)
from .products import Constants, ValueWithBound, _plain

Scalar = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Number type of a call
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Numbers:
    """Exact rationals or floats, with the constants 1/2 and 2 in that type."""

    exact: bool
    half: Scalar
    two: Scalar

    def lift(self, v):
        """v in this type: a Fraction, or a plain Python float/complex.

        float -> Fraction is lossless, so exact identities hold as equalities
        in Q for any consistent constants (the truncation perturbations
        cancel algebraically) rather than within rounding.
        """
        if not self.exact:
            return _plain(v)
        if isinstance(v, complex):
            raise ModeUnavailable("complex constants have no exact-rational mode")
        return Fraction(v)

    def constants(self, constants: Constants) -> tuple:
        """(C, A1, A2) lifted into this type."""
        return tuple(self.lift(v.value)
                     for v in (constants.c, constants.a1, constants.a2))


_EXACT = _Numbers(exact=True, half=Fraction(1, 2), two=Fraction(2))
_FLOAT = _Numbers(exact=False, half=0.5, two=2.0)


def _numbers(x, exact_table: bool = True) -> _Numbers:
    """Exact when x is an int or Fraction and the table is exact."""
    return _EXACT if exact_table and isinstance(x, (int, Fraction)) else _FLOAT


# ---------------------------------------------------------------------------
# Kernel primitives: prefix sums of alpha, fractional parts
# ---------------------------------------------------------------------------

class _IntPrefix:
    """sum_{n<=k} alpha(n)/n^power for k = 0..len(num)-1, as Python-int
    numerators num[k] over one common denominator den.

    den is the lcm of the denominators of the terms summed so far (1 for
    integer alpha and power 0), so an extension that brings in a new
    denominator rescales every numerator once.
    """

    def __init__(self, power: int):
        self.power = power
        self.den = 1
        self.num = [0]

    def extend(self, alpha, lo: int, hi: int) -> None:
        """Append the sums for k = lo..hi (lo = len(num))."""
        terms = []   # alpha(n)/n^power in lowest terms, as (p, q)
        for n in range(lo, hi + 1):
            a, m = alpha[n], n ** self.power
            g = math.gcd(a.numerator, m)
            terms.append((a.numerator // g, a.denominator * (m // g)))
        den = math.lcm(self.den, *(q for p, q in terms if p))
        if den != self.den:
            scale = den // self.den
            self.num = [v * scale for v in self.num]
            self.den = den
        acc = self.num[-1]
        for p, q in terms:
            if p:
                acc += p * (den // q)
            self.num.append(acc)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den)


class _PrefixSums:
    """Prefix sums of alpha: A0[k] = sum_{n<=k} alpha(n),
    P1[k] = sum_{n<=k} alpha(n)/n and P2[k] = sum_{n<=k} alpha(n)/n^2.

    Exact tables keep all three as integer numerators (_IntPrefix); float
    tables keep P1 and P2 as numpy cumulative sums (float S_g is summed term
    by term and needs no A0).  A query past the current end grows the sums
    to min(N, max(k, 2 * top)), so exact numerators are rescaled O(log N)
    times, and each extension continues the same sequential sum, so values
    do not depend on the order of the queries.
    """

    def __init__(self, table: TotientTable):
        self.alpha = table.coeffs.alpha
        self.N = table.N
        self.exact = table.exact
        self.top = 0
        if self.exact:
            self.a0, self.p1, self.p2 = (_IntPrefix(e) for e in (0, 1, 2))
        else:
            dtype = np.result_type(self.alpha, np.float64)
            self.p1 = np.zeros(table.N + 1, dtype=dtype)
            self.p2 = np.zeros(table.N + 1, dtype=dtype)

    def at(self, k: int) -> tuple:
        """(P1[k], P2[k]), extending the sums to k first when needed."""
        self._grow(k)
        return self.p1[k], self.p2[k]

    def floor_blocks(self, k: int) -> tuple:
        """(sum_{j<=k} P1[k//j], sum_{j<=k} 2j A0[k//j]) on an exact table.

        k//j takes O(sqrt k) distinct values v, each on a block of
        consecutive j, so both sums run over blocks in integers and become
        one Fraction each at the end.
        """
        self._grow(k)
        a0, p1 = self.a0.num, self.p1.num
        t0 = t1 = 0
        j = 1
        while j <= k:
            v = k // j
            last = k // v
            t1 += (last - j + 1) * p1[v]
            t0 += (last * (last + 1) - j * (j - 1)) * a0[v]
            j = last + 1
        return Fraction(t1, self.p1.den), Fraction(t0, self.a0.den)

    def _grow(self, k: int) -> None:
        if k <= self.top:
            return
        lo, hi = self.top + 1, min(self.N, max(k, 2 * self.top))
        if self.exact:
            for s in (self.a0, self.p1, self.p2):
                s.extend(self.alpha, lo, hi)
        else:
            n = np.arange(lo, hi + 1, dtype=np.float64)
            a = self.alpha[lo : hi + 1]
            for p, terms in ((self.p1, a / n), (self.p2, a / (n * n))):
                # seeding with P[lo-1] keeps one sequential order of summation
                p[lo : hi + 1] = np.cumsum(
                    np.concatenate((p[lo - 1 : lo], terms)))[1:]
        self.top = hi


def _prefix_sums(table: TotientTable) -> _PrefixSums:
    """The table's prefix sums of alpha, made on first use."""
    if table._prefix_sums is None:
        table._prefix_sums = _PrefixSums(table)
    return table._prefix_sums


def _frac(x, n, num: _Numbers) -> np.ndarray:
    """{x/n} for a sequence of positive integers n, in num's type.

    Float x/n can round to just below an integer when n divides x; the
    quotient counts as integral iff round(x/n) * n reproduces x.
    """
    if num.exact:
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        return np.array([Fraction(p % (q * m), q * m) for m in n], dtype=object)
    x = float(x)
    n = np.asarray(n, dtype=np.float64)
    quot = x / n
    return np.where(np.round(quot) * n == x, 0.0, quot - np.floor(quot))


def _fractional_parts(x, table: TotientTable, k: int, num: _Numbers) -> tuple:
    """(alpha(n), n, {x/n}) over the n <= k with alpha(n) != 0."""
    alpha = table.coeffs.alpha
    if num.exact:
        ns = [n for n in range(1, k + 1) if alpha[n]]
        a = np.array([alpha[n] for n in ns], dtype=object)
        n = np.array(ns, dtype=object)
    else:
        a = table.coeffs.alpha_array(k) if table.exact else np.asarray(alpha)[: k + 1]
        n = np.flatnonzero(a[1:]) + 1
        a = a[n]
        n = n.astype(np.float64)
    return a, n, _frac(x, n, num)


def _sawtooth(r: np.ndarray, num: _Numbers) -> np.ndarray:
    """s from fractional parts r: 0 where r = 0, 1/2 - r elsewhere."""
    return np.where(r == 0, num.lift(0), num.half - r)


def _point_sums(x, table: TotientTable, k: int, num: _Numbers) -> tuple:
    """(S_g(x), P1(k), P2(k)) in num's type, k = floor(x).

    With q = floor(x/n) = floor(k/n), {x/n}({x/n} - 1) expands to
    x^2/n^2 - x (2q + 1)/n + q (q + 1), and summing q/n and q (q + 1) over
    n <= k by the j <= q that they count gives, exactly,

        S_g = x^2 P2(k) - x P1(k) - 2x sum_j P1[k//j] + sum_j 2j A0[k//j],

    which exact mode sums by floor blocks.  Float mode sums S_g term by term
    instead, since the expanded form cancels x^2-sized terms in floats.
    """
    sums = _prefix_sums(table)
    p1, p2 = sums.at(k)
    if num.exact:
        x = Fraction(x)
        b1, b0 = sums.floor_blocks(k)
        s_g = x * x * p2 - x * (p1 + 2 * b1) + b0
    else:
        a, _, r = _fractional_parts(x, table, k, num)
        s_g = np.sum(a * r * (r - 1))
    return num.lift(s_g), num.lift(p1), num.lift(p2)


# ---------------------------------------------------------------------------
# Sawtooth
# ---------------------------------------------------------------------------

def sawtooth(x: Scalar) -> Scalar:
    """s(x): 0 at integers, 1/2 - {x} otherwise (midpoint convention)."""
    num = _numbers(x)
    return num.lift(_sawtooth(_frac(x, [1], num), num)[0])


# ---------------------------------------------------------------------------
# f1
# ---------------------------------------------------------------------------

def _check_range(x, table: TotientTable, lowest) -> int:
    if x < lowest:
        raise XBelowOne(f"need x >= {lowest}, got {x}")
    k = math.floor(x)
    if k > table.N:
        raise XBeyondTable(f"x = {x} beyond table N = {table.N}")
    return k


def f1_closed(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """f1 via the closed form A1/2 - 2Cx + S_f(x), half-jump at integers.

    x = 0 is the one point where the closed form and the series differ as
    limits; the series value, exactly 0, is returned there.
    """
    k = _check_range(x, table, 0)
    num = _numbers(x, table.exact)
    if x == 0:
        return num.lift(0)
    c, a1, _ = num.constants(constants)
    s_f = table.ratio_cumsum[k]
    if x == k:
        s_f = s_f - num.half * table.phi[k] / k
    return a1 / 2 - 2 * c * x + s_f


@dataclass(frozen=True)
class F1OneSided:
    """One-sided limits of f1 at an integer; f1 there is their midpoint."""

    left: Scalar
    right: Scalar
    half: Scalar
    f1_value: Scalar
    jump: Scalar


def f1_one_sided(N: int, table: TotientTable, constants: Constants) -> F1OneSided:
    """Left/right limits of f1 at integer N; f1(N) is their midpoint.

    The jump equals phi(N)/N, the n | N portion of the coefficient series.
    """
    if not isinstance(N, int) or N < 1:
        raise UsageError(f"need an integer N >= 1, got {N}")
    if N > table.N:
        raise XBeyondTable(f"N = {N} beyond table N = {table.N}")
    num = _numbers(N, table.exact)
    c, a1, _ = num.constants(constants)
    base = a1 / 2 - 2 * c * N
    left = base + table.ratio_cumsum[N - 1]
    right = base + table.ratio_cumsum[N]
    half = (left + right) / num.two
    return F1OneSided(left=left, right=right, half=half, f1_value=half,
                      jump=table.phi[N] / N)


def f1_series_raw(x: Scalar, table: TotientTable, M: int) -> Scalar:
    """The bare truncation sum_{n<=M} (alpha(n)/n) s(x/n), no tail correction."""
    if M > table.N:
        raise MBeyondTable(f"M = {M} beyond table N = {table.N}")
    if M < 1:
        raise UsageError(f"need M >= 1, got {M}")
    if x < 0:
        raise XBelowOne(f"need x >= 0, got {x}")
    num = _numbers(x, table.exact)
    a, n, r = _fractional_parts(x, table, M, num)
    return num.lift(np.sum(a / n * _sawtooth(r, num)))


def f1_series(x: Scalar, table: TotientTable, constants: Constants,
              M: int) -> Scalar:
    """f1 via truncation at M plus the exact tail in closed form.

    For n > M >= x the sawtooth argument is in (0,1), so the tail collapses
    to (A1 - P1(M))/2 - x (A2 - P2(M)) with P1, P2 the partial sums of
    alpha(n)/n and alpha(n)/n^2.  Given the same constants this is
    algebraically identical to f1_closed; differences are pure rounding.
    """
    if M > table.N:
        raise MBeyondTable(f"M = {M} beyond table N = {table.N}")
    if x > M:
        raise MSmallerThanX(f"tail formula needs M >= x, got M = {M} < x = {x}")
    if x < 0:
        raise XBelowOne(f"need x >= 0, got {x}")
    num = _numbers(x, table.exact)
    if x == 0:
        return num.lift(0)
    head = f1_series_raw(x, table, M)
    _, a1, a2 = num.constants(constants)
    p1, p2 = (num.lift(p) for p in _prefix_sums(table).at(M))
    return num.lift(head + (a1 - p1) / 2 - num.lift(x) * (a2 - p2))


def f1_values(xs: np.ndarray, table: TotientTable,
              constants: Constants) -> np.ndarray:
    """Vectorized f1_closed over a float grid (0 maps to 0 exactly)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    if xs.min() < 0:
        raise XBelowOne(f"need x >= 0, got {xs.min()}")
    if xs.max() > table.N:
        raise XBeyondTable(f"{xs.max()} beyond table N = {table.N}")
    c, a1, _ = _FLOAT.constants(constants)
    rc = _float_prefix(table.ratio_cumsum, table.N, None, table.exact)
    phi = table.phi_array()
    k = np.floor(xs).astype(np.int64)
    out = a1 / 2 - 2 * c * xs + rc[k]
    at_int = (xs == k) & (k >= 1)
    if np.any(at_int):
        kk = np.maximum(k, 1)
        out = out - np.where(at_int, phi[kk] / (2.0 * kk), 0.0)
    out = np.where(xs == 0, 0.0, out)
    return out


# ---------------------------------------------------------------------------
# g1
# ---------------------------------------------------------------------------

def _g1_value(x, sums: tuple, num: _Numbers, constants: Constants) -> Scalar:
    s_g, p1, p2 = sums
    _, a1, a2 = num.constants(constants)
    x = num.lift(x)
    return num.lift(s_g + x * x * (a2 - p2) - x * (a1 - p1))


def g1(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """g1(x) = sum_n alpha(n) {x/n}({x/n}-1), summed in closed tail form.

    Terms with n > x have {x/n} = x/n, so the tail is
    x^2 (A2 - P2(x)) - x (A1 - P1(x)).
    """
    k = _check_range(x, table, 0)
    num = _numbers(x, table.exact)
    return _g1_value(x, _point_sums(x, table, k, num), num, constants)


# ---------------------------------------------------------------------------
# Fractional-part integral
# ---------------------------------------------------------------------------

def frac_integral(n: int, x: Scalar) -> Scalar:
    """int_n^x {t/n} dt = (n/2)({x/n}^2 + floor(x/n) - 1), for x >= n."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"need an integer n >= 1, got {n}")
    if x < n:
        raise XBelowN(f"integral starts at n = {n}, got x = {x}")
    num = _numbers(x)
    x = num.lift(x)
    r = _frac(x, [n], num)[0]
    fl = x / n - r
    return num.lift(num.half * n * (r * r + fl - 1))


# ---------------------------------------------------------------------------
# R = E2 - x f1, three routes
# ---------------------------------------------------------------------------

def _integral_of_f1(x, k: int, table: TotientTable, constants: Constants):
    # int_0^x f1 = A1 x / 2 - C x^2 + sum_k S_f(k+0) len(piece k), pieces
    # (k, k+1) where S_f is constant; exact for the piecewise-linear f1.
    num = _numbers(x, table.exact)
    c, a1, _ = num.constants(constants)
    x = num.lift(x)
    rc = table.ratio_cumsum
    full = num.lift(np.sum(rc[1:k]) if k >= 2 else 0)
    partial = num.lift(rc[k]) * (x - k) if k >= 1 else 0
    return a1 * x / 2 - c * x * x + full + partial


def r_function(x: Scalar, table: TotientTable, constants: Constants,
               route: str = "definition") -> Scalar:
    """R(x) = E2(x) - x f1(x) by one of three independent routes.

    definition: assemble E2 and f1 directly (any x >= 0).
    integral:   R(x) = -int_0^x f1(t) dt, exact piecewise integration of the
                piecewise-linear f1 (needs x > 0).
    closed:     R(x) = g1(x)/2, valid for x >= 1.
    """
    if route == "definition":
        _check_range(x, table, 0)
        e2 = error_term(table, constants.c, x, convention="symmetric")
        return e2 - x * f1_closed(x, table, constants)
    if route == "integral":
        if x <= 0:
            raise NonPositiveX(f"integral route needs x > 0, got {x}")
        k = _check_range(x, table, 0)
        return -_integral_of_f1(x, k, table, constants)
    if route == "closed":
        if x < 1:
            raise XBelowOne(f"closed route needs x >= 1, got {x}")
        return g1(x, table, constants) / _numbers(x, table.exact).two
    raise UsageError(f"route must be definition, integral, or closed; got {route!r}")


# ---------------------------------------------------------------------------
# Full decomposition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """E2(x) against the arithmetic part x f1(x) and analytic part g1(x)/2.

    residual = e2 - arithmetic_part - analytic_part (exactly 0 in exact mode,
    pure rounding in float mode).  exact_verdict reports the constant-free
    reduced rational identity: 'pass'/'fail' for exact tables at rational x,
    'not-applicable' otherwise.
    """

    x: Scalar
    e2: ValueWithBound
    arithmetic_part: ValueWithBound
    analytic_part: ValueWithBound
    residual: Scalar
    exact_verdict: str


def _reduced_residual(x: Fraction, table: TotientTable, k: int,
                      sums: tuple) -> Fraction:
    # sum'_{n<=x} phi(n) = x(S_f - J/2) + S_g/2 - x^2 P2 / 2 + x P1 / 2
    # with J = phi(x)/x at integer x (else 0); C and A1 have cancelled, so
    # every quantity is rational and lhs - rhs is exactly 0 when it holds.
    s_g, p1, p2 = sums
    s_f = table.ratio_cumsum[k]
    lhs = table.cumulative[k]
    j = Fraction(0)
    if x.denominator == 1:
        j = table.phi[k] / Fraction(k)
        lhs = lhs - table.phi[k] / 2
    rhs = x * (s_f - j / 2) + s_g / 2 - x * x * p2 / 2 + x * p1 / 2
    return lhs - rhs


def decompose(x: Scalar, table: TotientTable,
              constants: Constants) -> DecompositionReport:
    """Evaluate every piece of E2(x) = x f1(x) + g1(x)/2 at one point."""
    k = _check_range(x, table, 1)
    num = _numbers(x, table.exact)
    sums = _point_sums(x, table, k, num)
    e2 = error_term(table, constants.c, x, convention="symmetric")
    xf1 = x * f1_closed(x, table, constants)
    hg1 = _g1_value(x, sums, num, constants) / num.two
    residual = e2 - xf1 - hg1
    xf = float(x)
    b_c, b_a1, b_a2 = constants.c.bound, constants.a1.bound, constants.a2.bound
    e2_b = b_c * xf * xf
    f1_b = b_a1 / 2 + 2 * xf * b_c
    g1_b = xf * xf * b_a2 + xf * b_a1
    verdict = "not-applicable"
    if num.exact:
        passed = _reduced_residual(Fraction(x), table, k, sums) == 0
        verdict = "pass" if passed else "fail"
    return DecompositionReport(
        x=x,
        e2=ValueWithBound(e2, e2_b, constants.c.bound_kind),
        arithmetic_part=ValueWithBound(xf1, xf * f1_b, constants.a1.bound_kind),
        analytic_part=ValueWithBound(hg1, g1_b / 2, constants.a1.bound_kind),
        residual=residual, exact_verdict=verdict)


def verify_identity_batch(xs, table: TotientTable) -> list:
    """Run the constant-free reduced identity at many rational x.

    The table's prefix sums of alpha are shared across the batch, leaving
    O(sqrt(floor(x))) big-integer operations per point for S_g.
    Returns [(x, passed, rational_residual), ...].
    """
    if not table.exact:
        raise ModeUnavailable("the reduced identity needs an exact table")
    xs = [Fraction(x) for x in xs]
    ks = [_check_range(x, table, 1) for x in xs]
    if ks:
        # grow the prefix sums to the largest k at once, which spares the
        # rescaling of their numerators that growing point by point costs
        _prefix_sums(table).at(max(ks))
    out = []
    for x, k in zip(xs, ks):
        res = _reduced_residual(x, table, k, _point_sums(x, table, k, _EXACT))
        out.append((x, res == 0, res))
    return out
