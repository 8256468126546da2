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

Every formula has one body, built from four private pieces:

  * the number type of a call (products._point_numbers): exact rationals
    when the table is exact and x is an int or Fraction, floats otherwise.
    Its collapse brings C, A1, A2, operands and results into that type.
  * _sweep, the one source of running sums: P1(k) = sum_{n<=k} alpha(n)/n
    and P2(k) = sum_{n<=k} alpha(n)/n^2 from the alpha column, and
    S_f(k) = sum_{n<=k} phi(n)/n from the phi column.  Each public entry
    hands it the floor values of its points (a whole batch at once), and
    it sweeps the columns once up to the largest, returning the sums only
    where the formulas read them; nothing is kept on the table or grown
    later.  On exact tables each column's terms go over one common
    denominator and one running integer numerator is recorded at the read
    points; on float tables each sum is one numpy cumulative sum.  Terms
    n > x of both series collapse onto A1 - P1 and A2 - P2, which is how
    f1_series and g1 sum their infinite tails.
  * the scale of an exact batch, the lcm of its sums' denominators.  The
    batch's points form each piece of the identity times the scale, so the
    sums enter as integer numerators and every Fraction has a small
    denominator (from x, 2, k and the constants); a value is divided
    by the scale, and gcd-normalised over the large denominator, only
    where a report holds it.  x f1 uses S_f's own, smaller denominator.
  * _point_sums, which gives S_g(x) = sum_{n<=x} alpha(n) {x/n}({x/n} - 1)
    (for g1, the decompose verdict and verify_identity_batch).  In exact
    mode it expands S_g into P2(k), P1(k) and sums of P1 and
    A0 = sum_{n<=k} alpha(n) at k//j, which the sweep records only at the
    O(sqrt k) values k//j and sums over the blocks of constant k//j in
    integers.  In float mode it sums S_g term by term over {x/n} from
    _frac, the one fractional-part routine, which also feeds the bare
    sawtooth sum of f1_series_raw.  The n with alpha(n) != 0 come from
    _nonzero_alpha, once per float batch (the sweep's "alpha_nz"), and
    each point reads the prefix n <= floor(x) of them.

Only the primitives branch on exact/float, since that is where Python
integer loops and numpy arrays really differ.  The routes that check each
other stay separate code: f1_closed reads S_f, the sweep's running sum of
the phi column, while f1_series sums the sawtooth and the P1/P2 tail;
r_function's definition, integral and closed routes share no formula; and
the exact verdict compares the phi sieve's cumulative sum against a
right-hand side built from S_g, P1, P2 and S_f, never from the residual and
with no terms cancelled.  (The block sum of P1 at k//j equals S_f(k)
algebraically; the verdict keeps both.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .coeffs import TotientTable, error_term
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
from .products import (
    Constants,
    ValueWithBound,
    _Numbers,
    _number_type,
    _point_numbers,
)

Scalar = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Kernel primitives: prefix sums of alpha and phi, fractional parts
# ---------------------------------------------------------------------------

def _lcm(values: list) -> int:
    """lcm of many ints, by pairwise lcms in a balanced tree: folding them
    into one growing lcm would cost a big-integer step per value."""
    while len(values) > 1:
        values = [math.lcm(*values[i : i + 2])
                  for i in range(0, len(values), 2)]
    return values[0]


def _blocks(k: int):
    """(v, first, last) over the blocks of consecutive j <= k on which
    k//j = v; there are O(sqrt k) of them."""
    j = 1
    while j <= k:
        v = k // j
        last = k // v
        yield v, j, last
        j = last + 1


def _exact_column(column, power: int, top: int, reads: set,
                  total: bool = False) -> tuple:
    """One pass over n <= top of the sums sum_{n<=k} column(n)/n^power,
    recorded at each k of reads (and at 0).

    Every term goes over one denominator D, the lcm of the term
    denominators up to top, so the pass keeps one running integer
    numerator.  Returns (D, {k: numerator}, {k: numerator of
    sum_{1<=j<k} of the sums}); the last is all 0 unless total.
    """
    terms = []   # column(n)/n^power in lowest terms, as (p, q)
    for n in range(1, top + 1):
        a, m = column[n], n ** power
        g = math.gcd(a.numerator, m)
        terms.append((a.numerator // g, a.denominator * (m // g)))
    den = _lcm([1] + [q for p, q in terms if p])
    acc = tot = 0
    nums, tots = {0: 0}, {0: 0}
    for n, (p, q) in enumerate(terms, 1):
        if p:
            acc += p * (den // q)
        if n in reads:
            nums[n], tots[n] = acc, tot
        if total:
            tot += acc
    return den, nums, tots


def _sweep(table: TotientTable, ks, names: tuple, blocks=()) -> dict:
    """The running sums a batch reads, from one pass over the alpha and phi
    columns up to its largest floor value; nothing is kept on the table.

    names picks among P1(k) = sum_{n<=k} alpha(n)/n ("p1"), P2(k) =
    sum_{n<=k} alpha(n)/n^2 ("p2"), S_f(k) = sum_{n<=k} phi(n)/n ("s_f")
    and, with "s_f", T(k) = sum_{1<=j<k} S_f(j) ("t_f"), the integral
    route's second accumulator.  Each maps to something indexed by every k
    of ks.  On float tables that is the numpy cumulative sum up to the top,
    in the one sequential order of summation (and a dict of numpy sums for
    T).  On exact tables it is an _ExactSum, integer numerators over the
    sum's denominator, and "scale" is the lcm of those denominators; no
    Fraction is built.  _value reads a sum as a number.

    With "alpha_nz" a float sweep also returns _nonzero_alpha up to the
    top: the n <= top where alpha(n) != 0, as int64 and float64 arrays,
    and alpha at those n.  Each point of the batch reads its prefix of
    these (_point_sums), so the alpha column is scanned once per batch,
    not once per point.  Exact sweeps ignore the name.

    With "p1" on an exact table, "b1" and "b0" map each k of blocks to the
    numerators of sum_{j<=k} P1(k//j) and sum_{j<=k} 2j A0(k//j),
    A0(k) = sum_{n<=k} alpha(n), summed in integers over the floor blocks
    from P1 and A0 recorded only at the O(sqrt k) values k//j.
    """
    alpha, phi = table.alpha, table.phi
    columns = {"p1": (alpha, 1), "p2": (alpha, 2), "s_f": (phi, 1)}
    top = max(ks, default=0)
    out = {}
    if not table.exact:
        n = np.arange(1, top + 1, dtype=np.float64)
        dtype = np.result_type(alpha, phi, np.float64)
        for name in columns.keys() & set(names):
            column, power = columns[name]
            out[name] = np.zeros(top + 1, dtype=dtype)
            out[name][1:] = np.cumsum(column[1 : top + 1] / n ** power)
        if "t_f" in names:
            out["t_f"] = {k: np.sum(out["s_f"][1:k]) for k in ks}
        if "alpha_nz" in names:
            out["alpha_nz"] = _nonzero_alpha(table, top, _number_type(False))
        return out
    at_k = set(ks)
    quotients = {v for k in blocks for v, _, _ in _blocks(k)}
    dens, nums = {}, {}
    for name in columns.keys() & set(names):
        column, power = columns[name]
        total = name == "s_f" and "t_f" in names
        dens[name], nums[name], tots = _exact_column(
            column, power, top, at_k | quotients if name == "p1" else at_k,
            total)
        if total:
            dens["t_f"], nums["t_f"] = dens[name], tots
    if blocks:
        p1 = nums["p1"]
        dens["b1"] = dens["p1"]
        dens["b0"], a0, _ = _exact_column(alpha, 0, top, quotients)
        nums["b1"], nums["b0"] = {}, {}
        for k in set(blocks):
            t1 = t0 = 0
            for v, first, last in _blocks(k):
                t1 += (last - first + 1) * p1[v]
                t0 += (last * (last + 1) - first * (first - 1)) * a0[v]
            nums["b1"][k], nums["b0"][k] = t1, t0
    scale = math.lcm(*dens.values())
    out["scale"] = scale
    for name, den in dens.items():
        out[name] = _ExactSum(den, scale // den, {
            k: v for k, v in nums[name].items() if k in at_k})
    return out


@dataclass(frozen=True)
class _ExactSum:
    """An exact running sum at the k a batch reads: numerators[k] / den.

    factor = scale // den brings a numerator over the sweep's scale, the
    common denominator of all its sums."""

    den: int
    factor: int
    numerators: dict

    def scaled(self, k: int) -> int:
        """The numerator at k over the sweep's scale."""
        return self.numerators[k] * self.factor


def _value(sums: dict, name: str, k: int, num: _Numbers) -> Scalar:
    """The sum `name` at k of a sweep, as a number in num's type."""
    s = sums[name]
    if not isinstance(s, _ExactSum):
        return num.collapse(s[k])
    v = s.numerators[k]
    return num.collapse(Fraction(v, s.den) if num.exact else v / s.den)


def _batch_sweep(xs, table: TotientTable, lowest, names: tuple) -> dict:
    """_sweep at floor(x) for every x of a batch, each checked to be >=
    lowest and in the table; the x that are exact points also get their
    floor blocks, which exact S_g reads."""
    ks = [_check_range(x, table, lowest) for x in xs]
    blocks = [k for x, k in zip(xs, ks)
              if _point_numbers(x, table.exact).exact]
    return _sweep(table, ks, names, blocks)


# what decompose and the reduced identity read at each point
_DECOMPOSE_SUMS = ("p1", "p2", "s_f", "alpha_nz")


def _constants(num: _Numbers, constants: Constants, scale: int = 1) -> tuple:
    """(C, A1, A2) in num's type, times scale."""
    return tuple(num.collapse(v.value) * scale
                 for v in (constants.c, constants.a1, constants.a2))


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
    r = np.floor(quot)
    np.subtract(quot, r, out=r)
    # in place: a fresh array of this size costs its page faults again
    quot = np.round(quot, out=quot)
    quot *= n
    r[quot == x] = 0.0
    return r


def _nonzero_alpha(table: TotientTable, top: int, num: _Numbers) -> tuple:
    """(n, n as a number, alpha(n)) over the n <= top with alpha(n) != 0,
    ascending.

    In floats: int64, float64 and float64/complex128 arrays (an exact
    table read through alpha_array).  In exact rationals: the ints, then
    object arrays of the ints and of alpha(n).
    """
    alpha = table.alpha
    if num.exact:
        ns = [n for n in range(1, top + 1) if alpha[n]]
        return (ns, np.array(ns, dtype=object),
                np.array([num.collapse(alpha[n]) for n in ns], dtype=object))
    a = table.alpha_array(top) if table.exact else np.asarray(alpha)[: top + 1]
    n = np.flatnonzero(a[1:]) + 1
    return n, n.astype(np.float64), a[n]


def _sawtooth(r: np.ndarray) -> np.ndarray:
    """s from fractional parts r: 0 where r = 0, 1/2 - r elsewhere."""
    return np.where(r == 0, r, (1 - 2 * r) / 2)


def _point_sums(x, table: TotientTable, k: int, num: _Numbers,
                sums: dict) -> tuple:
    """(S_g(x), P1(k), P2(k)) in num's type, k = floor(x), from a sweep's
    sums; exact values come multiplied by the sweep's scale.

    With q = floor(x/n) = floor(k/n), {x/n}({x/n} - 1) expands to
    x^2/n^2 - x (2q + 1)/n + q (q + 1), and summing q/n and q (q + 1) over
    n <= k by the j <= q that they count gives, exactly,

        S_g = x^2 P2(k) - x P1(k) - 2x sum_j P1[k//j] + sum_j 2j A0[k//j],

    which exact mode sums by floor blocks, in integer numerators over the
    scale: with x = a/b it is one Fraction over b^2.  Float mode sums S_g
    term by term instead, since the expanded form cancels x^2-sized terms
    in floats, over the prefix n <= k of the sweep's "alpha_nz" (or of
    x's own, for a float x on an exact sweep).  The prefix is a view of
    the batch's arrays, the same elements in the same order as a scan up
    to k alone, so the sum has the same bits.
    """
    if num.exact:
        a, b = x.numerator, x.denominator
        p1, p2 = sums["p1"].scaled(k), sums["p2"].scaled(k)
        s_g = Fraction(a * a * p2 - a * b * (p1 + 2 * sums["b1"].scaled(k))
                       + b * b * sums["b0"].scaled(k), b * b)
        return s_g, p1, p2
    ns, n, a = sums.get("alpha_nz") or _nonzero_alpha(table, k, num)
    j = np.searchsorted(ns, k, "right")
    r = _frac(x, n[:j], num)
    terms = a[:j] * r
    r -= 1
    terms *= r    # alpha(n) {x/n} ({x/n} - 1), in that order
    return (num.collapse(np.sum(terms)),
            _value(sums, "p1", k, num), _value(sums, "p2", k, num))


# ---------------------------------------------------------------------------
# Sawtooth
# ---------------------------------------------------------------------------

def sawtooth(x: Scalar) -> Scalar:
    """s(x): 0 at integers, 1/2 - {x} otherwise (midpoint convention)."""
    num = _point_numbers(x)
    return num.collapse(_sawtooth(_frac(x, [1], num))[0])


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


def _f1_value(x, k: int, s_f, table: TotientTable, num: _Numbers,
              constants: Constants, scale: int = 1) -> Scalar:
    # f1(x) times scale, from S_f(k) times scale
    c, a1, _ = _constants(num, constants, scale)
    if x == k:
        s_f = s_f - num.collapse(table.phi[k]) * scale / 2 / k
    return a1 / 2 - 2 * c * x + s_f


def f1_closed(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """f1 via the closed form A1/2 - 2Cx + S_f(x), half-jump at integers.

    x = 0 is the one point where the closed form and the series differ as
    limits; the series value, exactly 0, is returned there.
    """
    k = _check_range(x, table, 0)
    num = _point_numbers(x, table.exact)
    if x == 0:
        return num.collapse(0)
    s_f = _value(_sweep(table, [k], ("s_f",)), "s_f", k, num)
    return _f1_value(x, k, s_f, table, num, constants)


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
    num = _point_numbers(N, table.exact)
    c, a1, _ = _constants(num, constants)
    base = a1 / 2 - 2 * c * N
    sums = _sweep(table, [N - 1, N], ("s_f",))
    left = base + _value(sums, "s_f", N - 1, num)
    right = base + _value(sums, "s_f", N, num)
    half = (left + right) / 2
    return F1OneSided(left=left, right=right, half=half, f1_value=half,
                      jump=num.collapse(table.phi[N]) / N)


def f1_series_raw(x: Scalar, table: TotientTable, M: int) -> Scalar:
    """The bare truncation sum_{n<=M} (alpha(n)/n) s(x/n), no tail correction."""
    if M > table.N:
        raise MBeyondTable(f"M = {M} beyond table N = {table.N}")
    if M < 1:
        raise UsageError(f"need M >= 1, got {M}")
    if x < 0:
        raise XBelowOne(f"need x >= 0, got {x}")
    num = _point_numbers(x, table.exact)
    _, n, a = _nonzero_alpha(table, M, num)
    return num.collapse(np.sum(a / n * _sawtooth(_frac(x, n, num))))


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
    num = _point_numbers(x, table.exact)
    if x == 0:
        return num.collapse(0)
    head = f1_series_raw(x, table, M)
    _, a1, a2 = _constants(num, constants)
    sums = _sweep(table, [M], ("p1", "p2"))
    p1, p2 = _value(sums, "p1", M, num), _value(sums, "p2", M, num)
    return num.collapse(head + (a1 - p1) / 2 - num.collapse(x) * (a2 - p2))


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
    num = _number_type(False)
    c, a1, _ = _constants(num, constants)
    k = np.floor(xs).astype(np.int64)
    ks, at = np.unique(k, return_inverse=True)
    sums = _sweep(table, ks.tolist(), ("s_f",))
    if table.exact:   # each exact value rounded once
        s_f = np.array([_value(sums, "s_f", j, num) for j in ks.tolist()])
    else:
        s_f = sums["s_f"][ks]
    phi = table.phi_array(int(ks[-1]))
    out = a1 / 2 - 2 * c * xs + s_f[at]
    at_int = (xs == k) & (k >= 1)
    if np.any(at_int):
        kk = np.maximum(k, 1)
        out = out - np.where(at_int, phi[kk] / (2.0 * kk), 0.0)
    out = np.where(xs == 0, 0.0, out)
    return out


# ---------------------------------------------------------------------------
# g1
# ---------------------------------------------------------------------------

def _g1_value(x, sums: tuple, num: _Numbers, constants: Constants,
              scale: int = 1) -> Scalar:
    # g1(x) times scale, from _point_sums' values times scale
    s_g, p1, p2 = sums
    _, a1, a2 = _constants(num, constants, scale)
    x = num.collapse(x)
    return num.collapse(s_g + x * x * (a2 - p2) - x * (a1 - p1))


def g1(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """g1(x) = sum_n alpha(n) {x/n}({x/n}-1), summed in closed tail form.

    Terms with n > x have {x/n} = x/n, so the tail is
    x^2 (A2 - P2(x)) - x (A1 - P1(x)).
    """
    k = _check_range(x, table, 0)
    num = _point_numbers(x, table.exact)
    sums = _batch_sweep([x], table, 0, ("p1", "p2", "alpha_nz"))
    scale = sums["scale"] if num.exact else 1
    return _g1_value(x, _point_sums(x, table, k, num, sums), num, constants,
                     scale) / scale


# ---------------------------------------------------------------------------
# Fractional-part integral
# ---------------------------------------------------------------------------

def frac_integral(n: int, x: Scalar) -> Scalar:
    """int_n^x {t/n} dt = (n/2)({x/n}^2 + floor(x/n) - 1), for x >= n."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"need an integer n >= 1, got {n}")
    if x < n:
        raise XBelowN(f"integral starts at n = {n}, got x = {x}")
    num = _point_numbers(x)
    x = num.collapse(x)
    r = _frac(x, [n], num)[0]
    fl = x / n - r
    return num.collapse(n * (r * r + fl - 1) / 2)


# ---------------------------------------------------------------------------
# R = E2 - x f1, three routes
# ---------------------------------------------------------------------------

def _integral_of_f1(x, k: int, table: TotientTable, constants: Constants):
    # int_0^x f1 = A1 x / 2 - C x^2 + sum_k S_f(k+0) len(piece k), pieces
    # (k, k+1) where S_f is constant; exact for the piecewise-linear f1.
    num = _point_numbers(x, table.exact)
    c, a1, _ = _constants(num, constants)
    x = num.collapse(x)
    sums = _sweep(table, [k], ("s_f", "t_f"))
    full = _value(sums, "t_f", k, num)
    partial = _value(sums, "s_f", k, num) * (x - k) if k >= 1 else 0
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
        return g1(x, table, constants) / 2
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
                      point_sums: tuple, s_f: int, scale: int) -> Fraction:
    # sum'_{n<=x} phi(n) = x(S_f - J/2) + S_g/2 - x^2 P2 / 2 + x P1 / 2
    # with J = phi(x)/x at integer x (else 0); C and A1 have cancelled, so
    # every quantity is rational and lhs - rhs is exactly 0 when it holds.
    # Both sides come multiplied by scale, the sweep's common denominator,
    # so the sums enter as integers and every Fraction here has a small
    # denominator.
    s_g, p1, p2 = point_sums
    lhs = table.cumulative[k] * scale
    j = Fraction(0)
    if x.denominator == 1:
        j = Fraction(table.phi[k] * scale, k)
        lhs = lhs - Fraction(table.phi[k] * scale, 2)
    rhs = x * (s_f - j / 2) + s_g / 2 - x * x * p2 / 2 + x * p1 / 2
    return lhs - rhs


def decompose(x: Scalar, table: TotientTable, constants: Constants,
              _sums: dict = None) -> DecompositionReport:
    """Evaluate every piece of E2(x) = x f1(x) + g1(x)/2 at one point.

    _sums: a batch's sweep that covers x (decompose_batch's), instead of
    a sweep of x's own.  At an exact point every piece is formed times the
    sweep's scale and divided by it once, so a Fraction is normalised over
    the sums' large denominator only for the values the report holds.
    """
    k = _check_range(x, table, 1)
    num = _point_numbers(x, table.exact)
    sums = _sums or _batch_sweep([x], table, 1, _DECOMPOSE_SUMS)
    scale = sums["scale"] if num.exact else 1
    point_sums = _point_sums(x, table, k, num, sums)
    if num.exact:   # x f1 times S_f's own denominator, a smaller one
        s_f = sums["s_f"]
        f_scale, f_factor, s_f = s_f.den, s_f.factor, s_f.numerators[k]
    else:
        f_scale = f_factor = 1
        s_f = _value(sums, "s_f", k, num)
    e2 = error_term(table, constants.c, x, convention="symmetric")
    xf1 = x * _f1_value(x, k, s_f, table, num, constants, f_scale)
    hg1 = _g1_value(x, point_sums, num, constants, scale) / 2
    residual = e2 * scale - xf1 * f_factor - hg1
    xf1 = xf1 / f_scale
    # a zero exact residual makes g1/2 equal to E2 - x f1, whose reduced
    # form costs a gcd over x f1's denominator, not over the larger scale
    hg1 = e2 - xf1 if num.exact and residual == 0 else hg1 / scale
    residual = residual / scale
    xf = float(x)
    b_c, b_a1, b_a2 = constants.c.bound, constants.a1.bound, constants.a2.bound
    e2_b = b_c * xf * xf
    f1_b = b_a1 / 2 + 2 * xf * b_c
    g1_b = xf * xf * b_a2 + xf * b_a1
    verdict = "not-applicable"
    if num.exact:
        passed = _reduced_residual(Fraction(x), table, k, point_sums,
                                   s_f * f_factor, scale) == 0
        verdict = "pass" if passed else "fail"
    return DecompositionReport(
        x=x,
        e2=ValueWithBound(e2, e2_b, constants.c.bound_kind),
        arithmetic_part=ValueWithBound(xf1, xf * f1_b,
                                       constants.a1.bound_kind),
        analytic_part=ValueWithBound(hg1, g1_b / 2, constants.a1.bound_kind),
        residual=residual, exact_verdict=verdict)


def decompose_batch(xs, table: TotientTable, constants: Constants) -> list:
    """decompose at every x of a batch, on one sweep of the batch's sums."""
    sums = _batch_sweep(xs, table, 1, _DECOMPOSE_SUMS)
    return [decompose(x, table, constants, _sums=sums) for x in xs]


def verify_identity_batch(xs, table: TotientTable) -> list:
    """Run the constant-free reduced identity at many rational x.

    One sweep of the columns serves the batch, leaving O(sqrt(floor(x)))
    big-integer operations per point for S_g.
    Returns [(x, passed, rational_residual), ...].
    """
    if not table.exact:
        raise ModeUnavailable("the reduced identity needs an exact table")
    xs = [Fraction(x) for x in xs]
    sums = _batch_sweep(xs, table, 1, _DECOMPOSE_SUMS)
    exact, scale = _number_type(True), sums["scale"]
    out = []
    for x in xs:
        k = math.floor(x)
        res = _reduced_residual(x, table, k,
                                _point_sums(x, table, k, exact, sums),
                                sums["s_f"].scaled(k), scale)
        out.append((x, res == 0, res / scale))
    return out
