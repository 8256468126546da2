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

  * the number type of a call, the table's (coeffs._table_point): an
    exact table takes a float x as Fraction(x).  Its collapse brings x, C,
    A1, A2, operands and results into that type.
  * _sweep, the one source of running sums: P1(k) = sum_{n<=k} alpha(n)/n
    and P2(k) = sum_{n<=k} alpha(n)/n^2 from the alpha column, and
    S_f(k) = sum_{n<=k} phi(n)/n and sum_{n<=k} phi(n) (coeffs.phi_sums,
    which E2 reads) from the phi column.  Each public entry
    hands it the floor values of its points (a whole batch at once), and
    it sweeps the columns once up to the largest, returning the sums only
    where the formulas read them; nothing is kept on the table or grown
    later.  On exact tables each column is summed by coeffs._exact_column:
    binary splitting between consecutive read points, then one integer
    numerator over the column's common denominator at each read point; on
    float tables each sum is one numpy cumulative sum.  Terms
    n > x of both series collapse onto A1 - P1 and A2 - P2, which is how
    f1_series and g1 sum their infinite tails.
  * the scale of an exact batch, the lcm of its sums' denominators.  It
    lives only in the integer verdict (_reduced_residual): the sums enter
    there as integer numerators over the scale, and both sides of the
    identity, times 2 b^2 scale for x = a/b, are compared as integers.
    Every value formula (E2, x f1, g1) takes plain numbers, each sum read
    as a Fraction over its own denominator (_value).
  * _point_sums, which gives S_g(x) = sum_{n<=x} alpha(n) {x/n}({x/n} - 1)
    (for g1 and the float decompose).  In exact mode _scaled_s_g, which
    the verdict reads too, expands S_g into P2(k), P1(k) and sums of P1
    and A0 = sum_{n<=k} alpha(n) at k//j, which the sweep records only at
    the O(sqrt k) values k//j and sums over the blocks of constant k//j in
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
the exact verdict compares the sum of the phi column itself against a
right-hand side built from S_g, P1, P2 and S_f, never from the residual and
with no terms cancelled; with x = a/b both sides are cleared of 2 b^2 and
compared as integers.  (The block sum of P1 at k//j equals S_f(k)
algebraically; the verdict keeps both.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .coeffs import (
    TotientTable,
    _exact_column,
    _require_mode,
    _table_point,
    error_term,
    phi_sums,
)
from .errors import (
    MBeyondTable,
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
    _plain,
    _point_numbers,
)

Scalar = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Kernel primitives: prefix sums of alpha and phi, fractional parts
# ---------------------------------------------------------------------------

def _blocks(k: int):
    """(v, first, last) over the blocks of consecutive j <= k on which
    k//j = v; there are O(sqrt k) of them."""
    j = 1
    while j <= k:
        v = k // j
        last = k // v
        yield v, j, last
        j = last + 1


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
    Fraction is built.  _value reads a sum as a number of the table's type.

    "s_phi" maps to phi_sums(table, ks): sum_{n<=k} phi(n) in the table's
    number type, which E2 and the exact verdict's left side read.  It
    takes no part in the scale.

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
    out = {"s_phi": phi_sums(table, ks)} if "s_phi" in names else {}
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
            out["alpha_nz"] = _nonzero_alpha(table, top)
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


def _value(sums: dict, name: str, k: int) -> Scalar:
    """The sum `name` at k of a sweep: a Fraction, or a float (complex)."""
    s = sums[name]
    if isinstance(s, _ExactSum):
        return Fraction(s.numerators[k], s.den)
    return _plain(s[k])


def _batch_sweep(xs, table: TotientTable, lowest, names: tuple) -> dict:
    """_sweep at floor(x) for every x of a batch, each checked by
    _table_point; on an exact table every point also gets its floor
    blocks, which exact S_g reads."""
    ks = [_table_point(x, table, lowest)[2] for x in xs]
    return _sweep(table, ks, names, ks if table.exact else ())


# what decompose and the reduced identity read at each point
_DECOMPOSE_SUMS = ("p1", "p2", "s_f", "s_phi", "alpha_nz")


def _constants(num: _Numbers, constants: Constants) -> tuple:
    """(C, A1, A2) in num's type."""
    return tuple(num.collapse(v.value)
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


def _nonzero_alpha(table: TotientTable, top: int) -> tuple:
    """(n, n as a number, alpha(n)) over the n <= top with alpha(n) != 0,
    ascending.

    On a float table: int64, float64 and float64/complex128 arrays.  On an
    exact table: the ints, then object arrays of the ints and of alpha(n)
    as Fractions.
    """
    alpha = table.alpha
    if table.exact:
        ns = [n for n in range(1, top + 1) if alpha[n]]
        return (ns, np.array(ns, dtype=object),
                np.array([Fraction(alpha[n]) for n in ns], dtype=object))
    n = np.flatnonzero(alpha[1 : top + 1]) + 1
    return n, n.astype(np.float64), alpha[n]


def _sawtooth(r: np.ndarray) -> np.ndarray:
    """s from fractional parts r: 0 where r = 0, 1/2 - r elsewhere."""
    return np.where(r == 0, r, (1 - 2 * r) / 2)


def _scaled_s_g(x, k: int, sums: dict) -> tuple:
    """(b^2 scale S_g(x), scale P1(k), scale P2(k)) for x = a/b and
    k = floor(x), integers from an exact sweep's sums; the verdict reuses
    the scaled P1 and P2.

    With q = floor(x/n) = floor(k/n), {x/n}({x/n} - 1) expands to
    x^2/n^2 - x (2q + 1)/n + q (q + 1), and summing q/n and q (q + 1) over
    n <= k by the j <= q that they count gives, exactly,

        S_g = x^2 P2(k) - x P1(k) - 2x sum_j P1[k//j] + sum_j 2j A0[k//j],

    whose block sums the sweep forms in integer numerators over the scale,
    so b^2 scale S_g is an integer combination of numerators.
    """
    a, b = x.numerator, x.denominator
    p1, p2 = sums["p1"].scaled(k), sums["p2"].scaled(k)
    s_g = (a * a * p2 - a * b * (p1 + 2 * sums["b1"].scaled(k))
           + b * b * sums["b0"].scaled(k))
    return s_g, p1, p2


def _point_sums(x, k: int, num: _Numbers, sums: dict) -> tuple:
    """(S_g(x), P1(k), P2(k)) in num's type, k = floor(x), from a sweep's
    sums.

    Exact mode reads S_g off _scaled_s_g.  Float mode sums S_g term by
    term instead, since the expanded form cancels x^2-sized terms in
    floats, over the prefix n <= k of the sweep's "alpha_nz".  The prefix
    is a view of the batch's arrays, the same elements in the same order
    as a scan up to k alone, so the sum has the same bits.
    """
    p1, p2 = _value(sums, "p1", k), _value(sums, "p2", k)
    if num.exact:
        s_g = _scaled_s_g(x, k, sums)[0]
        return Fraction(s_g, x.denominator ** 2 * sums["scale"]), p1, p2
    ns, n, a = sums["alpha_nz"]
    j = np.searchsorted(ns, k, "right")
    r = _frac(x, n[:j], num)
    terms = a[:j] * r
    r -= 1
    terms *= r    # alpha(n) {x/n} ({x/n} - 1), in that order
    return num.collapse(np.sum(terms)), p1, p2


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

def _f1_value(x, k: int, s_f, table: TotientTable, num: _Numbers,
              constants: Constants) -> Scalar:
    # f1(x) from S_f(k)
    c, a1, _ = _constants(num, constants)
    if x == k:
        s_f = s_f - num.collapse(table.phi[k]) / 2 / k
    return a1 / 2 - 2 * c * x + s_f


def f1_closed(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """f1 via the closed form A1/2 - 2Cx + S_f(x), half-jump at integers.

    x = 0 is the one point where the closed form and the series differ as
    limits; the series value, exactly 0, is returned there.
    """
    num, x, k = _table_point(x, table)
    if x == 0:
        return num.collapse(0)
    s_f = _value(_sweep(table, [k], ("s_f",)), "s_f", k)
    return _f1_value(x, k, s_f, table, num, constants)


@dataclass(frozen=True)
class F1OneSided:
    """One-sided limits of f1 at an integer; f1 there is their midpoint."""

    left: Scalar
    right: Scalar
    half: Scalar
    jump: Scalar


def f1_one_sided(N: int, table: TotientTable, constants: Constants) -> F1OneSided:
    """Left/right limits of f1 at integer N; f1(N) is their midpoint.

    The jump equals phi(N)/N, the n | N portion of the coefficient series.
    """
    if not isinstance(N, int) or N < 1:
        raise UsageError(f"need an integer N >= 1, got {N}")
    num = _table_point(N, table)[0]
    c, a1, _ = _constants(num, constants)
    base = a1 / 2 - 2 * c * N
    sums = _sweep(table, [N - 1, N], ("s_f",))
    left = base + _value(sums, "s_f", N - 1)
    right = base + _value(sums, "s_f", N)
    return F1OneSided(left=left, right=right, half=(left + right) / 2,
                      jump=num.collapse(table.phi[N]) / N)


def f1_series_raw(x: Scalar, table: TotientTable, M: int) -> Scalar:
    """The bare truncation sum_{n<=M} (alpha(n)/n) s(x/n), no tail correction."""
    if M > table.N:
        raise MBeyondTable(f"M = {M} beyond table N = {table.N}")
    if M < 1:
        raise UsageError(f"need M >= 1, got {M}")
    if x < 0:
        raise XBelowOne(f"need x >= 0, got {x}")
    num = _number_type(table.exact)
    _, n, a = _nonzero_alpha(table, M)
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
    num, x, _ = _table_point(x, table)
    if x == 0:
        return num.collapse(0)
    head = f1_series_raw(x, table, M)
    _, a1, a2 = _constants(num, constants)
    sums = _sweep(table, [M], ("p1", "p2"))
    p1, p2 = _value(sums, "p1", M), _value(sums, "p2", M)
    return num.collapse(head + (a1 - p1) / 2 - x * (a2 - p2))


def f1_values(xs: np.ndarray, table: TotientTable,
              constants: Constants) -> np.ndarray:
    """Vectorized f1_closed on a float table (0 maps to 0 exactly)."""
    _require_mode(table, "float", "f1_values")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    if xs.min() < 0:
        raise XBelowOne(f"need x >= 0, got {xs.min()}")
    if xs.max() > table.N:
        raise XBeyondTable(f"{xs.max()} beyond table N = {table.N}")
    c, a1, _ = _constants(_number_type(False), constants)
    k = np.floor(xs).astype(np.int64)
    # the cumulative sum itself, indexed by floor
    s_f = _sweep(table, [int(k.max())], ("s_f",))["s_f"]
    out = a1 / 2 - 2 * c * xs + s_f[k]
    at_int = (xs == k) & (k >= 1)
    if np.any(at_int):
        kk = np.maximum(k, 1)
        out = out - np.where(at_int, table.phi[kk] / (2.0 * kk), 0.0)
    out = np.where(xs == 0, 0.0, out)
    return out


# ---------------------------------------------------------------------------
# g1
# ---------------------------------------------------------------------------

def _g1_value(x, sums: tuple, num: _Numbers, constants: Constants) -> Scalar:
    # g1(x) from _point_sums' values
    s_g, p1, p2 = sums
    _, a1, a2 = _constants(num, constants)
    x = num.collapse(x)
    return num.collapse(s_g + x * x * (a2 - p2) - x * (a1 - p1))


def g1(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """g1(x) = sum_n alpha(n) {x/n}({x/n}-1), summed in closed tail form.

    Terms with n > x have {x/n} = x/n, so the tail is
    x^2 (A2 - P2(x)) - x (A1 - P1(x)).
    """
    num, x, k = _table_point(x, table)
    sums = _batch_sweep([x], table, 0, ("p1", "p2", "alpha_nz"))
    return _g1_value(x, _point_sums(x, k, num, sums), num, constants)


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

def _integral_of_f1(x, table: TotientTable, constants: Constants):
    # int_0^x f1 = A1 x / 2 - C x^2 + sum_k S_f(k+0) len(piece k), pieces
    # (k, k+1) where S_f is constant; exact for the piecewise-linear f1.
    num, x, k = _table_point(x, table)
    c, a1, _ = _constants(num, constants)
    sums = _sweep(table, [k], ("s_f", "t_f"))
    full = _value(sums, "t_f", k)
    partial = _value(sums, "s_f", k) * (x - k) if k >= 1 else 0
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
        _, x, _ = _table_point(x, table)
        e2 = error_term(table, constants.c, x, convention="symmetric")
        return e2 - x * f1_closed(x, table, constants)
    if route == "integral":
        if x <= 0:
            raise NonPositiveX(f"integral route needs x > 0, got {x}")
        return -_integral_of_f1(x, table, constants)
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

    residual = e2 - arithmetic_part - analytic_part: pure rounding in float
    mode; in exact mode the reduced identity's lhs - rhs in Q, so that
    analytic_part equals g1(x)/2 in Q since Constants keeps A2 = 2C.
    exact_verdict reports that constant-free reduced rational identity:
    'pass'/'fail' at every point of an exact table, 'not-applicable' on
    float tables.
    """

    x: Scalar
    e2: ValueWithBound
    arithmetic_part: ValueWithBound
    analytic_part: ValueWithBound
    residual: Scalar
    exact_verdict: str


def _reduced_residual(x: Fraction, table: TotientTable, k: int,
                      sums: dict) -> tuple:
    """(passed, residual) of the constant-free reduced identity at x = a/b,

        sum'_{n<=x} phi(n) = x (S_f - J/2) + S_g/2 - x^2 P2/2 + x P1/2,

    with J = phi(x)/x at integer x (else 0); C and A1 have cancelled, so
    every quantity is rational and the two sides are equal when it holds.
    The sums of an exact sweep are read as integer numerators over its
    scale, and S_g also times b^2, so both sides times 2 b^2 scale are
    integers, formed apart and compared; the half-jump phi(x)/2 stays on
    both.  s_phi, the left side's sum of phi, is the phi column's own, not
    one rebuilt from S_f.  The residual is lhs - rhs in Q, which equals
    E2 - x f1 - g1/2 in Q since Constants keeps A2 = 2C.
    """
    a, b = x.numerator, x.denominator
    scale = sums["scale"]
    s_g, p1, p2 = _scaled_s_g(x, k, sums)
    lhs = 2 * b * b * sums["s_phi"][k] * scale
    rhs = 2 * a * b * sums["s_f"].scaled(k) + s_g - a * a * p2 + a * b * p1
    if b == 1:   # J times scale is whole: J = phi(k)/k is a term of S_f
        lhs -= table.phi[k] * scale
        rhs -= a * (table.phi[k] * scale // k)
    return lhs == rhs, Fraction(lhs - rhs, 2 * b * b * scale)


def decompose(x: Scalar, table: TotientTable, constants: Constants,
              _sums: dict = None) -> DecompositionReport:
    """Evaluate every piece of E2(x) = x f1(x) + g1(x)/2 at one point.

    _sums: a batch's sweep that covers x (decompose_batch's), instead of
    a sweep of x's own.  On an exact table the reduced identity, evaluated
    once, gives the residual and the verdict, and g1/2 is E2 - x f1 -
    residual, which equals g1(x)/2 in Q since Constants keeps A2 = 2C; a
    float table sums g1 itself.
    """
    num, x, k = _table_point(x, table, 1)
    sums = _sums or _batch_sweep([x], table, 1, _DECOMPOSE_SUMS)
    e2 = error_term(table, constants.c, x, convention="symmetric",
                    _sums=sums["s_phi"])
    xf1 = x * _f1_value(x, k, _value(sums, "s_f", k), table, num, constants)
    if num.exact:
        passed, residual = _reduced_residual(x, table, k, sums)
        hg1 = e2 - xf1 - residual
        verdict = "pass" if passed else "fail"
    else:
        hg1 = _g1_value(x, _point_sums(x, k, num, sums), num, constants) / 2
        residual = e2 - xf1 - hg1
        verdict = "not-applicable"
    xf = float(x)
    b_c, b_a1, b_a2 = constants.c.bound, constants.a1.bound, constants.a2.bound
    e2_b = b_c * xf * xf
    f1_b = b_a1 / 2 + 2 * xf * b_c
    g1_b = xf * xf * b_a2 + xf * b_a1
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
    _require_mode(table, "exact", "the reduced identity")
    xs = [Fraction(x) for x in xs]
    sums = _batch_sweep(xs, table, 1, _DECOMPOSE_SUMS)
    return [(x, *_reduced_residual(x, table, math.floor(x), sums))
            for x in xs]
