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
    A1, A2, operands and results into that type.  A call is a batch of
    points (a single point is a batch of one), and E2, x f1, g1 and the
    residual are formed over the whole batch, by the operations of one
    point, on columns of the batch (coeffs._cells): float64 arrays on a
    real float table; object arrays of Python numbers on a complex or
    exact one, so each operation there is Python's, on the values a point
    alone would hold.
  * _sweep, the one source of running sums: P1(k) = sum_{n<=k} alpha(n)/n
    and P2(k) = sum_{n<=k} alpha(n)/n^2 from the alpha column, and
    S_f(k) = sum_{n<=k} phi(n)/n and sum_{n<=k} phi(n) (which E2 reads)
    from the phi column.  Each public entry hands it the floor values of
    its points, and it sweeps the columns once up to the largest,
    returning the sums only where the formulas read them; nothing is kept
    on the table or grown later.  On exact tables each column is summed by
    coeffs._exact_column: binary splitting between consecutive read
    points, then one integer numerator over the column's common
    denominator at each read point.  On float tables it is summed by
    coeffs._float_column: a numpy cumulative sum a block at a time, each
    block carrying its last sum into the next, so every sum has the bits
    of one cumulative sum and only the read points are kept, never arrays
    of floor(x) entries (a reader of every k, f1_values or the integral
    route's T, asks for them).  The sums of alpha that float S_g reads
    also carry the running sum of their rounding errors (compensated).
    Terms n > x of both series collapse onto A1 - P1 and A2 - P2, which is
    how f1_series and g1 sum their infinite tails.
  * the scale of an exact batch, the lcm of its sums' denominators.  It
    lives only in the integer verdict (_reduced_residual): the sums enter
    there as integer numerators over the scale, and both sides of the
    identity, times 2 b^2 scale for x = a/b, are compared as integers.
    Every value formula (E2, x f1, g1) takes plain numbers, each sum read
    as a Fraction over its own denominator (_value, _column).
  * _s_g, which gives S_g(x) = sum_{n<=x} alpha(n) {x/n}({x/n} - 1) (for
    g1 and the float decompose) from the blocks of n on which floor(x/n)
    is constant, in O(sqrt x) work a point.  In exact mode _scaled_s_g,
    which the verdict reads too, expands S_g into P2(k), P1(k) and sums of
    P1 and A0 = sum_{n<=k} alpha(n) at k//j, which the sweep records only
    at the O(sqrt k) values k//j and sums over the blocks of constant k//j
    in integers.  That global expansion cancels x^2-sized terms in floats,
    so float mode sums the n <= k // (isqrt(k) + 1) term by term ({x/n}
    from _frac, the one fractional-part routine, which also feeds the bare
    sawtooth sum of f1_series_raw) and each group n in
    (k // (q + 1), k // q], q <= isqrt(k), by its expansion, whose terms
    are O(x), from differences of the sweep's compensated sums of
    alpha/n^2, alpha/n and alpha at the group's edges.

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
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from . import coeffs
from .coeffs import (
    TotientTable,
    _ReadSums,
    _batch_points,
    _cells,
    _error_term,
    _exact_column,
    _float_column,
    _float_sums,
    _phi_at,
    _require_alpha,
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
    sum_{n<=k} alpha(n)/n^2 ("p2"), S_f(k) = sum_{n<=k} phi(n)/n ("s_f"),
    sum_{n<=k} phi(n) ("s_phi", which E2 and the exact verdict's left side
    read) and, with "s_f", T(k) = sum_{1<=j<k} S_f(j) ("t_f"), the
    integral route's second accumulator.  Each maps to something indexed
    by every k of ks, and by an array of them.

    blocks names the k whose S_g the batch reads (_s_g).

    On float tables each column is summed by coeffs._float_column: in
    blocks, each carrying its running sum into the next, so that every sum
    has the bits of one numpy cumulative sum, and kept only at the
    distinct k of ks (coeffs._float_sums).  A sweep for T (a dict of numpy
    sums of S_f) keeps the sums at every k up to the top instead, as
    arrays.  When blocks is not empty, "p2", "p1" and "a0" (A0(k) =
    sum_{n<=k} alpha(n)) are kept at the k of ks and at every group edge
    k//q, q <= isqrt(k) + 1, of each k of blocks, each with the running
    sum of its rounding errors (coeffs._ReadSums.errors), which float
    S_g's group differences read; P1 and P2 at the k of ks keep the bits
    of the plain sums.

    On exact tables a sum is an _ExactSum, integer numerators over the
    sum's denominator, and "scale" is the lcm of those denominators; no
    Fraction is built.  "s_phi" is phi_sums(table, ks), in the table's
    number type; it takes no part in the scale.  With "p1", "b1" and "b0"
    map each k of blocks to the numerators of sum_{j<=k} P1(k//j) and
    sum_{j<=k} 2j A0(k//j), A0(k) = sum_{n<=k} alpha(n), summed in
    integers over the floor blocks from P1 and A0 recorded only at the
    O(sqrt k) values k//j.

    _value reads a sum at a k as a number of the table's type, _column at
    every point of a batch.  A sum of alpha needs a table that holds it
    (coeffs._require_alpha).
    """
    if {"p1", "p2"} & set(names) or len(blocks):
        _require_alpha(table, "the sums of alpha (P1, P2, S_g)")
    alpha, phi = table.alpha, table.phi
    columns = {"p1": (alpha, 1), "p2": (alpha, 2), "s_f": (phi, 1)}
    ks = np.asarray(ks, dtype=np.int64)
    top = int(ks.max(initial=0))
    if not table.exact:
        dense = "t_f" in names
        columns["s_phi"] = (phi, 0)
        # the sums of alpha that S_g's groups read, compensated
        grouped = {"p2": 2, "p1": 1, "a0": 0} if len(blocks) else {}
        out = {}
        for name in columns.keys() & set(names) - grouped.keys():
            column, power = columns[name]
            out[name] = (_float_column(column, power, top) if dense
                         else _float_sums(column, power, ks))
        if "t_f" in names:
            out["t_f"] = {k: np.sum(out["s_f"][1:k]) for k in ks.tolist()}
        if grouped:
            reads = _group_reads(ks, blocks)
            for name, power in grouped.items():
                out[name] = _ReadSums(reads, *_float_column(
                    alpha, power, top, reads, errors=True))
        return out
    ks = ks.tolist()
    out = {"s_phi": phi_sums(table, ks)} if "s_phi" in names else {}
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


class _ExactSum(NamedTuple):
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


def _column(sums: dict, name: str, ks: np.ndarray, table: TotientTable,
            collapse: bool = True) -> np.ndarray:
    """The sum `name` of a sweep at each k of ks, as a column of the batch
    (coeffs._cells): what _value gives at each k, or with collapse False,
    the sum as the sweep holds it."""
    s = sums[name]
    if isinstance(s, _ExactSum):   # Fractions already
        return _cells([Fraction(s.numerators[k], s.den) for k in ks.tolist()],
                      table, collapse=False)
    return _cells([s[k] for k in ks.tolist()] if table.exact else s[ks],
                  table, collapse)


def _batch_sweep(ks: np.ndarray, table: TotientTable, names: tuple) -> dict:
    """_sweep at the floor values ks of a batch's points, with the sums that
    S_g reads at each of them (_s_g)."""
    return _sweep(table, ks, names, ks.tolist())


# what decompose and the reduced identity read at each point
_DECOMPOSE_SUMS = ("p1", "p2", "s_f", "s_phi")


def _constants(num: _Numbers, constants: Constants) -> tuple:
    """(C, A1, A2) in num's type."""
    return tuple(num.collapse(v.value)
                 for v in (constants.c, constants.a1, constants.a2))


def _frac(x, n, num: _Numbers) -> np.ndarray:
    """{x/n} for a sequence of positive integers n, in num's type; in float
    mode x may also be an array, broadcast against n.

    A float quotient x/n is correctly rounded.  For |x| < 2^53 it is an
    integer exactly when n divides x: then x/n is exact, and otherwise
    x - m n, for the integer m nearest x/n, is a nonzero multiple of
    ulp(x), which keeps x/n more than half an ulp of the quotient away
    from m.  From 2^53 up, where x need not be the multiple of n that it
    rounds, the quotient counts as integral iff round(x/n) * n reproduces
    x.
    """
    if num.exact:
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        return np.array([Fraction(p % (q * m), q * m) for m in n], dtype=object)
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    quot = x / n
    r = np.subtract(quot, np.floor(quot))
    big = np.abs(x) >= 2.0 ** 53
    if big.any():
        r[big & (np.round(quot) * n == x)] = 0.0
    return r


def _nonzero_alpha(table: TotientTable, top: int) -> tuple:
    """(n, alpha(n)) over the n <= top with alpha(n) != 0, ascending.

    On a float table: a float64 array of the n and a float64 or complex128
    one of alpha(n).  On an exact table: object arrays of the Python ints n
    and of alpha(n) as Fractions (_cells), so that alpha(n)/n stays exact.
    """
    _require_alpha(table, "the sums of alpha (P1, P2, S_g)")
    n = np.flatnonzero(table.alpha[1 : top + 1]) + 1
    alpha = table.alpha[n]
    if table.exact:
        return n.astype(object), _cells(alpha, table)
    return n.astype(np.float64), alpha


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


def _group_sums(s: _ReadSums, edge: np.ndarray) -> np.ndarray:
    """The sums of a compensated running sum s over the groups between
    consecutive edges of each row, as indices of s.reads (descending):
    (hi_b - hi_a) + (lo_b - lo_a) over (a, b]."""
    hi, lo = s.values[edge], s.errors[edge]
    return (hi[:, :-1] - hi[:, 1:]) + (lo[:, :-1] - lo[:, 1:])


def _group_reads(ks: np.ndarray, blocks) -> np.ndarray:
    """The k of ks and the group edges k // q, q <= isqrt(k) + 1, of each k
    of blocks (_s_g), distinct and ascending: one flag a k up to the top,
    so they cost top bytes at most, however many points and edges the
    batch has."""
    read = np.zeros(int(ks.max(initial=0)) + 1, dtype=bool)
    read[ks] = True
    for k in blocks:
        read[k // np.arange(1, math.isqrt(k) + 2)] = True
    return np.flatnonzero(read)


def _s_g(xs: np.ndarray, ks: np.ndarray, sums: dict,
         table: TotientTable) -> np.ndarray:
    """S_g(x) = sum_{n<=x} alpha(n) {x/n}({x/n} - 1) at each point (xs, ks)
    of a batch, from its sweep's sums, as a column of the batch.

    Exact mode reads S_g off _scaled_s_g.  Float mode cannot use that
    global expansion, whose x^2-sized terms cancel in floats, and splits
    S_g at L = k // (Q + 1), Q = isqrt(k), instead.  The terms n <= L are
    formed one by one, {x/n} from _frac.  The n > L fall into one group
    for each q <= Q, n in (k // (q + 1), k // q], where floor(x/n) = q, and
    the group's terms sum to

        x^2 dP2 - x (2q + 1) dP1 + q (q + 1) dA0,

    dP2, dP1 and dA0 the group's sums of alpha/n^2, alpha/n and alpha:
    differences of the sweep's compensated running sums at the group's
    edges (_group_sums), exact up to the rounding of the group's own
    terms, which are about 3x at most.  So a point costs O(sqrt k), not
    O(k).  A point's S_g adds, one after another from -0.0, its direct
    terms by ascending n and then its group values by ascending q: one
    np.cumsum along a row a point, whose padding, -0.0, leaves every sum
    as it is.  The elements and their order are the point's own, so its
    bits are the same whatever the batch or its chunks.
    """
    if table.exact:
        scale = sums["scale"]
        return _cells([Fraction(_scaled_s_g(x, k, sums)[0],
                                x.denominator ** 2 * scale)
                       for x, k in zip(xs.tolist(), ks.tolist())],
                      table, collapse=False)
    p2, p1, a0 = (sums[name] for name in ("p2", "p1", "a0"))
    dtype = p1.values.dtype
    # the padding of the rows: x + zero == x for every x, zeros included
    zero = complex(-0.0, -0.0) if dtype.kind == "c" else -0.0
    num = _number_type(False)
    xs = xs.astype(np.float64)
    roots = np.array([math.isqrt(k) for k in ks.tolist()], dtype=np.int64)
    out = np.empty(len(ks), dtype=dtype)
    # chunks of whole points whose rows, 2 isqrt(k) + 2 entries a point at
    # most, fit in coeffs._CHUNK entries at the batch's largest k
    size = max(1, coeffs._CHUNK // (2 * int(roots.max(initial=0)) + 2))
    for at in (slice(i, i + size) for i in range(0, len(ks), size)):
        x, k, root = xs[at, None], ks[at], roots[at]
        direct = k // (root + 1)
        n = np.arange(1, int(direct.max()) + 1)
        q = np.arange(1, root.max() + 1, dtype=np.float64)
        rows = np.empty((len(k), 1 + len(n) + len(q)), dtype=dtype)
        terms, groups = rows[:, 1 : 1 + len(n)], rows[:, 1 + len(n) :]
        r = _frac(x, n, num)
        np.multiply(table.alpha[n], r, out=terms)
        r -= 1
        terms *= r    # alpha(n) {x/n} ({x/n} - 1), in that order
        edge = np.searchsorted(p1.reads,
                               k[:, None] // np.arange(1, len(q) + 2))
        d2, d1, d0 = (_group_sums(s, edge) for s in (p2, p1, a0))
        groups[...] = x * x * d2 - x * (2 * q + 1) * d1 + q * (q + 1) * d0
        rows[:, 0] = zero
        terms[n > direct[:, None]] = zero
        groups[q > root[:, None]] = zero
        out[at] = np.cumsum(rows, axis=1, out=rows)[:, -1]
    return _cells(out, table)


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

def _f1(xs: np.ndarray, ks: np.ndarray, s_f: np.ndarray,
        table: TotientTable, constants: Constants) -> np.ndarray:
    """f1(x) at each point (xs, ks) of a batch from S_f at its floor value,
    by the operations of one point: S_f - phi(x)/2/x at an integer x >= 1,
    then A1/2 - 2 C x + S_f."""
    c, a1, _ = _constants(_number_type(table.exact), constants)
    at = np.flatnonzero((xs == ks) & (ks >= 1))
    if len(at):
        s_f = s_f.copy()
        s_f[at] = s_f[at] - _phi_at(table, ks[at]) / 2 / ks[at]
    return a1 / 2 - 2 * c * xs + s_f


def f1_closed(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """f1 via the closed form A1/2 - 2Cx + S_f(x), half-jump at integers.

    x = 0 is the one point where the closed form and the series differ as
    limits; the series value, exactly 0, is returned there.
    """
    point = num, x, _ = _table_point(x, table)
    if x == 0:
        return num.collapse(0)
    xs, ks = _batch_points([point], table)
    s_f = _column(_sweep(table, ks, ("s_f",)), "s_f", ks, table)
    return _f1(xs, ks, s_f, table, constants).item(0)


class F1OneSided(NamedTuple):
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
                      jump=num.collapse(table.phi.item(N)) / N)


def f1_series_raw(x: Scalar, table: TotientTable, M: int) -> Scalar:
    """The bare truncation sum_{n<=M} (alpha(n)/n) s(x/n), no tail correction."""
    if M > table.N:
        raise MBeyondTable(f"M = {M} beyond table N = {table.N}")
    if M < 1:
        raise UsageError(f"need M >= 1, got {M}")
    if x < 0:
        raise XBelowOne(f"need x >= 0, got {x}")
    num = _number_type(table.exact)
    n, a = _nonzero_alpha(table, M)
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
    k = np.floor(xs).astype(np.int64)
    # S_f at every k, indexed by floor
    s_f = _float_column(table.phi, 1, int(k.max()))
    out = _f1(xs, k, s_f[k], table, constants)
    out[xs == 0] = 0
    return out


# ---------------------------------------------------------------------------
# g1
# ---------------------------------------------------------------------------

def _g1(xs: np.ndarray, ks: np.ndarray, sums: dict, table: TotientTable,
        constants: Constants) -> np.ndarray:
    """g1(x) = S_g + x^2 (A2 - P2) - x (A1 - P1) at each point (xs, ks) of
    a batch from its sweep's sums, each value taken into the table's number
    type."""
    _, a1, a2 = _constants(_number_type(table.exact), constants)
    p1, p2 = (_column(sums, name, ks, table) for name in ("p1", "p2"))
    g = _s_g(xs, ks, sums, table) + xs * xs * (a2 - p2) - xs * (a1 - p1)
    return _cells(g, table)


def g1(x: Scalar, table: TotientTable, constants: Constants) -> Scalar:
    """g1(x) = sum_n alpha(n) {x/n}({x/n}-1), summed in closed tail form.

    Terms with n > x have {x/n} = x/n, so the tail is
    x^2 (A2 - P2(x)) - x (A1 - P1(x)).
    """
    xs, ks = _batch_points([_table_point(x, table)], table)
    sums = _batch_sweep(ks, table, ("p1", "p2"))
    return _g1(xs, ks, sums, table, constants).item(0)


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

class DecompositionReport(NamedTuple):
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
        phi = table.phi.item(k)   # a Python number, never an np.int64
        lhs -= phi * scale
        rhs -= a * (phi * scale // k)
    return lhs == rhs, Fraction(lhs - rhs, 2 * b * b * scale)


def decompose(x: Scalar, table: TotientTable,
              constants: Constants) -> DecompositionReport:
    """Evaluate every piece of E2(x) = x f1(x) + g1(x)/2 at one point: a
    batch of one (decompose_batch)."""
    return decompose_batch([x], table, constants)[0]


def decompose_columns(xs, table: TotientTable, constants: Constants) -> dict:
    """decompose at every x of a batch, on one sweep of the batch's sums,
    as the columns of its report: x, E2, x_f1, half_g1, residual and
    exact_verdict.

    The values are columns of the batch (coeffs._cells), formed over the
    whole batch by the operations of one point: float64 arrays on a real
    float table, object arrays of Python numbers on any other.  On an
    exact table the reduced identity, evaluated once a point, gives the
    residual and the verdict, and g1/2 is E2 - x f1 - residual, which
    equals g1(x)/2 in Q since Constants keeps A2 = 2C; a float table sums
    g1 itself.
    """
    xs, ks = _batch_points((_table_point(x, table, 1) for x in xs), table)
    sums = _batch_sweep(ks, table, _DECOMPOSE_SUMS)
    e2 = _error_term(table, constants.c, xs, ks,
                     _column(sums, "s_phi", ks, table, collapse=False),
                     "symmetric")
    xf1 = xs * _f1(xs, ks, _column(sums, "s_f", ks, table), table, constants)
    if table.exact:
        rows = [_reduced_residual(x, table, k, sums)
                for x, k in zip(xs.tolist(), ks.tolist())]
        residual = _cells([res for _, res in rows], table, collapse=False)
        hg1 = e2 - xf1 - residual
        verdicts = ["pass" if passed else "fail" for passed, _ in rows]
    else:
        hg1 = _g1(xs, ks, sums, table, constants) / 2
        residual = e2 - xf1 - hg1
        verdicts = ["not-applicable"] * len(ks)
    return {"x": xs, "E2": e2, "x_f1": xf1, "half_g1": hg1,
            "residual": residual, "exact_verdict": verdicts}


def decompose_batch(xs, table: TotientTable, constants: Constants) -> list:
    """decompose at every x of a batch, on one sweep of the batch's sums
    (decompose_columns), each point's values with their bounds."""
    cols = decompose_columns(xs, table, constants)
    c, a1, a2 = constants.c, constants.a1, constants.a2
    xf = cols["x"].astype(np.float64)
    e2_b = c.bound * xf * xf
    f1_b = a1.bound / 2 + 2 * xf * c.bound
    g1_b = xf * xf * a2.bound + xf * a1.bound
    values = (cols[name].tolist() for name in
              ("x", "E2", "x_f1", "half_g1", "residual"))
    bounds = (e2_b.tolist(), (xf * f1_b).tolist(), (g1_b / 2).tolist())
    return [DecompositionReport(
        x=x, e2=ValueWithBound(e2, e2_bound, c.bound_kind),
        arithmetic_part=ValueWithBound(xf1, xf1_bound, a1.bound_kind),
        analytic_part=ValueWithBound(hg1, hg1_bound, a1.bound_kind),
        residual=residual, exact_verdict=verdict)
        for x, e2, xf1, hg1, residual, e2_bound, xf1_bound, hg1_bound, verdict
        in zip(*values, *bounds, cols["exact_verdict"])]


def verify_identity_batch(xs, table: TotientTable) -> list:
    """Run the constant-free reduced identity at many rational x.

    One sweep of the columns serves the batch, leaving O(sqrt(floor(x)))
    big-integer operations per point for S_g.
    Returns [(x, passed, rational_residual), ...].
    """
    _require_mode(table, "exact", "the reduced identity")
    points = [_table_point(x, table, 1) for x in xs]
    ks = np.array([k for _, _, k in points], dtype=np.int64)
    sums = _batch_sweep(ks, table, _DECOMPOSE_SUMS)
    return [(x, *_reduced_residual(x, table, k, sums))
            for _, x, k in points]
