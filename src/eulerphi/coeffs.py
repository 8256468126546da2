"""Coefficient and totient tables.

alpha(n) is the multiplicative coefficient mu(n) prod_{p|n} gamma(p)
(supported on squarefree n), and phi(n) = n prod_{p|n} F_p(1)^{-1} is the
totient attached to the product, so phi(p^k) = p^(k-1) (p - gamma(p)).
Both are built by one pass of a multiplicative sieve over the
smallest-prime-factor (SPF) table, which also supplies the primes (the
n >= 2 with spf(n) = n), so there is no second sieve: with p = spf(n) and
m = n/p,

    f(n) = f(m) * (higher if p | m else f(p)),

where higher = 0 for alpha and p for phi, in every number type.  m <= n/2,
so every entry is filled from earlier ones in about log2(N) whole-array
steps.  phi_direct evaluates the product formula by trial factorization,
and the tests check tables against the divisor sum
phi(n)/n = sum_{m|n} alpha(m)/m.

Tables come in two modes and three number types.  'exact' tables, available
when every gamma(p) is rational, hold Python ints when every gamma(p) they
read is an integer (zeta, real characters, integral custom roots; sieved in
int64 while a bound keeps every entry inside it), and fractions.Fraction
entries otherwise.  'float' tables hold numpy float64/complex128 arrays.
A table holds alpha and phi only.  The sum of phi, which the error term
E(x) = sum_{n<=x} phi(n) - C x^2 reads, is formed where it is read, at the
floor values of a batch of points (phi_sums), by the exact column kernel
that the decomposition's sweep also runs; scan/report helpers live here too.

The exact column kernel (_exact_column) sums column(n)/n^power up to a top
and reports the sums at a set of read points.  The read points cut 1..top
into segments; _split sums every segment's terms by binary splitting with
lcm denominators, one level of the tree at a time over numpy object arrays,
and one pass over the segments brings each segment's sum over the common
denominator and adds it on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import (
    CacheMismatch,
    ModeUnavailable,
    OutOfMemory,
    SOutOfRange,
    UsageError,
    XBelowOne,
    XBeyondTable,
)
# primes_upto is not called here; perfbench/selftest.py checks that the
# tracer wraps this module's binding of it
from .primes import primes_upto, smallest_prime_factor, spf_primes  # noqa: F401
from .products import (
    EulerProductSpec,
    ValueWithBound,
    _U,
    _number_type,
    _plain,
    gamma_values,
    local_factor_at_one,
    spec_hash,
    zeta_value,
)

Scalar = Union[int, float, complex, Fraction]

# hard ceilings so a typo'd N fails fast instead of thrashing
_FLOAT_N_CAP = 5 * 10 ** 7
_EXACT_N_CAP = 10 ** 6
# auto mode switches to float above this: exact tables, and the big-integer
# sums the decomposition reads off them, cost far more than float ones
_EXACT_AUTO_CAP = 2 * 10 ** 5

# bumped whenever the file layout changes, so older files fail the header check
_CACHE_VERSION = 6
# entries per step of the multiplicative sieve; bounds its temporaries
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

@dataclass
class CoefficientTable:
    """alpha(0..N); index 0 is a padding zero."""

    spec: EulerProductSpec
    N: int
    mode: str                      # 'exact' | 'float'
    alpha: Union[list, np.ndarray]

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass
class TotientTable(CoefficientTable):
    """alpha(0..N) and phi(0..N).

    Entry 0 of each is 0.  Exact tables hold lists of Python ints when every
    gamma(p) up to N is an integer and of Fractions otherwise; float tables
    hold numpy arrays, in which phi of an integral gamma(p) is an exact
    integer.  A division of an exact entry goes through Fraction, since
    int / int would round to a float.  The table holds no running sum:
    phi_sums and the decomposition kernel sum phi, phi(n)/n and alpha
    afresh for each batch of points, up to its largest floor(x), and keep
    only the values its formulas read.

    The mode is the number type of every call on the table (_table_point):
    an exact table takes a float x as Fraction(x).  The float-grid kernels
    read a float table's arrays and refuse an exact one (_require_mode).
    """

    phi: Union[list, np.ndarray]


def _require_mode(table: CoefficientTable, mode: str, what: str) -> None:
    """Refuse a table of the other mode: ModeUnavailable."""
    if table.mode != mode:
        raise ModeUnavailable(f"{what} needs a {mode} table")


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------

def _resolve_mode(spec: EulerProductSpec, N: int, mode: str) -> str:
    """The table mode for (spec, N), checked against the size caps."""
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    if mode == "auto":
        mode = "exact" if (spec.exact_capable and N <= _EXACT_AUTO_CAP) else "float"
    elif mode not in ("exact", "float"):
        raise UsageError(f"mode must be auto, exact, or float; got {mode!r}")
    elif mode == "exact" and not spec.exact_capable:
        raise ModeUnavailable("spec has irrational/complex local data; exact "
                              "tables need rational gamma(p)")
    if mode == "float" and N > _FLOAT_N_CAP:
        raise OutOfMemory(f"float table capped at N = {_FLOAT_N_CAP}, got {N}")
    if mode == "exact" and N > _EXACT_N_CAP:
        raise OutOfMemory(f"exact table capped at N = {_EXACT_N_CAP}, got {N}")
    return mode


def _multiplicative(spf: np.ndarray, ps: np.ndarray, columns: list) -> list:
    """Several multiplicative functions f(0..N) in one pass over the SPF table.

    Each column is (at_primes, higher, one) and gives f(0) = 0,
    f(1) = one, f(ps) = at_primes and, for composite n,
    f(n) = f(m) * (higher[n] if p | m else f(p)) with p = spf[n], m = n/p;
    higher is one value for every n, or an array indexed like spf.  A
    column's array takes at_primes' dtype (float64, complex128, int64, or
    object for Python ints and Fractions).  m <= n/2, so a run [lo, hi)
    with hi <= 2 lo reads only entries below lo and is filled in one step;
    p, m and p | m are computed once per run and shared by every column
    (the smallest-prime-factor recurrence of Gries and Misra's linear
    sieve, CACM 1978, run over several functions at once).

    A prime n = p goes through the product as one * f(p), which is f(p)
    bit for bit in float64 and int64 and up to the sign of a zero in
    complex128 (which _stored clears), so numeric columns write the whole
    run at once; object columns keep the primes out of their slow
    Python-object products.  p and m index as intp: numpy gathers through
    int32 indices about three times slower.
    """
    outs = []
    for at_primes, _, one in columns:
        out = np.full(len(spf), one - one, dtype=at_primes.dtype)
        out[1] = one
        out[ps] = at_primes
        outs.append(out)
    lo = 4
    while lo < len(spf):
        hi = min(2 * lo, lo + _CHUNK, len(spf))
        p = spf[lo:hi].astype(np.intp)
        # n / p is exact in float64 (p divides n < 2^53), and p | m iff
        # spf(m) = p, as every prime factor of m is at least p; both are
        # cheaper than numpy's integer // and %
        m = (np.arange(lo, hi, dtype=np.float64) / p).astype(np.intp)
        divides = spf[m] == p
        composite = None
        for out, (_, higher, _) in zip(outs, columns):
            factor = np.where(divides, higher[lo:hi] if np.ndim(higher)
                              else higher, out[p])
            if out.dtype != object:
                out[lo:hi] = out[m] * factor
                continue
            if composite is None:
                composite = np.flatnonzero(m > 1)
            out[lo + composite] = out[m[composite]] * factor[composite]
        lo = hi
    return outs


def _stored(values: np.ndarray, exact: bool):
    """Exact tables hold lists of Python ints or Fractions, float ones
    arrays."""
    if exact:
        return values.tolist()
    values += 0  # turns the -0.0 that f(m) * 0 leaves into 0.0
    return values


def _fits_int64(gam: np.ndarray, ps: np.ndarray, N: int) -> bool:
    """True when integral gamma(ps) keep alpha and phi up to N inside
    int64.

    n <= N has at most w distinct prime factors, w the number of leading
    primes whose product is <= N, so |alpha(n)| <= G^w with
    G = max(1, |gamma(p)|), and |phi(n)| <= n M^w with
    M = max(1, |1 - gamma(p)/p|).  The bound is taken in floats, against
    2^62 to leave room for rounding.  The table stores Python ints, so sums
    of its entries are not bounded here.
    """
    w, primorial = 0, 1
    for p in ps.tolist():
        primorial *= p
        if primorial > N:
            break
        w += 1
    g = gam.astype(np.float64)
    big = max(1.0, float(np.max(np.abs(g), initial=0)))
    ratio = max(1.0, float(np.max(np.abs(1 - g / ps), initial=0)))
    return max(big ** w, N * ratio ** w) < 2.0 ** 62


def _gammas(spec: EulerProductSpec, ps: np.ndarray, N: int,
            exact: bool) -> tuple:
    """(gamma(ps), one) in the number type a table up to N is sieved in.

    Float tables take float64, or complex128 unless every gamma(p) is real.
    Exact tables take Python ints when every gamma(p) is an integer, as an
    int64 array when _fits_int64 allows it and an object array otherwise,
    and Fractions when some gamma(p) is not.  Zeta's ones and a real
    character's values are read as ints directly; only custom products
    go through gamma_values' Fractions.
    """
    if not exact:
        return gamma_values(spec, ps), 1.0
    chi = spec.character
    if spec.kind == "zeta":
        gam = np.ones(len(ps), dtype=np.int64)
    elif chi is not None and all(type(v) is int for v in chi.values):
        gam = np.array(chi.values, dtype=np.int64)[ps % chi.modulus]
    else:
        gam = gamma_values(spec, ps, exact)
        if any(g.denominator != 1 for g in gam.tolist()):
            return gam, Fraction(1)
        gam = np.array([int(g) for g in gam.tolist()], dtype=object)
    return gam.astype(np.int64 if _fits_int64(gam, ps, N) else object), 1


def _sieve(spec: EulerProductSpec, N: int, mode: str) -> tuple:
    """(mode, spf, ps, gamma(ps), one): what a table up to N is sieved
    from."""
    mode = _resolve_mode(spec, N, mode)
    spf = smallest_prime_factor(N)
    ps = spf_primes(spf)
    gam, one = _gammas(spec, ps, N, mode == "exact")
    return mode, spf, ps, gam, one


def sieve_alpha(spec: EulerProductSpec, N: int,
                mode: str = "auto") -> CoefficientTable:
    """Tabulate alpha(n) = mu(n) prod_{p|n} gamma(p) for n <= N."""
    mode, spf, ps, gam, one = _sieve(spec, N, mode)
    alpha, = _multiplicative(spf, ps, [(-gam, 0, one)])
    return CoefficientTable(spec=spec, N=N, mode=mode,
                            alpha=_stored(alpha, mode == "exact"))


def phi_direct(spec: EulerProductSpec, n: int,
               exact: Optional[bool] = None) -> Scalar:
    """phi(n) = n prod_{p|n} prod_j (1 - alpha_j(p)/p), by trial factorization.

    Independent of the sieve route; used to cross-check tables.
    """
    from .primes import factorize
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    num = _number_type(spec.exact_capable if exact is None else exact)
    out = num.lift(n)
    for p, _ in factorize(n):
        out /= num.lift(local_factor_at_one(spec, p, exact=num.exact))
    return num.collapse(out)


def phi_table(spec: EulerProductSpec, N: int, mode: str = "auto") -> TotientTable:
    """Build alpha(0..N) and phi(0..N) on one SPF table.

    phi is sieved itself, phi(n) = phi(m) (p if p | m else p - gamma(p)),
    in the table's number type, so integral gamma(p) give integers
    throughout: Python ints in exact tables, whole float64 values in float
    ones.
    """
    mode, spf, ps, gam, one = _sieve(spec, N, mode)
    exact = mode == "exact"
    alpha, phi = _multiplicative(spf, ps, [(-gam, 0, one),
                                           (ps - gam, spf, one)])
    return TotientTable(spec=spec, N=N, mode=mode, alpha=_stored(alpha, exact),
                        phi=_stored(phi, exact))


# ---------------------------------------------------------------------------
# Partial sums and the error term
# ---------------------------------------------------------------------------

def _table_point(x, table: CoefficientTable, lowest: int = 0) -> tuple:
    """(num, x, floor(x)) for a call on table at x.

    num is the table's number type, and x is taken into it: Fraction(x),
    which loses nothing, on an exact table, a float on a float one.  x
    below lowest (XBelowOne) or past the table (XBeyondTable) is refused.
    """
    num = _number_type(table.exact)
    x = num.collapse(x)
    k = math.floor(x)
    if k < lowest:   # x < lowest, as lowest is an integer
        raise XBelowOne(f"need x >= {lowest}, got {x}")
    if k > table.N:
        raise XBeyondTable(f"x = {x} beyond table N = {table.N}")
    return num, x, k


def _column_terms(column, power: int, top: int) -> tuple:
    """(n, p, q) over the n <= top with column(n) != 0, where
    column(n)/n^power = p/q in lowest terms, q > 0.

    n is an int64 array, p and q object arrays of Python ints.  A column
    of Python ints is reduced in int64 when every entry up to top fits
    (n^power does, as n <= 10^6), in Python ints otherwise; a column of
    Fractions reduces its numerators against n^power and multiplies the
    rest into its denominators.
    """
    values = column[1 : top + 1]
    fractions = type(column[0]) is Fraction
    if fractions:
        a = np.array([v.numerator for v in values], dtype=object)
    else:
        try:
            a = np.array(values, dtype=np.int64)
        except OverflowError:
            a = np.array(values, dtype=object)
    n = np.flatnonzero(a) + 1
    a = a[n - 1]
    m = n ** power
    g = np.gcd(a, m)
    q = m // g
    if fractions:
        q = q * np.array([values[i].denominator for i in (n - 1).tolist()],
                         dtype=object)
    return n, (a // g).astype(object), q.astype(object)


def _split(nodes: list, seg: np.ndarray) -> tuple:
    """Each run of equal seg summed by binary splitting: (seg, nodes),
    one node per run.

    A node is [N, D] or [N, D, T, span]: N/D is the sum of its terms over
    D, the lcm of their denominators, and T/D = sum_n t_n (hi - n) is the
    sum of its running sums before its last position hi, which lies
    span positions past the node to its left.  Every level pairs
    neighbours of one run at once, left to right, over numpy object
    arrays: with g = gcd(Dl, Dr),

        N = Nl (Dr/g) + Nr (Dl/g),   D = Dl (Dr/g),
        T = (Tl + span_r Nl) (Dr/g) + Tr (Dl/g),   span = span_l + span_r,

    so a node's numbers are about as long as the lcm of its own terms'
    denominators, and a sum of k terms takes log2(k) levels of products,
    gcds and exact divisions, not k additions into one numerator as long
    as the lcm of all of them (binary splitting: Haible and Papanikolaou,
    Fast multiprecision evaluation of series of rational numbers, 1998).
    """
    while True:
        at = np.arange(len(seg))
        first = np.ones(len(seg), dtype=bool)
        first[1:] = seg[1:] != seg[:-1]
        rank = at - np.maximum.accumulate(np.where(first, at, 0))
        left = np.flatnonzero((rank[:-1] % 2 == 0) & ~first[1:])
        if not len(left):
            return seg, nodes
        right = left + 1
        nl, dl, nr, dr = (nodes[0][left], nodes[1][left],
                          nodes[0][right], nodes[1][right])
        g = np.gcd(dl, dr)
        fl, fr = dr // g, dl // g
        nodes[0][left] = nl * fl + nr * fr
        nodes[1][left] = dl * fl
        if len(nodes) > 2:
            t, span = nodes[2], nodes[3]
            t[left] = (t[left] + span[right] * nl) * fl + t[right] * fr
            span[left] += span[right]
        keep = rank % 2 == 0
        seg, nodes = seg[keep], [v[keep] for v in nodes]


def _exact_column(column, power: int, top: int, reads: set,
                  total: bool = False) -> tuple:
    """The sums S(k) = sum_{n<=k} column(n)/n^power over n <= top,
    recorded at each k of reads (and at 0).

    Returns (D, {k: numerator}, {k: numerator of T(k)}), all over D, the
    lcm of the denominators of the nonzero terms up to top, with
    T(k) = sum_{1<=j<k} S(j) when total and 0 otherwise.  The read points
    cut 1..top into segments; _split sums the nonzero terms of every
    segment by binary splitting, and one pass over the segments brings
    each sum over D and adds it on: S(b) = S(a) + N_s (D / D_s) and
    T(b) = T(a) + (b - a) S(a) + T_s (D / D_s) for the segment (a, b].

    A column of Python ints at power 0 has D = 1, and its sums are the
    builtin sums of its slices between consecutive read points.
    """
    ks = sorted(k for k in reads if 0 < k <= top)
    if power == 0 and not total and type(column[0]) is int:
        acc = last = 0
        nums = {0: 0}
        for k in ks:
            acc += sum(column[last + 1 : k + 1])
            nums[k], last = acc, k
        return 1, nums, dict.fromkeys(nums, 0)
    read = set(ks)
    ends = ks if top in read else ks + [top]
    n, p, q = _column_terms(column, power, top)
    seg = np.searchsorted(ends, n)
    nodes = [p, q]
    if total:   # a term's running sums fill the positions up to the next term
        nxt = np.append(n[1:], 0)
        tail = np.ones(len(n), dtype=bool)
        tail[:-1] = seg[1:] != seg[:-1]
        nxt[tail] = np.array(ends, dtype=np.int64)[seg[tail]] + 1
        span = (nxt - n).astype(object)
        nodes += [p * (span - 1), span]
    seg, nodes = _split(nodes, seg)
    # N, D and T of every segment, 0/1 and 0 where it has no terms
    segments = [np.full(len(ends), v, dtype=object) for v in (0, 1, 0)]
    for values, node in zip(segments, nodes):
        values[seg] = node
    N, D, T = (v.tolist() for v in segments)
    den = math.lcm(*D)
    acc = tot = last = 0
    nums, tots = {0: 0}, {0: 0}
    for k, num, d, t in zip(ends, N, D, T):
        factor = den // d
        if total:
            tot += (k - last) * acc + t * factor
        acc += num * factor
        if k in read:
            nums[k], tots[k] = acc, tot
        last = k
    return den, nums, tots


def phi_sums(table: TotientTable, ks):
    """sum_{n<=k} phi(n) at every k >= 0 of ks, indexed by k.

    Float tables give the numpy cumulative sum of phi up to the largest k;
    phi(0) = 0 makes it the running sum in the one sequential order.
    Exact tables give {k: sum} in the table's number type, from one pass
    of _exact_column over the phi column up to the largest k: builtin
    sums of Python ints, or numerators over the lcm of the Fractions'
    denominators.
    """
    top = max(0, max(ks, default=0))
    if top > table.N:
        raise XBeyondTable(f"table holds N = {table.N}, asked for {top}")
    if not table.exact:
        return np.cumsum(table.phi[: top + 1])
    den, nums, _ = _exact_column(table.phi, 0, top, set(ks))
    if type(table.phi[0]) is int:
        return nums
    return {k: Fraction(v, den) for k, v in nums.items()}


def error_term(table: TotientTable, cF: ValueWithBound, x,
               convention: str = "plain", _sums=None) -> Scalar:
    """E(x) = sum_{n<=x} phi(n) - C x^2, for x >= 0.

    convention 'plain' uses the full last term; 'symmetric' subtracts half of
    phi(x) when x is an integer (the midpoint convention the sawtooth
    decomposition reproduces).  _sums: phi_sums of a batch that covers
    floor(x), instead of a sum of x's own.
    """
    if convention not in ("plain", "symmetric"):
        raise UsageError(f"convention must be plain or symmetric, got {convention!r}")
    num, x, k = _table_point(x, table)
    s = (phi_sums(table, [k]) if _sums is None else _sums)[k]
    if convention == "symmetric" and x == k and k >= 1:
        s = s - num.collapse(table.phi[k]) / 2
    return s - num.collapse(cF.value) * x * x


def make_e2(table: TotientTable, cF: ValueWithBound):
    """Vectorized E2 provider: xs array -> symmetric-convention error term.

    Valid for 0 <= x < N+1; raises XBeyondTable past the table.
    """
    _require_mode(table, "float", "make_e2")
    N, phi = table.N, table.phi
    cumulative = np.cumsum(phi)
    c = _plain(cF.value)

    def e2(xs):
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size and (xs.min() < 0 or xs.max() >= N + 1):
            raise XBeyondTable(
                f"E2 provider covers [0, {N + 1}), got [{xs.min()}, {xs.max()}]")
        k = np.floor(xs).astype(np.int64)
        out = cumulative[k] - c * xs * xs
        at_int = (xs == k) & (k >= 1)
        if np.any(at_int):
            out = out - np.where(at_int, phi[np.minimum(k, N)] / 2, 0)
        return out

    return e2


# ---------------------------------------------------------------------------
# Series identity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesCheckReport:
    """Both sides of sum phi(n) n^{-s} = zeta(s-1) sum alpha(n) n^{-s}."""

    s: float
    N: int
    lhs: complex
    rhs: complex
    diff: float
    bound: float
    bound_kind: str
    ok: bool


def _log_power_tail(N: int, s: float, d: int) -> float:
    # int_N^inf (1+ln t)^d t^(1-s) dt via integration by parts:
    # I_d = (1+ln N)^d N^(2-s)/(s-2) + d/(s-2) I_(d-1)
    base = N ** (2.0 - s) / (s - 2.0)
    out = base
    for j in range(1, d + 1):
        out = (1 + math.log(N)) ** j * base + j / (s - 2.0) * out
    return out


def _sum_and_rounding(terms: np.ndarray) -> tuple:
    """(np.sum(terms), a bound on its distance from the sum of the exact
    products c(n) n^-s that terms rounds, c(n) the stored entries).

    Summation of m terms in any order errs by at most gamma_{m-1} sum |t|,
    gamma_k = k u / (1 - k u), in each of the real and imaginary parts, so
    by sqrt(2) times that for complex terms (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 4.2).  numpy's pow gives n^-s
    within 2 ulp (4u) and the product adds u, so each term is within
    gamma_6 |t| of the exact one; gamma_{m-1} + gamma_6 <= gamma_{m+5}.
    """
    spread = math.sqrt(2) if np.iscomplexobj(terms) else 1.0
    k = len(terms) + 5
    rounding = spread * k * _U / (1 - k * _U) * float(np.sum(np.abs(terms)))
    return np.sum(terms), rounding


def series_identity_check(spec: EulerProductSpec, s: float, N: int,
                          table: Optional[TotientTable] = None) -> SeriesCheckReport:
    """Compare sum_{n<=N} phi(n)/n^s with zeta(s-1) sum_{n<=N} alpha(n)/n^s.

    Needs s > 2 so both series converge absolutely (|phi(n)| <= n (1+ln n)^d).
    Truncation radii: the phi tail integrates the (1+ln t)^d t^{1-s} envelope;
    the alpha tail uses |alpha(n)| <= 1 for the degree-1 kinds (rigorous) and
    the largest tabulated |alpha| as a scale for custom kinds (heuristic).
    zeta(s-1) comes from zeta_value with its rigorous bound (s - 1 is exact
    in floats for s >= 2).  The rounding of each sum is _sum_and_rounding's,
    the product zeta(s-1) sum alpha(n)/n^s adds u of itself, and the factor
    1 + 64u covers the bound's own rounding.
    """
    if not (isinstance(s, (int, float)) and s > 2):
        raise SOutOfRange(f"need real s > 2, got {s}")
    s = float(s)
    if table is None:
        table = phi_table(spec, N, mode="float")
    _require_mode(table, "float", "series_identity_check")
    if table.N < N:
        raise XBeyondTable(f"table holds N = {table.N} < {N}")
    alpha = table.alpha[: N + 1]
    n = np.arange(N + 1, dtype=np.float64)
    n[0] = 1.0
    w = n ** (-s)
    lhs, lhs_rounding = _sum_and_rounding(table.phi[: N + 1] * w)
    zeta = zeta_value(s - 1.0)
    zs = zeta.value
    alpha_sum, alpha_rounding = _sum_and_rounding(alpha * w)
    rhs = zs * alpha_sum

    d = spec.degree
    phi_tail = _log_power_tail(N, s, d)
    if spec.kind in ("zeta", "dirichlet"):
        alpha_tail = N ** (1.0 - s) / (s - 1.0)
        kind = "rigorous"
    else:
        scale = float(np.max(np.abs(alpha))) if N >= 1 else 1.0
        alpha_tail = scale * N ** (1.0 - s) / (s - 1.0)
        kind = "heuristic"
    bound = (phi_tail + lhs_rounding + abs(zs) * (alpha_tail + alpha_rounding)
             + zeta.bound * abs(complex(alpha_sum))
             + _U * abs(complex(rhs))) * (1 + 64 * _U)
    diff = abs(complex(lhs) - complex(rhs))
    return SeriesCheckReport(s=s, N=N, lhs=_plain(lhs), rhs=_plain(rhs),
                             diff=diff, bound=bound, bound_kind=kind,
                             ok=diff <= bound)


# ---------------------------------------------------------------------------
# Growth scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthScanReport:
    """sup of |E(x)| / (x (log 2x)^d) over integers in [x_min, X]."""

    x_min: int
    x_max: int
    sup: float
    argmax: int
    rows: tuple     # (x, E(x), ratio) samples, log-spaced


def growth_scan(table: TotientTable, cF: ValueWithBound, X: int,
                samples: int = 20, x_min: int = 2) -> GrowthScanReport:
    """Scan the plain error term against the x (log 2x)^degree envelope.

    E(x) = sum_{n<=x} phi(n) - (C x) x and |E(x)| / (x (log 2x)^d) are
    formed in place, in that order of operations.
    """
    _require_mode(table, "float", "growth_scan")
    if X > table.N:
        raise XBeyondTable(f"X = {X} beyond table N = {table.N}")
    if x_min < 1 or x_min > X:
        raise UsageError(f"need 1 <= x_min <= X, got x_min={x_min}, X={X}")
    e = np.cumsum(table.phi[: X + 1])
    e = e[x_min:]
    xs = np.arange(x_min, X + 1, dtype=np.float64)
    c = _plain(cF.value)
    main = c * xs
    main *= xs
    e -= main
    envelope = 2 * xs
    np.log(envelope, out=envelope)
    envelope **= table.spec.degree
    envelope *= xs
    ratio = np.abs(e)
    ratio /= envelope
    i = int(np.argmax(ratio))
    sup = float(ratio[i])
    argmax = int(xs[i])
    idx = np.unique(np.geomspace(x_min, X, num=min(samples, X - x_min + 1)
                                 ).round().astype(np.int64))
    rows = tuple((int(x), _plain(e[x - x_min]), float(ratio[x - x_min]))
                 for x in idx)
    return GrowthScanReport(x_min=x_min, x_max=X, sup=sup, argmax=argmax,
                            rows=rows)


# ---------------------------------------------------------------------------
# Table cache (npz with a JSON header)
# ---------------------------------------------------------------------------

def cache_path(directory: str, spec: EulerProductSpec, N: int) -> str:
    return os.path.join(directory, f"table-{spec_hash(spec)}-{N}-float.npz")


def save_table(table: TotientTable, path: str) -> None:
    """Persist a float totient table, one numpy array per column.

    Exact tables are not cached: loading one would create as many Python
    ints or Fractions as building it does, so it would save next to nothing.
    """
    if table.exact:
        raise ModeUnavailable("only float tables are cached")
    header = json.dumps({"version": _CACHE_VERSION,
                         "spec_hash": spec_hash(table.spec),
                         "N": table.N, "mode": "float"}, sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savez(path, header=np.array(header), alpha=table.alpha, phi=table.phi)


def load_table(path: str, spec: EulerProductSpec, N: int) -> TotientTable:
    """Load a cached float table, verifying spec hash and N."""
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        want = {"version": _CACHE_VERSION, "spec_hash": spec_hash(spec),
                "N": N, "mode": "float"}
        if header != want:
            raise CacheMismatch(f"cache header {header} != requested {want}")
        alpha, phi = z["alpha"], z["phi"]
    return TotientTable(spec=spec, N=N, mode="float", alpha=alpha, phi=phi)
