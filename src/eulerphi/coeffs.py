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

Tables come in two modes, and every column is a numpy array.  'exact'
tables, available when every gamma(p) is rational, hold integers when every
gamma(p) they read is an integer (zeta, real characters, integral custom
roots): the int64 arrays they are sieved in while a bound keeps every entry
inside int64 (_fits_int64), object arrays of Python ints past it.  They
hold object arrays of fractions.Fraction otherwise.  'float' tables hold
float64/complex128 arrays.  An entry read out of an int64 column is an
np.int64, whose products wrap past 2^63 and which a Fraction keeps as its
numerator, so readers take entries out through .item() or .tolist() before
they meet a Fraction or a big integer.

A table holds alpha and phi only, or phi alone for a reader of nothing else
(phi_table(..., alpha=False)).  The sum of phi, which the error term
E(x) = sum_{n<=x} phi(n) - C x^2 reads, is formed where it is read, at the
floor values of a batch of points (phi_sums, error_term_batch), by the
column kernels that the decomposition's sweep also runs; scan/report
helpers live here too.

The column kernels sum column(n)/n^power up to a top and report the sums
at a set of read points.  In the exact one (_exact_column) the read points
cut 1..top into segments; _split sums every segment's terms by binary
splitting with lcm denominators, one level of the tree at a time over
numpy object arrays, and one pass over the segments brings each segment's
sum over the common denominator and adds it on.  The float one
(_float_column) runs numpy's cumulative sum over blocks of _CHUNK terms,
each block starting from the last sum of the one before, and keeps the
sums at the read points only, or at every k for a reader of them all; on
request it also keeps the running sum of their rounding errors, found
exactly by TwoSum, so that a difference of two sums is as accurate as the
terms between them.

A batch of points is a column of values (_cells): a float64 array on a
real float table, an object array of Python numbers on any other, so that
a formula over the batch makes each point's operations, and bits, those
of the point alone (_error_term).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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
    _SlotRecord,
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
_CACHE_VERSION = 7
# entries per run of the multiplicative sieve and per block of the growth
# scan and the float column sums; bounds their temporaries to about 1 MB (a
# sieve run of two complex columns, a complex scan block), whatever the
# table's size
_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

@dataclass
class CoefficientTable:
    """alpha(0..N); index 0 is a padding zero."""

    spec: EulerProductSpec
    N: int
    mode: str                      # 'exact' | 'float'
    alpha: Optional[np.ndarray]

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass
class TotientTable(CoefficientTable):
    """alpha(0..N) and phi(0..N), or phi(0..N) alone.

    alpha is None on a table sieved without it (phi_table(..., alpha=False)):
    E(x), E2 and f1's closed form read phi only, and a reader of alpha (the
    P1, P2 and S_g sums, the series identity, an export or a cache file)
    refuses such a table with ModeUnavailable (_require_alpha).

    Entry 0 of each column is 0, and the columns share one dtype.  Exact
    tables hold integers when every gamma(p) up to N is an integer (int64
    arrays, or object arrays of Python ints past int64) and object arrays
    of Fractions otherwise; float tables hold float64 or complex128 arrays,
    in which phi of an integral gamma(p) is an exact integer.  A division
    of an exact entry goes through Fraction, since int / int would round to
    a float.  The table holds no running sum: phi_sums and the
    decomposition kernel sum phi, phi(n)/n and alpha afresh for each batch
    of points, up to its largest floor(x), and keep only the values its
    formulas read.

    The mode is the number type of every call on the table (_table_point):
    an exact table takes a float x as Fraction(x).  The float-grid kernels
    read a float table's arrays and refuse an exact one (_require_mode).
    """

    phi: np.ndarray


def _require_mode(table: CoefficientTable, mode: str, what: str) -> None:
    """Refuse a table of the other mode: ModeUnavailable."""
    if table.mode != mode:
        raise ModeUnavailable(f"{what} needs a {mode} table")


def _require_alpha(table: CoefficientTable, what: str) -> None:
    """Refuse a table sieved without its alpha column: ModeUnavailable."""
    if table.alpha is None:
        raise ModeUnavailable(f"{what} reads alpha, and this table holds "
                              f"phi only (phi_table(..., alpha=False))")


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


def _stored(values: np.ndarray, exact: bool) -> np.ndarray:
    """A sieved column as its table holds it: the array itself, with the
    -0.0 that f(m) * 0 leaves in a float column turned into 0.0."""
    if not exact:
        values += 0
    return values


def _fits_int64(gam: np.ndarray, ps: np.ndarray, N: int) -> bool:
    """True when integral gamma(ps) keep alpha and phi up to N inside
    int64.

    n <= N has at most w distinct prime factors, w the number of leading
    primes whose product is <= N, so |alpha(n)| <= G^w with
    G = max(1, |gamma(p)|), and |phi(n)| <= n M^w with
    M = max(1, |1 - gamma(p)/p|).  The bound is taken in floats, against
    2^62 to leave room for rounding.  Sums of the entries are not bounded
    here: _int_running_sum checks its own bound.
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


def phi_table(spec: EulerProductSpec, N: int, mode: str = "auto",
              alpha: bool = True) -> TotientTable:
    """Build alpha(0..N) and phi(0..N) on one SPF table, or phi(0..N) alone
    when alpha is False (the table's alpha is then None).

    phi is sieved itself, phi(n) = phi(m) (p if p | m else p - gamma(p)),
    in the table's number type, so integral gamma(p) give integers
    throughout: int64 or Python ints in exact tables, whole float64 values
    in float ones.  Each column is sieved on its own, so phi has the same
    bits with or without alpha beside it; a float table of phi alone holds
    half the memory, and its sieve takes about half the time.
    """
    mode, spf, ps, gam, one = _sieve(spec, N, mode)
    exact = mode == "exact"
    columns = [(ps - gam, spf, one)] + ([(-gam, 0, one)] if alpha else [])
    outs = [_stored(c, exact) for c in _multiplicative(spf, ps, columns)]
    return TotientTable(spec=spec, N=N, mode=mode,
                        alpha=outs[1] if alpha else None, phi=outs[0])


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

    n is an int64 array, p and q object arrays of Python ints.  An int64
    column is reduced in int64 (n^power fits, as n <= 10^6), one of Python
    ints in Python ints; a column of Fractions reduces its numerators
    against n^power and multiplies the rest into its denominators.
    """
    values = column[1 : top + 1]
    fractions = type(column[0]) is Fraction
    a = (np.array([v.numerator for v in values.tolist()], dtype=object)
         if fractions else values)
    n = np.flatnonzero(a) + 1
    a = a[n - 1]
    m = n ** power
    g = np.gcd(a, m)
    q = m // g
    if fractions:
        q = q * np.array([v.denominator for v in values[n - 1].tolist()],
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

    An integer column at power 0 has D = 1, and its sums are read off its
    running sum up to top (_int_running_sum).
    """
    ks = sorted(k for k in reads if 0 < k <= top)
    if power == 0 and not total and type(column[0]) is not Fraction:
        sums = _int_running_sum(column[: top + 1])
        nums = {0: 0, **dict(zip(ks, sums[ks].tolist()))}
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


def _int_running_sum(column: np.ndarray) -> np.ndarray:
    """The running sum of an integer column: an int64 array, or an object
    array of Python ints.

    Every partial sum is at most len(column) max|entry| in size: below
    2^63, the sum is one int64 np.cumsum.  Past that bound it is taken in
    Python ints, and kept in int64 only when every partial sum fits.
    """
    if column.dtype == np.int64:
        top = max(-int(column.min(initial=0)), int(column.max(initial=0)))
        if len(column) * top < 2 ** 63:
            return np.cumsum(column)
    sums = np.cumsum(column.astype(object))
    try:
        return sums.astype(np.int64)
    except OverflowError:
        return sums


def _float_column(column: np.ndarray, power: int, top: int,
                  reads: Optional[np.ndarray] = None,
                  errors: bool = False):
    """The sums S(k) = sum_{n<=k} column(n)/n^power of a float column, at
    each k of reads (distinct and ascending) or, when reads is None, at
    every k <= top; S(0) = 0.

    The terms are formed and summed a block of _CHUNK entries at a time, by
    np.cumsum in place, and a block's running sum starts from the last one
    of the block before it, so every sum has the bits of one np.cumsum of
    the terms from n = 1.  Only the sums at the read points are kept: the
    pass holds one block beside its result, whatever top.

    With errors (and reads), the result is (sums, lo): lo at each read is
    the running sum, by the same blocked np.cumsum, of the rounding errors
    of every addition up to it, each found exactly by TwoSum (Knuth), so
    that sums + lo is the exact sum of the terms as formed, up to the
    rounding of lo's own sum.  A difference
    (sums[b] - sums[a]) + (lo[b] - lo[a]) then has the accuracy of the
    terms in (a, b], not that of the whole prefix (the cascaded summation
    of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005).
    """
    dtype = np.result_type(column, np.float64)
    dense = reads is None
    out = np.zeros(top + 1 if dense else len(reads), dtype=dtype)
    size = min(_CHUNK, top)
    buf = None if dense else np.empty(size, dtype=dtype)
    if errors:
        lo_out = np.zeros(len(reads), dtype=dtype)
        terms, err = (np.empty(size, dtype=dtype) for _ in range(2))
        lo_carry = 0
    i = 0 if dense else int(np.searchsorted(reads, 1))
    carry = None
    for lo in range(1, top + 1, _CHUNK):
        hi = min(lo + _CHUNK, top + 1)
        block = out[lo:hi] if dense else buf[: hi - lo]
        if power:
            n = np.arange(lo, hi, dtype=np.float64)
            n **= power
            np.divide(column[lo:hi], n, out=block)
        else:
            block[...] = column[lo:hi]
        if errors:
            t, e = terms[: hi - lo], err[: hi - lo]
            t[...] = block
            first = 0 if carry is None else carry
        if carry is not None:
            block[0] += carry
        np.cumsum(block, out=block)
        if errors:
            # TwoSum of each addition s = a + t, a the sum before it
            e[0] = block[0] - first
            np.subtract(block[1:], block[:-1], out=e[1:])    # v = s - a
            t -= e                                           # t - v
            np.subtract(block, e, out=e)                     # s - v
            e[0] = first - e[0]
            np.subtract(block[:-1], e[1:], out=e[1:])        # a - (s - v)
            e += t
            e[0] += lo_carry
            np.cumsum(e, out=e)
            lo_carry = e[-1]
        carry = block[-1]
        if not dense:
            j = int(np.searchsorted(reads, hi))
            at = reads[i:j] - lo
            out[i:j] = block[at]
            if errors:
                lo_out[i:j] = e[at]
            i = j
    return (out, lo_out) if errors else out


def _distinct(ks) -> np.ndarray:
    """The distinct values of an integer sequence, ascending, as int64: what
    np.unique gives, without the import of numpy.ma that np.unique makes
    (about 9 ms and 1.2 MB in a fresh process)."""
    ks = np.sort(np.asarray(ks, dtype=np.int64))
    keep = np.ones(len(ks), dtype=bool)
    keep[1:] = np.diff(ks) > 0
    return ks[keep]


class _ReadSums(_SlotRecord):
    """A float running sum at the k a batch reads: values[i] = S(reads[i]),
    reads distinct and ascending.  Indexed by a k, or by an array of them,
    as the full sum it stands for is; a k it does not hold is a KeyError.
    errors, when given, holds the running sum of the rounding errors of
    values at the same reads (_float_column with errors)."""

    __slots__ = _fields = ("reads", "values", "errors")

    def __init__(self, reads: np.ndarray, values: np.ndarray,
                 errors: Optional[np.ndarray] = None):
        self._init(reads, values, errors)

    def __getitem__(self, k):
        i = np.searchsorted(self.reads, k)
        if not np.array_equal(np.take(self.reads, i, mode="clip"), k):
            raise KeyError(k)
        return self.values[i]


def _float_sums(column: np.ndarray, power: int, ks) -> _ReadSums:
    """_float_column at the distinct k of ks (a sequence of ints), up to
    the largest."""
    reads = _distinct(ks)
    top = int(reads[-1]) if len(reads) else 0
    return _ReadSums(reads, _float_column(column, power, top, reads))


def phi_sums(table: TotientTable, ks):
    """sum_{n<=k} phi(n) at every k >= 0 of ks, indexed by k.

    Float tables give the running sum of phi at every k up to the largest
    of ks, from _float_column: the bits of the numpy cumulative sum of phi.
    Exact tables give {k: sum} in the table's number type, from one pass
    of _exact_column over the phi column up to the largest k: Python ints
    off the column's integer running sum, or Fractions from numerators
    over the lcm of the Fractions' denominators.
    """
    top = max(0, max(ks, default=0))
    if top > table.N:
        raise XBeyondTable(f"table holds N = {table.N}, asked for {top}")
    if not table.exact:
        return _float_column(table.phi, 0, top)
    den, nums, _ = _exact_column(table.phi, 0, top, set(ks))
    if type(table.phi[0]) is Fraction:
        return {k: Fraction(v, den) for k, v in nums.items()}
    return nums


# ---------------------------------------------------------------------------
# Batches of points
# ---------------------------------------------------------------------------

def _cells(values, table: CoefficientTable, collapse: bool = True
           ) -> np.ndarray:
    """values as a column of a batch on table.

    On a real float table that is a float64 array.  On any other it is an
    object array of Python numbers, so that each operation on a column is
    the one a single point takes, in Python's arithmetic: with collapse,
    each value is taken into the table's number type (a Fraction, or
    _plain's float or complex); without, it is kept as it comes (an int, a
    Fraction, or a complex whose imaginary part may be zero).
    """
    if not table.exact and not np.iscomplexobj(table.phi):
        return np.asarray(values, dtype=np.float64)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if collapse:
        values = map(_number_type(table.exact).collapse, values)
    return np.array(list(values), dtype=object)


def _batch_points(points, table: CoefficientTable) -> tuple:
    """(xs, ks) of an iterable of _table_point results, read once: the
    points as a column of the batch (_cells) and their floor values as
    int64."""
    xs, ks = [], []
    for _, x, k in points:
        xs.append(x)
        ks.append(k)
    return _cells(xs, table, collapse=False), np.array(ks, dtype=np.int64)


def _phi_at(table: TotientTable, ks: np.ndarray) -> np.ndarray:
    """phi(k) at each k of ks, as a column of the batch."""
    return _cells(table.phi[ks], table)


def error_term(table: TotientTable, cF: ValueWithBound, x,
               convention: str = "plain") -> Scalar:
    """E(x) = sum_{n<=x} phi(n) - C x^2, for x >= 0.

    convention 'plain' uses the full last term; 'symmetric' subtracts half of
    phi(x) when x is an integer (the midpoint convention the sawtooth
    decomposition reproduces).  A batch of one (error_term_batch).
    """
    return error_term_batch(table, cF, [x], convention).item(0)


def error_term_batch(table: TotientTable, cF: ValueWithBound, xs,
                     convention: str = "plain") -> np.ndarray:
    """error_term at every x of a batch, from one pass over the phi column
    up to the largest floor(x), as a column of the batch (_cells)."""
    if convention not in ("plain", "symmetric"):
        raise UsageError(f"convention must be plain or symmetric, got {convention!r}")
    xs, ks = _batch_points((_table_point(x, table) for x in xs), table)
    if table.exact:
        sums = phi_sums(table, ks.tolist())
        s = [sums[k] for k in ks.tolist()]
    else:
        s = _float_sums(table.phi, 0, ks)[ks]
    return _error_term(table, cF, xs, ks, _cells(s, table, collapse=False),
                       convention)


def _error_term(table: TotientTable, cF: ValueWithBound, xs: np.ndarray,
                ks: np.ndarray, s: np.ndarray, convention: str) -> np.ndarray:
    """E(x) at each point (xs, ks) of a batch from s, the sum of phi up to
    its floor value, by the operations of one point: s - phi(x)/2 at an
    integer x >= 1 under the symmetric convention, then s - (C x) x."""
    if convention == "symmetric":
        at = np.flatnonzero((xs == ks) & (ks >= 1))
        if len(at):
            s = s.copy()
            s[at] = s[at] - _phi_at(table, ks[at]) / 2
    # in place, so that a batch of Fractions holds one array of them at a
    # time beside its points
    e = _number_type(table.exact).collapse(cF.value) * xs
    e *= xs
    return np.subtract(s, e, out=e)


def make_e2(table: TotientTable, cF: ValueWithBound):
    """Vectorized E2 provider: xs array -> symmetric-convention error term.

    Valid for 0 <= x < N+1; raises XBeyondTable past the table.  The
    provider holds the running sum of phi up to the largest floor(x) it has
    been given, from _float_column, and sums it afresh to a larger one:
    one np.cumsum from n = 1, so every sum keeps its bits whatever the
    calls before it.
    """
    _require_mode(table, "float", "make_e2")
    N, phi = table.N, table.phi
    cumulative = _float_column(phi, 0, 0)
    c = _plain(cF.value)

    def e2(xs):
        nonlocal cumulative
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size and (xs.min() < 0 or xs.max() >= N + 1):
            raise XBeyondTable(
                f"E2 provider covers [0, {N + 1}), got [{xs.min()}, {xs.max()}]")
        k = np.floor(xs).astype(np.int64)
        top = int(k.max(initial=0))
        if top >= len(cumulative):
            cumulative = _float_column(phi, 0, top)
        out = cumulative[k] - c * xs * xs
        at_int = (xs == k) & (k >= 1)
        if np.any(at_int):
            out = out - np.where(at_int, phi[np.minimum(k, N)] / 2, 0)
        return out

    return e2


# ---------------------------------------------------------------------------
# Series identity check
# ---------------------------------------------------------------------------

class SeriesCheckReport(NamedTuple):
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


class _BlockSum:
    """A sum of terms given a block at a time (add), and a bound on its
    distance from the sum of the exact products c(n) n^-s that the terms
    round, c(n) the stored entries (result).

    Each block is summed by np.sum, and the block sums by math.fsum, the
    real and imaginary parts apart, so the sum holds a few numbers per
    block, not its terms.  sum |t| is taken the same way.

    Summation of m terms in any order errs by at most gamma_{m-1} sum |t|,
    gamma_k = k u / (1 - k u), in each of the real and imaginary parts, so
    by sqrt(2) times that for complex terms (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 4.2).  The two-level sum is such
    an order: a block of b terms errs by at most gamma_{b-1} of its sum |t|,
    and fsum rounds the exact sum of the block sums once, adding u of it,
    so the whole errs by at most gamma_{b-1} + u (1 + gamma_{b-1}) <=
    gamma_b of sum |t|, and b <= m - 1 when there is more than one block
    (one block's fsum is exact).  numpy's pow gives n^-s within 2 ulp (4u)
    and the product adds u, so each term is within gamma_6 |t| of the
    exact one; gamma_{m-1} + gamma_6 <= gamma_{m+5}.
    """

    def __init__(self):
        self.real, self.imag, self.magnitudes = [], [], []
        self.count = 0
        self.complex = False

    def add(self, terms: np.ndarray) -> None:
        total = np.sum(terms)
        self.real.append(float(total.real))
        self.imag.append(float(total.imag))
        self.magnitudes.append(float(np.sum(np.abs(terms))))
        self.count += len(terms)
        self.complex |= np.iscomplexobj(terms)

    def result(self) -> tuple:
        """(the sum, the bound on its rounding)."""
        total = math.fsum(self.real)
        if self.complex:
            total = complex(total, math.fsum(self.imag))
        spread = math.sqrt(2) if self.complex else 1.0
        k = self.count + 5
        return total, (spread * k * _U / (1 - k * _U)
                       * math.fsum(self.magnitudes))


def _series_sums(table: TotientTable, s: float, N: int) -> tuple:
    """(sum phi(n) n^-s, sum alpha(n) n^-s, max |alpha(n)|) over n <= N.

    The sums are _BlockSums.  n^-s and both products are formed one block
    of _CHUNK entries at a time, so the pass holds a few blocks beside the
    table, whatever N.  Entry 0 of each column is 0, and n^-s is 1 there.
    """
    lhs, alpha_sum, scale = _BlockSum(), _BlockSum(), 0.0
    for lo in range(0, N + 1, _CHUNK):
        hi = min(lo + _CHUNK, N + 1)
        w = np.arange(lo, hi, dtype=np.float64)
        if lo == 0:
            w[0] = 1.0
        np.power(w, -s, out=w)
        lhs.add(table.phi[lo:hi] * w)
        alpha = table.alpha[lo:hi]
        alpha_sum.add(alpha * w)
        scale = max(scale, float(np.max(np.abs(alpha))))
    return lhs, alpha_sum, scale


def series_identity_check(spec: EulerProductSpec, s: float, N: int,
                          table: Optional[TotientTable] = None) -> SeriesCheckReport:
    """Compare sum_{n<=N} phi(n)/n^s with zeta(s-1) sum_{n<=N} alpha(n)/n^s.

    Needs s > 2 so both series converge absolutely (|phi(n)| <= n (1+ln n)^d).
    Truncation radii: the phi tail integrates the (1+ln t)^d t^{1-s} envelope;
    the alpha tail uses |alpha(n)| <= 1 for the degree-1 kinds (rigorous) and
    the largest tabulated |alpha| as a scale for custom kinds (heuristic).
    zeta(s-1) comes from zeta_value with its rigorous bound (s - 1 is exact
    in floats for s >= 2).  The rounding of each sum is _BlockSum's, the
    product zeta(s-1) sum alpha(n)/n^s adds u of itself, and the factor
    1 + 64u covers the bound's own rounding.

    Both sums are streamed a block of _CHUNK entries at a time
    (_series_sums), so the check holds a few blocks beside the table,
    whatever N.  The table must hold alpha (_require_alpha).
    """
    if not (isinstance(s, (int, float)) and s > 2):
        raise SOutOfRange(f"need real s > 2, got {s}")
    s = float(s)
    if table is None:
        table = phi_table(spec, N, mode="float")
    _require_mode(table, "float", "series_identity_check")
    _require_alpha(table, "series_identity_check")
    if table.N < N:
        raise XBeyondTable(f"table holds N = {table.N} < {N}")
    phi_terms, alpha_terms, scale = _series_sums(table, s, N)
    lhs, lhs_rounding = phi_terms.result()
    alpha_sum, alpha_rounding = alpha_terms.result()
    zeta = zeta_value(s - 1.0)
    zs = zeta.value
    rhs = zs * alpha_sum

    d = spec.degree
    phi_tail = _log_power_tail(N, s, d)
    if spec.kind in ("zeta", "dirichlet"):
        alpha_tail = N ** (1.0 - s) / (s - 1.0)
        kind = "rigorous"
    else:
        alpha_tail = (scale if N >= 1 else 1.0) * N ** (1.0 - s) / (s - 1.0)
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

class GrowthScanReport(NamedTuple):
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
    formed in place, in that order of operations, one block of _CHUNK
    entries at a time.  A block's running sum starts from the last one of
    the block before it, so every E(x) has the bits of one cumulative sum
    of the whole table, and the scan holds one block's temporaries beside
    the table, whatever X.  argmax is the first x of the largest ratio.
    """
    _require_mode(table, "float", "growth_scan")
    if X > table.N:
        raise XBeyondTable(f"X = {X} beyond table N = {table.N}")
    if x_min < 1 or x_min > X:
        raise UsageError(f"need 1 <= x_min <= X, got x_min={x_min}, X={X}")
    c = _plain(cF.value)
    idx = _distinct(np.geomspace(x_min, X, num=min(samples, X - x_min + 1)
                                 ).round())
    rows, peaks, carry = [], [], 0
    for lo in range(0, X + 1, _CHUNK):
        hi = min(lo + _CHUNK, X + 1)
        e = table.phi[lo:hi].copy()
        e[0] += carry
        np.cumsum(e, out=e)
        carry = e[-1]
        start = max(lo, x_min)
        if start >= hi:
            continue
        e = e[start - lo :]
        xs = np.arange(start, hi, dtype=np.float64)
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
        peaks.append((ratio[i], start + i))
        for x in idx[np.searchsorted(idx, start) : np.searchsorted(idx, hi)]:
            j = x - start
            rows.append((int(x), _plain(e[j]), float(ratio[j])))
    # the first block holding the largest ratio, as np.argmax picks it
    sup, argmax = peaks[int(np.argmax([r for r, _ in peaks]))]
    return GrowthScanReport(x_min=x_min, x_max=X, sup=float(sup),
                            argmax=argmax, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Table cache (a JSON header, then the raw columns)
# ---------------------------------------------------------------------------

# the dtypes a cache file's columns may have, as numpy names them
_COLUMN_DTYPES = ("<f8", "<c16")
# bytes of the space-padded JSON header at the start of a cache file
_HEADER = 256
# the file offset of every column is a multiple of this
_ALIGN = 64


def cache_path(directory: str, spec: EulerProductSpec, N: int) -> str:
    return os.path.join(directory, f"table-{spec_hash(spec)}-{N}-float.bin")


def save_table(table: TotientTable, path: str) -> None:
    """Persist a float totient table: a header, then its two columns.

    Bytes [0, 256) hold a JSON object padded with spaces: the format
    version, the spec hash, N, the mode, the columns' dtype (<f8 or <c16)
    and the CRC-32 of each column.  alpha starts at byte 256, and phi at
    the first multiple of 64 after alpha's end, so the columns load_table
    maps are aligned.  Each column is written in place, from a memoryview
    of the array, not a copy of its bytes.

    The file is written under a temporary name in path's directory and
    renamed onto path, so a run that has loaded the old file keeps reading
    it, and no reader sees a half-written one.  Exact tables are not
    cached: an integral one is sieved in int64 in about 0.05 s at the
    exact cap of N = 10^6 (2-core x86-64), which is all a file could save,
    and one of Fractions, or of Python ints past int64, holds objects, not
    raw columns.
    """
    if table.exact:
        raise ModeUnavailable("only float tables are cached")
    _require_alpha(table, "save_table")
    header = json.dumps({"version": _CACHE_VERSION,
                         "spec_hash": spec_hash(table.spec),
                         "N": table.N, "mode": "float",
                         "dtype": table.phi.dtype.str,
                         "crc": {"alpha": zlib.crc32(table.alpha),
                                 "phi": zlib.crc32(table.phi)}},
                        sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # a fresh name beside path, created with open's usual permissions
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header.ljust(_HEADER).encode())
            for column in (table.alpha, table.phi):
                fh.write(bytes(-fh.tell() % _ALIGN))
                fh.write(memoryview(column))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_table(path: str, spec: EulerProductSpec, N: int,
               alpha: bool = True) -> TotientTable:
    """Load a cached float table, verifying spec hash and N.

    phi is always read, alpha only when asked for; a table loaded without
    it has alpha None, like one sieved with phi_table(..., alpha=False).
    Each column is a read-only array over a read-only map of the file, not
    a copy, after its CRC-32 has been checked against the header.  Raises
    CacheMismatch when the header names another table, and ValueError when
    the file is not one save_table writes: a header that is not a JSON
    object, a dtype other than float64 or complex128, a column past the
    end of the file or bytes that do not match its CRC.
    """
    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        header = json.loads(mm[:_HEADER])
    except ValueError as e:     # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"unreadable cache header: {e}") from None
    if not isinstance(header, dict):
        raise ValueError("the cache header is not a JSON object")
    want = {"version": _CACHE_VERSION, "spec_hash": spec_hash(spec),
            "N": N, "mode": "float"}
    got = {key: header.get(key) for key in want}
    if got != want:
        raise CacheMismatch(f"cache header {got} != requested {want}")
    dtype, crc = header.get("dtype"), header.get("crc")
    if dtype not in _COLUMN_DTYPES or not isinstance(crc, dict):
        raise ValueError(f"cache header {header} has no column dtype or CRCs")
    size = np.dtype(dtype).itemsize * (N + 1)
    starts = {"alpha": _HEADER, "phi": _HEADER + size + -size % _ALIGN}
    columns = {}
    for name in ("alpha", "phi") if alpha else ("phi",):
        start = starts[name]
        if start + size > len(mm):
            raise ValueError(f"{name} lies past the end of the file")
        data = memoryview(mm)[start : start + size]
        if zlib.crc32(data) != crc.get(name):
            raise ValueError(f"bad CRC-32 for {name}")
        columns[name] = np.frombuffer(data, dtype=dtype)
    return TotientTable(spec=spec, N=N, mode="float",
                        alpha=columns.get("alpha"), phi=columns["phi"])
