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
Partial sums, the error term E(x) = sum_{n<=x} phi(n) - C x^2, and
scan/report helpers live here too.
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
    XBeyondTable,
)
# primes_upto is not called here; perfbench/selftest.py checks that the
# tracer wraps this module's binding of it
from .primes import primes_upto, smallest_prime_factor, spf_primes  # noqa: F401
from .products import (
    EulerProductSpec,
    ValueWithBound,
    _number_type,
    _plain,
    _point_numbers,
    gamma_values,
    local_factor_at_one,
    spec_hash,
)

Scalar = Union[int, float, complex, Fraction]

# hard ceilings so a typo'd N fails fast instead of thrashing
_FLOAT_N_CAP = 5 * 10 ** 7
_EXACT_N_CAP = 10 ** 6
# auto mode switches to float above this: exact tables, and the big-integer
# sums the decomposition reads off them, cost far more than float ones
_EXACT_AUTO_CAP = 2 * 10 ** 5

# bumped whenever the file layout changes, so older files fail the header check
_CACHE_VERSION = 5
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

    def alpha_array(self, upto: Optional[int] = None) -> np.ndarray:
        """alpha(0..upto) as a float64/complex128 array (a copy)."""
        return _float_prefix(self.alpha, self.N, upto, self.exact)


@dataclass
class TotientTable(CoefficientTable):
    """alpha(0..N), phi(0..N) and the running sum cumulative[k] =
    sum_{n<=k} phi(n).

    Entry 0 of each is 0.  Exact tables hold lists of Python ints when every
    gamma(p) up to N is an integer and of Fractions otherwise; float tables
    hold numpy arrays, in which phi of an integral gamma(p) is an exact
    integer.  A division of an exact entry goes through Fraction, since
    int / int would round to a float.  The table holds no other running
    sum: the decomposition kernel sums alpha and phi(n)/n afresh for each
    batch of points, up to its largest floor(x), and keeps only the values
    its formulas read.
    """

    phi: Union[list, np.ndarray]
    cumulative: Union[list, np.ndarray]

    def phi_array(self, upto: Optional[int] = None) -> np.ndarray:
        return _float_prefix(self.phi, self.N, upto, self.exact)


def _float_prefix(values, N: int, upto: Optional[int], exact: bool) -> np.ndarray:
    """values[0..upto] as a float64/complex128 array (a copy)."""
    upto = N if upto is None else upto
    if upto > N:
        raise XBeyondTable(f"table holds N = {N}, asked for {upto}")
    return np.array(values[: upto + 1], dtype=np.float64 if exact else None)


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
    """True when integral gamma(ps) keep alpha, phi and cumulative up to N
    inside int64.

    n <= N has at most w distinct prime factors, w the number of leading
    primes whose product is <= N, so |alpha(n)| <= G^w with
    G = max(1, |gamma(p)|), and |phi(n)| <= n M^w with
    M = max(1, |1 - gamma(p)/p|); hence |cumulative[k]| <= N(N+1)/2 M^w.
    The bound is taken in floats, against 2^62 to leave room for rounding.
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
    return max(big ** w, N * (N + 1) / 2 * ratio ** w) < 2.0 ** 62


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
    """Build alpha(0..N), phi(0..N) and its running sum on one SPF table.

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
                        phi=_stored(phi, exact),
                        cumulative=_stored(np.cumsum(phi), exact))


# ---------------------------------------------------------------------------
# Partial sums and the error term
# ---------------------------------------------------------------------------

def _floor_index(x, N: int) -> int:
    if isinstance(x, Fraction):
        k = x.numerator // x.denominator
    else:
        k = math.floor(x)
    if k > N:
        raise XBeyondTable(f"x = {x} beyond table N = {N}")
    return max(k, 0)


def partial_sum_phi(table: TotientTable, x) -> Scalar:
    """sum_{n<=x} phi(n) for real x >= 0."""
    k = _floor_index(x, table.N)
    return table.cumulative[k]


def error_term(table: TotientTable, cF: ValueWithBound, x,
               convention: str = "plain") -> Scalar:
    """E(x) = sum_{n<=x} phi(n) - C x^2.

    convention 'plain' uses the full last term; 'symmetric' subtracts half of
    phi(x) when x is an integer (the midpoint convention the sawtooth
    decomposition reproduces).
    """
    if convention not in ("plain", "symmetric"):
        raise UsageError(f"convention must be plain or symmetric, got {convention!r}")
    k = _floor_index(x, table.N)
    num = _point_numbers(x, table.exact)
    s = table.cumulative[k]
    if convention == "symmetric" and x == k and k >= 1:
        s = s - num.collapse(table.phi[k]) / 2
    return s - num.collapse(cF.value) * x * x


def make_e2(table: TotientTable, cF: ValueWithBound):
    """Vectorized E2 provider: xs array -> symmetric-convention error term.

    Valid for 0 <= x < N+1; raises XBeyondTable past the table.
    """
    N = table.N
    phi = table.phi_array()
    cumulative = _float_prefix(table.cumulative, N, None, table.exact)
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


def series_identity_check(spec: EulerProductSpec, s: float, N: int,
                          table: Optional[TotientTable] = None) -> SeriesCheckReport:
    """Compare sum_{n<=N} phi(n)/n^s with zeta(s-1) sum_{n<=N} alpha(n)/n^s.

    Needs s > 2 so both series converge absolutely (|phi(n)| <= n (1+ln n)^d).
    Truncation radii: the phi tail integrates the (1+ln t)^d t^{1-s} envelope;
    the alpha tail uses |alpha(n)| <= 1 for the degree-1 kinds (rigorous) and
    the largest tabulated |alpha| as a scale for custom kinds (heuristic).
    """
    import mpmath
    if not (isinstance(s, (int, float)) and s > 2):
        raise SOutOfRange(f"need real s > 2, got {s}")
    s = float(s)
    if table is None:
        table = phi_table(spec, N, mode="float")
    elif table.N < N:
        raise XBeyondTable(f"table holds N = {table.N} < {N}")
    phi = table.phi_array(N)
    alpha = table.alpha_array(N)
    n = np.arange(N + 1, dtype=np.float64)
    n[0] = 1.0
    w = n ** (-s)
    lhs = np.sum(phi * w)
    zs = float(mpmath.zeta(s - 1.0))
    alpha_sum = np.sum(alpha * w)
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
    zeta_slop = 1e-14 * abs(zs)
    slop = 1e-13 * (abs(complex(lhs)) + abs(complex(rhs)) + 1)
    bound = phi_tail + abs(zs) * alpha_tail + zeta_slop * abs(complex(alpha_sum)) + slop
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
    """Scan the plain error term against the x (log 2x)^degree envelope."""
    if X > table.N:
        raise XBeyondTable(f"X = {X} beyond table N = {table.N}")
    if x_min < 1 or x_min > X:
        raise UsageError(f"need 1 <= x_min <= X, got x_min={x_min}, X={X}")
    cumulative = _float_prefix(table.cumulative, table.N, X, table.exact)
    xs = np.arange(x_min, X + 1, dtype=np.float64)
    c = _plain(cF.value)
    e = cumulative[x_min:] - c * xs * xs
    ratio = np.abs(e) / (xs * np.log(2 * xs) ** table.spec.degree)
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


_FIELDS = ("alpha", "phi", "cumulative")


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
    np.savez(path, header=np.array(header), **dict(zip(_FIELDS, (
        table.alpha, table.phi, table.cumulative))))


def load_table(path: str, spec: EulerProductSpec, N: int) -> TotientTable:
    """Load a cached float table, verifying spec hash and N."""
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        want = {"version": _CACHE_VERSION, "spec_hash": spec_hash(spec),
                "N": N, "mode": "float"}
        if header != want:
            raise CacheMismatch(f"cache header {header} != requested {want}")
        alpha, phi, cumulative = (z[k] for k in _FIELDS)
    return TotientTable(spec=spec, N=N, mode="float", alpha=alpha, phi=phi,
                        cumulative=cumulative)
