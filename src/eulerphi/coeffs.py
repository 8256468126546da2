"""Coefficient and totient tables.

alpha(n) is the multiplicative coefficient mu(n) prod_{p|n} gamma(p)
(supported on squarefree n), and phi(n) = n prod_{p|n} F_p(1)^{-1} is the
totient attached to the product, so phi(n)/n = prod_{p|n} (1 + alpha(p)/p).
Both alpha and phi(n)/n are built by one multiplicative sieve over the
smallest-prime-factor (SPF) table, which also supplies the primes (the n >= 2
with spf(n) = n), so there is no second sieve: with p = spf(n) and m = n/p,

    f(n) = f(m) * (higher if p | m else f(p)),

where higher = 0 for alpha and 1 for phi(n)/n.  m <= n/2, so every entry is
filled from earlier ones in about log2(N) whole-array steps.  phi_direct
evaluates the product formula by trial factorization, and the tests check
tables against the divisor sum phi(n)/n = sum_{m|n} alpha(m)/m.

Tables come in two modes: 'exact' (fractions.Fraction entries, available when
every gamma(p) is rational) and 'float' (numpy float64/complex128); the sieve
runs the same code on numpy object arrays of Fractions and on float arrays.
Partial sums, the error term E(x) = sum_{n<=x} phi(n) - C x^2, and
scan/report helpers live here too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
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
    gamma_values,
    local_factor_at_one,
    spec_hash,
)

Scalar = Union[int, float, complex, Fraction]

# hard ceilings so a typo'd N fails fast instead of thrashing
_FLOAT_N_CAP = 5 * 10 ** 7
_EXACT_N_CAP = 10 ** 6
# auto mode switches to float above this: Fraction sieves are O(N) object ops
_EXACT_AUTO_CAP = 2 * 10 ** 5

# bumped whenever the file layout changes, so older files fail the header check
_CACHE_VERSION = 3
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
class TotientTable:
    """phi(0..N) plus running sums used by the decomposition formulas.

    cumulative[k] = sum_{n<=k} phi(n); ratio_cumsum[k] = sum_{n<=k} phi(n)/n.
    Entry 0 of each is 0.
    """

    coeffs: CoefficientTable
    phi: Union[list, np.ndarray]
    cumulative: Union[list, np.ndarray]
    ratio_cumsum: Union[list, np.ndarray]
    # prefix sums of alpha that the decomposition kernel grows on demand;
    # derived data, so never saved, compared or shown
    _prefix_sums: object = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def spec(self) -> EulerProductSpec:
        return self.coeffs.spec

    @property
    def N(self) -> int:
        return self.coeffs.N

    @property
    def mode(self) -> str:
        return self.coeffs.mode

    @property
    def exact(self) -> bool:
        return self.coeffs.exact

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


def _multiplicative(spf: np.ndarray, ps: np.ndarray, at_primes: np.ndarray,
                    higher, one) -> np.ndarray:
    """f(0..N), f(0) = 0, f(1) = one, f(ps) = at_primes, and for composite n
    f(n) = f(m) * (higher if p | m else f(p)) with p = spf[n], m = n/p.

    The array takes at_primes' dtype (float64, complex128, or object for
    Fractions).  m <= n/2, so a run [lo, hi) with hi <= 2 lo reads only
    entries below lo and is filled in one step.
    """
    out = np.full(len(spf), one - one, dtype=at_primes.dtype)
    out[1] = one
    out[ps] = at_primes
    lo = 4
    while lo < len(out):
        hi = min(2 * lo, lo + _CHUNK, len(out))
        n = np.arange(lo, hi, dtype=spf.dtype)
        p = spf[lo:hi]
        m = n // p
        composite = m > 1
        n, p, m = n[composite], p[composite], m[composite]
        factor = out[p]
        factor[m % p == 0] = higher
        out[n] = out[m] * factor
        lo = hi
    return out


def _stored(values: np.ndarray, exact: bool):
    """Exact tables hold lists of Fractions, float ones arrays."""
    if exact:
        return values.tolist()
    values += 0  # turns the -0.0 that f(m) * 0 leaves into 0.0
    return values


def _alpha(spec: EulerProductSpec, spf: np.ndarray, ps: np.ndarray,
           exact: bool) -> np.ndarray:
    """alpha(0..N) on the SPF table spf with primes ps, before _stored."""
    one = Fraction(1) if exact else 1.0
    return _multiplicative(spf, ps, -gamma_values(spec, ps, exact), 0, one)


def sieve_alpha(spec: EulerProductSpec, N: int,
                mode: str = "auto") -> CoefficientTable:
    """Tabulate alpha(n) = mu(n) prod_{p|n} gamma(p) for n <= N."""
    mode = _resolve_mode(spec, N, mode)
    exact = mode == "exact"
    spf = smallest_prime_factor(N)
    return CoefficientTable(spec=spec, N=N, mode=mode, alpha=_stored(
        _alpha(spec, spf, spf_primes(spf), exact), exact))


def phi_direct(spec: EulerProductSpec, n: int,
               exact: Optional[bool] = None) -> Scalar:
    """phi(n) = n prod_{p|n} prod_j (1 - alpha_j(p)/p), by trial factorization.

    Independent of the sieve route; used to cross-check tables.
    """
    from .primes import factorize
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    exact = spec.exact_capable if exact is None else exact
    lift, collapse = _number_type(exact)
    out = lift(n)
    for p, _ in factorize(n):
        out /= lift(local_factor_at_one(spec, p, exact=exact))
    return collapse(out)


def phi_table(spec: EulerProductSpec, N: int, mode: str = "auto") -> TotientTable:
    """Build phi(0..N) and its running sums from the SPF sieve of phi(n)/n.

    phi(n)/n = prod_{p|n} (1 + alpha(p)/p) is the same at p and at p^k, so
    it is the sieve with higher = 1, run on the SPF table that alpha is
    sieved on.
    """
    mode = _resolve_mode(spec, N, mode)
    exact = mode == "exact"
    spf = smallest_prime_factor(N)
    ps = spf_primes(spf)
    alpha = _alpha(spec, spf, ps, exact)
    coeffs = CoefficientTable(spec=spec, N=N, mode=mode,
                              alpha=_stored(alpha, exact))
    ratio = _multiplicative(spf, ps, 1 + alpha[ps] / ps, 1, alpha[1])
    phi = ratio * np.arange(N + 1)
    return TotientTable(coeffs=coeffs, phi=_stored(phi, exact),
                        cumulative=_stored(np.cumsum(phi), exact),
                        ratio_cumsum=_stored(np.cumsum(ratio), exact))


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
    exact = (table.exact and isinstance(x, (int, Fraction))
             and not isinstance(cF.value, complex))
    s = table.cumulative[k]
    if convention == "symmetric" and x == k and k >= 1:
        half = Fraction(1, 2) if exact else 0.5
        s = s - half * table.phi[k]
    c = Fraction(cF.value) if exact else cF.value
    return s - c * x * x


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
    alpha = table.coeffs.alpha_array(N)
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

def cache_path(directory: str, spec: EulerProductSpec, N: int, mode: str) -> str:
    return os.path.join(directory, f"table-{spec_hash(spec)}-{N}-{mode}.npz")


_FIELDS = ("alpha", "phi", "cumulative", "ratio_cumsum")

if hasattr(Fraction, "_from_coprime_ints"):         # Python >= 3.12
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator, _normalize=False)


def _fraction_blob(column: list) -> tuple:
    """The numerators and then the denominators of a Fraction column as one
    blob of little-endian two's-complement bytes, plus the byte length of
    each int."""
    ints = [v.numerator for v in column] + [v.denominator for v in column]
    parts = [v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
             for v in ints]
    return (np.frombuffer(b"".join(parts), dtype=np.uint8),
            np.array([len(b) for b in parts], dtype=np.uint32))


def _blob_fractions(blob: np.ndarray, lengths: np.ndarray, count: int) -> list:
    """The count Fractions of _fraction_blob, back from the blob and lengths.

    No gcd is taken: the blob was written from Fractions, which are in
    lowest terms.
    """
    if (blob.dtype != np.uint8 or lengths.shape != (2 * count,)
            or int(lengths.sum(dtype=np.int64)) != blob.size):
        raise CacheMismatch(f"cache column is not {count} fractions")
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    data = memoryview(blob)
    ints = [int.from_bytes(data[start:end], "little", signed=True)
            for start, end in zip([0] + ends[:-1], ends)]
    nums, dens = ints[:count], ints[count:]
    if min(dens) <= 0:
        raise CacheMismatch("cache column has a denominator <= 0")
    return [_coprime_fraction(p, q) for p, q in zip(nums, dens)]


def save_table(table: TotientTable, path: str) -> None:
    """Persist a totient table.

    An exact column is stored as one int blob (_fraction_blob) under its
    field name, with the byte lengths under `<field>_len`; decimal text
    would cost time quadratic in the length of each p/q.
    """
    header = json.dumps({"version": _CACHE_VERSION,
                         "spec_hash": spec_hash(table.spec),
                         "N": table.N, "mode": table.mode}, sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    columns = dict(zip(_FIELDS, (table.coeffs.alpha, table.phi,
                                 table.cumulative, table.ratio_cumsum)))
    if table.exact:
        for name in _FIELDS:
            columns[name], columns[name + "_len"] = _fraction_blob(columns[name])
    np.savez(path, header=np.array(header), **columns)


def load_table(path: str, spec: EulerProductSpec, N: int, mode: str) -> TotientTable:
    """Load a cached table, verifying spec hash, N, and mode."""
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        want = {"version": _CACHE_VERSION, "spec_hash": spec_hash(spec),
                "N": N, "mode": mode}
        if header != want:
            raise CacheMismatch(f"cache header {header} != requested {want}")
        columns = [z[k] for k in _FIELDS]
        if mode == "exact":
            columns = [_blob_fractions(c, z[k + "_len"], N + 1)
                       for c, k in zip(columns, _FIELDS)]
    alpha, phi, cumulative, ratio_cumsum = columns
    ct = CoefficientTable(spec=spec, N=N, mode=mode, alpha=alpha)
    return TotientTable(coeffs=ct, phi=phi, cumulative=cumulative,
                        ratio_cumsum=ratio_cumsum)
