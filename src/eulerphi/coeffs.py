"""Coefficient and totient tables.

alpha(n) is the multiplicative coefficient mu(n) prod_{p|n} gamma(p)
(supported on squarefree n), and phi(n) = n prod_{p|n} F_p(1)^{-1} is the
totient attached to the product.  The two are linked by the divisor sum
phi(n)/n = sum_{m|n} alpha(m)/m, which is the sieve route used to build
tables; phi_direct evaluates the multiplicative formula independently so the
two routes can be cross-checked.

Tables come in two modes: 'exact' (fractions.Fraction entries, available when
every gamma(p) is rational) and 'float' (numpy float64/complex128).  partial
sums, the error term E(x) = sum_{n<=x} phi(n) - C x^2, and scan/report
helpers live here too.
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
from .primes import primes_upto, smallest_prime_factor
from .products import (
    EulerProductSpec,
    ValueWithBound,
    _plain,
    gamma,
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

_CACHE_VERSION = 1


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
        upto = self.N if upto is None else upto
        if upto > self.N:
            raise XBeyondTable(f"table holds N = {self.N}, asked for {upto}")
        if self.exact:
            return np.array([float(a) for a in self.alpha[: upto + 1]],
                            dtype=np.float64)
        return np.array(self.alpha[: upto + 1])


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
        upto = self.N if upto is None else upto
        if upto > self.N:
            raise XBeyondTable(f"table holds N = {self.N}, asked for {upto}")
        if self.exact:
            return np.array([float(v) for v in self.phi[: upto + 1]],
                            dtype=np.float64)
        return np.array(self.phi[: upto + 1])


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------

def _resolve_mode(spec: EulerProductSpec, N: int, mode: str) -> str:
    if mode == "auto":
        return "exact" if (spec.exact_capable and N <= _EXACT_AUTO_CAP) else "float"
    if mode not in ("exact", "float"):
        raise UsageError(f"mode must be auto, exact, or float; got {mode!r}")
    if mode == "exact" and not spec.exact_capable:
        raise ModeUnavailable("spec has irrational/complex local data; exact "
                              "tables need rational gamma(p)")
    return mode


def sieve_alpha(spec: EulerProductSpec, N: int,
                mode: str = "auto") -> CoefficientTable:
    """Tabulate alpha(n) = mu(n) prod_{p|n} gamma(p) for n <= N."""
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    mode = _resolve_mode(spec, N, mode)
    if mode == "float" and N > _FLOAT_N_CAP:
        raise OutOfMemory(f"float table capped at N = {_FLOAT_N_CAP}, got {N}")
    if mode == "exact" and N > _EXACT_N_CAP:
        raise OutOfMemory(f"exact table capped at N = {_EXACT_N_CAP}, got {N}")

    if mode == "float":
        ps = primes_upto(N)
        gam = gamma_values(spec, ps)
        dtype = np.complex128 if np.iscomplexobj(gam) else np.float64
        arr = np.ones(N + 1, dtype=dtype)
        arr[0] = 0
        for p, g in zip(ps, gam):
            arr[p::p] *= -g
            pp = p * p
            if pp <= N:
                arr[pp::pp] = 0
        arr += 0.0  # normalize -0.0 entries left by sign flips
        return CoefficientTable(spec=spec, N=N, mode="float", alpha=arr)

    spf = smallest_prime_factor(N) if N >= 2 else np.zeros(N + 1, dtype=np.int64)
    gcache: dict = {}
    alpha: list = [Fraction(0)] * (N + 1)
    alpha[1] = Fraction(1)
    for n in range(2, N + 1):
        p = int(spf[n])
        m = n // p
        if m % p == 0:
            continue
        g = gcache.get(p)
        if g is None:
            g = gcache[p] = -Fraction(gamma(spec, p, exact=True))
        alpha[n] = alpha[m] * g
    return CoefficientTable(spec=spec, N=N, mode="exact", alpha=alpha)


def phi_direct(spec: EulerProductSpec, n: int,
               exact: Optional[bool] = None) -> Scalar:
    """phi(n) = n prod_{p|n} prod_j (1 - alpha_j(p)/p), by trial factorization.

    Independent of the sieve route; used to cross-check tables.
    """
    from .primes import factorize
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if exact is None:
        exact = spec.exact_capable
    if exact:
        out = Fraction(n)
        for p, _ in factorize(n):
            out /= Fraction(local_factor_at_one(spec, p, exact=True))
        return out
    out = complex(n)
    for p, _ in factorize(n):
        out /= complex(local_factor_at_one(spec, p, exact=False))
    return _plain(out)


def phi_table(spec: EulerProductSpec, N: int, mode: str = "auto",
              ctable: Optional[CoefficientTable] = None) -> TotientTable:
    """Build phi(0..N) by the divisor sum phi(n)/n = sum_{m|n} alpha(m)/m."""
    if ctable is not None:
        if ctable.N < N:
            raise XBeyondTable(f"coefficient table holds N = {ctable.N} < {N}")
        mode = ctable.mode
    else:
        mode = _resolve_mode(spec, N, mode)
        ctable = sieve_alpha(spec, N, mode=mode)

    if mode == "float":
        a = np.asarray(ctable.alpha)
        ratio = np.ones(N + 1, dtype=a.dtype)
        ratio[0] = 0
        support = np.nonzero(a[2:])[0] + 2
        for m in support:
            ratio[m::m] += a[m] / m
        n = np.arange(N + 1, dtype=np.float64)
        phi = ratio * n
        cumulative = np.concatenate(([0], np.cumsum(phi[1:])))
        ratio_cumsum = np.concatenate(([0], np.cumsum(ratio[1:])))
        return TotientTable(coeffs=ctable, phi=phi, cumulative=cumulative,
                            ratio_cumsum=ratio_cumsum)

    a = ctable.alpha
    ratio = [Fraction(0)] + [Fraction(1)] * N
    for m in range(2, N + 1):
        am = a[m]
        if am == 0:
            continue
        t = am / m
        for k in range(m, N + 1, m):
            ratio[k] += t
    phi = [ratio[k] * k for k in range(N + 1)]
    cumulative = [Fraction(0)] * (N + 1)
    ratio_cumsum = [Fraction(0)] * (N + 1)
    for k in range(1, N + 1):
        cumulative[k] = cumulative[k - 1] + phi[k]
        ratio_cumsum[k] = ratio_cumsum[k - 1] + ratio[k]
    return TotientTable(coeffs=ctable, phi=phi, cumulative=cumulative,
                        ratio_cumsum=ratio_cumsum)


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
    cumulative = np.concatenate(([0.0], np.cumsum(phi[1:])))
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
    phi = table.phi_array(X)
    cumulative = np.concatenate(([0.0], np.cumsum(phi[1:])))
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


def save_table(table: TotientTable, path: str) -> None:
    """Persist a totient table; exact entries are stored as p/q strings."""
    header = json.dumps({"version": _CACHE_VERSION,
                         "spec_hash": spec_hash(table.spec),
                         "N": table.N, "mode": table.mode}, sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if table.exact:
        def enc(seq):
            return np.array([str(v) for v in seq], dtype=np.str_)
        np.savez_compressed(path, header=np.array(header),
                            alpha=enc(table.coeffs.alpha), phi=enc(table.phi),
                            cumulative=enc(table.cumulative),
                            ratio_cumsum=enc(table.ratio_cumsum))
    else:
        np.savez_compressed(path, header=np.array(header),
                            alpha=np.asarray(table.coeffs.alpha),
                            phi=np.asarray(table.phi),
                            cumulative=np.asarray(table.cumulative),
                            ratio_cumsum=np.asarray(table.ratio_cumsum))


def load_table(path: str, spec: EulerProductSpec, N: int, mode: str) -> TotientTable:
    """Load a cached table, verifying spec hash, N, and mode."""
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["header"]))
        want = {"version": _CACHE_VERSION, "spec_hash": spec_hash(spec),
                "N": N, "mode": mode}
        if header != want:
            raise CacheMismatch(f"cache header {header} != requested {want}")
        if mode == "exact":
            def dec(arr):
                return [Fraction(s) for s in arr.tolist()]
            ct = CoefficientTable(spec=spec, N=N, mode="exact",
                                  alpha=dec(z["alpha"]))
            return TotientTable(coeffs=ct, phi=dec(z["phi"]),
                                cumulative=dec(z["cumulative"]),
                                ratio_cumsum=dec(z["ratio_cumsum"]))
        ct = CoefficientTable(spec=spec, N=N, mode="float", alpha=z["alpha"])
        return TotientTable(coeffs=ct, phi=z["phi"],
                            cumulative=z["cumulative"],
                            ratio_cumsum=z["ratio_cumsum"])
