"""Polynomial Euler products and their local/global invariants.

A product is F(s) = prod_p prod_{j<=d} (1 - alpha_j(p) p^{-s})^{-1} with all
inverse roots in the closed unit disk.  Three kinds are supported:

  * zeta:       d = 1, every root 1 (the classical totient case)
  * dirichlet:  d = 1, root chi(p) for a Dirichlet character chi
  * custom:     a finite table prime -> d roots, plus a default rule
                ("zero" or "one") for primes beyond the table

From the local data the module computes F_p(1), the local coefficient
gamma(p) = p(1 - 1/F_p(1)), the main-term constant C(F), the series constant
A1 = sum alpha(n)/n, and Dirichlet L-values used for closed forms.  Values
that involve truncated infinite products/series are returned as
ValueWithBound, an estimate plus an absolute error radius.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

import numpy as np

from .errors import (
    BadModulus,
    BadProductSpec,
    CutoffTooSmall,
    DegreeNotMinimal,
    ModeUnavailable,
    NonMultiplicative,
    NotPrime,
    PrecisionUnreachable,
    PrincipalCharacter,
    RootOutOfDisk,
    SOutOfRange,
    WrongSupport,
)
from .primes import is_prime, primes_upto

Number = Union[int, float, complex, Fraction]

# tolerance for float-valued unit-circle and multiplicativity checks
_TOL = 1e-9


def _plain(v) -> Number:
    """A float-mode value as a Python float, or complex if its imaginary
    part is nonzero.

    Collapses numpy scalars too.  A Fraction is rounded with float(), so
    exact-mode code keeps its Fractions away from this helper.
    """
    if isinstance(v, Fraction):
        return float(v)
    v = complex(v)
    return v.real if v.imag == 0 else v


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n): the Jacobi symbol extended to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterSpec:
    """A Dirichlet character mod q stored as its value table on 0..q-1.

    Values are ints for real characters and complex otherwise; the table is
    validated for support, unit modulus, and complete multiplicativity at
    construction time.
    """

    modulus: int
    values: tuple
    is_real: bool
    is_principal: bool

    def __call__(self, n: int) -> Number:
        return self.values[n % self.modulus]


def _normalize_char_value(v: Number) -> Number:
    if isinstance(v, complex):
        if abs(v.imag) <= _TOL:
            v = v.real
        else:
            return v
    if isinstance(v, float) and abs(v - round(v)) <= _TOL:
        return int(round(v))
    return v


def _validate_character(q: int, values) -> CharacterSpec:
    if q < 1:
        raise BadModulus(f"modulus must be >= 1, got {q}")
    if len(values) != q:
        raise BadModulus(f"expected {q} values, got {len(values)}")
    vals = tuple(_normalize_char_value(v) for v in values)
    for a, v in enumerate(vals):
        coprime = gcd(a, q) == 1
        if not coprime and v != 0:
            raise WrongSupport(f"chi({a}) = {v} but gcd({a},{q}) > 1")
        if coprime and v == 0:
            raise WrongSupport(f"chi({a}) = 0 but gcd({a},{q}) = 1")
        if coprime and abs(abs(complex(v)) - 1.0) > _TOL:
            raise NonMultiplicative(f"|chi({a})| = {abs(complex(v))}, expected 1")
    if vals[1 % q] != 1:
        raise NonMultiplicative("chi(1) != 1")
    for a in range(q):
        for b in range(a, q):
            lhs = vals[(a * b) % q]
            rhs = vals[a] * vals[b]
            if abs(complex(lhs) - complex(rhs)) > _TOL:
                raise NonMultiplicative(
                    f"chi({a}*{b} mod {q}) = {lhs} != chi({a})*chi({b}) = {rhs}")
    is_real = all(not isinstance(v, complex) for v in vals)
    is_principal = all(v == 1 for a, v in enumerate(vals) if gcd(a, q) == 1)
    return CharacterSpec(modulus=q, values=vals, is_real=is_real,
                         is_principal=is_principal)


def build_character(q: Optional[int] = None, values=None,
                    kronecker: Optional[int] = None) -> CharacterSpec:
    """Build a validated character from an explicit table or a Kronecker symbol.

    Explicit source: pass q and the q values chi(0..q-1).  Kronecker source:
    pass the discriminant D; the character is n -> (D|n) with modulus |D|,
    which requires D = 0 or 1 mod 4 to be periodic.
    """
    if kronecker is not None:
        if values is not None:
            raise BadModulus("pass either explicit values or a discriminant, not both")
        d = kronecker
        if d == 0 or d % 4 not in (0, 1):
            raise BadModulus(f"discriminant must be nonzero and 0 or 1 mod 4, got {d}")
        q = abs(d)
        values = [kronecker_symbol(d, n) for n in range(q)]
    if q is None or values is None:
        raise BadModulus("explicit source needs both q and values")
    return _validate_character(q, values)


# ---------------------------------------------------------------------------
# Euler product specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerProductSpec:
    """Local data (inverse roots at every prime) defining the product."""

    kind: str                                   # 'zeta' | 'dirichlet' | 'custom'
    degree: int
    character: Optional[CharacterSpec] = None   # dirichlet only
    roots: Optional[dict] = None                # custom only: prime -> tuple of roots
    default_rule: str = "zero"                  # custom only: roots beyond the table

    @property
    def exact_capable(self) -> bool:
        """True when every gamma(p) is rational, enabling exact-rational tables."""
        if self.kind == "zeta":
            return True
        if self.kind == "dirichlet":
            return self.character.is_real
        return all(not isinstance(r, complex) for rs in self.roots.values() for r in rs)

    def local_roots(self, p: int) -> tuple:
        if self.kind == "zeta":
            return (1,)
        if self.kind == "dirichlet":
            return (self.character(p),)
        rs = self.roots.get(p)
        if rs is not None:
            return rs
        return (0,) * self.degree if self.default_rule == "zero" else (1,) * self.degree

    @property
    def finite_support(self) -> bool:
        """True when gamma vanishes off a finite prime set (custom, zero rule)."""
        return self.kind == "custom" and self.default_rule == "zero"


def zeta_product() -> EulerProductSpec:
    """The classical case: every inverse root 1, degree 1."""
    return EulerProductSpec(kind="zeta", degree=1)


def dirichlet_product(character: CharacterSpec) -> EulerProductSpec:
    """Degree-1 product with local root chi(p)."""
    return EulerProductSpec(kind="dirichlet", degree=1, character=character)


def _normalize_root(r: Number) -> Number:
    if isinstance(r, complex):
        r = _plain(r)
    if isinstance(r, float) and r == int(r):
        return int(r)
    return r


def custom_product(degree: int, roots: dict, default_rule: str = "zero") -> EulerProductSpec:
    """Product from a finite table prime -> d inverse roots plus a default rule."""
    if degree < 1:
        raise BadProductSpec(f"degree must be >= 1, got {degree}")
    if default_rule not in ("zero", "one"):
        raise BadProductSpec(f"default rule must be 'zero' or 'one', got {default_rule!r}")
    table = {}
    for p, rs in roots.items():
        p = int(p)
        if not is_prime(p):
            raise NotPrime(f"table key {p} is not prime")
        rs = tuple(_normalize_root(r) for r in rs)
        if len(rs) != degree:
            raise BadProductSpec(f"prime {p}: expected {degree} roots, got {len(rs)}")
        for r in rs:
            if abs(complex(r)) > 1 + _TOL:
                raise RootOutOfDisk(f"|alpha| = {abs(complex(r))} > 1 at p = {p}")
        table[p] = rs
    # degree minimality: some prime must have all d roots nonzero.  The
    # identically-trivial table (every root zero, zero default) is permitted
    # as the degenerate constant product F = 1.
    if default_rule == "zero":
        any_nonzero = any(r != 0 for rs in table.values() for r in rs)
        full_row = any(all(r != 0 for r in rs) for rs in table.values())
        if any_nonzero and not full_row:
            raise DegreeNotMinimal(
                "no prime has all degree-many roots nonzero; lower the degree")
    return EulerProductSpec(kind="custom", degree=degree, roots=table,
                            default_rule=default_rule)


# ---------------------------------------------------------------------------
# Local invariants
# ---------------------------------------------------------------------------

def _as_fraction(x: Number) -> Fraction:
    if isinstance(x, complex):
        if x.imag != 0:
            raise ModeUnavailable("complex value in exact-rational arithmetic")
        x = x.real
    return Fraction(x)


def _number_type(exact: bool) -> tuple:
    """(lift, collapse) for exact rationals or floats.

    lift turns a root, local factor or integer into a Fraction or a complex;
    collapse turns a result into what callers get (a Fraction, or _plain).
    """
    return (_as_fraction, Fraction) if exact else (complex, _plain)


def _local_product(spec: EulerProductSpec, p: int, exact: Optional[bool]):
    """(prod_j (1 - alpha_j(p)/p), collapse) in the number type of exact."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    lift, collapse = _number_type(spec.exact_capable if exact is None else exact)
    prod = lift(1)
    for r in spec.local_roots(p):
        prod *= 1 - lift(r) / p
    return prod, collapse


def local_factor_at_one(spec: EulerProductSpec, p: int, exact: Optional[bool] = None):
    """F_p(1) = prod_j (1 - alpha_j(p)/p)^{-1}.  Never zero since |alpha| <= 1 < p."""
    prod, collapse = _local_product(spec, p, exact)
    return collapse(1 / prod)


def gamma(spec: EulerProductSpec, p: int, exact: Optional[bool] = None):
    """gamma(p) = p(1 - 1/F_p(1)) = p(1 - prod_j(1 - alpha_j(p)/p))."""
    prod, collapse = _local_product(spec, p, exact)
    return collapse(p * (1 - prod))


def gamma_abs_bound(spec: EulerProductSpec) -> float:
    """Uniform bound |gamma(p)| <= d 2^(d-1), valid for every prime."""
    d = spec.degree
    return d * 2.0 ** (d - 1)


def gamma_values(spec: EulerProductSpec, ps: np.ndarray,
                 exact: bool = False) -> np.ndarray:
    """gamma(p) over an ascending array of primes, by the per-kind rules.

    zeta gives 1, dirichlet chi(p), custom the default-rule value with the
    listed primes overridden by gamma(spec, p).  Floats come back as float64
    (complex128 unless the spec is exact-capable); exact=True gives an
    object array of Fractions equal to gamma(spec, p, exact=True).
    """
    lift, dtype = (_as_fraction, object) if exact else (complex, np.complex128)
    if spec.kind == "zeta":
        out = np.full(len(ps), lift(1), dtype=dtype)
    elif spec.kind == "dirichlet":
        chi = spec.character
        table = np.array([lift(v) for v in chi.values], dtype=dtype)
        out = table[ps % chi.modulus]
    elif spec.default_rule == "zero":
        out = np.full(len(ps), lift(0), dtype=dtype)
    else:
        pf, one = ((ps.astype(object), Fraction(1)) if exact
                   else (ps.astype(np.float64), 1.0))
        out = (pf * (one - (one - one / pf) ** spec.degree)).astype(dtype)
    if spec.kind == "custom":
        for p in spec.roots:
            i = int(np.searchsorted(ps, p))
            if i < len(ps) and ps[i] == p:
                out[i] = gamma(spec, p, exact=exact)
    return out if exact or not spec.exact_capable else out.real.copy()


# ---------------------------------------------------------------------------
# Values with error radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueWithBound:
    """An estimate plus an absolute error radius.

    bound_kind 'rigorous' means the true value provably lies within bound of
    value; 'heuristic' means the radius is an oscillation-based estimate.
    Exact values carry bound 0.
    """

    value: Number
    bound: float
    bound_kind: str = "rigorous"

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")


@dataclass(frozen=True)
class Constants:
    """The constants entering the decomposition: C(F), A1, and A2 = 2 C(F)."""

    c: ValueWithBound
    a1: ValueWithBound
    a2: ValueWithBound


_EPS = 2.0 ** -52


# ---------------------------------------------------------------------------
# C(F)
# ---------------------------------------------------------------------------

def c_constant(spec: EulerProductSpec, prime_cutoff: int = 10 ** 6) -> ValueWithBound:
    """C(F) = (1/2) prod_p (1 - gamma(p)/p^2), truncated at prime_cutoff.

    The tail over p > cutoff is controlled rigorously through the uniform
    bound |gamma(p)| <= d 2^(d-1) =: B and sum_{n>P} 1/n^2 < 1/P, giving
    |C - C_P| <= |C_P| (exp(2B/P) - 1) once B/P^2 <= 1/2.  Products with
    finite support (custom kind, zero default) have an empty tail and are
    exact; they come back as rationals with bound 0 when possible.
    """
    if prime_cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {prime_cutoff}")
    if spec.finite_support:
        exact = spec.exact_capable
        lift, collapse = _number_type(exact)
        prod = lift(Fraction(1, 2))
        for p in sorted(spec.roots):
            prod *= 1 - lift(gamma(spec, p, exact=exact)) / (p * p)
        slop = 0.0 if exact else (len(spec.roots) + 2) * _EPS * abs(prod)
        return ValueWithBound(collapse(prod), slop, "rigorous")
    b = gamma_abs_bound(spec)
    if prime_cutoff * prime_cutoff < 2 * b:
        raise CutoffTooSmall(
            f"cutoff {prime_cutoff} too small for degree {spec.degree}: "
            f"need cutoff^2 >= {2 * b}")
    ps = primes_upto(prime_cutoff)
    gam = gamma_values(spec, ps)
    factors = 1 - gam / ps.astype(np.float64) ** 2
    prod = 0.5 * np.prod(factors)
    tail = abs(prod) * math.expm1(2 * b / prime_cutoff)
    slop = (len(ps) + 2) * _EPS * abs(prod)
    return ValueWithBound(_plain(prod), tail + slop, "rigorous")


# ---------------------------------------------------------------------------
# Dirichlet L-values
# ---------------------------------------------------------------------------

def l_value(chi: CharacterSpec, s: float, precision: float = 1e-12,
            max_terms: int = 10 ** 8) -> ValueWithBound:
    """L(s, chi) = sum chi(n) n^{-s} for non-principal chi and s > 0.

    Block summation over full periods: the direct sum runs to N = qK, and the
    remaining blocks b(k) = sum_r chi(r) (qk+r)^{-s} are summed by the
    midpoint rule, whose leading term is the exact integral of b from K-1/2
    to infinity (finite because full-period character sums vanish).  The
    midpoint error is bounded through |b''(t)| <= s(s+1) q^{1-s} t^{-s-2},
    giving a rigorous tail radius that is driven below the requested
    precision by enlarging K.
    """
    if chi.is_principal:
        raise PrincipalCharacter("period sums do not vanish for the principal character")
    if not s > 0:
        raise SOutOfRange(f"need s > 0, got {s}")
    q = chi.modulus
    s = float(s)

    def tail_radius(k: int) -> float:
        kt = k - 0.5
        return (s * (s + 1) * q ** (1 - s) / 24.0) * (
            kt ** (-s - 2) + kt ** (-s - 1) / (s + 1))

    k = 8
    while tail_radius(k) > precision:
        k *= 2
        if q * k > max_terms:
            raise PrecisionUnreachable(
                f"target bound {precision} needs more than {max_terms} terms")

    vals = np.array([complex(v) for v in chi.values], dtype=np.complex128)
    if chi.is_real:
        vals = vals.real.copy()
    total = 0.0 if chi.is_real else 0.0 + 0.0j
    n_top = q * k
    step = 1 << 20
    for lo in range(1, n_top + 1, step):
        hi = min(lo + step - 1, n_top)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        total += np.sum(vals[n % q] * n.astype(np.float64) ** (-s))

    kt = k - 0.5
    r = np.arange(1, q + 1, dtype=np.float64)
    chir = vals[np.arange(1, q + 1) % q]
    if s == 1.0:
        integral = -np.sum(chir * np.log(q * kt + r)) / q
    else:
        integral = np.sum(chir * (q * kt + r) ** (1 - s)) / (q * (s - 1))
    value = total + integral
    slop = 1e-14 * (1 + abs(value))
    if not chi.is_real:
        value = complex(value)
    else:
        value = float(value)
    return ValueWithBound(value, tail_radius(k) + slop, "rigorous")


# ---------------------------------------------------------------------------
# A1 = sum alpha(n)/n
# ---------------------------------------------------------------------------

def a1_constant(spec: EulerProductSpec, mode: str = "auto",
                cutoff: int = 10 ** 6, coeffs=None) -> ValueWithBound:
    """A1 = sum_{n>=1} alpha(n)/n, assumed convergent (hypothesis on the user).

    closed_form: zeta -> exactly 0 (classical); dirichlet non-principal ->
    1/L(1,chi); dirichlet principal -> exactly 0 (same classical fact, the
    coefficients restrict mu to n coprime to q).  partial_sums: the partial
    sum at cutoff with a heuristic radius, the maximum deviation of the
    partial sums over the last decade [cutoff/10, cutoff].
    """
    if mode == "auto":
        mode = "partial_sums" if spec.kind == "custom" else "closed_form"
    if mode == "closed_form":
        if spec.kind == "zeta":
            return ValueWithBound(0.0, 0.0, "rigorous")
        if spec.kind == "dirichlet":
            if spec.character.is_principal:
                return ValueWithBound(0.0, 0.0, "rigorous")
            lv = l_value(spec.character, 1.0)
            la = abs(lv.value)
            if la <= lv.bound:
                raise PrecisionUnreachable("L(1,chi) not separated from zero")
            bound = lv.bound / (la * (la - lv.bound))
            return ValueWithBound(_plain(1 / lv.value), bound, "rigorous")
        raise ModeUnavailable("no closed form for custom products")
    if mode != "partial_sums":
        raise ModeUnavailable(f"unknown mode {mode!r}")
    from . import coeffs as _coeffs
    if coeffs is not None and coeffs.N >= cutoff:
        table = coeffs
    else:
        table = _coeffs.sieve_alpha(spec, cutoff, mode="float")
    n = np.arange(cutoff + 1, dtype=np.float64)
    n[0] = 1.0
    sums = np.cumsum(table.alpha_array(cutoff) / n)
    value = sums[cutoff]
    lo = max(1, cutoff // 10)
    dev = float(np.max(np.abs(sums[lo:] - value)))
    return ValueWithBound(_plain(value), dev, "heuristic")


def compute_constants(spec: EulerProductSpec, prime_cutoff: int = 10 ** 6,
                      a1_mode: str = "auto", a1_cutoff: int = 10 ** 6,
                      coeffs=None) -> Constants:
    """Bundle C(F), A1, and A2 = 2 C(F) for the decomposition routines."""
    c = c_constant(spec, prime_cutoff)
    a1 = a1_constant(spec, mode=a1_mode, cutoff=a1_cutoff, coeffs=coeffs)
    a2 = ValueWithBound(2 * c.value, 2 * c.bound, c.bound_kind)
    return Constants(c=c, a1=a1, a2=a2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _num_to_json(v: Number):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        return float(v)
    return v


def spec_to_dict(spec: EulerProductSpec) -> dict:
    """Canonical JSON-ready form of a spec (complex numbers as [re, im])."""
    if spec.kind == "zeta":
        return {"kind": "zeta"}
    if spec.kind == "dirichlet":
        chi = spec.character
        return {"kind": "dirichlet", "modulus": chi.modulus,
                "values": [_num_to_json(v) for v in chi.values]}
    roots = {str(p): [[complex(r).real, complex(r).imag] for r in rs]
             for p, rs in sorted(spec.roots.items())}
    return {"kind": "custom", "degree": spec.degree, "roots": roots,
            "default": spec.default_rule}


def _is_json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _num_from_json(v) -> Number:
    """A JSON number, or a complex number given as an [re, im] pair."""
    if isinstance(v, list) and len(v) == 2 and all(map(_is_json_number, v)):
        return v[0] if v[1] == 0 else complex(v[0], v[1])
    if _is_json_number(v):
        return v
    raise BadProductSpec(f"expected a number or an [re, im] pair, got {v!r}")


def _json_int(d: dict, key: str) -> int:
    v = d[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise BadProductSpec(f"{key} must be an integer, got {v!r}")
    return v


def _json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise BadProductSpec(f"{what} must be a list, got {v!r}")
    return v


def spec_from_dict(d: dict) -> EulerProductSpec:
    """Parse the JSON product-spec format; any structural fault is a
    BadProductSpec."""
    if not isinstance(d, dict):
        raise BadProductSpec(f"a product spec is a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "zeta":
        return zeta_product()
    if kind == "dirichlet":
        if "kronecker" in d:
            return dirichlet_product(build_character(kronecker=_json_int(d, "kronecker")))
        if "modulus" not in d or "values" not in d:
            raise BadProductSpec("dirichlet spec needs modulus+values or kronecker")
        values = [_num_from_json(v) for v in _json_list(d["values"], "values")]
        return dirichlet_product(build_character(q=_json_int(d, "modulus"),
                                                 values=values))
    if kind == "custom":
        if "degree" not in d or "roots" not in d:
            raise BadProductSpec("custom spec needs degree and roots")
        raw = d["roots"]
        if not isinstance(raw, dict):
            raise BadProductSpec(f"roots must be an object mapping primes to "
                                 f"lists of roots, got {raw!r}")
        roots = {}
        for p, rs in raw.items():
            try:
                key = int(p)
            except ValueError:
                raise BadProductSpec(f"roots key {p!r} is not an integer")
            roots[key] = [_num_from_json(r) for r in _json_list(rs, f"roots at {p!r}")]
        return custom_product(_json_int(d, "degree"), roots,
                              d.get("default", "zero"))
    raise BadProductSpec(f"unknown product kind {kind!r}")


def load_spec_file(path: str) -> EulerProductSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as e:
            raise BadProductSpec(f"spec file {path} is not JSON: {e}")
    return spec_from_dict(d)


def spec_hash(spec: EulerProductSpec) -> str:
    """Stable 16-hex-digit digest of the canonical spec form."""
    blob = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
