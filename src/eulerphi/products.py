"""Polynomial Euler products and their local/global invariants.

A product is F(s) = prod_p prod_{j<=d} (1 - alpha_j(p) p^{-s})^{-1} with all
inverse roots in the closed unit disk.  Three kinds are supported:

  * zeta:       d = 1, every root 1 (the classical totient case)
  * dirichlet:  d = 1, root chi(p) for a Dirichlet character chi
  * custom:     a finite table prime -> d roots, plus a default rule
                ("zero" or "one") for primes beyond the table

From the local data the module computes F_p(1), the local coefficient
gamma(p) = p(1 - 1/F_p(1)), the main-term constant C(F), the series constant
A1 = sum alpha(n)/n, and the Dirichlet L-values L(s, chi) that A1 and the
constants report read, by one fixed-order Euler-Maclaurin formula at every
modulus up to MAX_MODULUS.  The same formula gives L(s, chi) of a principal
character at s > 1, and zeta(s) as that of the trivial character mod 1.
C(F) reads zeta(2) from it wherever gamma(p) follows the default-one rule
at all but finitely many primes (zeta, principal characters, custom with
default one); at degree d >= 2 it also reads zeta(3) and multiplies out an
accelerated product over the primes up to 1e5 with a rigorous tail bound.
Only a non-principal character multiplies out the primes up to a cutoff.
Values that involve infinite products/series are returned as
ValueWithBound, an estimate plus an absolute error radius.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    BadModulus,
    BadProductSpec,
    CutoffTooSmall,
    DegreeNotMinimal,
    ModeUnavailable,
    NonMultiplicative,
    NotPrime,
    OutOfMemory,
    PrecisionUnreachable,
    PrincipalCharacter,
    RootOutOfDisk,
    SOutOfRange,
    WrongSupport,
)
from .primes import factorize, is_prime, primes_upto

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
    """Check support, unit modulus and complete multiplicativity, in O(q log q).

    chi(a g) = chi(a) chi(g) is checked for every unit a and each g of a
    greedy generating set: a unit joins when it lies outside the subgroup H
    the earlier ones generate, so H at least doubles.  The g that pass are
    closed under products, chi(a g h) = chi(a g) chi(h) = chi(a) chi(g h),
    so they are all of (Z/q)^*; a non-unit factor makes both sides 0 by the
    support check.  Within _TOL per check, k generator steps are within
    (2k - 1) _TOL.
    """
    if len(values) != q:
        raise BadModulus(f"expected {q} values, got {len(values)}")
    vals = tuple(_normalize_char_value(v) for v in values)
    table = np.array([complex(v) for v in vals])
    coprime = np.gcd(np.arange(q), q) == 1
    bad = np.flatnonzero(coprime != (table != 0))
    if bad.size:
        a = int(bad[0])
        raise WrongSupport(f"chi({a}) = {vals[a]} but gcd({a},{q}) "
                           f"{'=' if coprime[a] else '>'} 1")
    units = np.flatnonzero(coprime)
    bad = units[np.abs(np.abs(table[units]) - 1.0) > _TOL]
    if bad.size:
        raise NonMultiplicative(f"|chi({bad[0]})| = {abs(table[bad[0]])}, expected 1")
    if vals[1 % q] != 1:
        raise NonMultiplicative("chi(1) != 1")
    inside = np.zeros(q, dtype=bool)        # the subgroup H
    inside[1 % q] = True
    for g in units.tolist():
        if inside[g]:
            continue
        ag = units * g % q
        bad = np.flatnonzero(np.abs(table[ag] - table[units] * table[g]) > _TOL)
        if bad.size:
            a, b = int(units[bad[0]]), int(ag[bad[0]])
            raise NonMultiplicative(f"chi({a}*{g} mod {q}) = {vals[b]} != "
                                    f"chi({a})*chi({g}) = {vals[a] * vals[g]}")
        coset = np.flatnonzero(inside)      # H grows to the union of H g^k
        while not inside[coset[0] * g % q]:
            coset = coset * g % q
            inside[coset] = True
    is_real = all(not isinstance(v, complex) for v in vals)
    is_principal = bool(np.all(table[units] == 1))
    return CharacterSpec(modulus=q, values=vals, is_real=is_real,
                         is_principal=is_principal)


# Costs grow linearly in q.  On a 2-core x86-64 host, at q = 1e5 `constants`
# takes 2.5 s and 180 MB peak; at 1e6 one L-value alone takes 8 s and 1.5 GB.
MAX_MODULUS = 10 ** 5


def build_character(q: Optional[int] = None, values=None,
                    kronecker: Optional[int] = None) -> CharacterSpec:
    """Build a validated character from an explicit table or a Kronecker symbol.

    Explicit source: pass q and the q values chi(0..q-1).  Kronecker source:
    pass the discriminant D; the character is n -> (D|n) with modulus |D|,
    which requires D = 0 or 1 mod 4 to be periodic.  Either way the modulus
    lies in 1..MAX_MODULUS.
    """
    if kronecker is not None:
        if values is not None:
            raise BadModulus("pass either explicit values or a discriminant, not both")
        if kronecker == 0 or kronecker % 4 not in (0, 1):
            raise BadModulus("discriminant must be nonzero and 0 or 1 mod 4, "
                             f"got {kronecker}")
        q = abs(kronecker)
    elif q is None or values is None:
        raise BadModulus("explicit source needs both q and values")
    if not 1 <= q <= MAX_MODULUS:
        raise BadModulus(f"modulus must be in 1..{MAX_MODULUS}, got {q}")
    if kronecker is not None:
        values = [kronecker_symbol(kronecker, n) for n in range(q)]
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


@dataclass(frozen=True)
class _Numbers:
    """Exact rationals or floats.

    lift turns a root, local factor or integer into the type products are
    taken in: a Fraction, or a complex.  collapse turns a value into what
    callers get: a Fraction, or _plain's float (complex only when the
    imaginary part is nonzero); float -> Fraction is lossless, so exact
    identities hold as equalities in Q.  dtype is numpy's type for an array
    of lifted values.  A complex value has no exact form: ModeUnavailable.
    """

    exact: bool
    lift: Callable
    collapse: Callable
    dtype: object


_EXACT = _Numbers(True, _as_fraction, _as_fraction, object)
_FLOAT = _Numbers(False, complex, _plain, np.complex128)


def _number_type(exact: bool) -> _Numbers:
    return _EXACT if exact else _FLOAT


def _point_numbers(x) -> _Numbers:
    """The number type of a table-free call at x: exact when x is an int
    or Fraction, floats otherwise.  A call on a table takes the table's."""
    return _number_type(isinstance(x, (int, Fraction)))


def _local_product(spec: EulerProductSpec, p: int, exact: Optional[bool]):
    """(prod_j (1 - alpha_j(p)/p), collapse) in the number type of exact."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    num = _number_type(spec.exact_capable if exact is None else exact)
    prod = num.lift(1)
    for r in spec.local_roots(p):
        prod *= 1 - num.lift(r) / p
    return prod, num.collapse


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
    num = _number_type(exact)
    if spec.kind == "zeta":
        out = np.full(len(ps), num.lift(1), dtype=num.dtype)
    elif spec.kind == "dirichlet":
        chi = spec.character
        table = np.array([num.lift(v) for v in chi.values], dtype=num.dtype)
        out = table[ps % chi.modulus]
    elif spec.default_rule == "zero":
        out = np.full(len(ps), num.lift(0), dtype=num.dtype)
    else:
        pf, one = ((ps.astype(object), Fraction(1)) if exact
                   else (ps.astype(np.float64), 1.0))
        out = (pf * (one - (one - one / pf) ** spec.degree)).astype(num.dtype)
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
_U = 2.0 ** -53     # unit roundoff


# ---------------------------------------------------------------------------
# C(F)
# ---------------------------------------------------------------------------

def _listed_product(spec: EulerProductSpec, primes, first, factor) -> tuple:
    """(first * prod over p of primes of factor(p, local_p), exact).

    local_p = prod_j (1 - alpha_j(p)/p) is the local product at p.  For a
    spec with finite support and its listed primes this is the whole Euler
    product.  exact=True gives a Fraction (every root rational),
    exact=False a float or complex.
    """
    num = _number_type(spec.exact_capable)
    prod = num.lift(first)
    for p in primes:
        local, _ = _local_product(spec, p, num.exact)
        prod *= factor(p, local)
    return num.collapse(prod), num.exact


def _check_cutoff(prime_cutoff: int) -> None:
    """The cutoff shares the float table's cap, since the sieve costs about
    as much per n; a larger one is refused before anything is allocated."""
    from .coeffs import _FLOAT_N_CAP   # coeffs imports this module
    if prime_cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {prime_cutoff}")
    if prime_cutoff > _FLOAT_N_CAP:
        raise OutOfMemory(f"prime cutoff capped at {_FLOAT_N_CAP}, "
                          f"got {prime_cutoff}")


def _exceptional_primes(spec: EulerProductSpec) -> Optional[list]:
    """S, the primes where gamma(p) may differ from the default-one rule
    gamma_1(p) = p (1 - (1 - 1/p)^d), when it follows that rule at every
    other prime: none for zeta, the p | q for a principal character mod q
    (gamma(p) = 0 there, and gamma_1 = 1 at d = 1), the listed primes for a
    custom product with default one.  None for every other product."""
    if spec.kind == "zeta":
        return []
    if spec.kind == "dirichlet":
        chi = spec.character
        return ([p for p, _ in factorize(chi.modulus)] if chi.is_principal
                else None)
    if spec.default_rule == "one":
        return sorted(spec.roots)
    return None


# The default-one rule's Euler product reads the primes up to _ONE_RULE_P
# one by one and bounds the rest.  Its numerator polynomial has about
# 1.5 d^2 integer coefficients of up to d^2 bits, so the degree is capped.
_ONE_RULE_P = 10 ** 5
_ONE_RULE_MAX_DEGREE = 45


def _one_rule_numerator(d: int) -> list:
    """[c_4, c_5, ...], the integer coefficients of N(t) = sum_k c_k t^k,
    N(t) = f_1(t) (1 - t^3)^b - (1 - t^2)^d with b = d(d - 1)/2.

    f_1(t) = 1 - t + t (1 - t)^d is 1 - gamma_1(p)/p^2 at t = 1/p, so
    g(p) = f_1 (1 - t^3)^b / (1 - t^2)^d = 1 + N(t)/(1 - t^2)^d.  The terms
    in t^2 and t^3 cancel: -t^4 + 2t^5 - t^6 for d = 2.
    """
    b = d * (d - 1) // 2
    f1 = [1, -1] + [0] * d
    for k in range(d + 1):
        f1[k + 1] += (-1) ** k * math.comb(d, k)
    n = [0] * (len(f1) + 3 * b)
    for j in range(b + 1):
        cj = (-1) ** j * math.comb(b, j)
        for i, a in enumerate(f1):
            n[i + 3 * j] += a * cj
    for k in range(d + 1):
        n[2 * k] -= (-1) ** k * math.comb(d, k)
    assert not any(n[:4]), n[:4]
    return n[4:]


def _one_rule_rest(d: int) -> ValueWithBound:
    """R = zeta(3)^b prod_p g(p) for degree d >= 2, b = d(d - 1)/2, with
    g(p) = f_1(p) (1 - p^-3)^b / (1 - p^-2)^d as in _one_rule_numerator,
    so that prod_p f_1(p) = zeta(2)^-d R.  Returns R > 0 with a rigorous
    bound.

    With c = _one_rule_numerator(d) and K_q = sum_k |c_k| q^-k, every
    p > q has |g(p) - 1| <= K_q p^-4/(1 - p^-2)^d.  q is the first power
    of 2 that makes this at most 2^-20.  log R is one math.fsum of:
      * b log zeta(3), from zeta_value(3), whose bound e moves it by at most
        b e/(zeta(3) - e);
      * at each p <= q, log f_1(p) + b log1p(-p^-3) - d log1p(-p^-2) by
        libm.  f_1(p) and p^-k are rounded once, and with libm's log and
        log1p within 2 ulp (4u) each term is within u plus 7u times its
        size;
      * over q < p <= _ONE_RULE_P, h - h^2/2 with h = g(p) - 1 taken as
        t^4 N(t)/(1 - t^2)^d in float64.  N is summed by Horner in s = q/p
        from the coefficients c_k q^-k, without the trailing ones whose sum
        is under 2^-60 K_q; they are added to the bound.  The error in h is
        within (3n + 3d + 20)u K_q t^4/(1 - t^2)^d (n Horner terms; t^4,
        the d quotients by 1 - t^2 and h - h^2/2), the sums of h and h^2
        within their length times u times that, and
        |log1p(h) - h + h^2/2| <= |h|^3/2;
      * past _ONE_RULE_P, |sum log g(p)| <= (1 + 2^-19) K_q/(3 P^3
        (1 - P^-2)^d), since sum_{p > P} p^-4 < 1/(3 P^3).
    fsum rounds once; exp is within 4u.  So R's bound is
    R (expm1(E) + 5u) for E the sum of the bounds above.
    """
    if d > _ONE_RULE_MAX_DEGREE:
        raise PrecisionUnreachable(
            f"C(F) of a default-one product is computed up to degree "
            f"{_ONE_RULE_MAX_DEGREE}, got {d}")
    b, u, big = d * (d - 1) // 2, _U, _ONE_RULE_P
    c = _one_rule_numerator(d)
    # q starts where |c_4| alone allows it
    q = 2 ** max(1, math.ceil((math.log2(abs(c[0])) + 20) / 4))
    while True:
        coeffs, scale = [], 1           # c_k q^-k, each rounded once
        for x in c:
            coeffs.append(x / scale)
            scale *= q
        kq = math.fsum(map(abs, coeffs))
        if kq <= 2.0 ** -20 * q ** 4 * (1 - q ** -2.0) ** d:
            break
        q *= 2
    keep, dropped = len(coeffs), 0.0
    while keep > 1 and dropped + abs(coeffs[keep - 1]) <= 2.0 ** -60 * kq:
        keep -= 1
        dropped += abs(coeffs[keep])

    ps = primes_upto(big)
    z3 = zeta_value(3.0)
    terms = [b * math.log(z3.value)]
    for p in ps[ps <= q].tolist():
        terms += [math.log((p ** d * (p - 1) + (p - 1) ** d) / p ** (d + 1)),
                  b * math.log1p(-1 / p ** 3), -d * math.log1p(-1 / p ** 2)]
    errors = u * (len(terms) + 7 * math.fsum(map(abs, terms)))
    errors += b * z3.bound / (z3.value - z3.bound)

    s = q / ps[ps > q]                  # t = s/q is 1/p rounded once
    t2 = np.square(s) / q ** 2
    one_minus = 1 - t2
    w = np.square(t2)
    for _ in range(d):
        w /= one_minus                  # t^4/(1 - t^2)^d
    h = np.full_like(s, coeffs[keep - 1])
    for x in reversed(coeffs[:keep - 1]):
        h *= s
        h += x
    h *= w                              # g(p) - 1
    terms.append(float(np.sum(h)) - float(np.dot(h, h)) / 2)
    eta = (3 * keep + 3 * d + 20 + len(s)) * u
    errors += (eta * kq + dropped + kq ** 3 * w[0] ** 2 / 2) * float(np.sum(w))
    errors += (1 + 2.0 ** -19) * kq / (3 * big ** 3 * (1 - big ** -2.0) ** d)

    log_rest = math.fsum(terms)
    errors += u * abs(log_rest)
    rest = math.exp(log_rest)
    return ValueWithBound(rest, rest * (math.expm1(errors) + 5 * u),
                          "rigorous")


def c_constant(spec: EulerProductSpec, prime_cutoff: int = 10 ** 6) -> ValueWithBound:
    """C(F) = (1/2) prod_p (1 - gamma(p)/p^2), with a rigorous bound.

    prime_cutoff is range-checked first, whichever branch follows.
      * finite support (custom, default zero): the finite product over the
        listed primes, a Fraction with bound 0 when every root is rational;
      * gamma(p) = gamma_1(p) off a finite set S (_exceptional_primes: zeta,
        a principal character, custom with default one), where
        f_1(p) = 1 - gamma_1(p)/p^2 is the default-one rule of degree d:
        C = (1/2) prod_{p in S} (1 - gamma(p)/p^2)/f_1(p) * zeta(2)^-d R,
        with zeta(2) from zeta_value and R = 1 for d = 1 (zeta, principal
        characters and degree-1 custom products: gamma_1 = 1), else
        _one_rule_rest(d), a zeta(3)-accelerated Euler product whose tail
        past 1e5 is bounded.  The cutoff is not read;
      * any other product (a non-principal character): c_truncated at
        prime_cutoff.
    In the closed form, each factor is p (p - 1 + local_p)/D_p with
    D_p = (p^d (p - 1) + (p - 1)^d)/p^(d - 1), the integer p^2 - 1 at
    d = 1.  The product is a Fraction when every gamma(p) is rational, and
    its quotient by z^d, z zeta(2)'s float value, is then rounded once;
    otherwise it is taken in complex floats, within 8d unit roundoffs per
    factor (local_p's d roots, the factor's operations, D_p's rounding and
    the product's complex multiplication) and d more for z^d and the
    division.  With e the bound of z, z^-d is within d e/(z (z - e)^d) of
    zeta(2)^-d.  The product by R rounds once more.
    """
    _check_cutoff(prime_cutoff)
    if spec.finite_support:
        # 1 - gamma(p)/p^2 with gamma(p) = p (1 - local)
        value, exact = _listed_product(
            spec, sorted(spec.roots), Fraction(1, 2),
            lambda p, local: 1 - p * (1 - local) / (p * p))
        slop = 0.0 if exact else (len(spec.roots) + 2) * _EPS * abs(value)
        return ValueWithBound(value, slop, "rigorous")
    primes = _exceptional_primes(spec)
    if primes is None:
        return c_truncated(spec, prime_cutoff)
    d = spec.degree
    half, exact = _listed_product(
        spec, primes, Fraction(1, 2),
        lambda p, local: p * (p - 1 + local) / Fraction(
            p ** d * (p - 1) + (p - 1) ** d, p ** (d - 1)))
    z = zeta_value(2.0)
    if exact:
        value = float(half / Fraction(z.value) ** d)
        slop = _U * abs(value)
    else:
        value = _plain(half / float(Fraction(z.value) ** d))
        slop = (8 * d * len(primes) + d) * _U * abs(value)
    via_zeta = (float(abs(half)) * d * z.bound
                / (z.value * (z.value - z.bound) ** d))
    bound = via_zeta + slop
    if d > 1:
        rest = _one_rule_rest(d)
        bound = bound * (rest.value + rest.bound) + abs(value) * rest.bound
        value = _plain(value * rest.value)
        bound += 2 * _U * abs(value)
    return ValueWithBound(value, bound * (1 + 64 * _U), "rigorous")


def c_truncated(spec: EulerProductSpec, prime_cutoff: int) -> ValueWithBound:
    """C(F) as (1/2) prod_{p <= prime_cutoff} (1 - gamma(p)/p^2).

    The tail over p > cutoff is controlled rigorously through the uniform
    bound |gamma(p)| <= d 2^(d-1) =: B and sum_{n>P} 1/n^2 < 1/P, giving
    |C - C_P| <= |C_P| (exp(2B/P) - 1) once B/P^2 <= 1/2.  c_constant takes
    this route for a non-principal character only; for the other products
    it is the independent cross-check of the tests.
    """
    _check_cutoff(prime_cutoff)
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

# B_2j/(2j)! for j = 1..6, the Euler-Maclaurin coefficients through B_12
_EM_COEFFS = np.array([float(b / math.factorial(2 * j)) for j, b in enumerate(
    map(Fraction, ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730")), 1)])


def _fsum(arrays) -> float:
    """math.fsum over the elements of float arrays, one array's Python
    floats alive at a time."""
    return math.fsum(chain.from_iterable(t.tolist() for t in arrays))


def l_value(chi: CharacterSpec, s: float) -> ValueWithBound:
    """L(s, chi) = sum chi(n) n^{-s}: for non-principal chi at finite s > 0,
    for a principal chi at finite s > 1.

    The first K = 16 periods are summed term by term; the rest, for each
    r < q with y = qK + r and z = q/y, by Euler-Maclaurin to order 12
    (Rubinstein, Computational methods and experiments in analytic number
    theory, 2005): sum_{k>=K} (qk + r)^{-s} = -y^{1-s}/((1-s)q)
    + y^{-s} (1/2 + sum_{j<=6} B_2j/(2j)! s(s+1)..(s+2j-2) z^{2j-1}) + R_r.
    The integral term is split as -(qK)^{1-s}/((1-s)q), its constant, plus
    -(qK)^{1-s} expm1((1-s) log1p(r/(qK)))/((1-s)q), stable near s = 1 and
    -log1p(r/(qK))/q at it.  The constants add up to
    sum_r chi(r) (qK)^{1-s}/((s-1)q): 0 for a non-principal chi, and
    phi(q) (qK)^{1-s}/((s-1)q) for a principal one, whose pole at s = 1 it
    carries.  One math.fsum adds all terms.  zeta_value is L(s, chi) of the
    trivial character mod 1.

    The bound is rigorous.  The remainder kernel B_12 - B_12({t}) has one
    sign and is at most 2|B_12|, and f = (qt + r)^{-s} has f^(12) > 0, so
    |R_r| <= |B_12|/12! |f^(11)(K)|.  With libm's pow, log1p and expm1
    within 2 ulp (4u, u the unit roundoff), rounding adds at most 6u per
    direct term past n = 1, (24 + |1-s| log(qK))u per integral term and for the
    principal constant (an expm1 argument is below 1/16; 1 - s and s - 1
    round by at most u each), 60u of each correction's magnitude and u|L|
    for the sum; the factor 1 + 64u covers the bound's own rounding.
    """
    s = float(s)
    if not 0 < s < math.inf:
        raise SOutOfRange(f"need finite s > 0, got {s}")
    if chi.is_principal and s <= 1:
        raise PrincipalCharacter(f"L(s, chi) of a principal character needs "
                                 f"s > 1, got {s}")
    q, k, a = chi.modulus, 16, 1 - s
    cr = np.array(chi.values) + 0.0     # chi(r), r < q: float, or complex
    y = q * k + np.arange(q)
    # chi(n) n^-s for 1 < n < qK, one array per period; the term n = 1 is
    # chi(1) 1^-s = 1 exactly
    direct = [cr[max(2, lo) - lo:]
              * np.array([n ** -s for n in range(max(2, lo), lo + q)])
              for lo in range(0, q * k, q)]
    ell = np.array([math.log1p(r / (q * k)) for r in range(q)])
    if a != 0:
        ell = np.array([math.expm1(a * t) for t in ell.tolist()]) / a
    integral = -cr * (ell * ((q * k) ** a / q))
    if chi.is_principal:    # the constants of the integral terms
        constant = np.count_nonzero(cr) * (q * k) ** a / ((s - 1) * q)
        integral = np.append(integral, constant)
    # row m: y^-s s(s+1)..(s+m-1) z^m, so |f^(m)(K)|
    d = np.cumprod(np.vstack([[t ** -s for t in y.tolist()],
                              (s + np.arange(11))[:, None] * (q / y)]), axis=0)
    em = _EM_COEFFS[:, None] * d[1::2]
    corr, mag = d[0] / 2 + em.sum(axis=0), d[0] / 2 + np.abs(em).sum(axis=0)
    terms = direct + [integral, cr * corr, np.ones(1)]
    value = _fsum(t.real for t in terms)
    if not chi.is_real:
        value = complex(value, _fsum(t.imag for t in terms))
    errors = chain((6 * np.abs(t) for t in direct), [  # in units of u
        24 * np.abs(integral) + math.log(q * k) * np.abs(a * integral),
        np.abs(cr) * (60 * mag + abs(_EM_COEFFS[-1]) / _U * d[11])])
    bound = _U * (_fsum(errors) + abs(value)) * (1 + 64 * _U)
    return ValueWithBound(value, bound, "rigorous")


# the trivial character mod 1: L(s, chi_1) = zeta(s)
_TRIVIAL = CharacterSpec(modulus=1, values=(1,), is_real=True,
                         is_principal=True)


def zeta_value(s: float) -> ValueWithBound:
    """zeta(s) for finite s > 1, by l_value, with its rigorous bound."""
    return l_value(_TRIVIAL, s)


# ---------------------------------------------------------------------------
# A1 = sum alpha(n)/n
# ---------------------------------------------------------------------------

def a1_constant(spec: EulerProductSpec, mode: str = "auto",
                cutoff: int = 10 ** 6,
                l1: Optional[ValueWithBound] = None) -> ValueWithBound:
    """A1 = sum_{n>=1} alpha(n)/n, assumed convergent (hypothesis on the user).

    closed_form, the choice of auto for every kind; formally
    sum alpha(n) n^-s = 1/F(s), and each value is rigorous:
      * zeta -> exactly 0 (the classical fact, Abel's theorem on 1/zeta);
      * dirichlet principal -> exactly 0 (the same fact: the coefficients
        restrict mu to n coprime to q); non-principal -> 1/L(1,chi);
      * custom, default zero -> prod_{listed p} prod_j (1 - alpha_j(p)/p),
        the finite product 1/F(1): a Fraction with bound 0 when every root
        is rational, else a float whose bound is its rounding error;
      * custom, default one -> exactly 0: 1/F(s) = zeta(s)^-d H(s) with H a
        finite product, so under the assumed convergence Abel's theorem
        gives 0, as for zeta.
    partial_sums, the independent cross-check, never chosen by auto: the
    partial sum at cutoff of its own float alpha sieve, with a heuristic
    radius, the maximum deviation of the partial sums over the last decade
    [cutoff/10, cutoff].  l1 is L(1, chi) when
    the caller has computed it already.
    """
    if mode == "auto":
        mode = "closed_form"
    if mode == "closed_form":
        if spec.finite_support:
            value, exact = _listed_product(spec, sorted(spec.roots), 1,
                                           lambda p, local: local)
            # per root, 1 - alpha/p costs at most 2 unit roundoffs and the
            # complex product it enters sqrt(5): under 2.5 _EPS, so 3 _EPS
            # per root bounds the relative error of the whole product
            slop = (0.0 if exact else
                    3 * spec.degree * len(spec.roots) * _EPS * abs(value))
            return ValueWithBound(value, slop, "rigorous")
        if spec.kind != "dirichlet" or spec.character.is_principal:
            return ValueWithBound(0.0, 0.0, "rigorous")
        lv = l_value(spec.character, 1.0) if l1 is None else l1
        la = abs(lv.value)
        if la <= lv.bound:
            raise PrecisionUnreachable("L(1,chi) not separated from zero")
        a1 = _plain(1 / lv.value)
        # the division rounds once for real chi; Python's complex division
        # is within 5u, under 3 _EPS
        bound = lv.bound / (la * (la - lv.bound)) + 3 * _EPS * abs(a1)
        return ValueWithBound(a1, bound, "rigorous")
    if mode != "partial_sums":
        raise ModeUnavailable(f"unknown mode {mode!r}")
    from . import coeffs as _coeffs
    alpha = _coeffs.sieve_alpha(spec, cutoff, mode="float").alpha
    n = np.arange(cutoff + 1, dtype=np.float64)
    n[0] = 1.0
    sums = np.cumsum(alpha / n)
    value = sums[cutoff]
    lo = max(1, cutoff // 10)
    dev = float(np.max(np.abs(sums[lo:] - value)))
    return ValueWithBound(_plain(value), dev, "heuristic")


def compute_constants(spec: EulerProductSpec, prime_cutoff: int = 10 ** 6,
                      a1_mode: str = "auto", a1_cutoff: int = 10 ** 6,
                      l1: Optional[ValueWithBound] = None) -> Constants:
    """Bundle C(F), A1, and A2 = 2 C(F) for the decomposition routines;
    l1 is passed on to a1_constant."""
    c = c_constant(spec, prime_cutoff)
    a1 = a1_constant(spec, mode=a1_mode, cutoff=a1_cutoff, l1=l1)
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
    """True for a finite JSON number.  json reads NaN, Infinity and ints
    of any size; none of them is a root or a character value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int beyond float range
        return False


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


# the keys a spec of each kind reads
_SPEC_KEYS = {"zeta": {"kind"},
              "dirichlet": {"kind", "kronecker", "modulus", "values"},
              "custom": {"kind", "degree", "roots", "default"}}


def spec_from_dict(d: dict) -> EulerProductSpec:
    """Parse the JSON product-spec format; any structural fault, a key its
    kind does not read included, is a BadProductSpec."""
    if not isinstance(d, dict):
        raise BadProductSpec(f"a product spec is a JSON object, got {d!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise BadProductSpec(f"unknown product kind {kind!r}")
    unread = sorted(set(d) - _SPEC_KEYS[kind])
    if unread:
        raise BadProductSpec(f"a {kind} spec reads no key "
                             f"{', '.join(map(repr, unread))}")
    if kind == "zeta":
        return zeta_product()
    if kind == "dirichlet":
        if "kronecker" in d:
            if "modulus" in d or "values" in d:
                raise BadProductSpec("kronecker and modulus/values each "
                                     "define the character; give one source")
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
