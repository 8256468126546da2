"""Characters, product specs, local data, and the constants C(F), A1, A2."""

import json
import math
from fractions import Fraction

import pytest

from conftest import CATALAN, PI, TRUE_A1_MOD4, TRUE_C_MOD4, TRUE_C_ZETA
from eulerphi.errors import (
    BadModulus,
    BadProductSpec,
    CutoffTooSmall,
    DegreeNotMinimal,
    ModeUnavailable,
    NonMultiplicative,
    NotPrime,
    PrincipalCharacter,
    RootOutOfDisk,
    SOutOfRange,
    WrongSupport,
)
from eulerphi.primes import primes_upto
from eulerphi.products import (
    a1_constant,
    build_character,
    c_constant,
    custom_product,
    dirichlet_product,
    gamma,
    gamma_abs_bound,
    gamma_values,
    kronecker_symbol,
    l_value,
    load_spec_file,
    local_factor_at_one,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    zeta_product,
)


# --- Kronecker / characters -------------------------------------------------

def test_kronecker_known_values():
    # Legendre cases (odd prime bottom): residues mod 7 are {1, 2, 4}
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(3, 7) == -1
    assert kronecker_symbol(2, 3) == -1
    assert kronecker_symbol(2, 17) == 1
    assert kronecker_symbol(-1, 5) == 1
    assert kronecker_symbol(-1, 7) == -1
    # Jacobi multiplicativity in the bottom argument
    assert kronecker_symbol(2, 15) == kronecker_symbol(2, 3) * kronecker_symbol(2, 5)
    # special bottoms
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 1) == 1
    assert kronecker_symbol(10, 5) == 0


def test_mod4_character_values():
    chi = build_character(kronecker=-4)
    assert chi.modulus == 4
    want = {1: 1, 2: 0, 3: -1, 4: 0, 5: 1, 6: 0, 7: -1, 9: 1}
    for n, v in want.items():
        assert chi(n) == v


def test_mod3_character_values():
    chi = build_character(kronecker=-3)
    assert chi.modulus == 3
    for n in range(1, 20):
        if n % 3 == 0:
            assert chi(n) == 0
        elif n % 3 == 1:
            assert chi(n) == 1
        else:
            assert chi(n) == -1


def test_real_quadratic_character():
    chi = build_character(kronecker=5)
    assert [chi(n) for n in range(1, 6)] == [1, -1, -1, 1, 0]


def test_character_validation_errors():
    with pytest.raises(BadModulus):
        build_character(q=0, values=[])
    with pytest.raises(BadModulus):
        build_character(kronecker=6)   # 6 = 2 mod 4 is not a valid discriminant
    with pytest.raises(WrongSupport):
        build_character(q=4, values=[0, 1, 1, 1])   # nonzero at gcd > 1
    with pytest.raises(WrongSupport):
        build_character(q=4, values=[0, 1, 0, 0])   # zero at a coprime class
    with pytest.raises(NonMultiplicative):
        build_character(q=5, values=[0, 1, 2, 1, 1])   # |value| != 1
    with pytest.raises(NonMultiplicative):
        build_character(q=5, values=[0, 1, 1, -1, -1])  # chi(2)chi(3) != chi(6)


def test_principal_character_flag():
    chi = build_character(q=3, values=[0, 1, 1])
    assert chi.is_principal
    assert not build_character(kronecker=-4).is_principal


# --- product specs ------------------------------------------------------------

def test_spec_kinds_and_degree():
    assert zeta_product().kind == "zeta"
    assert zeta_product().degree == 1
    assert dirichlet_product(build_character(kronecker=-4)).degree == 1
    spec = custom_product(2, {2: [1, 1], 3: [Fraction(1, 2), -1]}, "zero")
    assert spec.kind == "custom" and spec.degree == 2


def test_custom_product_errors():
    with pytest.raises(NotPrime):
        custom_product(2, {4: [1, 1]}, "zero")
    with pytest.raises(RootOutOfDisk):
        custom_product(2, {2: [1.5, 1]}, "zero")
    with pytest.raises(DegreeNotMinimal):
        custom_product(2, {2: [1, 0], 3: [0, 1]}, "zero")   # no full row
    # a partial row is fine as long as some prime attains the degree
    custom_product(2, {2: [1, 0], 3: [1, 1]}, "zero")
    with pytest.raises(BadProductSpec):
        custom_product(2, {2: [1, 1]}, "maybe")
    # the all-zero table is the allowed degenerate object
    spec = custom_product(2, {2: [0, 0]}, "zero")
    assert spec.degree == 2


def test_local_factor_and_gamma_zeta():
    spec = zeta_product()
    for p in (2, 3, 5, 97):
        assert local_factor_at_one(spec, p, exact=True) == Fraction(p, p - 1)
        assert gamma(spec, p, exact=True) == 1


def test_local_factor_and_gamma_mod4():
    spec = dirichlet_product(build_character(kronecker=-4))
    assert gamma(spec, 2, exact=True) == 0
    assert gamma(spec, 5, exact=True) == 1
    assert gamma(spec, 3, exact=True) == -1


def test_local_factor_and_gamma_custom():
    spec = custom_product(2, {2: [1, 1]}, "zero")
    assert local_factor_at_one(spec, 2, exact=True) == 4
    assert gamma(spec, 2, exact=True) == Fraction(3, 2)
    # default rule fills unlisted primes: zero roots mean the factor is 1
    assert local_factor_at_one(spec, 5, exact=True) == 1
    assert gamma(spec, 5, exact=True) == 0


def test_gamma_values_matches_scalar_gamma():
    # listed primes at both ends of ps, inside it, and past its end
    ps = primes_upto(1000)
    roots = {2: [0.5, 0.25], 7: [1j, -1j], 997: [0.5, 0.5], 1009: [1, 1]}
    for rule in ("zero", "one"):
        spec = custom_product(2, roots, rule)
        got = gamma_values(spec, ps)
        for p, g in zip(ps.tolist(), got):
            want = complex(gamma(spec, p, exact=False))
            if p in roots:
                assert g == want
            else:
                assert g == pytest.approx(want, rel=1e-15)
    rational = {2: [0.5, 0.25], 7: [1, -1], 997: [0.5, 0.5], 1009: [1, 1]}
    for spec in ([zeta_product()]
                 + [dirichlet_product(build_character(kronecker=d))
                    for d in (-4, 8)]
                 + [custom_product(2, rational, rule) for rule in ("zero", "one")]):
        got = gamma_values(spec, ps, exact=True)
        want = [gamma(spec, p, exact=True) for p in ps.tolist()]
        assert got.tolist() == want
        assert all(type(g) is Fraction for g in got)


def test_gamma_abs_bound():
    assert gamma_abs_bound(zeta_product()) == 1
    assert gamma_abs_bound(custom_product(2, {2: [1, 1]}, "zero")) == 4
    assert gamma_abs_bound(custom_product(3, {2: [1, 1, 1]}, "zero")) == 12


# --- constants ----------------------------------------------------------------

def test_c_constant_zeta_is_3_over_pi_squared(zeta_constants):
    c = zeta_constants.c
    assert abs(c.value - TRUE_C_ZETA) <= c.bound
    assert c.bound < 1e-5
    assert c.bound_kind == "rigorous"


def test_c_constant_mod4_matches_catalan(mod4_constants):
    c = mod4_constants.c
    assert abs(c.value - TRUE_C_MOD4) <= c.bound


def test_c_constant_finite_support_exact():
    spec = custom_product(2, {2: [1, 1], 3: [1, 1]}, "zero")
    c = c_constant(spec, prime_cutoff=100)
    assert c.value == Fraction(55, 216)
    assert c.bound == 0


def test_c_constant_cutoff_too_small():
    spec = custom_product(3, {2: [1, 1, 1]}, "one")
    with pytest.raises(CutoffTooSmall):
        c_constant(spec, prime_cutoff=4)


def test_l_value_oracles():
    chi4 = build_character(kronecker=-4)
    l1 = l_value(chi4, 1.0)
    assert abs(l1.value - PI / 4) <= l1.bound
    assert l1.bound < 1e-10
    l2 = l_value(chi4, 2.0)
    assert abs(l2.value - CATALAN) <= l2.bound
    chi3 = build_character(kronecker=-3)
    l3 = l_value(chi3, 1.0)
    assert abs(l3.value - PI / (3 * math.sqrt(3))) <= l3.bound


def test_l_value_errors():
    principal = build_character(q=3, values=[0, 1, 1])
    with pytest.raises(PrincipalCharacter):
        l_value(principal, 1.0)
    chi4 = build_character(kronecker=-4)
    with pytest.raises(SOutOfRange):
        l_value(chi4, 0.0)


def test_a1_zeta_is_exactly_zero(zeta_constants):
    a1 = zeta_constants.a1
    assert a1.value == 0
    assert a1.bound == 0


def test_a1_mod4_is_4_over_pi(mod4_constants):
    a1 = mod4_constants.a1
    assert abs(a1.value - TRUE_A1_MOD4) <= a1.bound
    assert a1.bound < 1e-9


def test_a1_partial_sums_finite_support():
    # gamma(2) = 3/2, gamma(3) = 5/3: A1 = (1 - 3/4)(1 - 5/9) = 1/9
    spec = custom_product(2, {2: [1, 1], 3: [1, 1]}, "zero")
    a1 = a1_constant(spec, mode="partial_sums", cutoff=5000)
    assert abs(a1.value - 1 / 9) < 1e-12


def test_a1_closed_form_unavailable_for_custom():
    spec = custom_product(2, {2: [1, 1]}, "zero")
    with pytest.raises(ModeUnavailable):
        a1_constant(spec, mode="closed_form")


def test_a2_is_twice_c(zeta_constants, mod4_constants):
    for cons in (zeta_constants, mod4_constants):
        assert cons.a2.value == 2 * cons.c.value
        assert cons.a2.bound == 2 * cons.c.bound


# --- serialization --------------------------------------------------------------

def test_spec_roundtrip_all_kinds(custom100_spec):
    specs = [zeta_product(),
             dirichlet_product(build_character(kronecker=-4)),
             custom100_spec]
    for spec in specs:
        d = spec_to_dict(spec)
        back = spec_from_dict(json.loads(json.dumps(d)))
        assert spec_hash(back) == spec_hash(spec)


def test_spec_hash_distinguishes():
    h1 = spec_hash(zeta_product())
    h2 = spec_hash(dirichlet_product(build_character(kronecker=-4)))
    h3 = spec_hash(custom_product(2, {2: [1, 1]}, "zero"))
    assert len({h1, h2, h3}) == 3
    assert all(len(h) == 16 for h in (h1, h2, h3))


def test_load_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "dirichlet", "kronecker": -4}))
    spec = load_spec_file(str(path))
    assert spec.kind == "dirichlet"
    assert spec.character.modulus == 4
