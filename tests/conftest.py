"""Shared fixtures: product specs, tables, and constants built once per run."""

import math

import pytest
from hypothesis import settings

from eulerphi.primes import primes_upto
from eulerphi.products import (
    ValueWithBound,
    Constants,
    build_character,
    compute_constants,
    custom_product,
    dirichlet_product,
    zeta_product,
)
from eulerphi.coeffs import phi_table

# fixed examples for CI runs (pytest --hypothesis-profile=ci), so a property
# test cannot pass on one run and fail on the next
settings.register_profile("ci", derandomize=True, max_examples=100,
                          deadline=None)

PI = math.pi
CATALAN = 0.9159655941772190          # sum (-1)^k / (2k+1)^2
ZETA3 = 1.2020569031595943
TRUE_C_ZETA = 3 / PI ** 2             # C = (1/2) prod (1 - 1/p^2) = 3/pi^2
TRUE_C_MOD4 = 1 / (2 * CATALAN)       # C = 1 / (2 L(2, chi_4))
TRUE_A1_MOD4 = 4 / PI                 # A1 = 1 / L(1, chi_4) = 4/pi


@pytest.fixture(scope="session")
def zeta_spec():
    return zeta_product()


@pytest.fixture(scope="session")
def mod4_spec():
    return dirichlet_product(build_character(kronecker=-4))


@pytest.fixture(scope="session")
def custom100_spec():
    roots = {int(p): [1, 1] for p in primes_upto(100)}
    return custom_product(2, roots, "zero")


@pytest.fixture(scope="session")
def zeta_constants(zeta_spec):
    return compute_constants(zeta_spec)


@pytest.fixture(scope="session")
def mod4_constants(mod4_spec):
    return compute_constants(mod4_spec)


@pytest.fixture(scope="session")
def custom100_constants(custom100_spec):
    return compute_constants(custom100_spec)


@pytest.fixture(scope="session")
def true_zeta_constants():
    """Literal-value constants for sharp closed-form oracle checks."""
    c = ValueWithBound(TRUE_C_ZETA, 1e-15, "rigorous")
    a1 = ValueWithBound(0.0, 0.0, "rigorous")
    a2 = ValueWithBound(2 * TRUE_C_ZETA, 2e-15, "rigorous")
    return Constants(c=c, a1=a1, a2=a2)


@pytest.fixture(scope="session")
def zeta_exact_500(zeta_spec):
    return phi_table(zeta_spec, 500, mode="exact")


@pytest.fixture(scope="session")
def mod4_exact_500(mod4_spec):
    return phi_table(mod4_spec, 500, mode="exact")


@pytest.fixture(scope="session")
def custom100_exact_500(custom100_spec):
    """gamma(p) = 2 - 1/p, so alpha takes non-integral Fraction values."""
    return phi_table(custom100_spec, 500, mode="exact")


@pytest.fixture(scope="session")
def zeta_exact_10k(zeta_spec):
    return phi_table(zeta_spec, 10 ** 4, mode="exact")


@pytest.fixture(scope="session")
def mod4_exact_10k(mod4_spec):
    return phi_table(mod4_spec, 10 ** 4, mode="exact")


@pytest.fixture(scope="session")
def custom100_exact_10k(custom100_spec):
    return phi_table(custom100_spec, 10 ** 4, mode="exact")


@pytest.fixture(scope="session")
def zeta_float_100k(zeta_spec):
    return phi_table(zeta_spec, 10 ** 5, mode="float")


@pytest.fixture(scope="session")
def mod4_float_100k(mod4_spec):
    return phi_table(mod4_spec, 10 ** 5, mode="float")


@pytest.fixture(scope="session")
def zeta_float_1m(zeta_spec):
    return phi_table(zeta_spec, 10 ** 6, mode="float")


@pytest.fixture(scope="session")
def mod4_float_1m(mod4_spec):
    return phi_table(mod4_spec, 10 ** 6, mode="float")
