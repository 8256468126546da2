"""The sawtooth series f1, the fractional-part series g1, and the identity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eulerphi.coeffs import phi_table
from eulerphi.decomp import (
    decompose,
    f1_closed,
    f1_one_sided,
    f1_series,
    f1_series_raw,
    f1_values,
    frac_integral,
    g1,
    r_function,
    sawtooth,
    verify_identity_batch,
)
from eulerphi.errors import (
    MBeyondTable,
    ModeUnavailable,
    MSmallerThanX,
    NonPositiveX,
    UsageError,
    XBelowN,
    XBelowOne,
)

PI2 = math.pi ** 2


def test_sawtooth_values():
    assert sawtooth(0) == 0
    assert sawtooth(3) == 0
    assert sawtooth(7.0) == 0
    assert sawtooth(0.25) == 0.25
    assert sawtooth(0.75) == -0.25
    assert sawtooth(Fraction(1, 3)) == Fraction(1, 6)
    assert sawtooth(Fraction(5, 2)) == 0


def test_f1_closed_literal_oracles(zeta_exact_500, true_zeta_constants):
    # f1(1) = 1/2 - 6/pi^2 and f1(2.5) = 3/2 - 15/pi^2, from the exact
    # constants C = 3/pi^2, A1 = 0 and the first phi(n)/n partial sums
    got1 = f1_closed(1.0, zeta_exact_500, true_zeta_constants)
    assert got1 == pytest.approx(0.5 - 6 / PI2, abs=1e-14)
    got25 = f1_closed(2.5, zeta_exact_500, true_zeta_constants)
    assert got25 == pytest.approx(1.5 - 15 / PI2, abs=1e-14)
    assert f1_closed(0.0, zeta_exact_500, true_zeta_constants) == 0


def test_g1_literal_oracle(zeta_exact_500, true_zeta_constants):
    assert g1(1.0, zeta_exact_500, true_zeta_constants) == pytest.approx(
        6 / PI2, abs=1e-13)
    # R(2.5) = E2(2.5) - 2.5 f1(2.5) = -7/4 + 18.75/pi^2
    want = -1.75 + 18.75 / PI2
    got = g1(2.5, zeta_exact_500, true_zeta_constants) / 2
    assert got == pytest.approx(want, abs=1e-13)


def test_f1_series_equals_closed_exactly_in_exact_mode(zeta_exact_500,
                                                       zeta_constants):
    t = zeta_exact_500
    for x in (Fraction(7, 2), Fraction(1), Fraction(137, 4), 20):
        assert f1_series(x, t, zeta_constants, 500) == f1_closed(
            x, t, zeta_constants)


def test_f1_series_close_to_closed_in_float(zeta_float_100k, zeta_constants):
    t = zeta_float_100k
    for x in (2.5, 7.5, 10.0, 137.25):
        series = f1_series(x, t, zeta_constants, 10 ** 4)
        closed = f1_closed(x, t, zeta_constants)
        assert series == pytest.approx(closed, abs=1e-11)


def test_f1_series_raw_plus_tail_bound(zeta_float_100k, zeta_constants):
    # bare truncation must land within the collapsed-tail correction
    t, cons = zeta_float_100k, zeta_constants
    x, m = 2.5, 10 ** 4
    raw = f1_series_raw(x, t, m)
    closed = f1_closed(x, t, cons)
    corr = f1_series(x, t, cons, m) - raw
    assert abs(raw - closed) <= abs(corr) + 1e-11


def test_f1_series_errors(zeta_exact_500, zeta_constants):
    with pytest.raises(MBeyondTable):
        f1_series(2.5, zeta_exact_500, zeta_constants, 501)
    with pytest.raises(MSmallerThanX):
        f1_series(300, zeta_exact_500, zeta_constants, 200)
    with pytest.raises(MBeyondTable):
        f1_series_raw(2.5, zeta_exact_500, 501)


def test_one_sided_limits(zeta_exact_500, mod4_exact_500,
                          zeta_constants, mod4_constants):
    for table, cons in ((zeta_exact_500, zeta_constants),
                        (mod4_exact_500, mod4_constants)):
        for n in (1, 2, 6, 137, 200):
            os_ = f1_one_sided(n, table, cons)
            assert os_.half == f1_closed(n, table, cons)
            assert os_.f1_value == os_.half
            assert os_.right - os_.left == os_.jump
            assert os_.jump == Fraction(table.phi[n], 1) / n
    with pytest.raises(UsageError):
        f1_one_sided(0, zeta_exact_500, zeta_constants)


def test_one_sided_slope(zeta_exact_500, zeta_constants):
    # between integers f1 is linear with slope -2C
    delta = 1e-6
    c = zeta_constants.c
    for n in (3, 50, 137):
        os_ = f1_one_sided(n, zeta_exact_500, zeta_constants)
        up = f1_closed(n + delta, zeta_exact_500, zeta_constants)
        down = f1_closed(n - delta, zeta_exact_500, zeta_constants)
        assert abs(up - float(os_.right)) <= 2 * (c.value + c.bound) * delta + 1e-12
        assert abs(down - float(os_.left)) <= 2 * (c.value + c.bound) * delta + 1e-12


def test_r_routes_agree(zeta_float_100k, mod4_float_100k,
                        zeta_constants, mod4_constants):
    for table, cons in ((zeta_float_100k, zeta_constants),
                        (mod4_float_100k, mod4_constants)):
        for x in (2.5, 7.25, 19.5, 100.5):
            r_def = r_function(x, table, cons, route="definition")
            r_int = r_function(x, table, cons, route="integral")
            r_clo = r_function(x, table, cons, route="closed")
            assert r_def == pytest.approx(r_int, abs=1e-9)
            assert r_def == pytest.approx(r_clo, abs=1e-9)


def test_r_route_domains(zeta_exact_500, zeta_constants):
    with pytest.raises(XBelowOne):
        r_function(0.5, zeta_exact_500, zeta_constants, route="closed")
    with pytest.raises(NonPositiveX):
        r_function(0.0, zeta_exact_500, zeta_constants, route="integral")
    with pytest.raises(UsageError):
        r_function(2.5, zeta_exact_500, zeta_constants, route="sideways")
    # definition route covers [0, 1) too
    r0 = r_function(0.5, zeta_exact_500, zeta_constants, route="definition")
    ri = r_function(0.5, zeta_exact_500, zeta_constants, route="integral")
    assert float(r0) == pytest.approx(float(ri), abs=1e-12)


def test_frac_integral_values():
    # int_1^2.5 {t} dt = 1/2 + 1/8
    assert frac_integral(1, 2.5) == pytest.approx(0.625, abs=1e-15)
    assert frac_integral(1, Fraction(5, 2)) == Fraction(5, 8)
    # brute quadrature cross-check for n = 3; the integrand jumps at t = 6,
    # so the trapezoid rule is only O(cell width) accurate there
    ts = np.linspace(3.0, 7.5, 2 ** 16 + 1)
    brute = np.trapezoid(ts / 3 - np.floor(ts / 3), ts)
    assert frac_integral(3, 7.5) == pytest.approx(brute, abs=1e-4)
    with pytest.raises(XBelowN):
        frac_integral(3, 2.0)
    with pytest.raises(UsageError):
        frac_integral(0, 1.0)


# exact tables with integer alpha (zeta, the mod-4 character) and with
# non-integral Fraction alpha (custom100), each with its own constants
EXACT_PRODUCTS = (("zeta_exact_500", "zeta_constants"),
                  ("mod4_exact_500", "mod4_constants"),
                  ("custom100_exact_500", "custom100_constants"))


def exact_products(request):
    return [(request.getfixturevalue(t), request.getfixturevalue(c))
            for t, c in EXACT_PRODUCTS]


def test_decompose_exact(request):
    for table, cons in exact_products(request):
        for x in (Fraction(7, 2), Fraction(1), Fraction(300, 7), 137):
            rep = decompose(x, table, cons)
            assert rep.exact_verdict == "pass"
            assert rep.residual == 0
            assert isinstance(rep.residual, Fraction)
            assert rep.e2.value == (rep.arithmetic_part.value
                                    + rep.analytic_part.value)


def test_decompose_float(zeta_float_100k, zeta_constants):
    rep = decompose(1234.25, zeta_float_100k, zeta_constants)
    assert rep.exact_verdict == "not-applicable"
    assert abs(rep.residual) < 1e-9
    assert rep.e2.bound > 0


def test_verify_identity_batch(request):
    xs = [Fraction(k, 2) for k in range(2, 41)] + [Fraction(3000, 7), 500]
    for table, _ in exact_products(request):
        results = verify_identity_batch(xs, table)
        assert len(results) == len(xs)
        assert all(good for _, good, _ in results)
        assert all(res == 0 for _, _, res in results)


def test_verify_identity_needs_exact(zeta_float_100k):
    with pytest.raises(ModeUnavailable):
        verify_identity_batch([Fraction(3, 2)], zeta_float_100k)


def test_f1_values_matches_scalar(zeta_exact_500, zeta_constants):
    xs = np.array([0.0, 0.5, 1.0, 2.5, 7.0, 137.25, 500.0])
    got = f1_values(xs, zeta_exact_500, zeta_constants)
    want = [float(f1_closed(float(x), zeta_exact_500, zeta_constants))
            for x in xs]
    assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_f1_values_domain(zeta_exact_500, zeta_constants):
    with pytest.raises(XBelowOne):
        f1_values(np.array([-1.0]), zeta_exact_500, zeta_constants)


def test_exact_and_float_kernels_agree(request):
    # the exact table at a rational x against a float table of the same
    # product at float(x): g1 and f1_series differ by rounding only
    for table, cons in exact_products(request):
        ftable = phi_table(table.spec, table.N, mode="float")
        for x in (Fraction(7, 2), Fraction(1), Fraction(300, 7), Fraction(499)):
            tol = 1e-9 * (1 + x * x)
            assert abs(g1(x, table, cons) - g1(float(x), ftable, cons)) <= tol
            assert abs(f1_series(x, table, cons, 500)
                       - f1_series(float(x), ftable, cons, 500)) <= tol


def test_kernel_results_independent_of_query_order(custom100_spec,
                                                   custom100_constants):
    # a large x first grows the table's prefix sums in one step, a small x
    # first grows them in two; both orders must give identical values
    cons = custom100_constants
    for mode, lift in (("exact", Fraction), ("float", float)):
        xs = [lift(Fraction(5, 2)), lift(Fraction(250, 3))]
        results = []
        for order in (xs, xs[::-1]):
            table = phi_table(custom100_spec, 300, mode=mode)
            got = {x: (g1(x, table, cons), f1_series(x, table, cons, 290),
                       decompose(x, table, cons).residual) for x in order}
            results.append([got[x] for x in xs])
        assert results[0] == results[1]
    # the prefix sums a table keeps are not part of its equality
    queried = phi_table(custom100_spec, 300, mode="exact")
    g1(Fraction(250, 3), queried, cons)
    assert queried == phi_table(custom100_spec, 300, mode="exact")
