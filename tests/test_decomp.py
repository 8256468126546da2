"""The sawtooth series f1, the fractional-part series g1, and the identity."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eulerphi.coeffs import error_term, phi_direct, phi_table
from eulerphi.decomp import (
    _sweep,
    decompose,
    decompose_batch,
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
from eulerphi.products import (
    Constants,
    ValueWithBound,
    compute_constants,
    custom_product,
)

PI2 = math.pi ** 2
ZERO = ValueWithBound(0.0, 0.0)
ZERO_CONSTANTS = Constants(c=ZERO, a1=ZERO, a2=ZERO)


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


def test_exact_values_stay_fractions(request):
    # exact tables hold ints where every gamma(p) is integral, and int / int
    # is a float: every value read off an exact table, at integer and
    # half-integer x, must come back a Fraction all the same
    integral = custom_product(1, {2: [1], 3: [-1]}, "zero")
    products = exact_products(request) + [
        (phi_table(integral, 500, mode="exact"), compute_constants(integral))]
    for table, cons in products:
        for x in (Fraction(137), Fraction(275, 2), 40):
            for _, _, res in verify_identity_batch([x], table):
                assert type(res) is Fraction and res == 0
            rep = decompose(x, table, cons)
            for v in (rep.e2.value, rep.arithmetic_part.value,
                      rep.analytic_part.value, rep.residual):
                assert type(v) is Fraction, (table.spec, x)
            # a float quotient inside would come back a Fraction of it
            raw = sum(Fraction(table.alpha[n], n) * sawtooth(
                Fraction(x, n)) for n in range(1, 301))
            got = f1_series_raw(x, table, 300)
            assert type(got) is Fraction and got == raw
            for convention in ("plain", "symmetric"):
                e = error_term(table, cons.c, x, convention=convention)
                assert type(e) is Fraction
        assert type(f1_one_sided(40, table, cons).jump) is Fraction
        assert f1_one_sided(40, table, cons).jump == Fraction(table.phi[40],
                                                             40)


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


def test_decompose_batch_matches_pointwise(zeta_spec, custom100_spec,
                                          zeta_constants, custom100_constants):
    # the batch reads one sweep to its largest floor(x); point by point,
    # each x sweeps to its own, so the common denominators differ
    xs = [Fraction(k, 7) for k in range(3500, 6, -97)] + [Fraction(1)]
    for spec, cons, mode in ((zeta_spec, zeta_constants, "exact"),
                             (custom100_spec, custom100_constants, "exact"),
                             (zeta_spec, zeta_constants, "float")):
        pts = xs if mode == "exact" else [float(x) for x in xs]
        batch = decompose_batch(pts, phi_table(spec, 500, mode=mode), cons)
        table = phi_table(spec, 500, mode=mode)
        assert batch == [decompose(x, table, cons) for x in pts]
        if mode == "exact":
            assert all(rep.exact_verdict == "pass" for rep in batch)


def test_float_decompose_batch_has_each_points_bits(zeta_float_100k,
                                                   zeta_constants,
                                                   mod4_exact_10k,
                                                   mod4_constants):
    # a float batch reads one nonzero prefix of alpha up to its largest
    # floor(x), each point a slice of it; a point alone scans up to its own
    # floor(x).  Same elements in the same order, so the same bits (repr
    # tells every bit of a float apart, -0.0 included).  Points of every
    # magnitude, unsorted, integers and repeats among them; on an exact
    # table the float points read alpha through alpha_array.
    xs = [99999.75, 1.0, 2.5, 7.0, 1e5, 12.125, 314.159, 2718.28, 1.0,
          65536.0, 31622.7766, 99999.75, 3.0 + 2 ** -40, 50000.5]
    for table, cons in ((zeta_float_100k, zeta_constants),
                        (mod4_exact_10k, mod4_constants)):
        pts = [x for x in xs if x <= table.N]
        batch = decompose_batch(pts, table, cons)
        assert [repr(rep) for rep in batch] == [
            repr(decompose(x, table, cons)) for x in pts]
        assert all(rep.exact_verdict == "not-applicable" for rep in batch)


def test_s_f_kernel_matches_phi_direct(zeta_spec, mod4_spec, custom100_spec):
    # S_f(k) = sum_{n<=k} phi(n)/n from the sweep, asked for in a scrambled
    # order, against phi_direct's trial factorization, which shares no code
    # with the sieve or the kernel
    K = 300
    ks = list(range(K + 1))
    random.Random(11).shuffle(ks)
    for spec in (zeta_spec, mod4_spec, custom100_spec):
        want = [Fraction(0)]
        for n in range(1, K + 1):
            want.append(want[-1] + Fraction(phi_direct(spec, n, exact=True), n))
        exact_table = phi_table(spec, 2 * K, mode="exact")
        exact = _sweep(exact_table, ks, ("s_f", "t_f"))
        floats = _sweep(phi_table(spec, 2 * K, mode="float"), ks, ("s_f",))
        s_f, t_f = exact["s_f"], exact["t_f"]
        for k in ks:
            # an integer numerator over the denominator of the whole pass
            got = s_f.numerators[k]
            assert type(got) is int, (spec.kind, k)
            assert Fraction(got, s_f.den) == want[k], (spec.kind, k)
            err = abs(Fraction(float(floats["s_f"][k])) - want[k])
            assert err <= Fraction(1e-12) * k, (spec.kind, k)
        # f1_values' float view of the exact sums rounds each value once
        # (with C = A1 = 0, f1 off the integers is S_f itself), and their
        # total is exact
        xs = np.arange(K + 1) + 0.5
        view = f1_values(xs[ks], exact_table, ZERO_CONSTANTS)
        assert view.tolist() == [float(want[k]) for k in ks]
        assert Fraction(t_f.numerators[K], t_f.den) == sum(want[1:K])


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
    # each call sweeps to its own top (floor(x), or M = floor(x) + 1 for
    # f1_series), so the exact numerators sit over different common
    # denominators; both orders of the calls must give identical values
    cons = custom100_constants
    for mode, lift in (("exact", Fraction), ("float", float)):
        xs = [lift(Fraction(1001, 2)), lift(Fraction(52, 7)),
              lift(Fraction(499))]
        results = []
        for order in (xs, xs[::-1]):
            table = phi_table(custom100_spec, 1000, mode=mode)
            got = {x: (g1(x, table, cons),
                       f1_series(x, table, cons, math.floor(x) + 1),
                       decompose(x, table, cons).residual) for x in order}
            results.append([got[x] for x in xs])
        assert results[0] == results[1]


def _g1_oracle(x: Fraction, alpha, a1: Fraction, a2: Fraction) -> Fraction:
    """g1(x) from the definition of S_g, summed term by term in Fractions,
    plus the tail x^2 (A2 - sum alpha/n^2) - x (A1 - sum alpha/n) over n > x.
    """
    s_g = p1 = p2 = Fraction(0)
    for n in range(1, math.floor(x) + 1):
        r = x / n - math.floor(x / n)
        s_g += alpha[n] * r * (r - 1)
        p1 += Fraction(alpha[n], n)
        p2 += Fraction(alpha[n], n * n)
    return s_g + x * x * (a2 - p2) - x * (a1 - p1)


def test_g1_matches_definition_at_block_edges(request):
    # floor(k/j) changes value at j = m for k = m^2, m^2 - 1 and m(m+1), so
    # these k put block boundaries at every kind of edge; primes have few
    # divisors; each k is taken at an integer x and at two fractional x
    ks = sorted({e for m in (2, 3, 5, 10, 21)
                 for e in (m * m, m * m - 1, m * (m + 1))}
                | {1, 2, 3, 5, 7, 11, 13, 97})
    for table, cons in exact_products(request):
        a1, a2 = Fraction(cons.a1.value), Fraction(cons.a2.value)
        for k in ks:
            for x in (Fraction(k), k + Fraction(1, 2), k + Fraction(3, 7)):
                assert g1(x, table, cons) == _g1_oracle(
                    x, table.alpha, a1, a2), (table.spec.kind, x)


def test_verify_identity_detects_changed_entries(zeta_spec, custom100_spec,
                                                zeta_constants,
                                                custom100_constants):
    # the verdict compares the phi sieve's cumulative sums with a right side
    # built from alpha and, for S_f, from the phi column, so changing any of
    # the three fails the points that read it
    xs = [Fraction(11, 2), Fraction(99, 2), Fraction(100), Fraction(201, 2),
          Fraction(101), Fraction(451, 3)]
    for spec, cons in ((zeta_spec, zeta_constants),
                       (custom100_spec, custom100_constants)):
        table = phi_table(spec, 200, mode="exact")
        assert all(good for _, good, _ in verify_identity_batch(xs, table))

        table = phi_table(spec, 200, mode="exact")
        table.cumulative[100] += 1
        failed = [x for x, good, _ in verify_identity_batch(xs, table)
                  if not good]
        assert failed == [Fraction(100), Fraction(201, 2)]

        table = phi_table(spec, 200, mode="exact")
        table.alpha[6] += 1
        failed = [x for x, good, _ in verify_identity_batch(xs, table)
                  if not good]
        assert failed == xs[1:]

        # S_f comes from phi, not from the block sum of P1 (equal in Q), so
        # a changed phi(40) fails every x past it, in both verdicts
        table = phi_table(spec, 200, mode="exact")
        table.phi[40] += 1
        failed = [x for x, good, _ in verify_identity_batch(xs, table)
                  if not good]
        assert failed == xs[1:]
        assert [x for x in xs if decompose(x, table, cons).exact_verdict
                == "fail"] == xs[1:]


def test_exact_kernel_keeps_only_read_points(zeta_spec):
    # one point at floor(x) = 5000 reads P1 and A0 at the ~140 values
    # 5000//j and P1, P2, S_f at 5000 only; sums kept at every k <= 5000
    # would hold 5000 numerators of 7000 bits or more per sum
    table = phi_table(zeta_spec, 5000, mode="exact")
    tracemalloc.start()
    try:
        [(_, passed, _)] = verify_identity_batch([Fraction(10001, 2)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 4 * 2 ** 20, peak
