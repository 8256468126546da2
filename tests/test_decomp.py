"""The sawtooth series f1, the fractional-part series g1, and the identity."""

import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_coeffs import GROWTH_SPECS
from eulerphi import coeffs, decomp
from eulerphi.coeffs import (
    error_term,
    error_term_batch,
    growth_scan,
    make_e2,
    phi_direct,
    phi_table,
    series_identity_check,
)
from eulerphi.decomp import (
    _batch_sweep,
    _s_g,
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
    _plain,
    build_character,
    compute_constants,
    custom_product,
    dirichlet_product,
    zeta_product,
)
from eulerphi.volterra import solution_family

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
    # M may be the table's N, and as small as 1; below 1 it is refused
    t = zeta_exact_500
    alpha = t.alpha.tolist()

    def s(u):
        return 0 if u.denominator == 1 else Fraction(1, 2) - (u - math.floor(u))

    x = Fraction(1001, 4)
    assert f1_series_raw(x, t, t.N) == sum(
        Fraction(alpha[n], n) * s(x / n) for n in range(1, t.N + 1))
    assert f1_series_raw(2.25, t, 1) == Fraction(1, 4)
    with pytest.raises(UsageError):
        f1_series_raw(2.5, t, 0)


def test_one_sided_limits(zeta_exact_500, mod4_exact_500,
                          zeta_constants, mod4_constants):
    for table, cons in ((zeta_exact_500, zeta_constants),
                        (mod4_exact_500, mod4_constants)):
        for n in (1, 2, 6, 137, 200):
            os_ = f1_one_sided(n, table, cons)
            assert os_.half == f1_closed(n, table, cons)
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
            # the closed route, from S_g and the constants
            assert rep.analytic_part.value == g1(x, table, cons) / 2


def _assert_python_fraction(v, where):
    # an np.int64 numerator passes type(v) is Fraction, and its products
    # wrap past 2^63: an exact value is a Fraction of Python ints
    assert type(v) is Fraction, where
    assert type(v.numerator) is int and type(v.denominator) is int, where


def test_exact_values_stay_fractions(request, monkeypatch):
    # exact tables hold int64 or Python ints where every gamma(p) is
    # integral, and int / int is a float: every value read off an exact
    # table, at integer and half-integer x, must come back a Fraction of
    # Python ints all the same, whichever column type the table holds
    integral = custom_product(1, {2: [1], 3: [-1]}, "zero")
    products = exact_products(request) + [
        (phi_table(integral, 500, mode="exact"), compute_constants(integral))]
    with monkeypatch.context() as m:
        m.setattr(coeffs, "_fits_int64", lambda *args: False)
        products.append((phi_table(integral, 500, mode="exact"),
                         compute_constants(integral)))
    assert [t.phi.dtype for t, _ in products] == [
        np.int64, np.int64, object, np.int64, object]
    for table, cons in products:
        alpha = table.alpha.tolist()
        for x in (Fraction(137), Fraction(275, 2), 40):
            where = (table.spec, table.phi.dtype, x)
            for _, _, res in verify_identity_batch([x], table):
                _assert_python_fraction(res, where)
                assert res == 0
            rep = decompose(x, table, cons)
            for v in (rep.x, rep.e2.value, rep.arithmetic_part.value,
                      rep.analytic_part.value, rep.residual):
                _assert_python_fraction(v, where)
            # a float quotient inside would come back a Fraction of it
            raw = sum(Fraction(alpha[n], n) * sawtooth(Fraction(x, n))
                      for n in range(1, 301))
            got = f1_series_raw(x, table, 300)
            _assert_python_fraction(got, where)
            assert got == raw
            for convention in ("plain", "symmetric"):
                _assert_python_fraction(
                    error_term(table, cons.c, x, convention=convention), where)
        one_sided = f1_one_sided(40, table, cons)
        for v in one_sided:
            _assert_python_fraction(v, table.spec)
        assert one_sided.jump == Fraction(table.phi.item(40), 40)
        for v in coeffs.phi_sums(table, [0, 1, 40, 137, 500]).values():
            if type(table.phi[0]) is Fraction:
                _assert_python_fraction(v, table.spec)
            else:
                assert type(v) is int, table.spec


def test_exact_tables_take_float_points_as_rationals(request):
    # an exact table's mode is the number type of every call on it: a float
    # x is the rational Fraction(x), so each entry gives, bit for bit, its
    # value at Fraction(x); the float-grid kernels refuse the table
    xs = [3.0, 7.0, 2.5, 137.25, 3 + 2 ** -40]
    for table, cons in exact_products(request):
        for x in xs:
            q = Fraction(x)
            pairs = [(f(x), f(q)) for f in (
                lambda v: f1_closed(v, table, cons),
                lambda v: f1_series(v, table, cons, table.N),
                lambda v: g1(v, table, cons),
                lambda v: error_term(table, cons.c, v),
                lambda v: error_term(table, cons.c, v, "symmetric"),
                lambda v: r_function(v, table, cons, "definition"),
                lambda v: r_function(v, table, cons, "integral"),
                lambda v: r_function(v, table, cons, "closed"))]
            for got, want in pairs:
                assert type(got) is Fraction and got == want, (table.spec, x)
            rep = decompose(x, table, cons)
            assert rep == decompose(q, table, cons)
            assert type(rep.x) is Fraction and rep.x == q
            assert rep.exact_verdict == "pass"
        assert decompose_batch(xs, table, cons) == decompose_batch(
            [Fraction(x) for x in xs], table, cons)
        for kernel in (lambda: make_e2(table, cons.c),
                       lambda: f1_values(np.array([1.5]), table, cons),
                       lambda: growth_scan(table, cons.c, 100),
                       lambda: series_identity_check(table.spec, 3.0, 100,
                                                     table=table),
                       lambda: solution_family(table, cons)):
            with pytest.raises(ModeUnavailable):
                kernel()


def test_decompose_float(zeta_float_100k, zeta_constants):
    rep = decompose(1234.25, zeta_float_100k, zeta_constants)
    assert rep.exact_verdict == "not-applicable"
    assert abs(rep.residual) < 1e-9
    assert rep.e2.bound > 0


def test_decompose_batch_bounds(request):
    # E2's bound is C's times x^2, x f1's is x (A1/2 + 2 x C) and g1/2's
    # (x^2 A2 + x A1)/2, each at the float of x, with C's kind on E2 and
    # A1's on the parts.  Kronecker -4 is the one product with a nonzero A1
    # bound; custom100's constants are exact, so its bounds are all 0
    xs = [Fraction(1), Fraction(2), Fraction(137), Fraction(500),
          Fraction(7, 2), Fraction(499, 2), Fraction(300, 7),
          Fraction(3499, 7)]
    for table_name, cons_name in (("zeta_exact_500", "zeta_constants"),
                                  ("zeta_float_100k", "zeta_constants"),
                                  ("mod4_exact_500", "mod4_constants"),
                                  ("mod4_float_100k", "mod4_constants"),
                                  ("custom100_exact_500",
                                   "custom100_constants")):
        table = request.getfixturevalue(table_name)
        cons = request.getfixturevalue(cons_name)
        c, a1, a2 = cons.c, cons.a1, cons.a2
        pts = xs if table.exact else [float(x) for x in xs]
        for x, rep in zip(pts, decompose_batch(pts, table, cons)):
            x = float(x)
            assert rep.e2.bound == c.bound * x * x, (table_name, x)
            assert rep.arithmetic_part.bound == x * (
                a1.bound / 2 + 2 * x * c.bound), (table_name, x)
            assert rep.analytic_part.bound == (
                x * x * a2.bound + x * a1.bound) / 2, (table_name, x)
            assert rep.e2.bound_kind == c.bound_kind
            assert rep.arithmetic_part.bound_kind == a1.bound_kind
            assert rep.analytic_part.bound_kind == a1.bound_kind


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


def test_each_point_is_taken_into_the_table_once(monkeypatch,
                                                 zeta_exact_500,
                                                 zeta_float_100k,
                                                 zeta_constants):
    # a batch converts, floors and range-checks each point once, and hands
    # (num, x, floor(x)) on to its sweep, E2 and f1
    taken = []

    def table_point(x, table, lowest=0):
        taken.append(x)
        return coeffs._table_point(x, table, lowest)

    monkeypatch.setattr(decomp, "_table_point", table_point)
    xs = [Fraction(k, 7) for k in range(3500, 6, -97)]
    for table in (zeta_exact_500, zeta_float_100k):
        pts = xs if table.exact else [float(x) for x in xs]
        runs = [lambda: decompose_batch(pts, table, zeta_constants),
                lambda: [decompose(x, table, zeta_constants) for x in pts]]
        if table.exact:
            runs.append(lambda: verify_identity_batch(pts, table))
        for run in runs:
            taken.clear()
            run()
            assert taken == pts


def test_float_decompose_batch_has_each_points_bits(zeta_float_100k,
                                                   zeta_constants,
                                                   mod4_float_100k,
                                                   mod4_constants):
    # a float batch reads one nonzero prefix of alpha up to its largest
    # floor(x), each point a slice of it; a point alone scans up to its own
    # floor(x).  Same elements in the same order, so the same bits (repr
    # tells every bit of a float apart, -0.0 included).  Points of every
    # magnitude, unsorted, integers and repeats among them.
    xs = [99999.75, 1.0, 2.5, 7.0, 1e5, 12.125, 314.159, 2718.28, 1.0,
          65536.0, 31622.7766, 99999.75, 3.0 + 2 ** -40, 50000.5]
    for table, cons in ((zeta_float_100k, zeta_constants),
                        (mod4_float_100k, mod4_constants)):
        batch = decompose_batch(xs, table, cons)
        assert [repr(rep) for rep in batch] == [
            repr(decompose(x, table, cons)) for x in xs]
        assert all(rep.exact_verdict == "not-applicable" for rep in batch)


# the float products of the batch property: real alpha of both signs, and
# complex128 tables (conjugate roots) whose values collapse cell by cell
ORACLE_SPECS = {
    "zeta": zeta_product(),
    "kronecker -4": dirichlet_product(build_character(kronecker=-4)),
    "complex roots": custom_product(
        2, {2: [1j, -1j], 3: [(1 + 1j) / 2, (1 - 1j) / 2]}, "zero"),
}
ORACLE_N = 3000


@functools.lru_cache(maxsize=None)
def _oracle_product(name):
    spec = ORACLE_SPECS[name]
    return phi_table(spec, ORACLE_N, mode="float"), compute_constants(spec)


def _old_frac(x, n):
    # {x/n} as the per-point code took it: round(x/n) * n == x at every x
    quot = x / n
    r = np.floor(quot)
    np.subtract(quot, r, out=r)
    quot = np.round(quot, out=quot)
    quot *= n
    r[quot == x] = 0.0
    return r


def _running_sums(terms):
    """(hi, lo) at every k >= 0: hi the np.cumsum of terms[1..k] and lo the
    np.cumsum of the exact rounding errors of its additions, TwoSum's."""
    hi = np.cumsum(terms)
    prev = np.concatenate([[0], hi[:-1]])
    bb = hi - prev
    err = (prev - (hi - bb)) + (terms - bb)
    zero = np.zeros(1, dtype=hi.dtype)
    return np.concatenate([zero, hi]), np.concatenate([zero, np.cumsum(err)])


def _per_point_oracle(xs, table, cons):
    """(E plain, E2, x f1, g1, g1/2, residual) at each x, as one point alone
    forms them: X-long np.cumsum sums, each operation on Python or numpy
    scalars, and S_g as the terms n <= L = k // (isqrt(k) + 1), then one
    value a group q <= isqrt(k), n in (k // (q + 1), k // q], from
    compensated sums of alpha/n^2, alpha/n and alpha, added in turn."""
    alpha, phi = table.alpha, table.phi
    ks = [math.floor(x) for x in xs]
    top = max(ks)
    n = np.arange(1, top + 1, dtype=np.float64)
    sums = {}
    for name, (column, power) in {"p2": (alpha, 2), "p1": (alpha, 1),
                                  "a0": (alpha, 0), "s_f": (phi, 1)}.items():
        sums[name] = _running_sums(column[1 : top + 1] / n ** power)
    s_phi = np.cumsum(phi[: top + 1])
    c, a1, a2 = (_plain(v.value) for v in (cons.c, cons.a1, cons.a2))
    rows = []
    for x, k in zip(xs, ks):
        plain = s = s_phi[k]
        if x == k and k >= 1:
            s = s - _plain(phi[k]) / 2
        e2 = s - c * x * x
        s_f = _plain(sums["s_f"][0][k])
        if x == k:
            s_f = s_f - _plain(phi[k]) / 2 / k
        xf1 = x * (a1 / 2 - 2 * c * x + s_f)
        root = math.isqrt(k)
        L = k // (root + 1)
        r = _old_frac(x, np.arange(1, L + 1, dtype=np.float64))
        direct = alpha[1 : L + 1] * r
        r -= 1
        direct *= r
        groups = []
        for q in range(1, root + 1):
            b, a = k // q, k // (q + 1)
            d2, d1, d0 = ((hi[b] - hi[a]) + (lo[b] - lo[a])
                          for hi, lo in (sums["p2"], sums["p1"], sums["a0"]))
            groups.append(x * x * d2 - x * (2 * q + 1) * d1
                          + q * (q + 1) * d0)
        # one after another from -0.0, which leaves each sum as it is
        s_g = complex(-0.0, -0.0) if np.iscomplexobj(alpha) else -0.0
        for term in [*direct, *groups]:
            s_g = s_g + term
        s_g = _plain(s_g)
        p1, p2 = _plain(sums["p1"][0][k]), _plain(sums["p2"][0][k])
        g = _plain(s_g + x * x * (a2 - p2) - x * (a1 - p1))
        rows.append((plain - c * x * x, e2, xf1, g, g / 2, e2 - xf1 - g / 2))
    return rows


def _bits(v):
    """Whether v is complex, and every bit of it, -0.0 included."""
    if isinstance(v, complex):
        return "complex", v.real.hex(), v.imag.hex()
    return "float", float(v).hex()


@given(st.data())
def test_float_batches_equal_the_per_point_oracle(data):
    # whole-batch assembly, read-point running sums and the fused S_g
    # kernel give each point the bits, and the float or complex type, of
    # the per-point code: for decompose_batch, g1 and error_term_batch, at
    # integers, halves, sevenths and 3 + 2^-40, unsorted, with repeats,
    # and with blocks of 7 entries as well as full ones
    name = data.draw(st.sampled_from(sorted(ORACLE_SPECS)), "product")
    table, cons = _oracle_product(name)
    N = table.N
    point = st.one_of(st.integers(1, N).map(float),
                      st.integers(2, 2 * N - 1).map(lambda m: m / 2),
                      st.integers(7, 7 * N - 1).map(lambda m: m / 7),
                      st.just(3 + 2 ** -40))
    xs = data.draw(st.lists(point, min_size=1, max_size=12), "xs")
    xs = data.draw(st.permutations(
        xs + data.draw(st.lists(st.sampled_from(xs), max_size=3))), "xs")
    chunk = data.draw(st.sampled_from([coeffs._CHUNK, 7]), "chunk")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coeffs, "_CHUNK", chunk)
        reports = decompose_batch(xs, table, cons)
        g1s = [g1(x, table, cons) for x in xs]
        plain = error_term_batch(table, cons.c, xs).tolist()
        symmetric = error_term_batch(table, cons.c, xs, "symmetric").tolist()
    got = [(e, rep.e2.value, rep.arithmetic_part.value, g,
            rep.analytic_part.value, rep.residual)
           for e, rep, g in zip(plain, reports, g1s)]
    want = _per_point_oracle(xs, table, cons)
    assert [[_bits(v) for v in row] for row in got] == [
        [_bits(v) for v in row] for row in want]
    assert symmetric == [rep.e2.value for rep in reports]


def test_float_s_g_matches_exact_s_g(zeta_spec, mod4_spec, custom100_spec):
    # S_g, the sum g1 reads below its tail, from float direct terms and
    # floor-quotient groups over compensated sums, against the exact S_g of
    # the same product at the same points (a float x is the rational it
    # holds): integers, halves and sevenths at k = 1, 2, 3 and m^2 - 1,
    # m^2, m(m + 1), where the group edges k // q meet the split at
    # isqrt(k), up to k = 100172.  One sweep of each table serves all
    # points; the float sum is good to 1e-13 x
    ks = sorted({1, 2, 3} | {e for m in (2, 3, 7, 31, 100, 316)
                             for e in (m * m - 1, m * m, m * (m + 1))})
    xs = [float(k + frac) for k in ks
          for frac in (Fraction(0), Fraction(1, 2), Fraction(3, 7))]
    for spec in (zeta_spec, mod4_spec, custom100_spec):
        got = []
        for mode in ("float", "exact"):
            table = phi_table(spec, ks[-1] + 1, mode=mode)
            points, floors = coeffs._batch_points(
                (coeffs._table_point(x, table) for x in xs), table)
            sums = _batch_sweep(floors, table, ("p1", "p2"))
            got.append(_s_g(points, floors, sums, table).tolist())
        for x, f, e in zip(xs, *got):
            assert isinstance(e, Fraction)
            assert abs(Fraction(f) - e) <= 1e-13 * max(x, 1), (spec.kind, x)


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
        # T(K), the sum of S_f(k) over 1 <= k < K, is exact too
        assert Fraction(t_f.numerators[K], t_f.den) == sum(want[1:K])


def test_verify_identity_needs_exact(zeta_float_100k):
    with pytest.raises(ModeUnavailable):
        verify_identity_batch([Fraction(3, 2)], zeta_float_100k)


def test_f1_values_matches_scalar(zeta_float_100k, zeta_constants):
    # one body (_f1): the batch has f1_closed's bits at 0, at halves and at
    # integers, on a real and on a complex product
    xs = np.array([0.0, 0.5, 1.0, 2.5, 7.0, 137.25, 499.5, 500.0])
    spec = GROWTH_SPECS["complex-degree-2"]
    cases = [(zeta_float_100k, zeta_constants),
             (phi_table(spec, 500, mode="float"), compute_constants(spec))]
    for table, cons in cases:
        got = f1_values(xs, table, cons)
        want = np.array([f1_closed(x, table, cons) for x in xs],
                        dtype=got.dtype)
        assert got.tobytes() == want.tobytes()
    assert np.iscomplexobj(got)


def test_f1_values_domain(zeta_float_100k, zeta_constants):
    with pytest.raises(XBelowOne):
        f1_values(np.array([-1.0]), zeta_float_100k, zeta_constants)


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
                    x, table.alpha.tolist(), a1, a2), (table.spec.kind, x)


def test_verify_identity_detects_changed_entries(zeta_spec, custom100_spec,
                                                zeta_constants,
                                                custom100_constants):
    # the verdict compares the phi column's own sums with a right side
    # built from alpha and, for S_f, from the phi column, so changing any of
    # the three fails the points that read it
    xs = [Fraction(11, 2), Fraction(99, 2), Fraction(100), Fraction(201, 2),
          Fraction(101), Fraction(451, 3)]

    def bumped_at_100(table, ks):
        sums = coeffs.phi_sums(table, ks)
        sums[100] += 1
        return sums

    def rows_of(table, cons):
        # decompose's residual and verdict are the reduced identity's,
        # nonzero residuals included
        rows = verify_identity_batch(xs, table)
        assert [(rep.x, rep.exact_verdict == "pass", rep.residual)
                for rep in decompose_batch(xs, table, cons)] == rows
        return rows

    for spec, cons in ((zeta_spec, zeta_constants),
                       (custom100_spec, custom100_constants)):
        table = phi_table(spec, 200, mode="exact")
        assert all(good for _, good, _ in rows_of(table, cons))

        with pytest.MonkeyPatch.context() as m:
            m.setattr(decomp, "phi_sums", bumped_at_100)
            rows = rows_of(table, cons)
        # the residual is lhs - rhs in Q: one more on the left is exactly 1
        assert [(x, res) for x, good, res in rows if not good] == [
            (Fraction(100), Fraction(1)), (Fraction(201, 2), Fraction(1))]

        table = phi_table(spec, 200, mode="exact")
        table.alpha[6] += 1
        failed = [x for x, good, _ in rows_of(table, cons) if not good]
        assert failed == xs[1:]

        # S_f comes from phi, not from the block sum of P1 (equal in Q), so
        # a changed phi(40) fails every x past it, in both verdicts
        table = phi_table(spec, 200, mode="exact")
        table.phi[40] += 1
        rows = rows_of(table, cons)
        assert [x for x, good, _ in rows if not good] == xs[1:]
        assert [x for x in xs if decompose(x, table, cons).exact_verdict
                == "fail"] == xs[1:]
        assert dict((x, res) for x, _, res in rows)[100] == Fraction(-3, 2)


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
