"""Coefficient sieves, totient tables, error terms, scans, and the cache."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import TRUE_C_ZETA
from eulerphi import coeffs
from eulerphi.coeffs import (
    cache_path,
    error_term,
    growth_scan,
    load_table,
    make_e2,
    partial_sum_phi,
    phi_direct,
    phi_table,
    save_table,
    series_identity_check,
    sieve_alpha,
)
from eulerphi.errors import (
    CacheMismatch,
    ModeUnavailable,
    SOutOfRange,
    UsageError,
    XBeyondTable,
)
from eulerphi.primes import (
    factorize,
    primes_upto,
    smallest_prime_factor,
    spf_primes,
)
from eulerphi.products import (
    ValueWithBound,
    build_character,
    custom_product,
    dirichlet_product,
    gamma,
    zeta_product,
)

# mu(1..30)
MOEBIUS = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1,
           0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]
# classical phi(1..30)
TOTIENT = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 12, 6, 8, 8, 16, 6, 18, 8,
           12, 10, 22, 8, 20, 12, 18, 12, 28, 8]


def test_alpha_zeta_is_moebius(zeta_spec):
    ct = sieve_alpha(zeta_spec, 30, mode="exact")
    assert [ct.alpha[n] for n in range(1, 31)] == MOEBIUS
    cf = sieve_alpha(zeta_spec, 30, mode="float")
    assert np.array_equal(np.asarray(cf.alpha)[1:], np.array(MOEBIUS, dtype=float))


def test_alpha_mod4_is_moebius_times_chi(mod4_spec):
    chi = mod4_spec.character
    ct = sieve_alpha(mod4_spec, 30, mode="exact")
    for n in range(1, 31):
        assert ct.alpha[n] == MOEBIUS[n - 1] * chi(n)


def test_exact_and_float_sieves_agree(zeta_spec):
    a_exact = sieve_alpha(zeta_spec, 300, mode="exact").alpha
    a_float = np.asarray(sieve_alpha(zeta_spec, 300, mode="float").alpha)
    assert np.array_equal(a_float[1:], np.array([float(v) for v in a_exact[1:]]))


def test_mode_resolution(zeta_spec):
    assert phi_table(zeta_spec, 100, mode="auto").mode == "exact"
    assert phi_table(zeta_spec, 100, mode="float").mode == "float"
    complex_spec = custom_product(2, {2: [1j, -1j]}, "zero")
    assert phi_table(complex_spec, 50, mode="auto").mode == "float"
    with pytest.raises(ModeUnavailable):
        phi_table(complex_spec, 50, mode="exact")


def test_phi_table_zeta_is_classical_totient(zeta_exact_500):
    for n in range(1, 31):
        assert zeta_exact_500.phi[n] == TOTIENT[n - 1]
    assert zeta_exact_500.cumulative[10] == sum(TOTIENT[:10])


def test_phi_direct_matches_tables(mod4_spec, mod4_exact_10k, custom100_exact_10k):
    rng = random.Random(7)
    ns = [1, 2, 12, 97, 360] + [rng.randrange(1, 10 ** 4) for _ in range(40)]
    for n in ns:
        assert phi_direct(mod4_spec, n, exact=True) == mod4_exact_10k.phi[n]
        spec = custom100_exact_10k.spec
        assert phi_direct(spec, n, exact=True) == custom100_exact_10k.phi[n]


# --- divisor-sum oracle -------------------------------------------------------
# alpha by trial factorization and phi(n)/n = sum_{m|n} alpha(m)/m by the
# divisor sum, in plain Python: shares no code with the SPF sieve.

def _oracle(spec, N, exact):
    """(alpha(0..N), phi(0..N)) from the divisor sum."""
    one = Fraction(1) if exact else 1.0
    alpha = [0 * one, one]
    for n in range(2, N + 1):
        a = one
        for p, e in factorize(n):
            a *= 0 if e > 1 else -gamma(spec, p, exact=exact)
        alpha.append(a)
    ratio = [0 * one] * (N + 1)
    for m in range(1, N + 1):
        if alpha[m]:
            for k in range(m, N + 1, m):
                ratio[k] += alpha[m] / m
    return alpha, [r * n for n, r in enumerate(ratio)]


COMPLEX_SPEC = custom_product(2, {2: [1j, -1j], 3: [(1 + 1j) / 2, (1 - 1j) / 2]},
                              "zero")


def test_smallest_prime_factor():
    for N in (0, 1, 2, 3, 4, 1000):
        spf = smallest_prime_factor(N)
        assert spf.dtype == np.int32 and len(spf) == N + 1
        assert list(spf[:2]) == [0, 0][: N + 1]
        assert all(spf[n] == factorize(n)[0][0] for n in range(2, N + 1))
    # the tables take their primes off the SPF table, not from a second sieve
    for N in list(range(1, 41)) + [10 ** 5]:
        assert np.array_equal(spf_primes(smallest_prime_factor(N)),
                              primes_upto(N))


def test_phi_table_matches_divisor_sum_exact(zeta_spec, mod4_spec,
                                             custom100_spec):
    N = 2000
    for spec in (zeta_spec, mod4_spec, custom100_spec):
        table = phi_table(spec, N, mode="exact")
        alpha, phi = _oracle(spec, N, exact=True)
        assert table.coeffs.alpha == alpha
        assert table.phi == phi
        assert all(isinstance(v, Fraction) for v in table.phi)
        assert table.cumulative[-1] == sum(phi)
        assert table.ratio_cumsum[-1] == sum(v / max(n, 1)
                                             for n, v in enumerate(phi))


def test_phi_table_matches_divisor_sum_complex_float():
    N = 2000
    table = phi_table(COMPLEX_SPEC, N, mode="float")
    alpha, phi = _oracle(COMPLEX_SPEC, N, exact=False)
    n = np.arange(N + 1)
    assert np.all(np.abs(np.asarray(table.coeffs.alpha) - alpha) <= 1e-15)
    assert np.all(np.abs(np.asarray(table.phi) - phi) <= 1e-13 * n)


def test_small_tables_match_phi_direct(monkeypatch, zeta_spec, mod4_spec,
                                       custom100_spec):
    # N = 1..40 covers N < 4 and every block edge 2^k; a chunk of 3 entries
    # also puts chunk edges inside these sizes
    for chunk in (coeffs._CHUNK, 3):
        monkeypatch.setattr(coeffs, "_CHUNK", chunk)
        for spec in (zeta_spec, mod4_spec, custom100_spec):
            alpha, _ = _oracle(spec, 40, exact=True)
            for N in range(1, 41):
                table = phi_table(spec, N, mode="exact")
                assert table.coeffs.alpha == alpha[: N + 1]
                assert table.phi[0] == 0
                assert all(isinstance(v, Fraction)
                           for seq in (table.coeffs.alpha, table.phi,
                                       table.cumulative, table.ratio_cumsum)
                           for v in seq)
                assert table.phi[1:] == [phi_direct(spec, n, exact=True)
                                         for n in range(1, N + 1)]
                assert sieve_alpha(spec, N, mode="exact").alpha == alpha[: N + 1]


def test_float_alpha_has_no_negative_zero(zeta_spec, mod4_spec):
    for spec in (zeta_spec, mod4_spec):
        a = np.asarray(sieve_alpha(spec, 10 ** 4, mode="float").alpha)
        assert not np.any((a == 0) & np.signbit(a))


def test_phi_direct_float_route(zeta_spec):
    assert phi_direct(zeta_spec, 360, exact=False) == pytest.approx(96.0)


def test_partial_sum_and_error_term(zeta_exact_500, true_zeta_constants):
    t = zeta_exact_500
    assert partial_sum_phi(t, 10) == 32
    assert partial_sum_phi(t, Fraction(21, 2)) == 32
    e_plain = error_term(t, true_zeta_constants.c, 10.0, convention="plain")
    assert e_plain == pytest.approx(32 - 300 / math.pi ** 2, abs=1e-12)
    e_sym = error_term(t, true_zeta_constants.c, 10.0, convention="symmetric")
    assert e_sym == pytest.approx(30 - 300 / math.pi ** 2, abs=1e-12)
    # conventions agree away from integers
    a = error_term(t, true_zeta_constants.c, 10.5, convention="plain")
    b = error_term(t, true_zeta_constants.c, 10.5, convention="symmetric")
    assert a == b
    with pytest.raises(UsageError):
        error_term(t, true_zeta_constants.c, 10.0, convention="midpoint")


def test_error_term_exact_mode(zeta_exact_500, zeta_constants):
    v = error_term(zeta_exact_500, zeta_constants.c, 10, convention="symmetric")
    assert isinstance(v, Fraction)
    assert v == 30 - Fraction(zeta_constants.c.value) * 100


def test_make_e2_matches_scalar(zeta_exact_500, zeta_constants):
    e2 = make_e2(zeta_exact_500, zeta_constants.c)
    xs = np.array([0.25, 1.0, 2.5, 7.0, 10.0, 499.5])
    got = e2(xs)
    want = [float(error_term(zeta_exact_500, zeta_constants.c, float(x),
                             convention="symmetric")) for x in xs]
    # scalar route subtracts C x^2 from the exact cumulative, vector route
    # from its float view; they may differ by rounding at the top end
    assert np.allclose(got, want, rtol=0, atol=1e-7)
    with pytest.raises(XBeyondTable):
        e2(np.array([501.5]))


def test_float_scans_read_stored_cumulative(zeta_float_100k, mod4_float_100k,
                                            zeta_constants, mod4_constants):
    for table, cF in ((zeta_float_100k, zeta_constants.c),
                      (mod4_float_100k, mod4_constants.c)):
        cum, phi, c = np.asarray(table.cumulative), np.asarray(table.phi), cF.value
        xs = np.array([0.5, 1.0, 2.25, 99.0, 5000.5, 99999.75, 100000.0])
        k = np.floor(xs).astype(np.int64)
        want = cum[k] - c * xs * xs - np.where(k == xs, phi[k] / 2, 0)
        assert make_e2(table, cF)(xs).tobytes() == want.tobytes()
        rep = growth_scan(table, cF, 10 ** 5, samples=30)
        for x, e, _ in rep.rows:
            assert e == cum[x] - c * float(x) * float(x)


def test_series_identity_check_small(zeta_spec):
    rep = series_identity_check(zeta_spec, 3.0, 5 * 10 ** 4)
    assert rep.ok
    assert rep.diff <= rep.bound
    assert rep.bound_kind == "rigorous"
    with pytest.raises(SOutOfRange):
        series_identity_check(zeta_spec, 2.0, 100)


def test_series_identity_check_custom_heuristic():
    spec = custom_product(2, {2: [1, 1], 3: [1, 1]}, "zero")
    rep = series_identity_check(spec, 4.0, 2 * 10 ** 4)
    assert rep.ok
    assert rep.bound_kind == "heuristic"


def test_growth_scan_shape(zeta_float_100k, zeta_constants):
    rep = growth_scan(zeta_float_100k, zeta_constants.c, 2000, samples=10)
    assert rep.x_min == 2 and rep.x_max == 2000
    assert rep.sup > 0
    assert 2 <= rep.argmax <= 2000
    assert all(len(row) == 3 for row in rep.rows)
    # the sup really is the max over the sampled rows too
    assert max(r[2] for r in rep.rows) <= rep.sup
    with pytest.raises(XBeyondTable):
        growth_scan(zeta_float_100k, zeta_constants.c, 10 ** 6)
    with pytest.raises(UsageError):
        growth_scan(zeta_float_100k, zeta_constants.c, 100, x_min=0)


def test_cache_roundtrip_float(tmp_path, zeta_spec):
    table = phi_table(zeta_spec, 2000, mode="float")
    path = cache_path(str(tmp_path), zeta_spec, 2000, "float")
    save_table(table, path)
    back = load_table(path, zeta_spec, 2000, "float")
    assert np.array_equal(np.asarray(back.phi), np.asarray(table.phi))
    assert np.array_equal(np.asarray(back.coeffs.alpha),
                          np.asarray(table.coeffs.alpha))
    assert np.array_equal(np.asarray(back.ratio_cumsum),
                          np.asarray(table.ratio_cumsum))


def test_cache_roundtrip_exact(tmp_path, zeta_spec, custom100_exact_500):
    # integer and non-integral Fraction entries, with p/q of over 1000 digits
    # in zeta's ratio_cumsum at N = 3000
    for table in (phi_table(zeta_spec, 3000, mode="exact"),
                  custom100_exact_500):
        spec, N = table.spec, table.N
        path = cache_path(str(tmp_path), spec, N, "exact")
        save_table(table, path)
        back = load_table(path, spec, N, "exact")
        for got, want in ((back.coeffs.alpha, table.coeffs.alpha),
                          (back.phi, table.phi),
                          (back.cumulative, table.cumulative),
                          (back.ratio_cumsum, table.ratio_cumsum)):
            assert got == want
            assert list(map(type, got)) == list(map(type, want))
        assert back == table
        # files written compressed (before format 3 went uncompressed) load
        with np.load(path) as z:
            np.savez_compressed(path, **{k: z[k] for k in z.files})
        assert load_table(path, spec, N, "exact") == table


def test_exact_cache_is_not_padded(tmp_path, zeta_spec):
    # every int costs the bytes of its two's complement form, plus a small
    # per-entry length, never the width of the longest entry
    table = phi_table(zeta_spec, 3000, mode="exact")
    path = cache_path(str(tmp_path), zeta_spec, 3000, "exact")
    save_table(table, path)
    need = sum((i.bit_length() + 8) // 8
               for seq in (table.coeffs.alpha, table.phi, table.cumulative,
                           table.ratio_cumsum)
               for v in seq for i in (v.numerator, v.denominator))
    with np.load(path) as z:
        raw = sum(z[k].nbytes for k in z.files if k != "header")
    assert raw <= 1.1 * need


def test_exact_cache_rejects_malformed_columns(tmp_path, zeta_spec):
    table = phi_table(zeta_spec, 20, mode="exact")
    path = str(tmp_path / "t.npz")
    save_table(table, path)
    with np.load(path) as z:
        good = {k: z[k] for k in z.files}
    # zeta's alpha denominators are all 1, one byte each at the blob's end
    zero_den = dict(good, alpha=good["alpha"].copy())
    zero_den["alpha"][-1] = 0
    short = dict(good, phi_len=good["phi_len"][:-1])
    for bad in (zero_den, short):
        np.savez_compressed(path, **bad)
        with pytest.raises(CacheMismatch):
            load_table(path, zeta_spec, 20, "exact")


def test_cache_mismatch(tmp_path, zeta_spec, mod4_spec):
    table = phi_table(zeta_spec, 100, mode="float")
    path = str(tmp_path / "t.npz")
    save_table(table, path)
    with pytest.raises(CacheMismatch):
        load_table(path, mod4_spec, 100, "float")
    with pytest.raises(CacheMismatch):
        load_table(path, zeta_spec, 200, "float")
    with pytest.raises(CacheMismatch):
        load_table(path, zeta_spec, 100, "exact")


def test_error_term_bound_is_quadratic(zeta_float_100k):
    # with the true constant the plain error stays well under x (log 2x)
    c = ValueWithBound(TRUE_C_ZETA, 1e-15, "rigorous")
    for x in (10.0, 100.0, 1000.0):
        e = error_term(zeta_float_100k, c, x, convention="plain")
        assert abs(e) < x * math.log(2 * x)
