"""Coefficient sieves, totient tables, error terms, scans, and the cache."""

import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TRUE_C_ZETA
from eulerphi import coeffs
from eulerphi.coeffs import (
    _sum_and_rounding,
    cache_path,
    error_term,
    growth_scan,
    load_table,
    make_e2,
    phi_direct,
    phi_sums,
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
    gamma_values,
    spec_from_dict,
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
    assert phi_sums(zeta_exact_500, [10])[10] == sum(TOTIENT[:10])


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


def _mask_sieve(n):
    """primes <= n from a boolean mask over every integer up to n"""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def test_odd_only_sieve_equals_the_full_mask_sieve():
    # every n <= 2000, the c_constant cutoff, and around a prime square
    for n in list(range(2001)) + [10 ** 6, 7919 ** 2 - 1, 7919 ** 2]:
        got = primes_upto(n)
        assert got.dtype == np.int64, n
        assert np.array_equal(got, _mask_sieve(n)), n


# degree 1 with roots 1 and -1 at two primes and the default zero: every
# gamma(p) is an integer, so its exact tables hold ints
INTEGRAL_CUSTOM = custom_product(1, {2: [1], 3: [-1]}, "zero")


def _exact_type(spec, N):
    """int when every gamma(p), p <= N, is an integer, else Fraction."""
    integral = all(gamma(spec, int(p), exact=True).denominator == 1
                   for p in primes_upto(N))
    return int if integral else Fraction


def _assert_exact_type(table):
    want = _exact_type(table.spec, table.N)
    sums = phi_sums(table, range(table.N + 1)).values()
    for seq in (table.alpha, table.phi, sums):
        assert {type(v) for v in seq} == {want}, (table.spec, table.N)


def test_phi_table_matches_divisor_sum_exact(zeta_spec, mod4_spec,
                                             custom100_spec):
    N = 2000
    for spec in (zeta_spec, mod4_spec, custom100_spec, INTEGRAL_CUSTOM):
        table = phi_table(spec, N, mode="exact")
        alpha, phi = _oracle(spec, N, exact=True)
        assert table.alpha == alpha
        assert table.phi == phi
        _assert_exact_type(table)
        assert _exact_type(spec, N) is (Fraction if spec is custom100_spec
                                        else int)
        sums = phi_sums(table, [0, 1, N // 3, N])
        assert all(sums[k] == sum(phi[: k + 1]) for k in (0, 1, N // 3, N))
        # the table holds alpha and phi, and no running sum
        assert [f.name for f in fields(table) if f.init] == [
            "spec", "N", "mode", "alpha", "phi"]


def test_phi_table_matches_divisor_sum_complex_float():
    N = 2000
    table = phi_table(COMPLEX_SPEC, N, mode="float")
    alpha, phi = _oracle(COMPLEX_SPEC, N, exact=False)
    n = np.arange(N + 1)
    assert np.all(np.abs(np.asarray(table.alpha) - alpha) <= 1e-15)
    assert np.all(np.abs(np.asarray(table.phi) - phi) <= 1e-13 * n)


def test_float_phi_of_integral_gamma_is_the_exact_table(zeta_spec,
                                                        mod4_spec):
    # float tables sieve phi(p^k) = p^(k-1) (p - gamma(p)) as exact ones do,
    # so integral gamma(p) give the exact integers, not n times a rounded
    # phi(n)/n
    N = 2 * 10 ** 4
    chi8 = dirichlet_product(build_character(kronecker=8))
    for spec in (zeta_spec, mod4_spec, chi8):
        exact = phi_table(spec, N, mode="exact")
        table = phi_table(spec, N, mode="float")
        assert np.array_equal(table.phi, np.array(exact.phi, dtype=float))
        sums = phi_sums(exact, range(N + 1))
        assert np.array_equal(phi_sums(table, [N]),
                              np.array([sums[k] for k in range(N + 1)],
                                       dtype=float))


def test_small_tables_match_phi_direct(monkeypatch, zeta_spec, mod4_spec,
                                       custom100_spec):
    # N = 1..40 covers N < 4 and every block edge 2^k; a chunk of 3 entries
    # also puts chunk edges inside these sizes
    for chunk in (coeffs._CHUNK, 3):
        monkeypatch.setattr(coeffs, "_CHUNK", chunk)
        for spec in (zeta_spec, mod4_spec, custom100_spec, INTEGRAL_CUSTOM):
            alpha, _ = _oracle(spec, 40, exact=True)
            for N in range(1, 41):
                table = phi_table(spec, N, mode="exact")
                assert table.alpha == alpha[: N + 1]
                assert table.phi[0] == 0
                _assert_exact_type(table)
                assert table.phi[1:] == [phi_direct(spec, n, exact=True)
                                         for n in range(1, N + 1)]
                ct = sieve_alpha(spec, N, mode="exact")
                assert ct.alpha == alpha[: N + 1]
                assert {type(v) for v in ct.alpha} == {_exact_type(spec, N)}


def test_integer_tables_outside_int64_sieve_python_ints(monkeypatch,
                                                        zeta_spec, mod4_spec):
    # the int64 bound holds for degree-1 products up to the exact cap ...
    ps = primes_upto(10 ** 6)
    assert coeffs._fits_int64(np.ones(len(ps), dtype=object), ps, 10 ** 6)
    assert coeffs._fits_int64(-np.ones(len(ps), dtype=object), ps, 10 ** 6)
    # ... and fails where an entry could leave int64
    big = np.full(len(ps), 2 ** 40, dtype=object)
    assert not coeffs._fits_int64(big, ps, 10 ** 6)
    # past the bound the same sieve runs on Python ints
    int64_tables = [phi_table(spec, 3000, mode="exact")
                    for spec in (zeta_spec, mod4_spec)]
    monkeypatch.setattr(coeffs, "_fits_int64", lambda *args: False)
    ks = [0, 1, 1500, 2999, 3000]
    for table in int64_tables:
        got = phi_table(table.spec, 3000, mode="exact")
        sums = phi_sums(got, ks)
        for a, b in ((got.alpha, table.alpha), (got.phi, table.phi),
                     ([sums[k] for k in ks],
                      [sum(table.phi[: k + 1]) for k in ks])):
            assert a == b and {type(v) for v in a} == {int}


def test_phi_sums_equal_the_sum_of_phi(monkeypatch, zeta_spec, mod4_spec):
    # the exact sums, read at a few k, in the table's own number type: int64
    # sieved and Python-int tables take builtin sums, Fraction tables the
    # binary-splitting route; float tables read the cumulative sum of phi
    N = 3000
    rng = random.Random(11)
    ks = [0, 1, N // 2, N] + [rng.randrange(N + 1) for _ in range(20)]
    tables = [(phi_table(spec, N, mode="exact"), int)
              for spec in (zeta_spec, mod4_spec)]
    tables.append((phi_table(RATIONAL_CUSTOM, N, mode="exact"), Fraction))
    with monkeypatch.context() as m:
        m.setattr(coeffs, "_fits_int64", lambda *args: False)
        tables.append((phi_table(mod4_spec, N, mode="exact"), int))
    for table, kind in tables:
        sums = phi_sums(table, ks)
        for k in ks:
            assert sums[k] == sum(table.phi[: k + 1]), (table.spec, k)
            assert type(sums[k]) is kind
    for spec in (zeta_spec, mod4_spec, RATIONAL_CUSTOM, COMPLEX_SPEC):
        table = phi_table(spec, N, mode="float")
        want = np.cumsum(table.phi)
        assert phi_sums(table, ks).tobytes() == want.tobytes()
        half = phi_sums(table, [N // 2])
        assert half.tobytes() == want[: N // 2 + 1].tobytes()
    with pytest.raises(XBeyondTable):
        phi_sums(table, [N + 1])


def _column_oracle(column, power, top, reads):
    """sum_{n<=k} column(n)/n^power and sum_{1<=j<k} of those sums at the
    k of reads (and 0), and the lcm of the nonzero terms' denominators:
    one Fraction added per n, as the definitions read."""
    s = t = Fraction(0)
    den = 1
    sums, tots = {0: s}, {0: t}
    for n in range(1, top + 1):
        term = Fraction(column[n]) / n ** power
        if term:
            den = den * term.denominator // math.gcd(den, term.denominator)
        s += term
        if n in reads:
            sums[n], tots[n] = s, t
        t += s
    return sums, tots, den


_ENTRIES = {
    "int64": st.integers(-10 ** 6, 10 ** 6),
    "beyond int64": st.integers(2 ** 69, 2 ** 71) | st.integers(-2 ** 71,
                                                                -2 ** 69),
    "fraction": st.fractions(-10, 10, max_denominator=60),
}


@given(st.data())
def test_exact_column_equals_a_fraction_oracle(data):
    # int64-sized ints, ints around 2^70 and Fractions, with zero terms,
    # at powers 0, 1 and 2; reads empty, one k, random or every n, each
    # with and without top
    kind = data.draw(st.sampled_from(sorted(_ENTRIES)), "kind")
    power = data.draw(st.sampled_from([0, 1, 2]), "power")
    top = data.draw(st.integers(0, 150), "top")
    entry = st.just(0) | _ENTRIES[kind]
    column = [0] + data.draw(st.lists(entry, min_size=top, max_size=top),
                             "column")
    if kind == "fraction":
        column = [Fraction(v) for v in column]
    below = st.integers(1, max(top, 1))
    reads = data.draw(st.one_of(
        st.just(set()), st.builds(lambda k: {k}, below), st.sets(below),
        st.just(set(range(1, top + 1)))), "reads")
    with_top = data.draw(st.booleans(), "with top")
    reads = reads | {top} if with_top else reads - {top}
    total = data.draw(st.booleans(), "total")

    den, nums, tots = coeffs._exact_column(column, power, top, reads, total)
    sums, running, lcm = _column_oracle(column, power, top, reads)
    assert den == lcm
    assert nums.keys() == tots.keys() == sums.keys()
    for k in sums:
        assert Fraction(nums[k], den) == sums[k]
        assert Fraction(tots[k], den) == (running[k] if total else 0)


def _one_column_sieve(spf, ps, at_primes, higher, one):
    """One column of the multiplicative sieve, with every prime kept out
    of the products: the sieve's recurrence written out once more."""
    out = np.full(len(spf), one - one, dtype=at_primes.dtype)
    out[1] = one
    out[ps] = at_primes
    lo = 4
    while lo < len(out):
        hi = min(2 * lo, lo + coeffs._CHUNK, len(out))
        n = np.arange(lo, hi, dtype=spf.dtype)
        p = spf[lo:hi]
        m = n // p
        composite = m > 1
        n, p, m = n[composite], p[composite], m[composite]
        factor = out[p]
        divides = m % p == 0
        factor[divides] = higher[n[divides]] if np.ndim(higher) else higher
        out[n] = out[m] * factor
        lo = hi
    return out


def _bits(values):
    """What two sieve columns must share: dtype and bytes, or for object
    arrays and exact tables' lists the type and value of every entry."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.dtype, values.tobytes()
    return [(type(v), v) for v in list(values)]


COMPLEX_CUSTOM = spec_from_dict({"kind": "custom", "degree": 2,
                                 "default": "zero",
                                 "roots": {"2": [[0, 1], [0, -1]],
                                           "3": [[0.5, 0.5], [0.5, -0.5]]}})
RATIONAL_CUSTOM = custom_product(2, {2: [0.5, 0.25], 3: [0.5, 0.25]}, "one")
# (spec, exact, dtype of the sieve's arrays); "object-int" is zeta's exact
# table past the int64 bound, sieved on Python ints
SIEVE_KINDS = {
    "float64": (dirichlet_product(build_character(kronecker=8)), False,
                np.float64),
    "complex128": (COMPLEX_CUSTOM, False, np.complex128),
    "int64": (zeta_product(), True, np.int64),
    "object-int": (zeta_product(), True, object),
    "object-Fraction": (RATIONAL_CUSTOM, True, object),
}


SIEVE_SIZES = [1, 2, 3, 4, 2 ** 16 - 1, 2 ** 16 + 1, 3 * 2 ** 16]


# Fraction columns cost a Fraction product per entry, so they stop at the
# first chunk edge
@pytest.mark.parametrize("kind, N", [
    (kind, N) for kind in SIEVE_KINDS for N in SIEVE_SIZES
    if kind != "object-Fraction" or N <= 2 ** 16 + 1])
def test_multi_column_sieve_equals_one_column_sieves(kind, N):
    # alpha and phi from one pass, each from a pass of its own, and from
    # the written-out recurrence (equal once stored: a prime that goes
    # through a complex product as one * f(p) may flip the sign of a zero,
    # which storing clears); N crosses the 2^16-entry chunk edges
    spec, exact, dtype = SIEVE_KINDS[kind]
    spf = smallest_prime_factor(N)
    ps = spf_primes(spf)
    gam, one = coeffs._gammas(spec, ps, N, exact)
    gam = gam.astype(dtype)
    columns = [(-gam, 0, one), (ps - gam, spf, one)]
    both = coeffs._multiplicative(spf, ps, columns)
    assert [c.dtype for c in both] == [np.dtype(dtype)] * 2
    for got, column in zip(both, columns):
        alone, = coeffs._multiplicative(spf, ps, [column])
        assert _bits(got) == _bits(alone)
        assert _bits(coeffs._stored(got, exact)) == _bits(
            coeffs._stored(_one_column_sieve(spf, ps, *column), exact))


@pytest.mark.parametrize("spec", [
    zeta_product(),
    dirichlet_product(build_character(kronecker=-4)),
    dirichlet_product(build_character(kronecker=8)),
    dirichlet_product(build_character(kronecker=5)),
    dirichlet_product(build_character(q=6, values=[0, 1, 0, 0, 0, -1])),
], ids=["zeta", "-4", "8", "5", "mod6"])
def test_integral_gammas_are_read_without_fractions(monkeypatch, spec):
    # zeta's and a real character's gamma(p) as ints, equal to the
    # Fractions gamma_values gives
    ps = primes_upto(5000)
    want = [int(g) for g in gamma_values(spec, ps, exact=True)]

    def no_fractions(*args, **kwargs):
        raise AssertionError("gamma_values called for an integral product")

    monkeypatch.setattr(coeffs, "gamma_values", no_fractions)
    gam, one = coeffs._gammas(spec, ps, 5000, exact=True)
    assert gam.dtype == np.int64 and gam.tolist() == want
    assert type(one) is int and one == 1


def test_float_alpha_has_no_negative_zero(zeta_spec, mod4_spec):
    for spec in (zeta_spec, mod4_spec):
        a = np.asarray(sieve_alpha(spec, 10 ** 4, mode="float").alpha)
        assert not np.any((a == 0) & np.signbit(a))


def test_phi_direct_float_route(zeta_spec):
    assert phi_direct(zeta_spec, 360, exact=False) == pytest.approx(96.0)


def test_partial_sum_and_error_term(zeta_exact_500, true_zeta_constants):
    t = zeta_exact_500
    assert phi_sums(t, [10])[10] == 32
    c = Fraction(true_zeta_constants.c.value)
    for x in (10, Fraction(21, 2)):
        assert error_term(t, true_zeta_constants.c, x) == 32 - c * x * x
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


def test_make_e2_matches_scalar(zeta_float_100k, zeta_constants):
    e2 = make_e2(zeta_float_100k, zeta_constants.c)
    xs = np.array([0.25, 1.0, 2.5, 7.0, 10.0, 499.5, 99999.75, 100000.0])
    got = e2(xs)
    want = [error_term(zeta_float_100k, zeta_constants.c, x,
                       convention="symmetric") for x in xs]
    # the scalar route takes half of phi(x) off before C x^2, the vector
    # route after; they may differ by rounding at the top end
    assert np.allclose(got, want, rtol=0, atol=1e-7)
    with pytest.raises(XBeyondTable):
        e2(np.array([100001.5]))


def test_float_scans_read_stored_cumulative(zeta_float_100k, mod4_float_100k,
                                            zeta_constants, mod4_constants):
    for table, cF in ((zeta_float_100k, zeta_constants.c),
                      (mod4_float_100k, mod4_constants.c)):
        phi, c = np.asarray(table.phi), cF.value
        cum = np.cumsum(phi)
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


def test_sum_rounding_bound_covers_cancelling_sums():
    # sum |t| far above |sum t|: np.sum errs by about 1e-5 here, which a
    # rounding term scaled by |sum t| (1e-13 (|sum| + 1) is 2.5e-10) misses;
    # the summation bound covers it, in both parts of a complex sum
    rng = np.random.default_rng(3)
    big = rng.uniform(1e8, 1e9, 5000)
    terms = rng.permutation(np.concatenate([big, -big,
                                            rng.uniform(0, 1, 5000)]))
    for t in (terms, terms + 1j * rng.permutation(terms)):
        total, rounding = _sum_and_rounding(t)
        parts = [(total.real, t.real), (complex(total).imag, t.imag)]
        err = [Fraction(got) - sum(map(Fraction, ts.tolist()))
               for got, ts in parts]
        assert abs(complex(*map(float, err))) <= rounding
        assert float(abs(err[0])) > 1e-13 * (abs(total) + 1)


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
    path = cache_path(str(tmp_path), zeta_spec, 2000)
    save_table(table, path)
    back = load_table(path, zeta_spec, 2000)
    assert np.array_equal(np.asarray(back.phi), np.asarray(table.phi))
    assert np.array_equal(np.asarray(back.alpha),
                          np.asarray(table.alpha))
    with np.load(path) as z:
        assert sorted(z.files) == ["alpha", "header", "phi"]
    # files written compressed (before format 3 went uncompressed) load
    with np.load(path) as z:
        np.savez_compressed(path, **{k: z[k] for k in z.files})
    back = load_table(path, zeta_spec, 2000)
    assert np.array_equal(back.phi, table.phi)
    assert np.array_equal(back.alpha, table.alpha)


def test_cache_mismatch(tmp_path, zeta_spec, mod4_spec):
    table = phi_table(zeta_spec, 100, mode="float")
    path = str(tmp_path / "t.npz")
    save_table(table, path)
    with pytest.raises(CacheMismatch):
        load_table(path, mod4_spec, 100)
    with pytest.raises(CacheMismatch):
        load_table(path, zeta_spec, 200)


def test_error_term_bound_is_quadratic(zeta_float_100k):
    # with the true constant the plain error stays well under x (log 2x)
    c = ValueWithBound(TRUE_C_ZETA, 1e-15, "rigorous")
    for x in (10.0, 100.0, 1000.0):
        e = error_term(zeta_float_100k, c, x, convention="plain")
        assert abs(e) < x * math.log(2 * x)
