"""Coefficient sieves, totient tables, error terms, scans, and the cache."""

import hashlib
import io
import itertools
import json
import math
import os
import random
import tracemalloc
import zlib
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TRUE_C_ZETA
from eulerphi import cli, coeffs, decomp
from eulerphi.cli import parse_config, run_command
from eulerphi.coeffs import (
    GrowthScanReport,
    TotientTable,
    _BlockSum,
    _series_sums,
    cache_path,
    error_term,
    error_term_batch,
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
    _plain,
    build_character,
    compute_constants,
    custom_product,
    dirichlet_product,
    gamma,
    c_constant,
    gamma_values,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
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
    """int64 columns and int sums where every gamma(p) is an integer (the
    int64 bound holds for these tables), object arrays of Fractions and
    Fraction sums otherwise."""
    want = _exact_type(table.spec, table.N)
    where = (table.spec, table.N)
    for column in (table.alpha, table.phi):
        assert column.dtype == (np.int64 if want is int else object), where
        assert {type(v) for v in column.tolist()} == {want}, where
    sums = phi_sums(table, range(table.N + 1)).values()
    assert {type(v) for v in sums} == {want}, where


def test_phi_table_matches_divisor_sum_exact(zeta_spec, mod4_spec,
                                             custom100_spec):
    N = 2000
    for spec in (zeta_spec, mod4_spec, custom100_spec, INTEGRAL_CUSTOM):
        table = phi_table(spec, N, mode="exact")
        alpha, phi = _oracle(spec, N, exact=True)
        assert table.alpha.tolist() == alpha
        assert table.phi.tolist() == phi
        _assert_exact_type(table)
        if spec is zeta_spec:   # int64 columns, 8 bytes an entry
            assert table.phi.nbytes == table.alpha.nbytes == 8 * (N + 1)
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
                assert table.alpha.tolist() == alpha[: N + 1]
                assert table.phi[0] == 0
                _assert_exact_type(table)
                assert table.phi[1:].tolist() == [
                    phi_direct(spec, n, exact=True) for n in range(1, N + 1)]
                ct = sieve_alpha(spec, N, mode="exact")
                assert ct.alpha.tolist() == alpha[: N + 1]
                assert ct.alpha.dtype == table.alpha.dtype


def test_float_column_errors_complete_each_sum(monkeypatch, zeta_spec,
                                               custom100_spec):
    # with errors, a float column sum keeps beside each running sum the
    # running sum of its additions' exact rounding errors (TwoSum): the
    # sums keep the bits of the plain pass, and sum + error is the exact
    # sum of the terms as formed up to the rounding of the errors' own sum,
    # across block edges (blocks of 7) and at 0
    N = 3000
    reads = np.array([0, 1, 2, 6, 7, 8, 100, 1499, 2999, 3000])
    n = np.arange(1, N + 1, dtype=np.float64)
    for spec in (zeta_spec, custom100_spec):
        alpha = phi_table(spec, N, mode="float").alpha
        for power in (0, 1, 2):
            terms = [Fraction(t) for t in alpha[1:] / n ** power]
            exact = [Fraction(0), *itertools.accumulate(terms)]
            for chunk in (coeffs._CHUNK, 7):
                monkeypatch.setattr(coeffs, "_CHUNK", chunk)
                plain = coeffs._float_column(alpha, power, N, reads)
                hi, lo = coeffs._float_column(alpha, power, N, reads,
                                              errors=True)
                assert hi.tobytes() == plain.tobytes()
                bound = N * 2.0 ** -52 * np.abs(lo).max()
                for k, h, e in zip(reads.tolist(), hi, lo):
                    assert abs(Fraction(h) + Fraction(e) - exact[k]) <= bound
                if power:   # the plain sums alone are off by far more
                    assert max(abs(Fraction(h) - exact[k])
                               for k, h in zip(reads.tolist(), hi)) > bound


def test_integer_tables_outside_int64_sieve_python_ints(monkeypatch,
                                                        zeta_spec, mod4_spec):
    # the int64 bound holds for degree-1 products up to the exact cap ...
    ps = primes_upto(10 ** 6)
    assert coeffs._fits_int64(np.ones(len(ps), dtype=object), ps, 10 ** 6)
    assert coeffs._fits_int64(-np.ones(len(ps), dtype=object), ps, 10 ** 6)
    # ... and fails where an entry could leave int64
    big = np.full(len(ps), 2 ** 40, dtype=object)
    assert not coeffs._fits_int64(big, ps, 10 ** 6)
    # past the bound the same sieve runs on Python ints, in object arrays
    int64_tables = [phi_table(spec, 3000, mode="exact")
                    for spec in (zeta_spec, mod4_spec)]
    monkeypatch.setattr(coeffs, "_fits_int64", lambda *args: False)
    ks = [0, 1, 1500, 2999, 3000]
    xs = [Fraction(1), Fraction(7, 2), Fraction(1500), Fraction(5999, 2),
          Fraction(3000)]
    for table in int64_tables:
        got = phi_table(table.spec, 3000, mode="exact")
        assert table.alpha.dtype == table.phi.dtype == np.int64
        assert got.alpha.dtype == got.phi.dtype == object
        sums = phi_sums(got, ks)
        for a, b in ((got.alpha.tolist(), table.alpha.tolist()),
                     (got.phi.tolist(), table.phi.tolist()),
                     ([sums[k] for k in ks],
                      [sum(table.phi[: k + 1].tolist()) for k in ks])):
            assert a == b and {type(v) for v in a} == {int}
        # every reader gives the same values, of the same types, on both
        # storages
        cons = compute_constants(table.spec)
        assert decomp.verify_identity_batch(xs, got) == \
            decomp.verify_identity_batch(xs, table)
        want = decomp.decompose_columns(xs, table, cons)
        for name, column in decomp.decompose_columns(xs, got, cons).items():
            assert [(type(v), v) for v in list(column)] == [
                (type(v), v) for v in list(want[name])], name
        for convention in ("plain", "symmetric"):
            assert error_term_batch(got, cons.c, xs, convention).tolist() \
                == error_term_batch(table, cons.c, xs, convention).tolist()
        reports = []
        for held in (table, got):
            monkeypatch.setattr(cli, "get_table", lambda *args: held)
            data, _ = run_command(parse_config(
                ["table", "--n", "3000", "--mode", "exact"]))
            cells = {name: c.tolist() for name, c in data["columns"].items()}
            texts = []
            for write in (cli._write_csv, cli._write_json):
                out = io.StringIO()
                write(data, out)
                texts.append(out.getvalue())
            reports.append((cells, texts))
        assert reports[0] == reports[1]


def test_phi_sums_equal_the_sum_of_phi(monkeypatch, zeta_spec, mod4_spec):
    # the exact sums, read at a few k, in the table's own number type: int64
    # and Python-int tables read their integer running sum, Fraction tables
    # the binary-splitting route; float tables the cumulative sum of phi
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
    # the column types of exact tables: int64, or object arrays of Python
    # ints or of Fractions
    oracle_column = column
    column = np.array(column, dtype=np.int64 if kind == "int64" else object)
    below = st.integers(1, max(top, 1))
    reads = data.draw(st.one_of(
        st.just(set()), st.builds(lambda k: {k}, below), st.sets(below),
        st.just(set(range(1, top + 1)))), "reads")
    with_top = data.draw(st.booleans(), "with top")
    reads = reads | {top} if with_top else reads - {top}
    total = data.draw(st.booleans(), "total")

    den, nums, tots = coeffs._exact_column(column, power, top, reads, total)
    sums, running, lcm = _column_oracle(oracle_column, power, top, reads)
    assert den == lcm
    assert nums.keys() == tots.keys() == sums.keys()
    # Python ints, never np.int64, whatever the column's dtype
    assert {type(v) for v in (den, *nums.values(), *tots.values())} == {int}
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


def test_make_e2_sums_phi_up_to_its_largest_floor(zeta_spec, zeta_constants):
    # evaluated up to x = 30, the provider of a 1e6-entry table holds the
    # running sum of phi up to 30, not up to N; a larger x later sums it
    # afresh to its floor, with the bits of the whole table's sum
    table = phi_table(zeta_spec, 10 ** 6, mode="float", alpha=False)
    xs = np.linspace(0.5, 30.0, 60)
    tracemalloc.start()
    try:
        e2 = make_e2(table, zeta_constants.c)
        small = e2(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    cum = np.cumsum(table.phi)
    c = zeta_constants.c.value
    for xs in (xs, np.array([999999.5, 30.0, 10 ** 6])):
        k = np.floor(xs).astype(np.int64)
        want = cum[k] - c * xs * xs - np.where(k == xs, table.phi[k] / 2, 0)
        assert e2(xs).tobytes() == want.tobytes()
    assert small.tobytes() == e2(np.linspace(0.5, 30.0, 60)).tobytes()


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
        block_sum = _BlockSum()
        block_sum.add(t)
        total, rounding = block_sum.result()
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


def _growth_scan_whole(table, cF, X, samples, x_min):
    """growth_scan over whole arrays, one X + 1 long temporary a step: the
    same expressions in the same order as the block scan."""
    e = np.cumsum(table.phi[: X + 1])
    e = e[x_min:]
    xs = np.arange(x_min, X + 1, dtype=np.float64)
    main = _plain(cF.value) * xs
    main *= xs
    e -= main
    envelope = 2 * xs
    np.log(envelope, out=envelope)
    envelope **= table.spec.degree
    envelope *= xs
    ratio = np.abs(e)
    ratio /= envelope
    i = int(np.argmax(ratio))
    idx = np.unique(np.geomspace(x_min, X, num=min(samples, X - x_min + 1)
                                 ).round().astype(np.int64))
    rows = tuple((int(x), _plain(e[x - x_min]), float(ratio[x - x_min]))
                 for x in idx)
    return GrowthScanReport(x_min=x_min, x_max=X, sup=float(ratio[i]),
                            argmax=int(xs[i]), rows=rows)


GROWTH_SPECS = {
    "kronecker-8": dirichlet_product(build_character(kronecker=-8)),
    # complex alpha and phi
    "complex-degree-2": custom_product(2, {2: [0.5j, 0.25], 3: [0.5, -0.5j],
                                           7: [1, 1j]}, "zero"),
    "degree-3": custom_product(3, {2: [1, 1, 0.5], 3: [1, -1, 0.25],
                                   5: [0.5, 0.5, 0.5]}, "one"),
}


@pytest.mark.parametrize("name", ["zeta", *GROWTH_SPECS])
def test_growth_scan_blocks_keep_whole_array_bits(name, zeta_spec):
    # the block scan gives the whole-array scan's report bit for bit: every
    # E(x), ratio and sampled row, sup and the first argmax, for X and
    # x_min on either side of a block edge, and a first block skipped
    spec = zeta_spec if name == "zeta" else GROWTH_SPECS[name]
    table = phi_table(spec, 4 * 10 ** 5, mode="float")
    cF = c_constant(spec)
    chunk = coeffs._CHUNK
    for X in (chunk - 1, chunk, chunk + 1, 4 * 10 ** 5):
        for x_min in [m for m in (1, 2, chunk - 3, chunk + 1, X) if m <= X]:
            for samples in (0, 1, 30):
                got = growth_scan(table, cF, X, samples=samples, x_min=x_min)
                want = _growth_scan_whole(table, cF, X, samples, x_min)
                assert repr(got) == repr(want), (X, x_min, samples)
    assert np.iscomplexobj(table.phi) == (name == "complex-degree-2")


def test_growth_scan_keeps_bits_on_unaligned_blocks(monkeypatch):
    # blocks whose length is no multiple of a SIMD width still give the
    # whole-array bits
    table = phi_table(GROWTH_SPECS["complex-degree-2"], 20000, mode="float")
    cF = c_constant(table.spec)
    for chunk in (1000, 7):
        monkeypatch.setattr(coeffs, "_CHUNK", chunk)
        for x_min in (2, 999, 1001):
            got = growth_scan(table, cF, 20000, samples=30, x_min=x_min)
            assert repr(got) == repr(_growth_scan_whole(table, cF, 20000, 30,
                                                        x_min))


def test_growth_scan_argmax_is_the_first_of_a_tie(zeta_spec):
    # with C = 0, E(x) = sum phi is the envelope x log 2x itself at three
    # x, two in one block and one in a later block, and 0 elsewhere: the
    # ratio is exactly 1 at all three, and argmax is the first
    chunk = coeffs._CHUNK
    X = 3 * chunk
    ties = [chunk // 2, chunk - 1, 2 * chunk + 5]
    envelope = np.arange(X + 2, dtype=np.float64)
    envelope[1:] *= np.log(2 * envelope[1:])
    phi = np.zeros(X + 2)
    phi[ties] = envelope[ties]
    phi[np.add(ties, 1)] = -envelope[ties]
    table = TotientTable(spec=zeta_spec, N=X + 1, mode="float",
                         alpha=np.zeros(X + 2), phi=phi)
    zero = ValueWithBound(0.0, 0.0, "rigorous")
    for x_min in (2, ties[0], ties[0] + 1, ties[1] + 1):
        rep = growth_scan(table, zero, X, samples=30, x_min=x_min)
        assert rep.sup == 1.0
        assert rep.argmax == min(t for t in ties if t >= x_min)
        assert repr(rep) == repr(_growth_scan_whole(table, zero, X, 30, x_min))
    # all ratios 0: the first x of the scan
    rep = growth_scan(table, zero, ties[0] - 1, samples=5)
    assert (rep.sup, rep.argmax) == (0.0, 2)


@pytest.mark.parametrize("N", [10 ** 6, 4 * 10 ** 6])
def test_growth_scan_memory_does_not_grow_with_x(N, zeta_spec):
    # one block's temporaries beside the table, not five arrays of X
    # entries (39 MB at X = 1e6 and 153 MB at 4e6 over whole arrays)
    table = phi_table(zeta_spec, N, mode="float")
    cF = c_constant(zeta_spec)
    tracemalloc.start()
    try:
        rep = growth_scan(table, cF, N, samples=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.x_max == N and len(rep.rows) == 30
    assert peak < 4 * 2 ** 20, peak


# (spec, modes) of the phi-only tables checked against full ones: a real
# character, complex roots of degree 2, and degree 3 with Fraction exact
# tables
PHI_ONLY_SPECS = {
    "zeta": (zeta_product(), ("float", "exact")),
    "kronecker-8": (GROWTH_SPECS["kronecker-8"], ("float", "exact")),
    "complex-degree-2": (GROWTH_SPECS["complex-degree-2"], ("float",)),
    "degree-3": (GROWTH_SPECS["degree-3"], ("float", "exact")),
}


@pytest.mark.parametrize("N", [coeffs._CHUNK - 1, coeffs._CHUNK + 1,
                               4 * 10 ** 5])
@pytest.mark.parametrize("name", PHI_ONLY_SPECS)
def test_phi_only_table_has_the_full_tables_phi(name, N):
    # each column is sieved on its own, so phi keeps its bits without alpha
    # beside it, in both number types, across the sieve's run edges
    spec, modes = PHI_ONLY_SPECS[name]
    for mode in modes:
        full = phi_table(spec, N, mode=mode)
        alone = phi_table(spec, N, mode=mode, alpha=False)
        assert alone.alpha is None and full.alpha is not None
        assert (alone.mode, alone.N) == (full.mode, full.N) == (mode, N)
        assert _bits(alone.phi) == _bits(full.phi), mode


def test_phi_only_table_is_refused_by_readers_of_alpha(tmp_path, zeta_spec,
                                                       zeta_constants):
    # E(x), E2 and f1's closed form read phi alone; every reader of alpha
    # refuses the table with ModeUnavailable, never an AttributeError
    table = phi_table(zeta_spec, 1000, mode="float", alpha=False)
    cF = zeta_constants.c
    assert error_term(table, cF, 500.5) == error_term(
        phi_table(zeta_spec, 1000, mode="float"), cF, 500.5)
    make_e2(table, cF)(np.array([2.5, 999.0]))
    decomp.f1_closed(17.5, table, zeta_constants)
    exact = phi_table(zeta_spec, 1000, mode="exact", alpha=False)
    for call in (lambda: series_identity_check(zeta_spec, 3.0, 1000, table),
                 lambda: save_table(table, str(tmp_path / "t.bin")),
                 lambda: decomp.decompose(17.5, table, zeta_constants),
                 lambda: decomp.g1(17.5, table, zeta_constants),
                 lambda: decomp.f1_series(17.5, table, zeta_constants, 100),
                 lambda: decomp.decompose(Fraction(35, 2), exact,
                                          zeta_constants),
                 lambda: decomp.verify_identity_batch([Fraction(35, 2)],
                                                      exact)):
        with pytest.raises(ModeUnavailable, match="reads alpha"):
            call()
    assert not (tmp_path / "t.bin").exists()


@pytest.mark.parametrize("N", [2 * 10 ** 5, 10 ** 6])
@pytest.mark.parametrize("name", ["zeta", "degree-3"])
def test_series_identity_check_holds_no_column(name, N, zeta_spec):
    # n^-s, the terms and |terms| are formed a block of _CHUNK entries at a
    # time, so the check holds a few blocks beside the table, not an array
    # of N + 1 entries; degree 3 also takes the heuristic scale max |alpha|
    spec = zeta_spec if name == "zeta" else GROWTH_SPECS[name]
    table = phi_table(spec, N, mode="float")
    block = 8 * coeffs._CHUNK
    tracemalloc.start()
    try:
        rep = series_identity_check(spec, 3.0, N, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 6 * block, peak / block


def _fsum_oracle(terms):
    total = math.fsum(terms.real.tolist())
    if np.iscomplexobj(terms):
        return complex(total, math.fsum(terms.imag.tolist()))
    return total


@pytest.mark.parametrize("N", [1, coeffs._CHUNK - 1, coeffs._CHUNK,
                               coeffs._CHUNK + 1, 2 * 10 ** 5])
@pytest.mark.parametrize("spec", [
    zeta_product(), GROWTH_SPECS["kronecker-8"], COMPLEX_CUSTOM,
], ids=["zeta", "kronecker-8", "complex-custom"])
def test_streamed_series_sums_lie_within_their_rounding(spec, N):
    # each block sum is np.sum's and the block sums are added by fsum: the
    # sums lie within their rounding terms of the correctly rounded sum of
    # the same products, formed over the whole column at once, and the
    # heuristic scale is the largest |alpha(n)| over n <= N
    s = 3.0
    table = phi_table(spec, N, mode="float")
    n = np.arange(N + 1, dtype=np.float64)
    n[0] = 1.0
    w = n ** -s
    phi_terms, alpha_terms, scale = _series_sums(table, s, N)
    for block_sum, column in ((phi_terms, table.phi), (alpha_terms, table.alpha)):
        total, rounding = block_sum.result()
        assert block_sum.count == N + 1
        assert abs(complex(total) - complex(_fsum_oracle(column * w))) <= rounding
    assert scale == float(np.max(np.abs(table.alpha)))


SPEC_HASH_SPECS = [
    zeta_product(),
    *(dirichlet_product(build_character(kronecker=d)) for d in (-4, 8, -8)),
    COMPLEX_SPEC, INTEGRAL_CUSTOM, COMPLEX_CUSTOM, RATIONAL_CUSTOM,
    *GROWTH_SPECS.values(),
    custom_product(2, {2: [1, 1], 3: [1, 1]}, "zero"),
    custom_product(2, {2: [1j, -1j]}, "zero"),
]


@pytest.mark.parametrize("spec", SPEC_HASH_SPECS)
def test_spec_hash_is_hashlibs_sha256(spec):
    # the built-in SHA-256 gives hashlib's digest, so report meta and cache
    # file names keep their names
    blob = json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":")).encode()
    assert spec_hash(spec) == hashlib.sha256(blob).hexdigest()[:16]


def test_cache_roundtrip_float(tmp_path, zeta_spec):
    # a 256-byte JSON header padded with spaces, alpha at byte 256, and phi
    # at the first multiple of 64 bytes after alpha's end
    table = phi_table(zeta_spec, 2000, mode="float")
    path = cache_path(str(tmp_path), zeta_spec, 2000)
    assert path.endswith(f"table-{spec_hash(zeta_spec)}-2000-float.bin")
    save_table(table, path)
    back = load_table(path, zeta_spec, 2000)
    assert np.array_equal(np.asarray(back.phi), np.asarray(table.phi))
    assert np.array_equal(np.asarray(back.alpha),
                          np.asarray(table.alpha))
    with open(path, "rb") as fh:
        blob = fh.read()
    assert json.loads(blob[:256]) == {
        "version": 7, "spec_hash": spec_hash(zeta_spec), "N": 2000,
        "mode": "float", "dtype": "<f8",
        "crc": {"alpha": zlib.crc32(table.alpha),
                "phi": zlib.crc32(table.phi)}}
    assert blob[256 : 256 + 16008] == table.alpha.tobytes()
    assert blob[256 + 16064 :] == table.phi.tobytes()


@pytest.mark.parametrize("spec, dtype", [
    (zeta_product(), np.float64),
    (dirichlet_product(build_character(kronecker=-8)), np.float64),
    (COMPLEX_SPEC, np.complex128),
], ids=["zeta", "kronecker-8", "complex-degree-2"])
def test_loaded_columns_are_read_only_and_bit_identical(tmp_path, spec,
                                                        dtype):
    # columns are read in place from the file: read-only arrays whose bits
    # and dtype (complex128 for complex gamma(p)) are those of the built ones
    N = 5000
    table = phi_table(spec, N, mode="float")
    path = cache_path(str(tmp_path), spec, N)
    save_table(table, path)
    back = load_table(path, spec, N)
    for got, want in ((back.alpha, table.alpha), (back.phi, table.phi)):
        assert got.dtype == want.dtype and got.shape == (N + 1,)
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable is False
    assert back.phi.dtype == back.alpha.dtype == dtype
    phi_only = load_table(path, spec, N, alpha=False)
    assert phi_only.alpha is None
    assert phi_only.phi.tobytes() == table.phi.tobytes()


@pytest.mark.parametrize("N", [10 ** 3, 3 * 10 ** 5])
@pytest.mark.parametrize("spec", [
    zeta_product(), dirichlet_product(build_character(kronecker=-8)),
    COMPLEX_CUSTOM,
], ids=["zeta", "kronecker-8", "complex-custom"])
def test_loaded_columns_are_aligned(tmp_path, spec, N):
    # every column starts at a multiple of 64 bytes in the file, so the
    # columns load_table maps from it are aligned
    table = phi_table(spec, N, mode="float")
    path = cache_path(str(tmp_path), spec, N)
    save_table(table, path)
    back = load_table(path, spec, N)
    for got, want in ((back.alpha, table.alpha), (back.phi, table.phi)):
        assert got.flags.aligned
        assert got.ctypes.data % 64 == 0
        assert got.tobytes() == want.tobytes()


def test_save_table_replaces_the_file(tmp_path, zeta_spec, mod4_spec,
                                      monkeypatch):
    # a save writes a temporary file and renames it onto the path, so a
    # table loaded from the old file keeps its values, and nothing but the
    # table file is left in the directory
    N = 1000
    path = cache_path(str(tmp_path / "cache"), zeta_spec, N)
    zeta = phi_table(zeta_spec, N, mode="float")
    save_table(zeta, path)
    assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]
    # the size perfbench/spans.py records for a save
    assert os.path.getsize(path) > 16 * (N + 1)
    held = load_table(path, zeta_spec, N)
    other = phi_table(mod4_spec, N, mode="float")
    save_table(other, path)
    assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]
    assert held.phi.tobytes() == zeta.phi.tobytes()
    assert held.alpha.tobytes() == zeta.alpha.tobytes()
    with pytest.raises(CacheMismatch):
        load_table(path, zeta_spec, N)
    assert load_table(path, mod4_spec, N).phi.tobytes() == other.phi.tobytes()

    # a failed save removes its temporary file and leaves the old one; the
    # disk fills after the header and alpha are written
    class FullDisk:
        def __init__(self, *args):
            self.fh = open(*args)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell() > 256 + 8 * (N + 1):
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    with monkeypatch.context() as m, pytest.raises(OSError, match="space"):
        m.setattr(coeffs, "open", FullDisk, raising=False)
        save_table(zeta, path)
    assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]
    assert load_table(path, mod4_spec, N).phi.tobytes() == other.phi.tobytes()


@pytest.mark.parametrize("header, message", [
    (lambda h: b"{not json", "unreadable cache header"),
    (lambda h: b'{"N": "\xff"}', "unreadable cache header"),
    (lambda h: json.dumps([h]).encode(), "not a JSON object"),
    (lambda h: json.dumps({**h, "dtype": "<f4"}).encode(), "no column dtype"),
    (lambda h: json.dumps({**h, "dtype": ["<f8"]}).encode(),
     "no column dtype"),
    (lambda h: json.dumps({**h, "crc": [1, 2]}).encode(), "no column dtype"),
    (lambda h: json.dumps({**h, "crc": {"alpha": h["crc"]["alpha"],
                                        "phi": "0"}}).encode(),
     "bad CRC-32 for phi"),
], ids=["not-json", "not-utf-8", "array", "dtype", "dtype-list", "crc-list",
        "crc-string"])
def test_unreadable_cache_header_is_a_value_error(tmp_path, zeta_spec,
                                                  header, message):
    # a header that does not parse, is no JSON object, or holds a bad dtype
    # or malformed CRCs is a plain ValueError, as a run's warning names it
    path = str(tmp_path / "t.bin")
    save_table(phi_table(zeta_spec, 100, mode="float"), path)
    with open(path, "r+b") as fh:
        blob = header(json.loads(fh.read(256)))
        fh.seek(0)
        fh.write(blob.ljust(256))
    with pytest.raises(ValueError, match=message) as raised:
        load_table(path, zeta_spec, 100)
    assert type(raised.value) is ValueError


def test_cache_mismatch(tmp_path, zeta_spec, mod4_spec):
    table = phi_table(zeta_spec, 100, mode="float")
    path = str(tmp_path / "t.bin")
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
