"""Prime sieves and primality helpers shared by the table builders."""

from __future__ import annotations

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (Eratosthenes on a boolean mask)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def smallest_prime_factor(n: int) -> np.ndarray:
    """spf[k] = least prime dividing k for k >= 2; spf[0] = spf[1] = 0 (int32)."""
    spf = np.arange(n + 1, dtype=np.int32)
    spf[:2] = 0
    # largest prime first, so the least prime dividing k writes spf[k] last
    for p in primes_upto(int(n ** 0.5))[::-1]:
        spf[p * p:: p] = p
    return spf


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (p, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
