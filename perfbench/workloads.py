"""Seeded workloads: the argv of every op plus what the checker verifies.

A workload is a fixed sequence of `eulerphi` CLI invocations.  The seed only
chooses which x points and which Dirichlet character an op uses, never how
many points, how large a table or how many ops, so the amount of work is the
same for every seed.  The program sees only the generated argv; the `check`
entry stays in the benchmark.

Sizes are chosen so that one pass over a workload takes a few seconds on a
2-core machine, which lets a run repeat it several times and report medians.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("exact-identity", "float-scan", "cache-reuse")

# Fundamental discriminants whose moduli are powers of 2: alpha(n) is nonzero
# on the same n (odd squarefree) for each, so the exact sums do equal work.
EXACT_DISCRIMINANTS = (-4, 8, -8)
# Both have modulus 8, so the L-value sums behind the constants also do the
# same work for either.
FLOAT_DISCRIMINANTS = (8, -8)

# Degree 2, rational but non-integral gamma(p) at every prime (2 - 1/p off
# the listed primes), so exact tables keep Fractions.
CUSTOM_RATIONAL = {"degree": 2, "default": "one",
                   "roots": {"2": [0.5, 0.25], "3": [0.5, 0.25],
                             "5": [0.5, 0.25]}}
# Degree 2 with conjugate complex roots at two primes; float tables only.
CUSTOM_COMPLEX = {"degree": 2, "default": "zero",
                  "roots": {"2": [[0, 1], [0, -1]],
                            "3": [[0.5, 0.5], [0.5, -0.5]]}}

ZETA = {"kind": "zeta"}
CACHE_PLACEHOLDER = "{cache}"

# exact-identity
VERIFY_POINTS, VERIFY_MAX = 45, 2000
DECOMP_ZETA_POINTS, DECOMP_ZETA_MAX = 27, 1200
DECOMP_CUSTOM_POINTS, DECOMP_CUSTOM_MAX = 24, 500
# float-scan
GROWTH_ZETA_X, GROWTH_OTHER_X = 400_000, 200_000
SERIES_N = 200_000
ERROR_POINTS, ERROR_MAX = 400, 200_000
DECOMP_FLOAT_POINTS, DECOMP_FLOAT_MAX = 150, 100_000
VOLTERRA_X, VOLTERRA_H = 40, 0.001
# cache-reuse
CACHE_FLOAT_N, CACHE_TABLE_LIMIT = 300_000, 2000
CACHE_VOLTERRA_X = 30
CACHE_EXACT_N = 1200
CACHE_VERIFY_POINTS, CACHE_DECOMP_POINTS = 30, 8

SAMPLED_ROWS = 4  # exact decompose rows re-derived from the totient oracle


def stratified_points(rng: random.Random, count: int, lo: int,
                      hi: int) -> list[Fraction]:
    """One x per equal-width stratum of [lo, hi), all x >= 1.

    Strata cycle through integer, half-integer and k/7 points, so every seed
    gets the same mix of denominators.
    """
    if lo < 1 or (hi - lo) < 2 * count:
        raise ValueError(f"need lo >= 1 and strata at least 2 wide: "
                         f"{count} points in [{lo}, {hi})")
    width = Fraction(hi - lo, count)
    out = []
    for i in range(count):
        a = lo + i * width
        m = rng.randint(math.ceil(a), math.floor(a + width) - 1)
        kind = i % 3
        if kind == 0:
            x = Fraction(m)
        elif kind == 1:
            x = m + Fraction(1, 2)
        else:
            x = m + Fraction(rng.randint(1, 6), 7)
        out.append(x)
    return out


def _custom_argv(spec: dict) -> list[str]:
    return ["--product", "custom", "--degree", str(spec["degree"]),
            "--roots", json.dumps(spec["roots"], separators=(",", ":")),
            "--default", spec["default"]]


def _dirichlet_argv(d: int) -> list[str]:
    return ["--product", "dirichlet", "--kronecker", str(d)]


def _custom(spec: dict) -> dict:
    return {"kind": "custom", **spec}


def _points_op(rng, argv, kind, spec, count, lo, hi, **extra):
    xs = stratified_points(rng, count, lo, hi)
    check = {"kind": kind, "spec": spec, "x": [str(x) for x in xs], **extra}
    if kind == "decompose_exact":
        check["sample"] = sorted(rng.sample(range(count), SAMPLED_ROWS))
    return {"argv": argv + ["--x", ",".join(str(x) for x in xs)],
            "check": check}


def exact_identity(rng: random.Random) -> list[dict]:
    d = rng.choice(EXACT_DISCRIMINANTS)
    return [
        _points_op(rng, ["verify-identity"], "verify", ZETA,
                   VERIFY_POINTS, 1, VERIFY_MAX),
        _points_op(rng, ["verify-identity"] + _dirichlet_argv(d), "verify",
                   {"kind": "dirichlet", "kronecker": d},
                   VERIFY_POINTS, 1, VERIFY_MAX),
        _points_op(rng, ["decompose", "--mode", "exact"], "decompose_exact",
                   ZETA, DECOMP_ZETA_POINTS, 1, DECOMP_ZETA_MAX),
        _points_op(rng, ["decompose", "--mode", "exact"]
                   + _custom_argv(CUSTOM_RATIONAL), "decompose_exact",
                   _custom(CUSTOM_RATIONAL), DECOMP_CUSTOM_POINTS, 1,
                   DECOMP_CUSTOM_MAX),
    ]


def _volterra_op(op: str, X: int, extra=()) -> dict:
    return {"argv": ["volterra", "--op", op, "--X", str(X),
                     "--h", str(VOLTERRA_H), *extra],
            "check": {"kind": "volterra", "op": op, "X": X, "h": VOLTERRA_H}}


def _growth_op(argv_spec, spec, X, extra=()) -> dict:
    return {"argv": ["growth", *argv_spec, "--X", str(X), *extra],
            "check": {"kind": "growth", "spec": spec, "X": X}}


def _series_op(n: int, extra=()) -> dict:
    return {"argv": ["series-check", "--n", str(n), *extra],
            "check": {"kind": "series", "spec": ZETA, "N": n, "s": 3.0}}


def float_scan(rng: random.Random) -> list[dict]:
    d = rng.choice(FLOAT_DISCRIMINANTS)
    return [
        _growth_op([], ZETA, GROWTH_ZETA_X),
        _growth_op(_dirichlet_argv(d), {"kind": "dirichlet", "kronecker": d},
                   GROWTH_OTHER_X),
        _growth_op(_custom_argv(CUSTOM_COMPLEX), _custom(CUSTOM_COMPLEX),
                   GROWTH_OTHER_X),
        _series_op(SERIES_N),
        _points_op(rng, ["error-term", "--mode", "float"], "error_term_float",
                   ZETA, ERROR_POINTS, 1, ERROR_MAX),
        _points_op(rng, ["decompose", "--mode", "float"], "decompose_float",
                   ZETA, DECOMP_FLOAT_POINTS, 1, DECOMP_FLOAT_MAX),
        _volterra_op("residual", VOLTERRA_X),
        _volterra_op("solve", VOLTERRA_X),
        _volterra_op("probe", VOLTERRA_X),
    ]


def cache_reuse(rng: random.Random) -> list[dict]:
    cache = ["--cache-dir", CACHE_PLACEHOLDER]
    fn = ["--n", str(CACHE_FLOAT_N)]
    en = ["--n", str(CACHE_EXACT_N)]
    table = {"argv": ["table", *fn, "--mode", "float",
                      "--limit", str(CACHE_TABLE_LIMIT), *cache],
             "check": {"kind": "table", "spec": ZETA, "exact": False,
                       "limit": CACHE_TABLE_LIMIT}}
    return [
        table,
        {"argv": list(table["argv"]), "check": {"kind": "same_as", "op": 0}},
        _growth_op([], ZETA, CACHE_FLOAT_N, (*fn, *cache)),
        _series_op(CACHE_FLOAT_N, cache),
        _points_op(rng, ["error-term", "--mode", "float", *fn, *cache],
                   "error_term_float", ZETA, ERROR_POINTS, 1, CACHE_FLOAT_N),
        _volterra_op("solve", CACHE_VOLTERRA_X, (*fn, *cache)),
        {"argv": ["table", *en, "--mode", "exact", *cache],
         "check": {"kind": "table", "spec": ZETA, "exact": True,
                   "limit": CACHE_EXACT_N}},
        _points_op(rng, ["verify-identity", *en, *cache], "verify", ZETA,
                   CACHE_VERIFY_POINTS, 1, CACHE_EXACT_N),
        _points_op(rng, ["decompose", "--mode", "exact", *en, *cache],
                   "decompose_exact", ZETA, CACHE_DECOMP_POINTS, 1,
                   CACHE_EXACT_N),
    ]


_BUILDERS = {"exact-identity": exact_identity, "float-scan": float_scan,
             "cache-reuse": cache_reuse}


def build(workload: str, seed: int) -> list[dict]:
    """The op list of `workload` for `seed`: [{"argv": [...], "check": {...}}]."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def with_cache_dir(ops: list[dict], cache_dir: str) -> list[list[str]]:
    """The argv of every op with the cache placeholder filled in."""
    return [[cache_dir if a == CACHE_PLACEHOLDER else a for a in op["argv"]]
            for op in ops]
