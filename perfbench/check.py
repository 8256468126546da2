"""Correctness checks of each op's CLI output.

The oracles here share no code with eulerphi: totients come from trial
factorization and the local roots, sums are exact Fractions, and the
constant C comes from closed forms (3/pi^2 for zeta, 1/(2 L(2, chi)) through
Hurwitz zeta values for Dirichlet characters, the finite product for
finitely supported custom products).

Tolerances:
- exact outputs must match exactly;
- float error terms must match the exact oracle within
  FLOAT_REL_TOL * |C| x^2, a relative tolerance on the main term C x^2 that
  covers the truncated constant and float rounding of the cumulative sums;
- float residuals of x f1 + g1/2 against E2 must stay within
  ROUND_REL_TOL * (1 + |C| x^2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

ORACLE_MAX = 3000      # exact totient sums are formed for x up to this
FLOAT_REL_TOL = 1e-6
ROUND_REL_TOL = 1e-9
CONST_REL_TOL = 1e-6   # program's C against the oracle's, exact decompose
# Kronecker symbols (D/n) by n mod 8 for the float-scan discriminants
CHARACTERS = {8: (0, 1, 0, -1, 0, -1, 0, 1), -8: (0, 1, 0, 1, 0, -1, 0, -1)}


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primes_upto(n: int) -> list[int]:
    mask = bytearray([1]) * (n + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if mask[p]]


def _root(r):
    if isinstance(r, list):
        return complex(r[0], r[1]) if r[1] else Fraction(r[0])
    return Fraction(r)


class Oracle:
    """Totients, their prefix sums and C for one product, from first principles."""

    def __init__(self, spec: dict):
        self.spec = spec
        kind = spec["kind"]
        if kind == "dirichlet":
            self.chi = CHARACTERS.get(spec["kronecker"])
        if kind == "custom":
            self.roots = {int(p): [_root(r) for r in rs]
                          for p, rs in spec["roots"].items()}
        self._sums = [0]

    def local(self, p: int):
        """prod_j (1 - alpha_j(p)/p)."""
        kind = self.spec["kind"]
        if kind == "zeta":
            return 1 - Fraction(1, p)
        if kind == "dirichlet":
            _require(self.chi is not None, "no oracle character table")
            return 1 - Fraction(self.chi[p % len(self.chi)], p)
        rs = self.roots.get(p)
        if rs is None:
            rs = [Fraction(self.spec["default"] == "one")] * self.spec["degree"]
        out = 1
        for r in rs:
            out *= 1 - r / p
        return out

    def phi(self, n: int):
        out = Fraction(n)
        for p in _prime_factors(n):
            out *= self.local(p)
        return out

    def partial_sum(self, k: int):
        """sum_{n <= k} phi(n)."""
        _require(k <= ORACLE_MAX, f"oracle sums stop at {ORACLE_MAX}")
        while len(self._sums) <= k:
            self._sums.append(self._sums[-1] + self.phi(len(self._sums)))
        return self._sums[k]

    def e2_sum(self, x: Fraction):
        """sum'_{n <= x} phi(n): half the last term when x is an integer."""
        k = math.floor(x)
        s = self.partial_sum(k)
        if x == k and k >= 1:
            s -= self.phi(k) / 2
        return s

    @cached_property
    def c(self) -> float | complex:
        """C = (1/2) prod_p (1 - gamma(p)/p^2), gamma(p)/p^2 = (1 - local(p))/p."""
        kind = self.spec["kind"]
        if kind == "zeta":
            return 3 / math.pi ** 2
        if kind == "dirichlet":
            import mpmath
            _require(self.chi is not None, "no oracle character table")
            q = len(self.chi)
            l2 = sum(self.chi[a % q] * mpmath.zeta(2, mpmath.mpf(a) / q)
                     for a in range(1, q + 1)) / q ** 2
            return float(1 / (2 * l2))
        prod = 0.5
        for p in self.roots:
            prod *= 1 - (1 - complex(self.local(p))) / p
        if self.spec["default"] == "one":
            # unlisted primes to 10^6; the tail is below 2e-7 relative
            d = self.spec["degree"]
            for p in _primes_upto(10 ** 6):
                if p not in self.roots:
                    prod *= 1 - (1 - (1 - 1 / p) ** d) / p
        return prod.real if prod.imag == 0 else prod


_ORACLES: dict = {}


def oracle_for(spec: dict) -> Oracle:
    key = repr(sorted(spec.items()))
    if key not in _ORACLES:
        _ORACLES[key] = Oracle(spec)
    return _ORACLES[key]


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """CSV report -> (header, rows, summary dict from a trailing '# k=v' line)."""
    lines = text.splitlines()
    summary = {}
    if lines and lines[-1].startswith("# "):
        summary = dict(kv.split("=", 1) for kv in lines.pop()[2:].split())
    _require(bool(lines), "empty report")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "ragged CSV rows")
    return header, rows, summary


def _num(s: str):
    return complex(s) if s.endswith("j") else float(s)


def _near(got, want, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got}, want {want} "
                                     f"(tolerance {tol:.3g})")


def _rows(result: dict, header: list[str], count: int | None):
    got_header, rows, summary = parse_csv(result["text"])
    _require(got_header == header, f"header {got_header} != {header}")
    if count is not None:
        _require(len(rows) == count, f"{len(rows)} rows, want {count}")
    return rows, summary


def _same_x(got: str, want: str, exact: bool) -> None:
    if exact:
        _require(Fraction(got) == Fraction(want), f"x {got} != {want}")
    else:
        _require(float(got) == float(Fraction(want)), f"x {got} != {want}")


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def _check_verify(chk, result, results):
    rows, _ = _rows(result, ["x", "verdict", "residual"], len(chk["x"]))
    for row, x in zip(rows, chk["x"]):
        _same_x(row[0], x, True)
        _require(row[1] == "pass" and row[2] == "0",
                 f"identity at x={x}: {row[1]}, residual {row[2]}")


DECOMP_HEADER = ["x", "E2", "x_f1", "half_g1", "residual", "exact_verdict"]


def _check_decompose_exact(chk, result, results):
    rows, _ = _rows(result, DECOMP_HEADER, len(chk["x"]))
    for row, x in zip(rows, chk["x"]):
        _same_x(row[0], x, True)
        e2, xf1, hg1 = (Fraction(v) for v in row[1:4])
        _require(row[4] == "0" and row[5] == "pass",
                 f"decompose at x={x}: residual {row[4]}, verdict {row[5]}")
        _require(e2 == xf1 + hg1, f"E2 != x f1 + g1/2 at x={x}")
    # E2 = S'(x) - C x^2 with one exact rational C for every row
    oracle = oracle_for(chk["spec"])
    implied = set()
    for i in chk["sample"]:
        x = Fraction(rows[i][0])
        implied.add((oracle.e2_sum(x) - Fraction(rows[i][1])) / (x * x))
    _require(len(implied) == 1, "sampled E2 rows imply different constants C")
    c = float(implied.pop())
    _near(c, oracle.c, CONST_REL_TOL * abs(oracle.c), "C implied by E2")


def _near_e2(oracle: Oracle, x: str, got) -> None:
    """A float E2(x) against the exact oracle, for x up to ORACLE_MAX."""
    xv = float(Fraction(x))
    if xv <= ORACLE_MAX:
        want = oracle.e2_sum(Fraction(x)) - oracle.c * xv * xv
        _near(got, complex(want), FLOAT_REL_TOL * abs(oracle.c) * xv * xv,
              f"E2 at x={x}")


def _check_decompose_float(chk, result, results):
    rows, _ = _rows(result, DECOMP_HEADER, len(chk["x"]))
    oracle = oracle_for(chk["spec"])
    c = abs(oracle.c)
    for row, x in zip(rows, chk["x"]):
        _same_x(row[0], x, False)
        xv = float(row[0])
        e2, xf1, hg1, res = (_num(v) for v in row[1:5])
        _require(row[5] == "not-applicable", f"verdict {row[5]} in float mode")
        _near(e2 - xf1 - hg1, res, ROUND_REL_TOL * (1 + c * xv * xv),
              f"residual column at x={x}")
        _near(res, 0.0, ROUND_REL_TOL * (1 + c * xv * xv),
              f"decompose residual at x={x}")
        _near_e2(oracle, x, e2)


def _check_error_term(chk, result, results):
    rows, _ = _rows(result, ["x", "value", "bound"], len(chk["x"]))
    oracle = oracle_for(chk["spec"])
    for row, x in zip(rows, chk["x"]):
        _same_x(row[0], x, False)
        _near_e2(oracle, x, _num(row[1]))


def _check_growth(chk, result, results):
    rows, summary = _rows(result, ["x", "E", "ratio"], None)
    _require(bool(rows) and int(rows[-1][0]) == chk["X"],
             f"growth rows must end at X={chk['X']}")
    oracle = oracle_for(chk["spec"])
    c = abs(oracle.c)
    degree = chk["spec"].get("degree", 1)
    sup = float(summary["sup"])
    for row in rows:
        x = int(row[0])
        e, ratio = _num(row[1]), float(row[2])
        _near(ratio, abs(e) / (x * math.log(2 * x) ** degree),
              ROUND_REL_TOL * ratio, f"ratio at x={x}")
        _require(ratio <= sup * (1 + ROUND_REL_TOL), f"ratio above sup at x={x}")
        if x <= ORACLE_MAX:
            want = oracle.partial_sum(x) - oracle.c * x * x
            _near(e, complex(want), FLOAT_REL_TOL * c * x * x, f"E at x={x}")


def _check_series(chk, result, results):
    rows, _ = _rows(result, ["s", "N", "lhs", "rhs", "diff", "bound",
                             "bound_kind", "ok"], 1)
    s, n, lhs, rhs, diff, bound, _, ok = rows[0]
    _require(ok == "true" and int(n) == chk["N"] and float(s) == chk["s"],
             f"series-check row {rows[0]}")
    lhs, rhs, diff, bound = _num(lhs), _num(rhs), float(diff), float(bound)
    _near(abs(lhs - rhs), diff, ROUND_REL_TOL * (1 + abs(lhs)), "diff column")
    _require(diff <= bound, f"diff {diff} above bound {bound}")
    if chk["spec"]["kind"] == "zeta":
        import mpmath
        want = float(mpmath.zeta(chk["s"] - 1) / mpmath.zeta(chk["s"]))
        _near(lhs, want, bound, "sum phi(n) n^-s against zeta(s-1)/zeta(s)")


def _check_volterra(chk, result, results):
    lines = result["text"].splitlines()
    _require(bool(lines), "empty report")
    tail = lines[-1]
    if chk["op"] == "probe":
        _require(len(lines) == 3 and tail.startswith("# sup="),
                 "probe report shape")
        return
    points = math.floor(chk["X"] / chk["h"] - 0.5 + 1e-9) + 1
    _require(len(lines) == points + 2,
             f"{len(lines) - 2} grid rows, want {points}")
    _require(lines[0] == "x,F1,E2,residual", f"header {lines[0]}")
    sup = float(tail.split()[1].split("=", 1)[1])
    _require(sup <= 1e-5, f"Volterra residual sup {sup} above 1e-5")


def _check_table(chk, result, results):
    rows, _ = _rows(result, ["n", "alpha", "phi", "cumulative"], chk["limit"])
    oracle = oracle_for(chk["spec"])
    parse = Fraction if chk["exact"] else float
    for i, row in enumerate(rows, start=1):
        _require(int(row[0]) == i, f"row {i} holds n={row[0]}")
        factors = _prime_factors(i)
        # alpha(n) = mu(n) prod_{p|n} gamma(p), gamma(p) = p (1 - local(p))
        alpha = (math.prod(p * (oracle.local(p) - 1) for p in factors)
                 if math.prod(factors) == i else 0)
        for name, got, want in (("alpha", parse(row[1]), alpha),
                                ("phi", parse(row[2]), oracle.phi(i)),
                                ("cumulative", parse(row[3]),
                                 oracle.partial_sum(i))):
            if chk["exact"]:
                _require(got == want, f"{name}({i}) = {got}, want {want}")
            else:
                _near(got, float(want), ROUND_REL_TOL * abs(float(want)) + 1e-12,
                      f"{name}({i})")


def _check_same_as(chk, result, results):
    ref = results[chk["op"]]
    _require(result["text"] == ref["text"],
             f"warm output ({len(result['text'])} chars) differs from op "
             f"{chk['op']} ({len(ref['text'])} chars)")


CHECKS = {
    "verify": _check_verify,
    "decompose_exact": _check_decompose_exact,
    "decompose_float": _check_decompose_float,
    "error_term_float": _check_error_term,
    "growth": _check_growth,
    "series": _check_series,
    "volterra": _check_volterra,
    "table": _check_table,
    "same_as": _check_same_as,
}


def check_op(chk: dict, result: dict, results: list[dict]) -> str | None:
    """None when the op's output is correct, else why it is not.

    An op fails if it raised, exited non-zero or printed a wrong report.
    """
    if result["error"]:
        return f"uncaught {result['error']}"
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"
    try:
        CHECKS[chk["kind"]](chk, result, results)
    except CheckFailed as e:
        return str(e)
    except Exception as e:  # malformed output must fail the op, not the run
        return f"output could not be checked: {type(e).__name__}: {e}"
    return None


def reported_points(result: dict) -> int:
    """x rows in a point-wise report (header excluded)."""
    return max(len(result["text"].splitlines()) - 1, 0)
