"""CSV cells of float64 and integer arrays, spelled in numpy.

A float64 cell has the bytes of ``'%.17g' % v`` and an integer cell those of
``'%d' % v``, but a block of cells is spelled by whole-array operations
instead of one ``%`` per cell.  Each cell is written left-aligned into a
slot of CELL bytes padded with NUL; csv_text puts a separator after each
slot and drops the NULs in one compaction.

The float kernel (float_cells) finds the 17 significant digits of v exactly.
With v = m 2^(E-1075) (m the 53-bit significand, E the biased exponent) and
d the number of digits before the decimal point (10^(d-1) <= |v| < 10^d),
the digits are the integer X = |v| 10^s, s = 17 - d, rounded half to even,
and X = m 5^s / 2^r with r = 1075 - E - s.

- r <= 54: T, |v| 10^s rounded in float64, is within 2^9 of X even when d
  is off by one, so the residual m 5^s - T 2^r is below 2^63 in magnitude:
  computed mod 2^64 in uint64 it is exact as an int64, and it gives floor(X)
  and the rounding.
- r > 54 (|v| below about 1.5e-8): 2X is never an integer there, so X has
  no ties, and 2X is summed exactly from two Dekker products of float64s;
  a cell within 1e-12 of a rounding boundary is left to the fallback.

A cell whose floor lies outside [10^16, 10^17) had d off by one (d comes
from log10) and is redone with d -/+ 1; a carry to 10^17 is 10^16 with
d + 1.  %g's layout follows from d: a point inside or before the digits, or
an exponent below 1e-4, with trailing zeros dropped.

Domain: 1e-27 <= |v| < 1e16.  Every other cell (zero, -0.0, nan, the
infinities, subnormals, |v| >= 1e16, the smallest values) and every cell
the kernel is not sure of goes through ``'%.17g' % v`` one by one.
"""

from __future__ import annotations

import numpy as np

# bytes of a cell slot: the longest %.17g spelling ("-2.2250738585072014e-308")
# and the longest %d of an int64 or uint64
CELL = 24

# the 4 decimal digits of each 0 <= g < 10^4, one row per g
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
# _DIGITS4[g]: those digits in ASCII as one uint32, in memory order
_DIGITS4 = (_DIGITS + ord("0")).view(np.uint32).ravel()
# trailing zero digits of g (4 for 0000): where the first nonzero digit
# from the right is, with a nonzero stand-in after the last
_TRAILING_ZEROS4 = np.argmax(np.hstack([_DIGITS[:, ::-1] != 0,
                                        np.ones((10000, 1), bool)]), axis=1)
# the largest s = 17 - d a domain cell can reach: d >= -26, redone with d - 1
_S_MAX = 44
# 5^s mod 2^64, by the wrapping uint64 product, and 10^s rounded
_POW5 = np.concatenate((np.ones(1, np.uint64),
                        np.cumprod(np.full(_S_MAX, 5, np.uint64))))
_POW10 = 10.0 ** np.arange(_S_MAX + 1)
_SPLIT = 2.0 ** 27 + 1      # Veltkamp's splitter for binary64


def _two_product(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker's product,
    exact barring overflow and underflow)."""
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# 5^s = _POW5_HI[s] + _POW5_LO[s] exactly (5^s < 2^106 for s <= 44), as the
# product of two powers of 5 that are exact in float64 (5^22 < 2^53)
_POW5F = np.concatenate(([1.0], np.cumprod(np.full(22, 5.0))))
_POW5_HI, _POW5_LO = _two_product(
    _POW5F[np.minimum(np.arange(_S_MAX + 1), 22)],
    _POW5F[np.maximum(np.arange(_S_MAX + 1) - 22, 0)])
# _KEEP[L]: the byte mask of a float's digit words ("000" and 17 digits)
# keeping the first L digits
_KEEP = np.where((np.arange(20) >= 3)
                 & (np.arange(20) < 3 + np.arange(18)[:, None]),
                 0xFF, 0).astype(np.uint8).view(np.uint32)
# powers 10^1 .. 10^19: an integer's digit count is 1 + how many it reaches
_POW10_INT = np.cumprod(np.full(19, 10, dtype=np.uint64))
# _LEAD[n]: the byte mask of an integer's 20 digits keeping the last n
_LEAD = np.where(np.arange(20) >= 20 - np.arange(21)[:, None],
                 0xFF, 0).astype(np.uint8)

_E16, _E17 = 10 ** 16, 10 ** 17


def _rounded(m, E, a, d):
    """(floor X, X rounded half to even, sure) for X = |v| 10^s, s = 17 - d;
    where sure is False the first two are not to be used."""
    s = 17 - d
    r = 1075 - E - s
    t = np.rint(a * _POW10[s]).astype(np.int64)
    up = np.clip(r, 0, 63)
    # m 5^s 2^-min(r, 0) - T 2^max(r, 0), exact mod 2^64; |value| < 2^63
    res = ((m * _POW5[s]) << np.maximum(-r, 0).astype(np.uint64)
           ) - (t.view(np.uint64) << up.astype(np.uint64))
    res = res.view(np.int64)
    floor = t + (res >> up)
    frac2 = (res & ((1 << up) - 1)) << 1      # 2 (X - floor X) 2^r
    half2 = 1 << up
    carry = (frac2 > half2) | ((frac2 == half2) & (floor & 1).astype(bool))
    rounded = floor + carry
    sure = r <= 54
    small = np.flatnonzero(~sure)
    if len(small):
        floor[small], rounded[small], sure[small] = _rounded_small(
            a[small], s[small])
    return floor, rounded, sure


def _rounded_small(a, s):
    """_rounded for r > 54, from Y = 2X = (|v| 2^(s+1)) 5^s as the exact sum
    of four float64s.

    There 2^(r-1) cannot divide m 5^s (m < 2^53), so Y is never an integer:
    X has no ties, and X rounds up iff floor(Y) is odd.  Y's large part is
    an integer, and the small parts are summed within 1e-13, so floor(Y) is
    sure unless Y lies within 1e-12 of an integer.
    """
    u = np.ldexp(a, s + 1)
    y_hi, y_lo = _two_product(u, _POW5_HI[s])
    y_mid, y_low = _two_product(u, _POW5_LO[s])
    q = (y_lo + y_mid) + y_low
    q_floor = np.floor(q)
    # below 2^53 y_hi may not be an integer; then X < 10^16 and d is redone
    sure = ((y_hi >= 2.0 ** 53) & (q - q_floor > 1e-12)
            & (q_floor + 1 - q > 1e-12))
    floor_y = y_hi.astype(np.int64) + q_floor.astype(np.int64)
    return floor_y >> 1, (floor_y + 1) >> 1, sure


def _digit_words(top, rest):
    """(uint32 words of the 20 ASCII digits of top 10^16 + rest, the five
    4-digit groups) for int64 arrays 0 <= top < 10^4, 0 <= rest < 10^16."""
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    g1 = hi8 // 10000
    g3 = lo8 // 10000
    groups = (top, g1, hi8 - g1 * 10000, g3, lo8 - g3 * 10000)
    words = np.empty((len(top), 5), np.uint32)
    for i, g in enumerate(groups):
        words[:, i] = np.take(_DIGITS4, g)
    return words, groups


def _trailing_zeros(groups):
    """Trailing zero digits of the 17 digits of a float (top < 10)."""
    zeros = np.take(_TRAILING_ZEROS4, groups[4])
    # a last group of 0000: count on through the earlier groups
    tail = np.flatnonzero(groups[4] == 0)
    if len(tail):
        z = np.take(_TRAILING_ZEROS4, groups[1][tail])
        for g in (groups[2][tail], groups[3][tail]):
            z = np.where(g > 0, np.take(_TRAILING_ZEROS4, g), z + 4)
        zeros[tail] = z + 4
    return zeros


def _lay_out(d: int, digits, dots, cells) -> None:
    """Cells of one decimal exponent d: the point or the exponent around the
    17 digits (NUL where a trailing zero is dropped)."""
    if d < -3:
        # d.ddd...e-XX: %g switches to it below 1e-4 (at 1e17 too, which the
        # domain excludes)
        cells[:, 1] = digits[:, 0]
        cells[:, 2] = dots
        cells[:, 3:19] = digits[:, 1:]
        cells[:, 19:23] = np.frombuffer(b"e%+03d" % (d - 1), np.uint8)
    elif d <= 0:
        cells[:, 1:3 - d] = np.frombuffer(b"0." + b"0" * -d, np.uint8)
        cells[:, 3 - d:20 - d] = digits
    else:
        cells[:, 1:1 + d] = digits[:, :d]
        cells[:, 1 + d] = dots
        cells[:, 2 + d:19] = digits[:, d:]


def float_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17g' % x of each x of the float64 array v into the rows of
    out, a (len(v), CELL) uint8 array, NUL-padded.

    Cells in the kernel's domain (see the module docstring) are spelled from
    their exact 17 significant digits; the rest through '%.17g' one by one.
    """
    n = len(v)
    bits = v.view(np.uint64)
    a = np.abs(v)
    ok = (a >= 1e-27) & (a < 1e16)
    if not ok.all():
        # stand-ins keep the arithmetic of the other cells finite and quiet
        a = np.where(ok, a, 1.0)
        bits = np.where(ok, bits, a.view(np.uint64))
    E = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    d = np.floor(np.log10(a)).astype(np.int64) + 1
    floor, n17, sure = _rounded(m, E, a, d)
    redo = np.flatnonzero((floor < _E16) | (floor >= _E17))
    if len(redo):
        d[redo] += np.where(floor[redo] >= _E17, 1, -1)
        floor[redo], n17[redo], sure[redo] = _rounded(
            m[redo], E[redo], a[redo], d[redo])
    ok &= sure & (floor >= _E16) & (floor < _E17)
    carry = np.flatnonzero(n17 == _E17)
    n17[carry] = _E16
    d[carry] += 1
    # stand-ins for the cells spelled by %, so that no table index leaves
    # its range
    n17[~ok] = _E16
    d[~ok] = 1

    top = n17 // 10 ** 16
    words, groups = _digit_words(top, n17 - top * 10 ** 16)
    # digits kept: all before the point, and up to the last nonzero one
    point = np.where(d >= -3, d, 1)
    kept = np.maximum(17 - _trailing_zeros(groups), point)
    words &= np.take(_KEEP, kept, axis=0)
    dots = np.where(kept > point, ord("."), 0).astype(np.uint8)

    # lay out each decimal exponent's cells as one slice, in order of d
    # -26 <= d <= 16 in the domain: an int8 key sorts by radix
    order = np.argsort(d.astype(np.int8), kind="stable")
    d_sorted = d[order]
    digits = np.take(words, order, axis=0).view(np.uint8)[:, 3:20]
    dots = np.take(dots, order)
    cells = np.zeros((n, CELL), np.uint8)
    cuts = [0, *(np.flatnonzero(np.diff(d_sorted)) + 1), n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _lay_out(int(d_sorted[lo]), digits[lo:hi], dots[lo:hi], cells[lo:hi])
    back = np.empty_like(order)
    back[order] = np.arange(n)
    out[:] = np.take(cells, back, axis=0)
    out[:, 0] = np.where(bits >> np.uint64(63), ord("-"), 0)

    fallback = np.flatnonzero(~ok)
    if len(fallback):
        text = ["%.17g" % x for x in v[fallback].tolist()]
        out[fallback] = np.array(text, dtype=f"S{CELL}").view(
            np.uint8).reshape(-1, CELL)


def int_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Write '%d' % x of each x of the integer array v into the rows of out,
    a (len(v), CELL) uint8 array, NUL-padded."""
    if v.dtype.kind == "u":
        mag, neg = v.astype(np.uint64), np.zeros(len(v), bool)
    else:
        v = v.astype(np.int64)
        neg = v < 0
        # two's complement negation, so int64's minimum has its magnitude too
        bits = v.view(np.uint64)
        mag = np.where(neg, np.uint64(0) - bits, bits)
    top = mag // np.uint64(10 ** 16)
    rest = mag - top * np.uint64(10 ** 16)
    words, _ = _digit_words(top.astype(np.int64), rest.astype(np.int64))
    count = 1 + np.searchsorted(_POW10_INT, mag, side="right")
    out[:, :4] = 0
    out[:, 0] = np.where(neg, ord("-"), 0)
    out[:, 4:] = words.view(np.uint8) & np.take(_LEAD, count, axis=0)


def csv_text(columns: list, block_rows: int):
    """The CSV lines of equal-length float64 and integer arrays (one column
    each, comma-separated, newline-terminated), as one str per block of up
    to block_rows rows."""
    n = len(columns[0])
    buf = np.zeros((min(n, block_rows), len(columns), CELL + 1), np.uint8)
    buf[:, :, CELL] = ord(",")
    buf[:, -1, CELL] = ord("\n")
    kernels = [float_cells if c.dtype == np.float64 else int_cells
               for c in columns]
    for lo in range(0, n, block_rows):
        block = buf[:min(block_rows, n - lo)]
        for j, (kernel, c) in enumerate(zip(kernels, columns)):
            kernel(c[lo:lo + len(block)], block[:, j, :CELL])
        yield block[block != 0].tobytes().decode("ascii")
