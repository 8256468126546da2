"""CSV cells spelled in numpy: byte-equal to '%.17g' and '%d'."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eulerphi.cli import emit_report
from eulerphi.csvcells import CELL, csv_text, float_cells, int_cells


def _cells(kernel, values) -> list:
    out = np.zeros((len(values), CELL), np.uint8)
    kernel(values, out)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in out]


def _assert_spelled_like_percent(values) -> None:
    v = np.asarray(values, dtype=np.float64)
    assert _cells(float_cells, v) == ["%.17g" % x for x in v.tolist()]


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_float_cells_of_raw_bit_patterns(patterns):
    v = np.array(patterns, np.uint64).view(np.float64)
    _assert_spelled_like_percent(v)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
def test_float_cells_of_drawn_floats(values):
    _assert_spelled_like_percent(values)


@given(st.lists(st.floats(1e-30, 1e-6) | st.floats(1e-6, 1e17),
                min_size=1, max_size=64), st.booleans())
def test_float_cells_across_the_kernel_domain(values, negate):
    # both digit routes (the uint64 residual and the double-double product
    # below about 1.5e-8) and the layouts around them
    _assert_spelled_like_percent(-np.array(values) if negate else values)


def _powers_of_ten():
    p = np.array([10.0 ** k for k in range(-30, 18)]
                 + [float(10 ** k) for k in range(18)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


EDGES = {
    "powers of ten, one ulp either side": _powers_of_ten(),
    # X = 10 m + 5/2: ties, to even in both directions
    "ties near 4e15": 4e15 + np.arange(-8, 8) + 0.25,
    "ties near 1e15": 1e15 + np.arange(-8, 8) + 0.75,
    "exact decimals": np.array([1.25, 0.5, 1.0, 10.0, 100.0, 1500.0, 0.0625,
                                123456789012345.67, 2.0 ** 53, 2.0 ** 52]),
    "%g switches to exponents": np.array([1e-4, 9.9999999999999995e-5,
                                          1.0000000000000001e-4, 1e-5,
                                          0.00012345, 1.5e-8, 2e-8, 3e-9,
                                          5e-15, 2e-19, 3e-24, 1.2e-27,
                                          1e-27]),
    "fallback": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                          -5e-324, 2.2250738585072014e-308, 1e-300, 1e16,
                          -1e16, 9999999999999998.0, 1e17, 1e300,
                          1.7976931348623157e308, -1.7976931348623157e308]),
    "grid points": (np.arange(20000) + 0.5) * 0.001,
}


@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_float_cells_of_edge_cases(values):
    _assert_spelled_like_percent(values)
    _assert_spelled_like_percent(-values)


def test_int_cells_match_percent_d():
    rng = np.random.default_rng(7)
    cases = [
        np.concatenate([[0, 1, -1, 9, 10, -10, 99, 10 ** 18, -10 ** 18,
                         2 ** 63 - 1, -2 ** 63],
                        rng.integers(-2 ** 63, 2 ** 63 - 1, 2000)]).astype(
            np.int64),
        np.array([0, 10 ** 19, 2 ** 64 - 1, 12345], dtype=np.uint64),
        np.arange(-300, 300, dtype=np.int16),
        np.arange(0, 70000, 7, dtype=np.uint32),
    ]
    for v in cases:
        assert _cells(int_cells, v) == ["%d" % x for x in v.tolist()]


def test_mixed_report_equals_the_row_template(tmp_path):
    # past one block of 8192 rows: the bytes the one-%-per-row template
    # wrote before the cells were spelled in numpy
    n = 8192 + 1000
    rng = np.random.default_rng(3)
    x = (np.arange(n) + 0.5) * 0.001
    columns = {"k": np.arange(n, dtype=np.int64) - 2 ** 62,
               "x": x, "y": np.sin(x) * 1e-12, "z": -np.exp(x * 30),
               "w": rng.integers(-10 ** 6, 10 ** 6, n),
               "u": rng.standard_normal(n) * 10.0 ** rng.integers(-20, 15, n)}
    columns["u"][:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    data = {"meta": {"command": "t"}, "columns": columns,
            "summary": {"sup": 0.5}}
    path = tmp_path / "report.csv"
    emit_report(data, "csv", str(path))
    template = "%d,%.17g,%.17g,%.17g,%d,%.17g\n"
    expected = ("k,x,y,z,w,u\n"
                + "".join(map(template.__mod__,
                              zip(*[c.tolist() for c in columns.values()])))
                + "# sup=0.5\n")
    assert path.read_bytes() == expected.encode()


def test_csv_text_blocks():
    v = np.arange(10, dtype=np.float64) / 4
    assert list(csv_text([v, np.arange(10)], 4)) == [
        "0,0\n0.25,1\n0.5,2\n0.75,3\n", "1,4\n1.25,5\n1.5,6\n1.75,7\n",
        "2,8\n2.25,9\n"]
