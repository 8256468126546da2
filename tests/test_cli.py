"""Command-line surface: parsing, reports, determinism, caching, exit codes."""

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerphi.cli import (
    _COMMANDS,
    _build_parser,
    _command_parser,
    build_spec,
    emit_report,
    main,
    parse_anchor,
    parse_config,
    parse_x_values,
    run_command,
)
import eulerphi
from eulerphi import cli, coeffs, decomp, products
from eulerphi.coeffs import cache_path, load_table, phi_table, save_table
from eulerphi.errors import (
    AnchorOutOfRange,
    BadModulus,
    BadProductSpec,
    CacheMismatch,
    DegreeNotMinimal,
    EulerphiError,
    IoError,
    ModeUnavailable,
    OutOfMemory,
    RootOutOfDisk,
    SOutOfRange,
    UsageError,
    XBelowOne,
)
from eulerphi.products import zeta_product


# --- parsing -----------------------------------------------------------------

def test_parse_constants_flags():
    cfg = parse_config(["constants", "--product", "dirichlet",
                        "--kronecker", "-4", "--format", "json"])
    assert cfg.command == "constants"
    assert cfg.options["product"] == "dirichlet"
    assert cfg.options["kronecker"] == -4
    assert cfg.options["format"] == "json"


@pytest.mark.parametrize("flag, value", [("--prime-cutoff", "1000000"),
                                         ("--a1-mode", "closed_form"),
                                         ("--a1-cutoff", "10")])
def test_removed_constants_flags_exit_2(flag, value, capsys):
    # C, A1 and A2 are functions of the product alone: no option sets how
    # they are computed
    with pytest.raises(SystemExit) as exc:
        main(["constants", flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_x_range(monkeypatch):
    xs = parse_x_values("1:500:0.5", exact=True)
    assert len(xs) == 999
    assert xs[0] == 1 and xs[1] == Fraction(3, 2) and xs[-1] == 500
    assert parse_x_values("2.5,7.5", exact=False) == [2.5, 7.5]
    assert parse_x_values("1:6:1/2", exact=True)[1] == Fraction(3, 2)
    # the end is out when the step does not divide the span
    assert parse_x_values("1:2:0.3", exact=True) == [
        1, Fraction(13, 10), Fraction(8, 5), Fraction(19, 10)]
    with pytest.raises(UsageError):
        parse_x_values("5:1:1", exact=False)
    with pytest.raises(UsageError):
        parse_x_values("1:2", exact=False)
    with pytest.raises(UsageError):
        parse_x_values("abc", exact=False)
    # a range is counted against the cap before it is built
    monkeypatch.setattr(cli, "_X_POINTS_CAP", 10)
    assert len(parse_x_values("1:10:1", exact=False)) == 10
    with pytest.raises(OutOfMemory):
        parse_x_values("1:11:1", exact=False)


@given(a=st.fractions(-1000, 1000, max_denominator=10 ** 6),
       span=st.fractions(0, 20, max_denominator=1000),
       step=st.fractions(Fraction(1, 100), 30, max_denominator=10 ** 4))
def test_parse_x_range_is_a_plus_k_step(a, span, step):
    # the points are formed over one common denominator, with the values
    # of a + k step in Fraction arithmetic
    b = a + span
    want = [a + k * step for k in range((b - a) // step + 1)]
    assert parse_x_values(f"{a}:{b}:{step}", exact=True) == want
    assert parse_x_values(f"{a}:{b}:{step}", exact=False) == [
        float(x) for x in want]


# the characters of Fraction's grammar, so that most tokens parse
_NUMBER_TEXT = st.text(alphabet="0123456789.eE+-_/ ", min_size=1, max_size=12)


@given(tok=st.one_of(
    _NUMBER_TEXT,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.fractions().map(str),
    st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 30),
              st.sampled_from(["", " "])).map(lambda t: f"{t[2]}{t[0]}/{t[1]}")))
def test_float_points_are_those_of_the_fractions(tok):
    # a float run's point is float(Fraction(tok)) bit for bit, parsed
    # without the Fraction, and a token an exact run refuses, or one beyond
    # the float range, is a usage error
    try:
        want = float(Fraction(tok))
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(UsageError):
            parse_x_values(tok, exact=False)
        return
    got, = parse_x_values(tok, exact=False)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), tok


def test_parse_anchor():
    assert parse_anchor("1.5=auto") == (1.5, "auto")
    assert parse_anchor("2=3.5") == (2.0, 3.5)
    with pytest.raises(UsageError):
        parse_anchor("1.5")


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"x": "2.5,7.5", "mode": "float"}))
    o = parse_config(["decompose", "--config", str(cfg_path)]).options
    assert o["x"] == "2.5,7.5" and o["mode"] == "float"
    # CLI flag wins over the file value
    o = parse_config(["decompose", "--config", str(cfg_path), "--x", "3"]).options
    assert o["x"] == "3"


def test_config_unknown_key_named(tmp_path):
    # the keys of the removed constants options are unknown keys too
    cfg_path = tmp_path / "bad.json"
    for key, value in (("bogus_key", 1), ("prime_cutoff", 10 ** 6),
                       ("a1_mode", "closed_form"), ("a1_cutoff", 10)):
        cfg_path.write_text(json.dumps({key: value}))
        with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
            parse_config(["constants", "--config", str(cfg_path)])


@pytest.mark.parametrize("command, options", [
    ("table", {"n": "5"}),
    ("table", {"n": 5.5}),
    ("table", {"n": True}),
    ("volterra", {"h": "0.1"}),
    ("volterra", {"h": None}),
    ("growth", {"samples": "3"}),
    ("volterra", {"op": "bogus"}),
    ("table", {"mode": "bogus"}),
    ("table", {"no_cache": "yes"}),
    ("table", {"output": 5}),
    ("volterra", {"anchor": 5}),
    ("constants", {"product": "dirichlet", "modulus": 4,
                   "values": [0, 1, 0, -1]}),
])
def test_config_values_checked_against_flags(tmp_path, capsys, command,
                                             options):
    # a value of the wrong JSON type, or outside the flag's choices, is a
    # usage error, not an internal error or a silent default
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(options))
    with pytest.raises(UsageError):
        parse_config([command, "--config", str(cfg_path)])
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "internal" not in capsys.readouterr().err


def test_config_values_converted_like_flags(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "X": 100, "h": 0.01, "samples": 3, "n": None, "no_cache": True,
        "op": "probe", "x": 2.5, "roots": {"2": [0.5]}}))
    o = parse_config(["volterra", "--config", str(cfg_path)]).options
    assert o["X"] == 100.0 and isinstance(o["X"], float)
    assert ([o[k] for k in ("h", "samples", "n", "no_cache", "op", "x",
                            "roots")]
            == [0.01, 3, None, True, "probe", 2.5, {"2": [0.5]}])


@pytest.mark.parametrize("command, flags, options", [
    ("volterra", ["--X", "nan"], {"X": math.nan}),
    ("volterra", ["--X", "inf"], {"X": math.inf}),
    ("volterra", ["--X=-inf"], {"X": -math.inf}),
    ("volterra", ["--X", "5", "--tolerance", "nan"], {"tolerance": math.nan}),
    ("growth", ["--X", "nan"], {"X": math.nan}),
    ("growth", ["--X", "inf"], {"X": math.inf}),
    ("growth", ["--samples", "-3"], {"samples": -3}),
    ("growth", ["--X", "1" + "0" * 400], {"X": 10 ** 400}),
    ("table", ["--limit", "-1"], {"limit": -1}),
    ("volterra", ["--X", "5", "--h", "0.01", "--tolerance", "-1"],
     {"X": 5, "h": 0.01, "tolerance": -1}),
    ("volterra", ["--A", "nan"], {"A": math.nan}),
    ("volterra", ["--A", "inf"], {"A": math.inf}),
])
def test_non_finite_and_negative_values_are_usage_errors(
        tmp_path, capsys, command, flags, options):
    # no comparison against NaN can pass, no sup lies below a negative
    # tolerance, a non-finite A gives a grid that fails its own check, and
    # int(inf) or a negative sample count would end as an internal error;
    # json reads NaN and Infinity, so config files are checked the same way
    # as flags
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(options))
    for argv in ([command, *flags], [command, "--config", str(cfg_path)]):
        with pytest.raises(UsageError):
            parse_config(argv)
        assert main(argv) == 2
        assert "internal" not in capsys.readouterr().err


def _error_classes() -> list:
    """EulerphiError and every class below it."""
    out, todo = [], [EulerphiError]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def test_exit_code_map_is_distinct():
    classes = _error_classes()
    # each class names its own code, and no two share one
    assert all("exit_code" in vars(cls) for cls in classes)
    codes = [cls.exit_code for cls in classes]
    assert len(set(codes)) == len(codes)
    assert 0 not in codes and 1 not in codes
    assert EulerphiError.exit_code == 36
    assert (BadProductSpec.exit_code, RootOutOfDisk.exit_code,
            DegreeNotMinimal.exit_code) == (13, 14, 15)
    assert SOutOfRange("s").exit_code == 21
    # the README's table lists every class but the base, with its code
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("### Exit codes", 1)[1]
    listed = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            listed[cells[1]] = int(cells[0])
            listed[cells[3]] = int(cells[2])
    assert listed == {cls.__name__: cls.exit_code for cls in classes
                      if cls not in (EulerphiError, UsageError)}


# --- reports -------------------------------------------------------------------

def test_emit_csv_and_json(tmp_path):
    data = {"meta": {"spec_hash": "abc", "version": "0", "mode": "float",
                     "command": "t"},
            "columns": {"x": [Fraction(300, 7)], "v": np.array([0.125]),
                        "ok": [True]},
            "summary": {"sup": 1.0}}
    csv_path = tmp_path / "r.csv"
    emit_report(data, "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,v,ok"
    assert lines[1].split(",") == ["300/7", "0.125", "true"]
    assert lines[2].startswith("# sup=")
    json_path = tmp_path / "r.json"
    emit_report(data, "json", str(json_path))
    obj = json.loads(json_path.read_text())
    assert obj["meta"]["spec_hash"] == "abc"
    assert obj["rows"][0]["x"] == "300/7"
    assert Fraction(obj["rows"][0]["x"]) == Fraction(300, 7)


def test_emit_report_io_error(tmp_path):
    data = {"meta": {}, "columns": {}}
    with pytest.raises(IoError):
        emit_report(data, "csv", str(tmp_path / "no" / "dir" / "x.csv"))


# The per-row emitter that the columnar one replaced: every cell through an
# isinstance chain, rows as dicts.  Kept here as the oracle for its bytes.

def _row_fmt_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        return "%.17g%+.17gj" % (z.real, z.imag)
    return str(v)


def _row_json_ready(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        return [z.real, z.imag]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, dict):
        return {k: _row_json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_row_json_ready(x) for x in v]
    return v


def _row_emit(data: dict, format: str) -> bytes:
    """The bytes the row emitter wrote for a {meta, rows[, summary]} report."""
    buf = io.StringIO()
    if format == "json":
        json.dump(_row_json_ready(data), buf, indent=2)
        buf.write("\n")
    else:
        rows = data.get("rows", [])
        if rows:
            keys = list(rows[0].keys())
            buf.write(",".join(keys) + "\n")
            for row in rows:
                buf.write(",".join(_row_fmt_csv(row[k]) for k in keys) + "\n")
        summary = data.get("summary")
        if summary:
            buf.write("# " + " ".join(f"{k}={_row_fmt_csv(v)}"
                                      for k, v in summary.items()) + "\n")
    return buf.getvalue().encode("utf-8")


def _as_rows(data: dict) -> dict:
    """A columns report as the row dicts of numpy scalars commands built.

    A cell of a column that "exact_columns" names is an exact value, and
    goes to the row as the Fraction commands built for it, which the row
    emitter spells as a p/q string in JSON.
    """
    columns = dict(data["columns"])
    for name in data.get("exact_columns", ()):
        columns[name] = [Fraction(int(v)) for v in columns[name]]
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    out = {"meta": data["meta"], "rows": rows}
    if "summary" in data:
        out["summary"] = data["summary"]
    return out


def _assert_emits_like_rows(data: dict, tmp_path) -> None:
    for format in ("csv", "json"):
        path = tmp_path / f"report.{format}"
        emit_report(data, format, str(path))
        assert path.read_bytes() == _row_emit(_as_rows(data), format), format


COMPLEX_ROOTS = ["--product", "custom", "--degree", "2", "--roots",
                 '{"2":[[0,1],[0,-1]],"3":[[0.5,0.5],[0.5,-0.5]]}']
# a root without its conjugate: complex alpha, totients and error terms
NONREAL_ROOT = ["--product", "custom", "--degree", "1", "--roots",
                '{"2":[[0,0.5]]}']
ORACLE_RUNS = [
    ["constants"],
    ["constants", "--product", "dirichlet", "--kronecker", "-4"],
    ["table", "--n", "300", "--mode", "float"],
    ["table", "--n", "300", "--mode", "exact"],
    ["table", "--n", "100", "--mode", "float"] + NONREAL_ROOT,
    ["error-term", "--x", "1:60:0.5", "--mode", "float"],
    ["error-term", "--x", "1:60:1/3", "--mode", "exact"],
    ["decompose", "--x", "1:40:0.5", "--mode", "float"],
    ["decompose", "--x", "1:40:1/3", "--mode", "exact"],
    ["verify-identity", "--x", "1:40:1/7"],
    ["volterra", "--op", "residual", "--X", "5", "--h", "0.01"],
    ["volterra", "--op", "residual", "--X", "5", "--h", "0.01"]
    + NONREAL_ROOT,
    ["volterra", "--op", "solve", "--X", "5", "--h", "0.002",
     "--anchor", "1.5=auto"],
    ["volterra", "--op", "probe", "--X", "5", "--h", "0.002",
     "--anchor", "2=3.0"],
    ["growth", "--X", "2000", "--samples", "8"],
    ["growth", "--X", "2000", "--samples", "8"] + COMPLEX_ROOTS,
    ["series-check", "--n", "5000"],
]


@pytest.mark.parametrize("args", ORACLE_RUNS, ids=" ".join)
def test_columns_emit_like_rows(tmp_path, args):
    data, _ = run_command(parse_config(args))
    assert set(data) <= {"meta", "columns", "summary", "exact_columns"}
    _assert_emits_like_rows(data, tmp_path)


def test_complex_columns_reach_the_oracle():
    # so the oracle runs above cover the complex cell format too
    data, _ = run_command(parse_config(["table", "--n", "100", "--mode",
                                        "float"] + NONREAL_ROOT))
    assert data["columns"]["phi"].dtype == np.complex128


@pytest.mark.parametrize("summary", [None, {"sup": 0.5, "argmax": 3}])
def test_empty_columns_emit_like_rows(tmp_path, summary):
    data = {"meta": {"command": "t"}, "columns": {}}
    if summary is not None:
        data["summary"] = summary
    _assert_emits_like_rows(data, tmp_path)
    data["columns"] = {"x": np.zeros(0), "name": []}
    _assert_emits_like_rows(data, tmp_path)


def test_block_boundary_emits_like_rows(tmp_path):
    # one row past a whole block, for the all-fixed-format row path and for
    # the per-cell path
    n = 8193
    xs = np.linspace(-1.0, 1.0, n) / 3
    fixed = {"x": xs, "k": np.arange(n, dtype=np.int64) - 4096,
             "y": np.exp(xs * 700)}
    data = {"meta": {"command": "t"}, "columns": fixed,
            "summary": {"sup": 1.0}}
    _assert_emits_like_rows(data, tmp_path)
    # a float column holding NaN, infinities and -0.0 among the others
    odd = xs.copy()
    odd[::5], odd[1::7], odd[2::11], odd[3::13] = np.nan, np.inf, -np.inf, -0.0
    data["columns"] = dict(fixed, q=[Fraction(k, 7) for k in range(n)],
                           z=xs * (1 - 2j), ok=[k % 2 == 0 for k in range(n)],
                           none=[None] * n, odd=odd)
    _assert_emits_like_rows(data, tmp_path)


# --- end-to-end runs -------------------------------------------------------------

def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_error_term_symmetric_value(capsys):
    code, out = run_main(["error-term", "--x", "10", "--mode", "float",
                          "--convention", "symmetric"], capsys)
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(30 - 300 / math.pi ** 2, abs=1e-4)


def test_decompose_csv_header(capsys):
    code, out = run_main(["decompose", "--x", "2.5", "--mode", "float"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "x,E2,x_f1,half_g1,residual,exact_verdict"


def test_verify_identity_passes(capsys):
    code, out = run_main(["verify-identity", "--x", "1:20:0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 39
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_exact_rationals_roundtrip(capsys):
    code, out = run_main(["decompose", "--x", "300/7", "--mode", "exact"],
                         capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "300/7"
    assert row[-1] == "pass"
    assert Fraction(row[1]) - Fraction(row[2]) - Fraction(row[3]) == Fraction(row[4])


def test_constants_json_shape(capsys):
    code, out = run_main(["constants", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert set(obj["meta"]) == {"spec_hash", "version", "mode", "command"}
    names = [row["name"] for row in obj["rows"]]
    assert names == ["C_F", "A1", "A2"]
    assert all({"name", "value", "bound", "bound_kind"} <= set(r)
               for r in obj["rows"])


def test_table_limit_exports_that_many_rows(capsys):
    # --limit 0 exports no rows; unset, every row up to --n
    for flags, rows in (([], 5), (["--limit", "2"], 2), (["--limit", "0"], 0),
                        (["--limit", "9"], 5)):
        code, out = run_main(["table", "--n", "5", "--format", "json"]
                             + flags, capsys)
        assert code == 0
        assert [row["n"] for row in json.loads(out)["rows"]] == list(
            range(1, rows + 1))


def test_dirichlet_from_modulus_and_values(capsys):
    # the character from its value table is the one --kronecker -4 names
    reports = []
    for chi in (["--modulus", "4", "--values", "0,1,0,-1"],
                ["--kronecker", "-4"]):
        code, out = run_main(["constants", "--product", "dirichlet", *chi,
                              "--format", "json"], capsys)
        assert code == 0
        reports.append(out)
    assert json.loads(reports[0])["meta"]["spec_hash"] == "48acd809dcd624f4"
    assert reports[0] == reports[1]


@pytest.mark.parametrize("args", [
    ["--product", "dirichlet"],
    ["--product", "dirichlet", "--modulus", "4"],
    ["--product", "custom", "--degree", "2"],
])
def test_product_without_its_data_is_usage_error(capsys, args):
    with pytest.raises(UsageError, match="product needs"):
        build_spec(parse_config(["constants", *args]))
    assert main(["constants", *args]) == UsageError.exit_code
    assert "internal" not in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["decompose", "--x", "1:10:0.5", "--mode", "float",
            "--format", "json"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cache_warm_equals_cold(tmp_path, monkeypatch):
    monkeypatch.setenv("EULERPHI_CACHE_DIR", str(tmp_path / "cache"))
    out1, out2 = tmp_path / "cold.csv", tmp_path / "warm.csv"
    args = ["table", "--n", "500", "--mode", "float"]
    assert main(args + ["--output", str(out1)]) == 0
    assert os.listdir(tmp_path / "cache")   # something was cached

    def no_build(*args, **kwargs):
        raise AssertionError("the warm run built its table")

    monkeypatch.setattr(coeffs, "phi_table", no_build)
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_old_cache_format_is_rejected_and_rebuilt(tmp_path, monkeypatch):
    # a file whose header names an older format version is rebuilt, though
    # its columns pass their CRCs: here they are one ulp off, so a report
    # from them would differ.  The npz files of formats 3 to 6
    # (table-*-float.npz) are never read, nor removed
    spec, n = zeta_product(), 60
    table = phi_table(spec, n, mode="float")
    stale = coeffs.TotientTable(spec=spec, N=n, mode="float",
                                alpha=table.alpha,
                                phi=np.nextafter(table.phi, np.inf))
    cold = tmp_path / "cold.csv"
    args = ["table", "--n", str(n), "--mode", "float"]
    assert main(args + ["--no-cache", "--output", str(cold)]) == 0
    for version in (3, 4, 5, 6):
        cache = tmp_path / f"format{version}"
        path = cache_path(str(cache), spec, n)
        with monkeypatch.context() as m:
            m.setattr(coeffs, "_CACHE_VERSION", version)
            save_table(stale, path)
        npz = path[: -len(".bin")] + ".npz"
        with open(npz, "wb") as fh:
            fh.write(b"an npz file of format 6")
        with pytest.raises(CacheMismatch):
            load_table(path, spec, n)
        warm = tmp_path / f"warm{version}.csv"
        assert main(args + ["--cache-dir", str(cache),
                            "--output", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        back = load_table(path, spec, n)
        for got, want in ((back.alpha, table.alpha), (back.phi, table.phi)):
            assert np.array_equal(got, want)
        assert sorted(os.listdir(cache)) == sorted(
            os.path.basename(p) for p in (path, npz))
        with open(npz, "rb") as fh:
            assert fh.read() == b"an npz file of format 6"


def test_exact_tables_are_not_cached(tmp_path):
    # loading an exact table would create as many Fractions as building it,
    # so exact runs neither read nor write a cache file
    cache = tmp_path / "cache"
    cache.mkdir()
    cold, cached = tmp_path / "cold.csv", tmp_path / "cached.csv"
    for args in (["table", "--n", "500", "--mode", "exact"],
                 ["verify-identity", "--x", "1:50:1/3"],
                 ["decompose", "--x", "1:50:1/2"]):       # auto: exact
        assert main(args + ["--no-cache", "--output", str(cold)]) == 0
        assert main(args + ["--cache-dir", str(cache),
                            "--output", str(cached)]) == 0
        assert cached.read_bytes() == cold.read_bytes()
        assert os.listdir(cache) == []
    path = tmp_path / "exact.bin"
    with pytest.raises(ModeUnavailable):
        save_table(phi_table(zeta_product(), 50, mode="exact"), str(path))
    assert not path.exists()


# SHA-256 of exact reports that hold no constant (C, A1), or only exact
# ones (a finite-support product: C and A1 are finite products in Q), so no
# float bit can move them: any change of their bytes is a change of the
# exact values
CUSTOM_ROOTS = ["--product", "custom", "--degree", "2", "--roots",
                '{"2":[0.5,0.25],"3":[0.5,0.25],"5":[0.5,0.25]}']
DEFAULT_ONE = CUSTOM_ROOTS + ["--default", "one"]
GOLDEN_REPORTS = [
    (["table", "--n", "3000", "--mode", "exact"],
     "3699499c75a6891ffab26304fd85a498c94ca92cbe3d4de5850b499d5652c5f3"),
    (["table", "--n", "3000", "--mode", "exact"] + DEFAULT_ONE,
     "ff3f925004d9a5c58dba9c0967dd88ea6d67745a184dde92066978cbfbfca124"),
    (["verify-identity", "--product", "dirichlet", "--kronecker", "-4",
      "--x", "1:300:1/7"],
     "afff6ec32e99cc7fe6b918dd8ea30f7c6cb177ac7e69a977714e16bce888db64"),
    (["decompose", "--x", "1:100:1/3", "--mode", "exact"] + CUSTOM_ROOTS,
     "85b6ffab98928bc0e46fb6816b26d5a50ed00d28afcbf6594d880124ef44d539"),
    # JSON writes a Fraction as a string and an int as a number, so these
    # also pin the type of every exact value, which the CSV bytes do not
    (["table", "--n", "3000", "--mode", "exact", "--format", "json"],
     "284867437ae9b5521479120e425d74f97413b88e0f4b24db9ac476f14c171471"),
    (["table", "--n", "3000", "--mode", "exact", "--product", "dirichlet",
      "--kronecker", "-4", "--format", "json"],
     "e7973bbbae74d56591d5117dad4f7511f3903eed4db711324c673144b9c51ad0"),
    (["verify-identity", "--x", "1:300:1/7", "--format", "json"],
     "1ff72e442853a5f1699fac51f9fc976004f217c0e9a8e7436fa2c31754bfe197"),
    (["decompose", "--x", "1:100:1/3", "--mode", "exact", "--format", "json"]
     + CUSTOM_ROOTS,
     "9e351e060ca0a1780940a549404a0028245a7d5c7779bf67ef8f8675e04aec59"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS)
def test_exact_reports_match_golden_digests(tmp_path, args, digest):
    out = tmp_path / "report.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of exact integer-table exports, CSV and JSON, of no row, one row
# and every row up to --n: zeta, and real characters of both signs.  Their
# alpha, phi and cumulative cells are spelled from int64 columns, in JSON
# as strings ("-1"), like the Fractions they were once spelled from
INTEGER_TABLES = {"zeta": [],
                  "kronecker -4": ["--product", "dirichlet", "--kronecker", "-4"],
                  "kronecker 8": ["--product", "dirichlet", "--kronecker", "8"]}
INTEGER_TABLE_DIGESTS = {
    ("zeta", "0"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "031b366aeee6d67a36f20ce94224c29634f905edaa81ce7a90ab67c8c2772789"),
    ("zeta", "1"): ("f383e25791e951d2445897fd27d7d07b0620a61556e62a7092f048d2d4ae75e2",
                    "11cf3c0ba05d6ed9f7aefb861621eab1d38c03b7b3d1980adae9364cb29d1594"),
    ("zeta", None): ("9d8df68ed395a76101254caa54cb82e71389bdb043eb31af8e09ddb89e50a5db",
                     "b271f950dbb5bd1cdb8bcd12527ebbd21608cdc15ec3daf1468b47afd8de1380"),
    ("kronecker -4", "0"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "abae3d448f58fcca68ddb8df3e3ffc7825ad4cbd6d8881cd356a57ff513e32bc"),
    ("kronecker -4", "1"): (
        "f383e25791e951d2445897fd27d7d07b0620a61556e62a7092f048d2d4ae75e2",
        "f8930a0c88137d0fde80c6aac9985cff1ce3f4a7f76dbf52c8222c1e7f63561e"),
    ("kronecker -4", None): (
        "b2c047cc3461da4cdc3cf0442333439c43e8b72fa37f88afdb497e1d1df33f9d",
        "ac71a86ab866dbc1e02ecde27be343373e0f8ca59f3779668a8d555a9cc0fb26"),
    ("kronecker 8", "0"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4f3767d973d6e84902d35e05c289a245a68cca41504654640ed1d508d504c46f"),
    ("kronecker 8", "1"): (
        "f383e25791e951d2445897fd27d7d07b0620a61556e62a7092f048d2d4ae75e2",
        "85873b7d9f593b6c5bbcbdc3782c2d65cef0def8b9b522f808ac0603aaebda6a"),
    ("kronecker 8", None): (
        "1620bff8198fecae659d5c0cf8237dce7e7a749fbfb2fa105e5dd3d5ac68dca0",
        "b9679c05aad6fe8abf8b54187f14a989f3e3b43cf29bd8e98af611fd9f5617cd"),
}


@pytest.mark.parametrize("product, limit", INTEGER_TABLE_DIGESTS,
                         ids=lambda v: v if v in INTEGER_TABLES
                         else f"limit {v or 'n'}")
def test_integer_table_exports_match_golden_digests(tmp_path, product, limit):
    args = (["table", "--n", "1200", "--mode", "exact"]
            + INTEGER_TABLES[product]
            + ([] if limit is None else ["--limit", limit]))
    digests = INTEGER_TABLE_DIGESTS[product, limit]
    for format, digest in zip(("csv", "json"), digests):
        out = tmp_path / f"report.{format}"
        assert main(args + ["--format", format, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, format


def test_exact_table_columns_by_number_type():
    # an integral exact table reaches the writer as int64 columns, named as
    # exact values; a Fraction table as columns of Fractions, named as none
    for product in INTEGER_TABLES.values():
        data, _ = run_command(parse_config(
            ["table", "--n", "300", "--mode", "exact"] + product))
        assert data["exact_columns"] == ["alpha", "phi", "cumulative"]
        for name in ("n", *data["exact_columns"]):
            assert data["columns"][name].dtype == np.int64, name
    data, _ = run_command(parse_config(
        ["table", "--n", "300", "--mode", "exact"] + DEFAULT_ONE))
    assert "exact_columns" not in data
    for name in ("alpha", "phi", "cumulative"):
        assert {type(v) for v in data["columns"][name]} == {Fraction}, name


@pytest.mark.parametrize("phi, dtype", [
    # entries near 2^62: the third partial sum passes int64
    ([2 ** 62, 2 ** 62 - 1, 2 ** 62 - 3, -5, 7], object),
    # len * max|phi| passes 2^63, but every partial sum fits
    ([2 ** 62, -(2 ** 62), 2 ** 62, -(2 ** 62), 2 ** 62 - 1], np.int64),
    # an entry past int64
    ([3, 2 ** 64, -(2 ** 70), 1, 1], object),
    # the bound holds at the edge: 5 (2^63 - 1) / 5
    ([(2 ** 63 - 1) // 5] * 5, np.int64),
], ids=["sum past int64", "bound past int64", "entry past int64", "bound"])
def test_running_sum_of_big_entries(monkeypatch, tmp_path, phi, dtype):
    # the integer running sum is taken in int64 only where every partial sum
    # fits, with no wraparound, from an int64 column (where every entry
    # fits) and from an object column of Python ints alike
    want = list(itertools.accumulate(phi))
    columns = [np.array(phi, dtype=object)]
    if all(abs(v) < 2 ** 63 for v in phi):
        columns.append(np.array(phi, dtype=np.int64))
    for column in columns:
        sums = coeffs._int_running_sum(column)
        assert sums.dtype == dtype
        assert sums.tolist() == want
    # a table built directly: the table command's cumulative column is that
    # sum, and its cells are those of phi_sums
    N = len(phi)
    alpha = np.array([0, 1] + [-(2 ** 62)] * (N - 1), dtype=np.int64)
    table = coeffs.TotientTable(spec=zeta_product(), N=N, mode="exact",
                                alpha=alpha, phi=np.insert(columns[-1], 0, 0))
    monkeypatch.setattr(cli, "get_table", lambda *args: table)
    cfg = parse_config(["table", "--n", str(N), "--mode", "exact"])
    data, _ = run_command(cfg)
    assert data["columns"]["cumulative"].dtype == dtype
    sums = coeffs.phi_sums(table, range(N + 1))
    assert [sums[k] for k in range(1, N + 1)] == want
    want = [[k, alpha[k], phi[k - 1], sums[k]] for k in range(1, N + 1)]
    for format in ("csv", "json"):
        out = tmp_path / f"report.{format}"
        emit_report(data, format, str(out))
        text = out.read_text()
        if format == "csv":
            header, *lines = text.splitlines()
            assert header == "n,alpha,phi,cumulative"
            assert lines == [",".join(map(str, row)) for row in want]
        else:
            assert [list(row.values()) for row in json.loads(text)["rows"]
                    ] == [[k] + list(map(str, cells)) for k, *cells in want]


# SHA-256 of float reports, CSV and JSON, one run of each kind of op the
# float-scan benchmark makes; they pin float bits, so a faster sieve or
# sweep must leave every one where it was.  The three float decompose
# digests pin S_g's split into direct terms and floor-quotient groups over
# compensated sums (decomp._s_g): their E2 and x_f1 cells are those of the
# term-by-term S_g before it, and only half_g1 and the residual moved, by
# 2.8e-11 at most (1.5e-15 x).  Float bits can also move with the platform
# (numpy's SIMD log and power, libm): these were taken on x86-64 Linux
# with CPython 3.11 and numpy 2.4.
KRONECKER_4 = ["--product", "dirichlet", "--kronecker", "-4"]
FLOAT_POINTS = ["--x", "1,2,2.5,3,4,6,7.5,10,12,133.7,1338,4999.5,12345.6,"
                "20000", "--mode", "float"]
FLOAT_GOLDEN_REPORTS = [
    (["growth", "--X", "20000", "--samples", "12"],
     "f37c374cd9072f646b5202bcf22da91d62b9b57aa0a1d959f1d289749c8208d6",
     "efeb51b25679e76ab0e2f64f363604d31ed1a63e0d41395de38fcafc163bd7c5"),
    (["growth", "--product", "dirichlet", "--kronecker", "8", "--X", "20000"],
     "00ed845a3ecc6e546ecf8b36551919135ac180b54dfcf323258065c9566ecc98",
     "622c5966bf69c6b595b8267030c80b04ba904c545509fcf3d39f430ebc2362b0"),
    (["growth", "--X", "20000"] + COMPLEX_ROOTS,
     "27102b62024f7e8af4626d36f158096f495c65cf502822674e81fd4c57c51ba3",
     "3d60984befb2e74a69581a49f2b4d1457cd4ba407a8fc4a43ed4600e1ae9cb8e"),
    # two blocks of _CHUNK terms, whose np.sum results math.fsum adds
    (["series-check", "--n", "20000"],
     "e84be8dd1fbce1135641bd9a8783f9228e51c9d51f60426827d04f7f26ffabde",
     "bbbcac71a9b668c455ee91f55ddee28d9d9020873fe8368fd7af7cb6bfeb996a"),
    (["error-term", "--x", "1:20000:97.3", "--mode", "float"],
     "108a14a55fa40fe2c03e6803a54571d970151f92d79e5643f818ec0bf0746fce",
     "b8b173e605517add7fbc3cdcbdc348b97ed6741183a499339934a44c5fd55a54"),
    (["decompose", "--x", "1:20000:133.7", "--mode", "float"],
     "42c0fc62746ef439ec0eeddb1dcebdbe27c81f1b70f9c68069d4eca4143ca509",
     "ed89667c6a86d10fbb8c5ea9a31920b25f28c2427d25e991ff6b7a3d637efd8d"),
    (["volterra", "--op", "residual", "--X", "10", "--h", "0.01"],
     "feafc9c7cd29e01bc9e2c00cdeb92d77149d61b1e685067436c6e29b2a87d33e",
     "9408918424e166c0f7c6c1ece8839e9776b86582e46799c72fd58910d1d1cdfc"),
    (["volterra", "--op", "solve", "--X", "10", "--h", "0.001"],
     "4c34d31720a3a8940ba5940b81195b686fd34fee3c5e41de39b1375361bacccf",
     "ea4f97f363973a2caabd15eb7038b336af2b3a1d6edd67193007b51a9a8d62b4"),
    (["volterra", "--op", "probe", "--X", "10", "--h", "0.01"],
     "9acb8d373dcba0510e731902b0147fdb09b31f09dbb66831208cb9b66f8d737b",
     "1a975ea21cbb18cc4bce567d5b5a83fb261f8634c65870cfe1984d1da79e9ca4"),
    # the float point commands on a complex128 table, whose E2 and residual
    # cells print as complex and whose x_f1 and half_g1 cells collapse to
    # floats, and on a character of both signs; integers, halves and
    # zeros among the cells
    (["error-term"] + COMPLEX_ROOTS + FLOAT_POINTS,
     "f77b93cab82424f3ebb9ca792a45b091e0721c4ef72ec8ce3117f8677eaf7efb",
     "0e7dc76534e29fbc439abb2655fafa5aa79a538684b48302ecd7edb62b5a1e3c"),
    (["error-term"] + KRONECKER_4 + FLOAT_POINTS,
     "1819778f522c58b1e98f793c571bfd84436a8e95db4e2c143ccdd95ec2c083fb",
     "b96ff78d1390d8d0dde2e17296dfac18bc4d8c4d8280759dbab7d2e40e46b544"),
    (["decompose"] + COMPLEX_ROOTS + FLOAT_POINTS,
     "61c531ed4bc8f5379491d4a11929319c29ee5f1d7108eb730218c5a46a6315f0",
     "3307ae4d57335a0700f45d9f162229b035a7c7129f5a5216a2263db950c1b1a9"),
    (["decompose"] + KRONECKER_4 + FLOAT_POINTS,
     "a42940a74047219ef6795ca5cd6e7e26914e6fa9a67bcff1ee9f940953e1d7a4",
     "2ad14452278f1936d6e2bc56d20ad44446b76db290277a2780ac5bce04c2a7f4"),
]


@pytest.mark.parametrize("args, csv_digest, json_digest", FLOAT_GOLDEN_REPORTS,
                         ids=[" ".join(r[0][:3]) for r in FLOAT_GOLDEN_REPORTS])
def test_float_reports_match_golden_digests(tmp_path, args, csv_digest,
                                            json_digest):
    for format, digest in (("csv", csv_digest), ("json", json_digest)):
        out = tmp_path / f"report.{format}"
        assert main(args + ["--format", format, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, format


def test_json_rows_of_float_and_int_columns_match_json_dumps(tmp_path):
    # the row template of all-float/int reports, past one block: json's
    # spelling of NaN, the infinities, -0.0, subnormals and big ints, and
    # column names that need escaping
    n = 8200
    xs = np.linspace(-1.0, 1.0, n) / 3
    xs[:7] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300]
    columns = {"x": xs, "k": np.arange(n, dtype=np.int64) - 2 ** 62,
               "u": np.arange(n, dtype=np.uint16),
               'odd "%s" name\n': -xs[::-1] / 7}
    data = {"meta": {"command": "t"}, "columns": columns,
            "summary": {"sup": float("nan")}}
    _assert_emits_like_rows(data, tmp_path)
    data["columns"] = {"k": columns["k"][:3]}
    _assert_emits_like_rows(data, tmp_path)


def _parser_output(parse, argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


PARSER_EXITS = ([["--help"], ["--version"], [], ["bogus"], ["-5", "table"],
                 ["--foo", "decompose"], ["decompose", "--mode", "bad"],
                 ["table", "--limit", "q"], ["growth", "--X"]]
                + [[name, "--help"] for name in _COMMANDS]
                + [[name, "--no-such-flag"] for name in _COMMANDS])


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda a: " ".join(a) or "-")
def test_help_and_usage_texts_match_the_full_parser(argv, capsys, monkeypatch):
    # parse_config builds only the invoked command's options; what it
    # prints must not tell
    monkeypatch.setenv("COLUMNS", "80")
    full = _parser_output(lambda a: _build_parser().parse_args(a), argv,
                          capsys)
    assert _parser_output(parse_config, argv, capsys) == full


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_command_parser_prints_as_its_subparser(name, capsys, monkeypatch):
    # parse_config reads a command's arguments with that command's parser
    # alone: its help, its usage and its message for a bad value must be
    # the subparser's, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[name]
    alone = _command_parser(name)
    assert alone.format_help() == sub.format_help()
    assert alone.format_usage() == sub.format_usage()
    code, out, err = _parser_output(alone.parse_args, ["--format", "xml"],
                                    capsys)
    assert (code, out, err) == _parser_output(sub.parse_args,
                                              ["--format", "xml"], capsys)
    assert code == 2 and err.startswith("usage: eulerphi " + name)
    assert f"eulerphi {name}: error: argument --format: invalid" in err


def test_parser_holds_only_the_invoked_commands_options():
    def option_counts(parser):
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {name: len(p._actions) for name, p in sub.choices.items()}

    full = option_counts(_build_parser())
    assert list(full) == list(_COMMANDS) and min(full.values()) > 10
    for name in _COMMANDS:
        assert option_counts(_build_parser(name)) == {
            other: full[other] if other == name else 1 for other in full}


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["decompose"]) == 2          # missing --x
    capsys.readouterr()


def test_error_class_exit_codes(capsys):
    assert main(["series-check", "--s", "1.5"]) == SOutOfRange.exit_code
    assert main(["volterra", "--op", "solve", "--X", "5", "--anchor",
                 "9=auto"]) == AnchorOutOfRange.exit_code
    assert main(["error-term", "--x=-5"]) == XBelowOne.exit_code
    capsys.readouterr()


@pytest.mark.parametrize("command", ["error-term", "decompose"])
def test_float_points_size_their_own_table(command, capsys):
    # x < 300001 in Q, past the auto cap, so the run is in floats, where x
    # rounds up to 300001: the table is sized on that float, not on the
    # exact x it came from
    code, out = run_main([command, "--x", "1,300000.99999999999999999"],
                         capsys)
    assert code == 0
    assert out.splitlines()[2].startswith("300001,")


@pytest.mark.parametrize("argv", [
    ["table", "--n", "100"],
    ["decompose", "--x", "1:50:2.5"],
    ["decompose", "--x", "1:50:2.5", "--mode", "float"],
    ["series-check", "--n", "100"],
    ["verify-identity", "--x", "7.5"],
], ids=lambda v: " ".join(v[:1] + v[-1:]))
def test_readers_of_alpha_refuse_a_phi_only_table(argv, monkeypatch, capsys):
    # a command that reads alpha, given a table sieved for phi alone, exits
    # with ModeUnavailable's code and one line, not an internal error
    monkeypatch.setattr(cli, "_READS_ALPHA", frozenset())
    assert main(argv) == ModeUnavailable.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ModeUnavailable: ") and "reads alpha" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["growth", "error-term", "volterra"])
def test_commands_that_read_phi_build_phi_alone(command, monkeypatch):
    # growth, error-term and volterra read phi only: a table they build at
    # N = 1e6 holds one float64 column (8 MB), not alpha beside it; a table
    # that goes to the cache holds both
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    cfg = parse_config([command])
    N = 10 ** 6
    tracemalloc.start()
    try:
        table = cli.get_table(cfg, zeta_product(), N, "float")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.alpha is None and len(table.phi) == N + 1
    assert held < 1.25 * 8 * (N + 1), held
    for reader in sorted(cli._READS_ALPHA):
        assert cli.get_table(parse_config([reader]), zeta_product(), 100,
                             "float").alpha is not None
    cfg.options["cache_dir"] = "unused"
    monkeypatch.setattr(coeffs, "save_table", lambda table, path: None)
    assert cli.get_table(cfg, zeta_product(), 100, "float").alpha is not None


@pytest.mark.parametrize("argv, refused", [
    (["volterra", "--X", "5"], "exact"),
    (["growth", "--X", "100"], "exact"),
    (["series-check", "--n", "100"], "exact"),
    (["verify-identity", "--x", "5"], "float"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_one_mode_commands_refuse_the_other_mode(argv, refused, capsys):
    # a command whose tables have one number type reads --mode auto and
    # that type's name, and refuses the other
    kept = "float" if refused == "exact" else "exact"
    assert main(argv + ["--mode", refused]) == ModeUnavailable.exit_code
    assert "ModeUnavailable" in capsys.readouterr().err
    for mode in ("auto", kept):
        assert main(argv + ["--mode", mode]) == 0
    capsys.readouterr()


def test_failed_verification_exit_code(monkeypatch, capsys):
    # a wrong candidate, the family built from a table with phi(7) + 1
    # against the true table's E2, fails at the default tolerance
    f1_values = decomp.f1_values

    def changed(xs, table, constants):
        phi = table.phi.copy()
        phi[7] += 1
        return f1_values(xs, dataclasses.replace(table, phi=phi), constants)

    args = ["volterra", "--op", "residual", "--X", "20", "--h", "0.01"]
    assert run_main(args, capsys)[0] == 0
    monkeypatch.setattr(decomp, "f1_values", changed)
    assert run_main(args, capsys)[0] == 1


def test_volterra_probe_reports_a(capsys):
    code, out = run_main(["volterra", "--op", "probe", "--X", "5",
                          "--h", "0.002", "--anchor", "2=3.0"], capsys)
    assert code == 0
    header, row = out.splitlines()[:2]
    cols = dict(zip(header.split(","), row.split(",")))
    a_fit = float(cols["A_fit"])
    # anchor (2, 3) pins A = (3 - 2 f1(2)) / 2
    assert abs(a_fit - 1.4658) < 1e-3


def test_growth_csv_has_sup_line(capsys):
    code, out = run_main(["growth", "--X", "500", "--samples", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,E,ratio"
    assert lines[-1].startswith("# sup=")


def test_exact_decompose_beyond_int_digit_limit(capsys):
    # at x = 12000.5 the exact x f1 and g1/2 have denominators longer than
    # Python's default 4300-digit limit on int -> str conversion
    code, out = run_main(["decompose", "--x", "12000.5", "--mode", "exact"],
                         capsys)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
    assert row["exact_verdict"] == "pass"
    assert row["residual"] == "0"


@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN", "[0.5,NaN]",
                                 "[Infinity,0]", "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "nan-imag", "inf-real",
                              "int-beyond-float"])
def test_non_finite_spec_numbers_are_bad_specs(tmp_path, capsys, bad):
    # json reads NaN, Infinity and ints beyond float range; each is a bad
    # spec (13), from --roots and from a spec file alike, not an internal
    # error or, for a NaN imaginary part, a root let through
    want = BadProductSpec.exit_code
    roots = '{"2":[%s]}' % bad
    assert main(["constants", "--product", "custom", "--degree", "1",
                 "--roots", roots]) == want
    spec = tmp_path / "spec.json"
    for text in ('{"kind":"custom","degree":1,"roots":%s}' % roots,
                 '{"kind":"dirichlet","modulus":4,"values":[0,1,0,%s]}' % bad):
        spec.write_text(text)
        assert main(["constants", "--spec-file", str(spec)]) == want
    assert "internal" not in capsys.readouterr().err


def test_non_numeric_roots_exit_code(tmp_path, capsys):
    custom = ["decompose", "--x", "2.5", "--mode", "float",
              "--product", "custom", "--degree", "1"]
    want = BadProductSpec.exit_code
    assert main(custom + ["--roots", '{"2":["1/2"]}']) == want
    assert main(custom + ["--roots", '{"2":[[0.5,"i"]]}']) == want
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "custom", "degree": 1,
                                "roots": {"2": ["1/2"]}}))
    assert main(["decompose", "--x", "2.5", "--spec-file", str(spec)]) == want
    # malformed structure of the roots object, and spec files that are not
    # a well-formed spec or not JSON at all
    constants = ["constants", "--product", "custom", "--degree", "1"]
    for roots in ('[1]', '{"x":[1]}', '{"2":1}'):
        assert main(constants + ["--roots", roots]) == want
    for text in ('{"kind":"custom","degree":1,"roots":[1]}', "not json",
                 '{"kind":"custom","degree":"1","roots":{"2":[1]}}',
                 '{"kind":"dirichlet","kronecker":"x"}',
                 '{"kind":"dirichlet","modulus":4,"values":5}', "[1]",
                 # a key the kind does not read, or two sources of one
                 # character, is rejected as flags are
                 '{"kind":"dirichlet","kronecker":-4,"modulus":8,'
                 '"values":[0,1,0,-1,0,-1,0,1]}',
                 '{"kind":"dirichlet","kronecker":-4,"modulus":4}',
                 '{"kind":"custom","degree":1,"roots":{"2":[0.5]},'
                 '"defualt":"one"}',
                 '{"kind":"zeta","degree":3}', '{"kind":["zeta"]}'):
        spec.write_text(text)
        assert main(["constants", "--spec-file", str(spec)]) == want
    # --roots text that is not JSON stays a usage error
    assert main(constants + ["--roots", "nope"]) == UsageError.exit_code
    err = capsys.readouterr().err
    assert "Traceback" not in err


def test_internal_error_exit_code(monkeypatch, capsys):
    import eulerphi.cli as cli

    def boom(cfg):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "run_command", boom)
    code = main(["constants"])
    assert code == 36
    assert code != 1 and code not in {cls.exit_code for cls in _error_classes()
                                      if cls is not EulerphiError}
    err = capsys.readouterr().err
    assert err.strip() == "error: internal: RuntimeError: kaput"


def test_closed_stdout_pipe_is_io_error():
    # a reader that stops after the header: the report is far larger than a
    # pipe buffer, so a write hits the closed pipe
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eulerphi.__file__)))
    code = "import sys; from eulerphi.cli import main; sys.exit(main())"
    with subprocess.Popen(
            [sys.executable, "-c", code, "volterra", "--op", "residual",
             "--X", "100", "--h", "0.001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"x,F1,E2,residual\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == IoError.exit_code
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(
        "error: IoError: cannot write report to stdout: ")


def test_commands_do_not_load_openssl():
    # spec_hash takes SHA-256 from CPython's built-in module: hashlib would
    # load _hashlib, which maps OpenSSL's libcrypto into every run
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eulerphi.__file__)))
    code = """if True:
        import os, sys
        import eulerphi.cli
        loaded = lambda: sorted({"hashlib", "_hashlib"} & set(sys.modules))
        print(loaded())
        assert eulerphi.cli.main(["constants", "--output", os.devnull]) == 0
        print(loaded())
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n[]\n"


def test_float_commands_do_not_import_mpmath():
    # zeta(s) comes from products.zeta_value; the test modules import
    # mpmath themselves, so the commands run in a fresh interpreter
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eulerphi.__file__)))
    code = """if True:
        import os, sys
        from eulerphi.cli import main
        for args in (["series-check", "--n", "2000"], ["growth", "--X", "2000"],
                     ["error-term", "--x", "1:2000:9.7", "--mode", "float"],
                     ["decompose", "--x", "1:2000:13.7", "--mode", "float"],
                     ["volterra", "--op", "probe", "--X", "10", "--h", "0.01"]):
            assert main(args + ["--output", os.devnull]) == 0, args
        print(sorted(m for m in sys.modules if m.split(".")[0] == "mpmath"))
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("options", [
    {"kronecker": -4},
    {"modulus": 4, "values": "0,1,0,-1"},
    {"values": "0,1,0,-1"},
    {"degree": 2},
    {"roots": '{"2":[0.5]}'},
    {"product": "custom", "degree": 1, "roots": '{"2":[0.5]}',
     "kronecker": -4},
    {"product": "dirichlet", "kronecker": -4, "degree": 1},
])
def test_options_of_another_product_kind_rejected(tmp_path, capsys, options):
    # options only one product kind reads are a usage error with any other
    # kind, from flags and from a config file alike, not silently dropped
    flags = [a for k, v in options.items() for a in (f"--{k}", str(v))]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(options))
    for args in (["constants"] + flags,
                 ["constants", "--config", str(cfg_path)]):
        with pytest.raises(UsageError, match="is read only with --product"):
            build_spec(parse_config(args))
        assert main(args) == UsageError.exit_code
    assert "internal" not in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {"spec_file": "SPEC", "product": "zeta"},
    {"spec_file": "SPEC", "kronecker": -4},
    {"spec_file": "SPEC", "degree": 1, "roots": '{"2":[0.5]}'},
    {"spec_file": "SPEC", "default": "one"},
    {"product": "dirichlet", "kronecker": -4, "modulus": 4},
    {"product": "dirichlet", "kronecker": -4, "modulus": 4,
     "values": "0,1,0,-1"},
])
def test_two_sources_of_one_product_rejected(tmp_path, capsys, options):
    # a spec file and product flags, or a discriminant and a value table,
    # are a usage error from flags and from a config file alike: neither
    # silently wins
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "zeta"}))
    options = {k: str(spec) if v == "SPEC" else v for k, v in options.items()}
    flags = [a for k, v in options.items()
             for a in (f"--{k.replace('_', '-')}", str(v))]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(options))
    for args in (["constants"] + flags,
                 ["constants", "--config", str(cfg_path)]):
        with pytest.raises(UsageError, match="--spec-file|--kronecker"):
            build_spec(parse_config(args))
        assert main(args) == UsageError.exit_code
    assert "internal" not in capsys.readouterr().err


def test_constants_computes_each_l_value_once(tmp_path, monkeypatch):
    # A1 = 1/L(1, chi) and the L1_chi row read one Euler-Maclaurin sum
    calls = []
    l_value = products.l_value

    def counted(chi, s):
        calls.append(s)
        return l_value(chi, s)

    monkeypatch.setattr(products, "l_value", counted)
    out = tmp_path / "constants.csv"
    assert main(["constants", "--product", "dirichlet", "--kronecker", "377",
                 "--output", str(out)]) == 0
    assert sorted(calls) == [1.0, 2.0]
    rows = dict(line.split(",", 1) for line in out.read_text().splitlines())
    assert float(rows["A1"].split(",")[0]) == 1 / float(
        rows["L1_chi"].split(",")[0])


def test_large_modulus_commands_that_read_only_c(tmp_path, capsys):
    # growth and error-term read C alone; constants, decompose and volterra
    # also read L(1, chi), whose Euler-Maclaurin sum reaches any modulus
    chi = ["--product", "dirichlet", "--kronecker", "401"]
    out = ["--output", str(tmp_path / "report.csv")]
    assert main(["growth", "--X", "1000"] + chi + out) == 0
    assert main(["error-term", "--x", "100.5"] + chi + out) == 0
    for args in (["constants"], ["decompose", "--x", "100.5"],
                 ["volterra", "--op", "residual", "--X", "20", "--h", "0.01"]):
        assert main(args + chi + out) == 0
    assert "internal" not in capsys.readouterr().err


def test_modulus_above_cap_exits_bad_modulus(capsys):
    # refused before a table of |D| values is built
    assert products.MAX_MODULUS < 1000000001
    code = main(["growth", "--X", "10", "--product", "dirichlet",
                 "--kronecker", "1000000001"])
    assert code == BadModulus.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: BadModulus") and "Traceback" not in err


@pytest.mark.parametrize("X, h", [("100000", "0.0001"),
                                  ("1000000", "0.000001")])
def test_oversized_volterra_grid_is_refused_before_any_allocation(X, h,
                                                                  capsys):
    # 1e9 and 1e12 grid points, far beyond memory: refused before the table
    # or the grid is built
    tracemalloc.start()
    try:
        code = main(["volterra", "--op", "residual", "--X", X, "--h", h])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == OutOfMemory.exit_code == 22
    err = capsys.readouterr().err
    assert err.startswith("error: OutOfMemory: grid capped")
    assert peak < 2 ** 20


@pytest.mark.parametrize("args, message", [
    (["table", "--n", "100000000"], "float table capped"),
    (["error-term", "--x", "1:2:1/100000000"], "--x range capped")])
def test_oversized_inputs_are_refused_before_any_allocation(args, message,
                                                            capsys):
    # a 1e8-entry float table (twice the cap of 5e7) and a list of 1e8
    # points: refused before either is built
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == OutOfMemory.exit_code == 22
    err = capsys.readouterr().err
    assert err.startswith(f"error: OutOfMemory: {message}")
    assert peak < 2 ** 20


def test_cli_import_leaves_logging_out():
    # only a rejected cache file is logged, so a run imports logging there
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eulerphi.__file__)))
    code = "import sys, eulerphi.cli; print('logging' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_rejected_cache_file_prints_nothing_by_default(tmp_path):
    # the library logs through the eulerphi logger, which prints nothing
    # unless the application configures logging
    spec, n = zeta_product(), 50
    path = cache_path(str(tmp_path), spec, n)
    with open(path, "wb") as fh:
        fh.write(b"not a cache file")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eulerphi.__file__)))
    code = "import sys; from eulerphi.cli import main; sys.exit(main())"
    run = subprocess.run(
        [sys.executable, "-c", code, "table", "--n", str(n), "--mode",
         "float", "--cache-dir", str(tmp_path), "--output", os.devnull],
        capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert load_table(path, spec, n).phi.tobytes() == \
        phi_table(spec, n, mode="float").phi.tobytes()


def test_rejected_cache_file_is_logged(tmp_path, caplog):
    spec, n = zeta_product(), 50
    path = cache_path(str(tmp_path), spec, n)
    with open(path, "wb") as fh:
        fh.write(b"not an npz file")
    args = ["table", "--n", str(n), "--mode", "float",
            "--cache-dir", str(tmp_path), "--output", str(tmp_path / "t.csv")]
    with caplog.at_level(logging.WARNING, logger="eulerphi"):
        assert main(args) == 0
    [record] = [r for r in caplog.records if r.name == "eulerphi"]
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert path in message and "ValueError" in message
    # the rejected file was rebuilt, so a second run logs nothing
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="eulerphi"):
        assert main(args) == 0
    assert not [r for r in caplog.records if r.name == "eulerphi"]


def _column_span(path, name):
    """The byte range of column name (alpha or phi) in the cache file at
    path: a 256-byte header, then alpha, then phi at a multiple of 64."""
    with open(path, "rb") as fh:
        header = json.loads(fh.read(256))
    size = np.dtype(header["dtype"]).itemsize * (header["N"] + 1)
    start = 256 if name == "alpha" else 256 + -(-size // 64) * 64
    return start, start + size


def _flip_last_byte(name):
    def corrupt(path, spec, n):
        _, end = _column_span(path, name)
        with open(path, "r+b") as fh:
            fh.seek(end - 1)
            byte = fh.read(1)
            fh.seek(end - 1)
            fh.write(bytes([byte[0] ^ 1]))
    return corrupt


def _truncate(path, spec, n):
    os.truncate(path, 5000)


def _short_phi(path, spec, n):
    # phi one entry short, under a header whose CRC matches its bytes
    table = phi_table(spec, n, mode="float")
    _, end = _column_span(path, "phi")
    with open(path, "rb") as fh:
        header = json.loads(fh.read(256))
    header["crc"]["phi"] = zlib.crc32(table.phi[:-1])
    with open(path, "r+b") as fh:
        fh.write(json.dumps(header).ljust(256).encode())
        fh.truncate(end - table.phi.itemsize)


@pytest.mark.parametrize("argv, corrupt, reason", [
    (["growth", "--X", "3000"], _truncate,
     "phi lies past the end of the file"),
    (["growth", "--X", "3000"], _flip_last_byte("phi"),
     "bad CRC-32 for phi"),
    (["table", "--n", "3000", "--mode", "float"], _flip_last_byte("alpha"),
     "bad CRC-32 for alpha"),
    (["error-term", "--x", "1:3000:7.5", "--mode", "float"], _short_phi,
     "phi lies past the end of the file"),
], ids=["truncated", "phi-byte", "alpha-byte", "short-phi"])
def test_corrupt_cache_file_is_rebuilt(tmp_path, caplog, argv, corrupt,
                                       reason):
    # a cache file that fails a check is logged once and rebuilt, and the
    # report is the one a run without the cache writes
    spec, n = zeta_product(), 3000
    cache = tmp_path / "cache"
    path = cache_path(str(cache), spec, n)
    want = tmp_path / "want.csv"
    assert main(argv + ["--no-cache", "--output", str(want)]) == 0
    args = argv + ["--n", str(n), "--cache-dir", str(cache)]
    assert main(args + ["--output", str(tmp_path / "cold.csv")]) == 0
    corrupt(path, spec, n)
    with caplog.at_level(logging.WARNING, logger="eulerphi"):
        assert main(args + ["--output", str(tmp_path / "warm.csv")]) == 0
    [record] = [r for r in caplog.records if r.name == "eulerphi"]
    assert record.levelno == logging.WARNING
    assert path in record.getMessage() and reason in record.getMessage()
    assert (tmp_path / "warm.csv").read_bytes() == want.read_bytes()
    # the rebuilt file loads
    assert load_table(path, spec, n).phi.tobytes() == \
        phi_table(spec, n, mode="float").phi.tobytes()


def test_readers_of_phi_do_not_check_alpha(tmp_path, caplog):
    # a run that reads phi alone never reads alpha, so a flipped alpha
    # byte goes unseen by growth and is caught by table
    spec, n = zeta_product(), 3000
    cache = str(tmp_path)
    args = ["--n", str(n), "--cache-dir", cache, "--output", os.devnull]
    assert main(["table", "--mode", "float"] + args) == 0
    _flip_last_byte("alpha")(cache_path(cache, spec, n), spec, n)
    with caplog.at_level(logging.WARNING, logger="eulerphi"):
        assert main(["growth", "--X", str(n)] + args) == 0
        assert not [r for r in caplog.records if r.name == "eulerphi"]
        assert main(["table", "--mode", "float"] + args) == 0
    [record] = [r for r in caplog.records if r.name == "eulerphi"]
    assert "bad CRC-32 for alpha" in record.getMessage()


# runs that read both columns of a small real and a small complex table
CORRUPTED_RUNS = {
    "real": ["table", "--n", "300", "--mode", "float"],
    "complex": ["table", "--n", "300", "--mode", "float", *NONREAL_ROOT],
}


@functools.cache
def _saved_table(kind):
    """(spec, table, its cache file's bytes, the byte ranges of the header
    and the columns, the report of the CORRUPTED_RUNS run without the
    cache)."""
    argv = CORRUPTED_RUNS[kind]
    spec = build_spec(parse_config(argv))
    table = phi_table(spec, 300, mode="float")
    with tempfile.TemporaryDirectory() as d:
        path, report = os.path.join(d, "t.bin"), os.path.join(d, "report")
        save_table(table, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        spans = {"header": (0, 256), "alpha": _column_span(path, "alpha"),
                 "phi": _column_span(path, "phi")}
        assert main(argv + ["--no-cache", "--output", report]) == 0
        with open(report, "rb") as fh:
            want = fh.read()
    return spec, table, blob, spans, want


@settings(deadline=None)
@given(kind=st.sampled_from(sorted(CORRUPTED_RUNS)),
       where=st.sampled_from(["truncate", "header", "alpha", "phi"]),
       data=st.data())
def test_corrupt_cache_file_loads_or_is_refused(kind, where, data):
    # a cache file cut short, or with a byte of its header or of a column
    # changed, loads with the columns it was saved with, or is refused with
    # CacheMismatch or ValueError; a run on it writes the report of a run
    # without the cache
    spec, table, blob, spans, want = _saved_table(kind)
    blob = bytearray(blob)
    if where == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
    else:
        lo, hi = spans[where]
        i = data.draw(st.integers(lo, hi - 1), label="offset")
        blob[i] ^= data.draw(st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as cache:
        path = cache_path(cache, spec, table.N)
        with open(path, "wb") as fh:
            fh.write(blob)
        for alpha in (True, False):
            try:
                back = load_table(path, spec, table.N, alpha=alpha)
            except (CacheMismatch, ValueError):
                continue
            assert back.phi.tobytes() == table.phi.tobytes()
            if alpha:
                assert back.alpha.tobytes() == table.alpha.tobytes()
        report = os.path.join(cache, "report")
        assert main(CORRUPTED_RUNS[kind]
                    + ["--cache-dir", cache, "--output", report]) == 0
        with open(report, "rb") as fh:
            assert fh.read() == want


@pytest.mark.parametrize("argv, reads_alpha", [
    (["growth"], False),
    (["error-term"], False),
    (["volterra"], False),
    (["table"], True),
    (["series-check"], True),
    (["decompose", "--mode", "float"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_warm_tables_hold_the_columns_their_command_reads(
        tmp_path, monkeypatch, argv, reads_alpha):
    # a warm run reads alpha only when its command reads alpha; what it
    # reads are read-only arrays over the file, not copies
    spec, n = zeta_product(), 2000
    save_table(phi_table(spec, n, mode="float"),
               cache_path(str(tmp_path), spec, n))

    def no_build(*args, **kwargs):
        raise AssertionError("the warm run built its table")

    monkeypatch.setattr(coeffs, "phi_table", no_build)
    cfg = parse_config(argv + ["--cache-dir", str(tmp_path)])
    table = cli.get_table(cfg, spec, n, "float")
    assert (table.alpha is not None) == reads_alpha
    for column in (table.alpha, table.phi):
        if column is not None:
            assert not column.flags.writeable and not column.flags.owndata


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warm_cache_reuse_ops_equal_uncached(tmp_path, monkeypatch):
    # every op of the benchmark's cache-reuse workload (seed 7), run warm
    # after a cold pass has filled the cache, writes the report that the
    # same op writes with --no-cache; no warm op builds a float table
    workloads = _perfbench_module("workloads")
    ops = workloads.build("cache-reuse", 7)
    argvs = workloads.with_cache_dir(ops, str(tmp_path / "cache"))
    for argv in argvs:
        assert main(argv + ["--output", os.devnull]) == 0
    built = []
    phi_table_ = coeffs.phi_table

    def recording(spec, n, mode="auto", **kwargs):
        table = phi_table_(spec, n, mode=mode, **kwargs)
        built.append(table.mode)
        return table

    monkeypatch.setattr(coeffs, "phi_table", recording)
    for i, argv in enumerate(argvs):
        assert main(argv + ["--output", str(tmp_path / f"warm{i}")]) == 0
    assert "float" not in built
    for i, argv in enumerate(argvs):
        uncached = tmp_path / f"uncached{i}"
        assert main(argv + ["--no-cache", "--output", str(uncached)]) == 0
        assert (tmp_path / f"warm{i}").read_bytes() == uncached.read_bytes(), argv
