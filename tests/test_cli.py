"""Command-line surface: parsing, reports, determinism, caching, exit codes."""

import argparse
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from eulerphi.cli import (
    _COMMANDS,
    _build_parser,
    build_spec,
    emit_report,
    main,
    parse_anchor,
    parse_config,
    parse_x_values,
    run_command,
)
import eulerphi
from eulerphi import coeffs, products
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
    RootOutOfDisk,
    SOutOfRange,
    UsageError,
)
from eulerphi.products import spec_hash, zeta_product


# --- parsing -----------------------------------------------------------------

def test_parse_constants_flags():
    cfg = parse_config(["constants", "--product", "zeta",
                        "--prime-cutoff", "1000000"])
    assert cfg.command == "constants"
    assert cfg.options["product"] == "zeta"
    assert cfg.options["prime_cutoff"] == 10 ** 6


def test_parse_x_range():
    xs = parse_x_values("1:500:0.5", exact=True)
    assert len(xs) == 999
    assert xs[0] == 1 and xs[1] == Fraction(3, 2) and xs[-1] == 500
    assert parse_x_values("2.5,7.5", exact=False) == [2.5, 7.5]
    assert parse_x_values("1:6:1/2", exact=True)[1] == Fraction(3, 2)
    with pytest.raises(UsageError):
        parse_x_values("5:1:1", exact=False)
    with pytest.raises(UsageError):
        parse_x_values("1:2", exact=False)
    with pytest.raises(UsageError):
        parse_x_values("abc", exact=False)


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
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(UsageError, match="bogus_key"):
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
])
def test_non_finite_and_negative_values_are_usage_errors(
        tmp_path, capsys, command, flags, options):
    # no comparison against NaN can pass, and int(inf) or a negative sample
    # count would end as an internal error; json reads NaN and Infinity, so
    # config files are checked the same way as flags
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
    """A columns report as the row dicts of numpy scalars commands built."""
    columns = data["columns"]
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
    assert set(data) <= {"meta", "columns", "summary"}
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
    data["columns"] = dict(fixed, q=[Fraction(k, 7) for k in range(n)],
                           z=xs * (1 - 2j), ok=[k % 2 == 0 for k in range(n)],
                           none=[None] * n)
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


def test_old_cache_format_is_rejected_and_rebuilt(tmp_path):
    # format 3 held a fourth column, sum_{n<=k} phi(n)/n, that format 4 no
    # longer stores; format 4 held float phi as n times phi(n)/n, whose last
    # bits format 5's exact formula moves, here every entry by one ulp
    spec, n = zeta_product(), 60
    table = phi_table(spec, n, mode="float")
    ratio_cumsum = np.cumsum(table.phi / np.maximum(np.arange(n + 1), 1))
    old_columns = {
        3: dict(phi=table.phi, cumulative=table.cumulative,
                ratio_cumsum=ratio_cumsum),
        4: dict(phi=np.nextafter(table.phi, np.inf),
                cumulative=np.nextafter(table.cumulative, np.inf))}
    cold = tmp_path / "cold.csv"
    args = ["table", "--n", str(n), "--mode", "float"]
    assert main(args + ["--no-cache", "--output", str(cold)]) == 0
    for version, columns in old_columns.items():
        cache = tmp_path / f"format{version}"
        path = cache_path(str(cache), spec, n)
        cache.mkdir()
        header = json.dumps({"version": version, "spec_hash": spec_hash(spec),
                             "N": n, "mode": "float"}, sort_keys=True)
        np.savez(path, header=np.array(header), alpha=table.alpha,
                 **columns)
        with pytest.raises(CacheMismatch):
            load_table(path, spec, n)
        warm = tmp_path / f"warm{version}.csv"
        assert main(args + ["--cache-dir", str(cache),
                            "--output", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        back = load_table(path, spec, n)
        for got, want in ((back.alpha, table.alpha), (back.phi, table.phi),
                          (back.cumulative, table.cumulative)):
            assert np.array_equal(got, want)
        with np.load(path) as z:
            assert sorted(z.files) == ["alpha", "cumulative", "header", "phi"]


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
    path = tmp_path / "exact.npz"
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


# SHA-256 of float reports, CSV and JSON, one run of each kind of op the
# float-scan benchmark makes; they pin float bits, so a faster sieve or
# sweep must leave every one where it was.  Float bits can also move with
# the platform (numpy's SIMD log and power, libm): these were taken on
# x86-64 Linux with CPython 3.11 and numpy 2.4.
FLOAT_GOLDEN_REPORTS = [
    (["growth", "--X", "20000", "--samples", "12"],
     "176ff2a45c61a8c44fac1918e66565d8857b8f73eb435561ec746e7547c7b115",
     "3b0df52998e31454872f07dac626275d6e722bceb323ca270dfe2e8850f00cae"),
    (["growth", "--product", "dirichlet", "--kronecker", "8", "--X", "20000"],
     "00ed845a3ecc6e546ecf8b36551919135ac180b54dfcf323258065c9566ecc98",
     "622c5966bf69c6b595b8267030c80b04ba904c545509fcf3d39f430ebc2362b0"),
    (["growth", "--X", "20000"] + COMPLEX_ROOTS,
     "27102b62024f7e8af4626d36f158096f495c65cf502822674e81fd4c57c51ba3",
     "3d60984befb2e74a69581a49f2b4d1457cd4ba407a8fc4a43ed4600e1ae9cb8e"),
    (["series-check", "--n", "20000"],
     "2407de9e341c8b2a6d477a9dc25aeb50a41a550877f3a9544b4faf72d99ea356",
     "5d4e7b995bf750701a0a934921b1c9cf5bbe0daedef221475fe951c176222032"),
    (["error-term", "--x", "1:20000:97.3", "--mode", "float"],
     "d2eb31a913bf653686189583b86a0a823b93273a2b310625493dfc17bc1cc0a2",
     "bfe9ce49bf3b2d9ab10ad561ad877a457a6d88e612464e185c60deab7b44f258"),
    (["decompose", "--x", "1:20000:133.7", "--mode", "float"],
     "397405d7eedb16801ecce92ad736fe0b23f74980d10934dea840faaaa8fab6ac",
     "50ab922406645c1b61e3393b25b104362832800d6d4685cbf6118ecafa3a09db"),
    (["volterra", "--op", "residual", "--X", "10", "--h", "0.01"],
     "d2a2c6cef5ac84fc717ed9f5446537af39b26b3c6aff63d6c8c6278f6037db2b",
     "64705316e875a6574fd88a6043093d532cde67fca9098b7b93a7d0393feb1a18"),
    (["volterra", "--op", "solve", "--X", "10", "--h", "0.001"],
     "7f00ea7497aca2186b6047e1fcaa82695c0d15337f189b7f676ab561227cbf23",
     "53f6ebbf08cb29de66096bb5c948698b2e1f1ab8ba3bdda97445f63ebad1dd64"),
    (["volterra", "--op", "probe", "--X", "10", "--h", "0.01"],
     "247068245a5ff6ee59e365dc80fec412d66daec5ee6fdb8a089af694467ea525",
     "b476076f33ca6af51c237bc04ccff70832d39c809006f5752c9cc1a76f0d8d42"),
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
    capsys.readouterr()


def test_failed_verification_exit_code(capsys):
    code, _ = run_main(["volterra", "--op", "residual", "--X", "5",
                        "--h", "0.01", "--tolerance", "1e-12"], capsys)
    assert code == 1


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


def test_library_logger_prints_nothing_by_default():
    handlers = logging.getLogger("eulerphi").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


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
