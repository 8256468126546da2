"""Command-line surface: parsing, reports, determinism, caching, exit codes."""

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
    EXIT_CODES,
    build_spec,
    emit_report,
    exit_code_for,
    main,
    parse_anchor,
    parse_config,
    parse_x_values,
    run_command,
)
import eulerphi
from eulerphi import coeffs
from eulerphi.coeffs import cache_path, load_table, phi_table
from eulerphi.errors import (
    AnchorOutOfRange,
    BadProductSpec,
    CacheMismatch,
    IoError,
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
    assert cfg.product == "zeta"
    assert cfg.prime_cutoff == 10 ** 6


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
    cfg = parse_config(["decompose", "--config", str(cfg_path)])
    assert cfg.x == "2.5,7.5" and cfg.mode == "float"
    # CLI flag wins over the file value
    cfg = parse_config(["decompose", "--config", str(cfg_path), "--x", "3"])
    assert cfg.x == "3"


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
    cfg = parse_config(["volterra", "--config", str(cfg_path)])
    assert cfg.X == 100.0 and isinstance(cfg.X, float)
    assert (cfg.h, cfg.samples, cfg.n, cfg.no_cache, cfg.op, cfg.x,
            cfg.roots) == (0.01, 3, None, True, "probe", 2.5, {"2": [0.5]})


def test_exit_code_map_is_distinct():
    codes = list(EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert exit_code_for(SOutOfRange("s")) == EXIT_CODES[SOutOfRange]
    assert exit_code_for(RootOutOfDisk("r")) == EXIT_CODES[RootOutOfDisk]


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
    args = ["table", "--n", "500", "--mode", "exact"]
    assert main(args + ["--output", str(out1)]) == 0
    assert os.listdir(tmp_path / "cache")   # something was cached
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_old_cache_format_is_rejected_and_rebuilt(tmp_path):
    # format 2 (p/q text columns) and format 3 (int blobs), both with the
    # fourth column, sum_{n<=k} phi(n)/n, that format 4 no longer stores
    spec, n = zeta_product(), 60
    table = phi_table(spec, n, mode="exact")
    path = cache_path(str(tmp_path), spec, n, "exact")
    ratio_cumsum = [Fraction(0)]
    for k in range(1, n + 1):
        ratio_cumsum.append(ratio_cumsum[-1] + table.phi[k] / k)
    names = ("alpha", "phi", "cumulative", "ratio_cumsum")
    columns = dict(zip(names, (table.coeffs.alpha, table.phi,
                               table.cumulative, ratio_cumsum)))
    text_columns = {
        name: np.frombuffer("\n".join(map(str, c)).encode("ascii"),
                            dtype=np.uint8)
        for name, c in columns.items()}
    blob_columns = {}
    for name, c in columns.items():
        blob_columns[name], blob_columns[name + "_len"] = (
            coeffs._fraction_blob(c))
    for version, old_columns in ((2, text_columns), (3, blob_columns)):
        header = json.dumps({"version": version, "spec_hash": spec_hash(spec),
                             "N": n, "mode": "exact"}, sort_keys=True)
        np.savez_compressed(path, header=np.array(header), **old_columns)
        with pytest.raises(CacheMismatch):
            load_table(path, spec, n, "exact")
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        args = ["table", "--n", str(n), "--mode", "exact"]
        assert main(args + ["--no-cache", "--output", str(cold)]) == 0
        assert main(args + ["--cache-dir", str(tmp_path),
                            "--output", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert load_table(path, spec, n, "exact") == table
        with np.load(path) as z:
            assert sorted(z.files) == ["alpha", "alpha_len", "cumulative",
                                       "cumulative_len", "header", "phi",
                                       "phi_len"]


# SHA-256 of exact reports that hold no constant (C, A1), so no float bit
# can move them: any change of their bytes is a change of the exact values
DEFAULT_ONE = ["--product", "custom", "--degree", "2", "--roots",
               '{"2":[0.5,0.25],"3":[0.5,0.25],"5":[0.5,0.25]}',
               "--default", "one"]
GOLDEN_REPORTS = [
    (["table", "--n", "3000", "--mode", "exact"],
     "3699499c75a6891ffab26304fd85a498c94ca92cbe3d4de5850b499d5652c5f3"),
    (["table", "--n", "3000", "--mode", "exact"] + DEFAULT_ONE,
     "ff3f925004d9a5c58dba9c0967dd88ea6d67745a184dde92066978cbfbfca124"),
    (["verify-identity", "--product", "dirichlet", "--kronecker", "-4",
      "--x", "1:300:1/7"],
     "afff6ec32e99cc7fe6b918dd8ea30f7c6cb177ac7e69a977714e16bce888db64"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS)
def test_exact_reports_match_golden_digests(tmp_path, args, digest):
    out = tmp_path / "report.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["decompose"]) == 2          # missing --x
    capsys.readouterr()


def test_error_class_exit_codes(capsys):
    assert main(["series-check", "--s", "1.5"]) == EXIT_CODES[SOutOfRange]
    assert main(["volterra", "--op", "solve", "--X", "5", "--anchor",
                 "9=auto"]) == EXIT_CODES[AnchorOutOfRange]
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


def test_non_numeric_roots_exit_code(tmp_path, capsys):
    custom = ["decompose", "--x", "2.5", "--mode", "float",
              "--product", "custom", "--degree", "1"]
    want = EXIT_CODES[BadProductSpec]
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
                 '{"kind":"dirichlet","modulus":4,"values":5}', "[1]"):
        spec.write_text(text)
        assert main(["constants", "--spec-file", str(spec)]) == want
    # --roots text that is not JSON stays a usage error
    assert main(constants + ["--roots", "nope"]) == EXIT_CODES[UsageError]
    err = capsys.readouterr().err
    assert "Traceback" not in err


def test_internal_error_exit_code(monkeypatch, capsys):
    import eulerphi.cli as cli

    def boom(cfg):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "run_command", boom)
    code = main(["constants"])
    assert code == 36
    assert code != 1 and code not in EXIT_CODES.values()
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
        assert proc.wait(timeout=120) == EXIT_CODES[IoError]
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
        assert main(args) == EXIT_CODES[UsageError]
    assert "internal" not in capsys.readouterr().err


def test_library_logger_prints_nothing_by_default():
    handlers = logging.getLogger("eulerphi").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_rejected_cache_file_is_logged(tmp_path, caplog):
    spec, n = zeta_product(), 50
    path = cache_path(str(tmp_path), spec, n, "float")
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
