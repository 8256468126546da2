"""Command-line surface: parsing, reports, determinism, caching, exit codes."""

import json
import math
import os
from fractions import Fraction

import pytest

from eulerphi.cli import (
    EXIT_CODES,
    emit_report,
    exit_code_for,
    main,
    parse_anchor,
    parse_config,
    parse_x_values,
)
from eulerphi.errors import (
    AnchorOutOfRange,
    BadProductSpec,
    IoError,
    RootOutOfDisk,
    SOutOfRange,
    UsageError,
)


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


def test_exit_code_map_is_distinct():
    codes = list(EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert exit_code_for(SOutOfRange("s")) == EXIT_CODES[SOutOfRange]
    assert exit_code_for(RootOutOfDisk("r")) == EXIT_CODES[RootOutOfDisk]


# --- reports -------------------------------------------------------------------

def test_emit_csv_and_json(tmp_path):
    data = {"meta": {"spec_hash": "abc", "version": "0", "mode": "float",
                     "command": "t"},
            "rows": [{"x": Fraction(300, 7), "v": 0.125, "ok": True}],
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
    data = {"meta": {}, "rows": []}
    with pytest.raises(IoError):
        emit_report(data, "csv", str(tmp_path / "no" / "dir" / "x.csv"))


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
    capsys.readouterr()
