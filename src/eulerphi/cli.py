"""Batch command-line front-end.

Commands map one-to-one onto library operations:

  constants        C(F), A1, A2 (plus L-values for Dirichlet kinds)
  table            coefficient/totient table construction with caching
  error-term       E(x) or E2(x) at a list of x values
  decompose        E2 = x f1 + g1/2 pointwise reports
  verify-identity  constant-free reduced identity, exact rationals
  volterra         equation residual / direct solve / homogeneity probe
  growth           |E(x)| / (x (log 2x)^d) scan
  series-check     sum phi(n) n^-s vs zeta(s-1) sum alpha(n) n^-s

Output is CSV (default) or JSON, deterministic for a fixed config: floats are
written with 17 significant digits, exact rationals as p/q strings, and no
timestamps are embedded.  Commands return their report as columns, which
emit_report formats and writes a block of rows at a time; a failed write,
a closed stdout pipe included, is an IoError.  A JSON config file may hold
any long-option value under its dest name; command-line flags win, unknown
keys are rejected.
Float tables are cached under EULERPHI_CACHE_DIR (or --cache-dir) keyed by
spec hash and size; exact tables are always built, since an integral one is
sieved in int64 in about 0.05 s at the exact cap of N = 10^6, and one of
Fractions holds objects, not raw columns.

Exit codes: 0 all requested verifications passed; 1 a verification failed;
2 usage error; 10-35 one code per library error class (its exit_code);
36 an internal error (an uncaught exception that is not a library error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from . import coeffs as _coeffs
from . import csvcells as _csvcells
from . import decomp as _decomp
from . import products as _products
from . import volterra as _volterra
from .errors import (
    AnchorOutOfRange,
    CacheMismatch,
    EulerphiError,
    IoError,
    ModeUnavailable,
    OutOfMemory,
    UsageError,
)

CACHE_ENV = "EULERPHI_CACHE_DIR"

# any other exception escaping a command is a bug in eulerphi, and exits as
# a bare EulerphiError does
_INTERNAL_ERROR_EXIT = EulerphiError.exit_code


# ---------------------------------------------------------------------------
# RunConfig and parsing
# ---------------------------------------------------------------------------

class RunConfig(NamedTuple):
    """Everything one command run needs, after merging flags and config file."""

    command: str
    options: dict


_DEFAULTS = {
    "product": None,
    "kronecker": None,
    "modulus": None,
    "values": None,
    "spec_file": None,
    "degree": None,
    "roots": None,
    "default": None,
    "mode": "auto",
    "n": None,
    "x": None,
    "s": 3.0,
    "X": 20.0,
    "h": 1e-3,
    "anchor": "1.5=auto",
    "A": 0.0,
    "op": "residual",
    "convention": "symmetric",
    "tolerance": 1e-5,
    "samples": 20,
    "x_min": 2,
    "limit": None,
    "output": None,
    "format": "csv",
    "cache_dir": None,
    "no_cache": False,
    "config": None,
}


def _add_common(p: argparse.ArgumentParser, *, tables=True):
    g = p.add_argument_group("product")
    g.add_argument("--product", choices=("zeta", "dirichlet", "custom"))
    g.add_argument("--kronecker", type=int, metavar="D")
    g.add_argument("--modulus", type=int, metavar="Q")
    g.add_argument("--values", metavar="V0,V1,...")
    g.add_argument("--spec-file", metavar="PATH")
    g.add_argument("--degree", type=int)
    g.add_argument("--roots", metavar="JSON")
    g.add_argument("--default", choices=("zero", "one"))
    if tables:
        p.add_argument("--mode", choices=("auto", "exact", "float"))
        p.add_argument("--n", type=int, metavar="N")
        p.add_argument("--cache-dir", metavar="DIR")
        p.add_argument("--no-cache", action="store_true", default=None)
    p.add_argument("--output", metavar="PATH")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--config", metavar="PATH")


_X = ("--x", {"metavar": "LIST|A:B:STEP"})
_GRID = ("--X", {"type": float})

# command -> (its help line, whether it builds a table, the options it adds
# to the common ones)
_COMMANDS = {
    "constants": ("C(F), A1, A2 and L-values", False, ()),
    "table": ("build and export a totient table", True,
              (("--limit", {"type": int, "help": "max rows to export"}),)),
    "error-term": ("E(x) at given x values", True,
                   (_X, ("--convention", {"choices": ("plain", "symmetric")}))),
    "decompose": ("E2 = x f1 + g1/2 reports", True, (_X,)),
    "verify-identity": ("exact constant-free reduced identity", True, (_X,)),
    "volterra": ("equation residual / solve / probe", True, (
        ("--op", {"choices": ("residual", "solve", "probe")}), _GRID,
        ("--h", {"type": float}), ("--A", {"type": float}),
        ("--anchor", {"metavar": "X0=V|X0=auto"}),
        ("--tolerance", {"type": float}))),
    "growth": ("|E(x)|/(x (log 2x)^d) scan", True, (
        _GRID, ("--x-min", {"type": int}), ("--samples", {"type": int}))),
    "series-check": ("Dirichlet series identity at real s > 2", True,
                     (("--s", {"type": float}),)),
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """The options of `command`: the common ones and its own."""
    _, tables, options = _COMMANDS[command]
    _add_common(p, tables=tables)
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The eulerphi parser, with the options of `command` only, or of every
    command when it is None.

    Every command's subparser is added, with its help line, so the
    top-level help and the invalid-choice message do not depend on
    `command`; the options, about 20 per command, are what costs.
    """
    top = argparse.ArgumentParser(
        prog="eulerphi",
        description="Euler totients of polynomial Euler products: error terms, "
                    "their decomposition, and Volterra-equation checks.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            _add_options(p, name)
    return top


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command alone, built as _build_parser builds its
    subparser (add_parser gives it the prog "eulerphi <command>" and no
    other setting), so its help, usage and error messages are the
    subparser's."""
    p = argparse.ArgumentParser(prog=f"eulerphi {command}")
    _add_options(p, command)
    return p


# JSON types a config-file value may take where its flag has no type (a
# string flag); any other such flag takes a JSON string
_FILE_TYPES = {"x": (str, int, float), "roots": (str, dict, list)}


def _option_actions(parser: argparse.ArgumentParser) -> dict:
    """dest -> argparse action, over the options of every command."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for p in sub.choices.values() for a in p._actions}


def _file_value(key: str, v, action: argparse.Action):
    """A config-file value checked against its flag's type and choices, and
    converted by the flag's type as a command-line value would be.

    null stands for an unset option, so it is taken only where the option
    is unset by default.
    """
    if v is None:
        ok = _DEFAULTS[key] is None
    elif isinstance(v, bool) or action.nargs == 0:   # store_true flags
        ok = isinstance(v, bool) and action.nargs == 0
    elif action.type is int:
        ok = isinstance(v, int)
    elif action.type is float:
        ok = isinstance(v, (int, float))
    else:
        ok = isinstance(v, _FILE_TYPES.get(key, str))
    if not ok:
        raise UsageError(f"config key {key!r} has a value of the wrong "
                         f"type: {v!r}")
    if v is None:
        return v
    if action.choices is not None and v not in action.choices:
        raise UsageError(f"config key {key!r} must be one of "
                         f"{', '.join(action.choices)}; got {v!r}")
    try:
        return action.type(v) if action.type is not None else v
    except OverflowError:   # an int beyond float range
        raise UsageError(f"config key {key!r} is out of range: {v!r}")


def parse_config(argv) -> RunConfig:
    """argv -> RunConfig; a --config JSON file fills unset options.

    The top level takes only -h and --version, so the first argument that
    is not a flag names the command, and only its options are built.  When
    that is the first argument, its parser alone reads the rest, as the
    subparser would.  Arguments it leaves over, and any other argv, go to
    the parser with every subparser, whose messages (an unknown argument,
    the top-level help, an unknown command) they need.
    """
    command = next((a for a in argv if not a.startswith("-")), None)
    ns = None
    if argv and argv[0] in _COMMANDS:
        ns, extra = _command_parser(command).parse_known_args(argv[1:])
        ns.command = command
        if extra:
            ns = None
    if ns is None:
        ns = _build_parser(command if command in _COMMANDS else None
                           ).parse_args(argv)
    command = ns.command
    cli = {k: v for k, v in vars(ns).items() if k != "command"}
    opts = dict(_DEFAULTS)
    path = cli.get("config")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except OSError as e:
            raise IoError(f"cannot read config file {path}: {e}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(file_opts, dict):
            raise UsageError("config file must hold a JSON object")
        actions = _option_actions(_build_parser())
        for k, v in file_opts.items():
            if k not in _DEFAULTS or k == "config":
                raise UsageError(f"unknown config key {k!r}")
            opts[k] = _file_value(k, v, actions[k])
    for k, v in cli.items():
        if v is not None:
            opts[k] = v
    cfg = RunConfig(command=command, options=opts)
    _validate(cfg)
    return cfg


# commands whose tables have one number type: --mode may name it or auto,
# never the other
_ONE_MODE = {"verify-identity": "exact", "volterra": "float",
             "growth": "float", "series-check": "float"}


def _validate(cfg: RunConfig) -> None:
    o = cfg.options
    if o["format"] not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {o['format']!r}")
    if o["n"] is not None and o["n"] < 1:
        raise UsageError(f"--n must be >= 1, got {o['n']}")
    only = _ONE_MODE.get(cfg.command)
    if only and o["mode"] not in ("auto", only):
        raise ModeUnavailable(f"{cfg.command} runs in {only} mode only")
    if cfg.command == "volterra" and not o["h"] > 0:
        raise UsageError(f"--h must be > 0, got {o['h']}")
    # json reads NaN and Infinity, so a config file can hold them too
    for key in ("X", "tolerance", "A"):
        if not math.isfinite(o[key]):
            raise UsageError(f"--{key} must be finite, got {o[key]}")
    # no sup or deviation is below a negative tolerance
    if o["tolerance"] < 0:
        raise UsageError(f"--tolerance must be >= 0, got {o['tolerance']}")
    for key in ("samples", "limit"):
        if o[key] is not None and o[key] < 0:
            raise UsageError(f"--{key} must be >= 0, got {o[key]}")


# ---------------------------------------------------------------------------
# Value parsing helpers
# ---------------------------------------------------------------------------

def _parse_number(tok: str):
    tok = tok.strip()
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse number {tok!r}")


# a range point costs about 150 bytes as a Fraction and its float, so this
# many is about the 1.6 GB that the table and grid caps allow
_X_POINTS_CAP = 10 ** 7


def _parse_float(tok: str) -> float:
    """float(Fraction(tok)), bit for bit, without the Fraction where it can.

    A decimal token is float(tok) and a p/q one int(p) / int(q), both
    correctly rounded, as float(Fraction) is.  A token that Fraction's
    grammar may refuse (a space or a sign after the slash), one that
    float() reads as a zero (its -0.0), an infinity or NaN, and any that
    int() or float() refuse go through Fraction, so they are refused as an
    exact run refuses them.  A value beyond the float range is a
    UsageError.
    """
    try:
        if "/" in tok:
            p, q = tok.split("/", 1)
            if p == p.rstrip() and q[:1].isdigit():
                return int(p) / int(q)
        else:
            x = float(tok)
            if x and math.isfinite(x):
                return x
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    try:
        return float(_parse_number(tok))
    except OverflowError:
        raise UsageError(f"{tok.strip()!r} is beyond the float range")


def parse_x_values(text: str, exact: bool) -> list:
    """LIST 'a,b,c' or RANGE 'a:b:step' (inclusive ends when step divides),
    as Fractions when exact and as floats otherwise.

    The floats are those of the Fractions, bit for bit, parsed without
    them: a list's tokens by _parse_float, a range's points as int
    quotients over its common denominator.  A range is counted before it
    is built, and one of more than _X_POINTS_CAP points raises
    OutOfMemory."""
    if text is None:
        raise UsageError("--x is required for this command")
    if isinstance(text, (int, float)):
        text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be A:B:STEP, got {text!r}")
        a, b, step = (_parse_number(t) for t in parts)
        if step <= 0 or b < a:
            raise UsageError(f"range needs B >= A and STEP > 0, got {text!r}")
        count = (b - a) // step + 1
        if count > _X_POINTS_CAP:
            raise OutOfMemory(f"--x range capped at {_X_POINTS_CAP} points, "
                              f"got {count}")
        # a + k step over one common denominator d: one gcd a point, or one
        # correctly rounded int quotient
        d = math.lcm(a.denominator, step.denominator)
        first, stride = int(a * d), int(step * d)
        if exact:
            out = [Fraction(first + k * stride, d) for k in range(count)]
        else:
            out = [(first + k * stride) / d for k in range(count)]
    else:
        parse = _parse_number if exact else _parse_float
        out = [parse(t) for t in text.split(",") if t.strip()]
    if not out:
        raise UsageError(f"empty x list {text!r}")
    return out


def parse_anchor(text: str) -> tuple:
    if "=" not in text:
        raise UsageError(f"--anchor must be X0=V or X0=auto, got {text!r}")
    left, right = text.split("=", 1)
    x0 = float(_parse_number(left))
    if right.strip() == "auto":
        return x0, "auto"
    return x0, float(_parse_number(right))


def _parse_char_values(text: str) -> list:
    return [_parse_number(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# Spec / table / constants assembly
# ---------------------------------------------------------------------------

def _given(o: dict, keys) -> list:
    """The flags of the options among keys that are set."""
    return [f"--{key}" for key in keys if o[key] is not None]


def build_spec(cfg: RunConfig) -> _products.EulerProductSpec:
    """The product of --spec-file, or of --product (zeta when unset) and
    its kind's options; any option that would be ignored is a UsageError."""
    o = cfg.options
    if o["spec_file"]:
        clash = _given(o, ("product", *(
            k for keys in _products._SPEC_KEYS.values() for k in keys)))
        if clash:
            raise UsageError(f"--spec-file defines the product; drop "
                             f"{', '.join(clash)}")
        try:
            return _products.load_spec_file(o["spec_file"])
        except OSError as e:
            raise IoError(f"cannot read spec file {o['spec_file']}: {e}")
    kind = o["product"] or "zeta"
    for other, keys in _products._SPEC_KEYS.items():
        for key in keys:
            if o[key] is not None and kind != other:
                raise UsageError(f"--{key} is read only with --product {other}")
    if kind == "zeta":
        return _products.zeta_product()
    if kind == "dirichlet":
        if o["kronecker"] is not None:
            clash = _given(o, ("modulus", "values"))
            if clash:
                raise UsageError(f"--kronecker and {', '.join(clash)} each "
                                 f"define the character; give one source")
            chi = _products.build_character(kronecker=o["kronecker"])
        elif o["modulus"] is not None and o["values"] is not None:
            vals = [int(v) if isinstance(v, Fraction) and v.denominator == 1
                    else float(v) for v in _parse_char_values(o["values"])]
            chi = _products.build_character(q=o["modulus"], values=vals)
        else:
            raise UsageError("dirichlet product needs --kronecker or "
                             "--modulus plus --values")
        return _products.dirichlet_product(chi)
    if kind == "custom":
        if o["degree"] is None or o["roots"] is None:
            raise UsageError("custom product needs --degree and --roots")
        try:
            raw = json.loads(o["roots"]) if isinstance(o["roots"], str) else o["roots"]
        except json.JSONDecodeError as e:
            raise UsageError(f"--roots is not valid JSON: {e}")
        return _products.spec_from_dict({"kind": "custom", "degree": o["degree"],
                                         "roots": raw,
                                         "default": o["default"] or "zero"})
    raise UsageError(f"unknown product {kind!r}")


# commands that read the alpha column; the others (error-term, volterra,
# growth) read phi alone, and their tables hold phi alone
_READS_ALPHA = frozenset({"table", "decompose", "verify-identity",
                          "series-check"})


def get_table(cfg: RunConfig, spec, n: int, mode: str) -> _coeffs.TotientTable:
    """The run's table up to n: loaded from the float cache when it holds
    it, built otherwise.

    A table holds alpha only when the command reads it (_READS_ALPHA), or
    when it is built to be saved, as a cache file holds both columns; a
    loaded one is read in place from the file (load_table).  A cache file
    that fails to load is logged, rebuilt and overwritten.
    """
    o = cfg.options
    cache_dir = o["cache_dir"] or os.environ.get(CACHE_ENV)
    mode = _coeffs._resolve_mode(spec, n, mode)
    # exact tables are rebuilt every run: loading one costs as much
    use_cache = bool(cache_dir) and not o["no_cache"] and mode == "float"
    if use_cache:
        path = _coeffs.cache_path(cache_dir, spec, n)
        if os.path.exists(path):
            try:
                return _coeffs.load_table(
                    path, spec, n, alpha=cfg.command in _READS_ALPHA)
            except (CacheMismatch, OSError, ValueError) as e:
                # stale or corrupt: logged, and rebuilt below.  logging is
                # imported here, the only place that logs; the library
                # prints nothing unless the application configures logging
                import logging
                log = logging.getLogger("eulerphi")
                if not log.handlers:
                    log.addHandler(logging.NullHandler())
                log.warning("rejected cache file %s: %s: %s", path,
                            type(e).__name__, e)
    table = _coeffs.phi_table(spec, n, mode=mode,
                              alpha=use_cache or cfg.command in _READS_ALPHA)
    if use_cache:
        try:
            _coeffs.save_table(table, path)
        except OSError as e:
            raise IoError(f"cannot write cache file {path}: {e}")
    return table


def _needed_n(cfg: RunConfig, xs) -> int:
    if cfg.options["n"] is not None:
        n = cfg.options["n"]
        top = max(xs)
        if top > n:
            raise UsageError(f"--x contains {top} beyond --n {n}")
        return n
    return max(1, int(math.floor(max(xs))))


def _points_and_table(cfg: RunConfig, spec) -> tuple:
    """The --x points in the number type of the run's mode, and the table
    sized for them.

    A run that is float whatever its points (--mode float, or auto on a
    product without exact tables) parses floats.  Any other resolves its
    mode on the exact points, and when that is float converts them.  A
    float run sizes its table on the float points, since float(x) can
    round up past floor(x).
    """
    mode = cfg.options["mode"]
    floats = mode == "float" or (mode == "auto" and not spec.exact_capable)
    xs = parse_x_values(cfg.options["x"], exact=not floats)
    if not floats:
        mode = _coeffs._resolve_mode(spec, _needed_n(cfg, xs), mode)
        if mode == "float":
            xs = [float(v) for v in xs]
    return xs, get_table(cfg, spec, _needed_n(cfg, xs), mode)


def _meta(cfg: RunConfig, spec, mode: str) -> dict:
    return {"spec_hash": _products.spec_hash(spec), "version": __version__,
            "mode": mode, "command": cfg.command}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _one_row(**values) -> dict:
    """The columns of a one-row report."""
    return {k: [v] for k, v in values.items()}


def cmd_constants(cfg: RunConfig):
    spec = build_spec(cfg)
    l_values = []
    if spec.kind == "dirichlet" and not spec.character.is_principal:
        l_values = [(f"L{s}_chi", _products.l_value(spec.character, float(s)))
                    for s in (1, 2)]
    # A1 = 1/L(1, chi) reads the L1_chi row's value, not a second sum
    cons = _products.compute_constants(
        spec, l1=l_values[0][1] if l_values else None)
    named = [("C_F", cons.c), ("A1", cons.a1), ("A2", cons.a2)] + l_values
    columns = {"name": [name for name, _ in named],
               "value": [v.value for _, v in named],
               "bound": [v.bound for _, v in named],
               "bound_kind": [v.bound_kind for _, v in named]}
    return {"meta": _meta(cfg, spec, "float"), "columns": columns}, True


def cmd_table(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    n = o["n"] or 1000
    table = get_table(cfg, spec, n, o["mode"])
    _coeffs._require_alpha(table, "table")
    limit = n if o["limit"] is None else min(o["limit"], n)
    rows = slice(1, limit + 1)
    columns = {"n": np.arange(1, limit + 1), "alpha": table.alpha[rows],
               "phi": table.phi[rows]}
    report = {"meta": _meta(cfg, spec, table.mode), "columns": columns}
    if table.exact and type(table.phi[0]) is not Fraction:
        columns["cumulative"] = _coeffs._int_running_sum(columns["phi"])
        # exact values, spelled "1" in JSON like a Fraction's p/q
        report["exact_columns"] = ["alpha", "phi", "cumulative"]
        return report, True
    # a Fraction or float table: the running sum of phi only over the
    # exported rows
    cumulative = _coeffs.phi_sums(table, range(limit + 1))
    if table.exact:
        cumulative = [cumulative[k] for k in range(limit + 1)]
    columns["cumulative"] = cumulative[rows]
    return report, True


def cmd_error_term(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    xs, table = _points_and_table(cfg, spec)
    c = _products.c_constant(spec)
    # float(x) ** 2 is libm's pow, which numpy's square need not match
    bound = c.bound * np.array([float(x) ** 2 for x in xs])
    columns = {
        "x": xs if table.exact else np.array(xs, dtype=np.float64),
        "value": _coeffs.error_term_batch(table, c, xs, o["convention"]),
        "bound": bound}
    return {"meta": _meta(cfg, spec, table.mode), "columns": columns}, True


def cmd_decompose(cfg: RunConfig):
    spec = build_spec(cfg)
    xs, table = _points_and_table(cfg, spec)
    cons = _products.compute_constants(spec)
    columns = _decomp.decompose_columns(xs, table, cons)
    ok = "fail" not in columns["exact_verdict"]
    return {"meta": _meta(cfg, spec, table.mode), "columns": columns}, ok


def cmd_verify_identity(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    xs = parse_x_values(o["x"], exact=True)
    n = _needed_n(cfg, xs)
    table = get_table(cfg, spec, n, "exact")
    results = _decomp.verify_identity_batch(xs, table)
    columns = {"x": [x for x, _, _ in results],
               "verdict": ["pass" if good else "fail"
                           for _, good, _ in results],
               "residual": [res for _, _, res in results]}
    ok = all(good for _, good, _ in results)
    return {"meta": _meta(cfg, spec, "exact"), "columns": columns}, ok


def cmd_volterra(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    X, h = float(o["X"]), float(o["h"])
    # a grid that would be refused is refused before its table is built;
    # held for the run, so its checks and GridFunctions share this one
    grid = _volterra.make_grid(X, h)  # noqa: F841
    n = o["n"] or int(math.ceil(X))
    table = get_table(cfg, spec, n, "float")
    cons = _products.compute_constants(spec)
    e2p = _coeffs.make_e2(table, cons.c)
    tol = o["tolerance"]

    if o["op"] == "residual":
        fam = _volterra.solution_family(table, cons, o["A"])
        rep = _volterra.residual(fam, e2p, X, h)
        anchor = {}
    else:
        x0, v0 = parse_anchor(o["anchor"])
        if not 0 < x0 <= X:
            raise AnchorOutOfRange(f"anchor x0 = {x0} outside (0, {X}]")
        if v0 == "auto":
            v0 = x0 * _decomp.f1_closed(x0, table, cons)
        sol = _volterra.solve_from_e2(e2p, X, h, (x0, v0))
        rep = _volterra.residual(sol, e2p, X, h)
        anchor = {"anchor_x0": x0, "anchor_value": v0}
    summary = {"sup": rep.sup, "argmax": rep.argmax}
    meta = _meta(cfg, spec, "float")

    if o["op"] == "probe":
        # the solved function minus the base x f1(x) must be A x
        diff = _volterra.GridFunction(
            values=sol.values - sol.xs * _decomp.f1_values(sol.xs, table, cons),
            X=X, h=h)
        a_fit, deviation = _volterra.homogeneous_probe(diff)
        columns = _one_row(A_fit=a_fit, deviation=deviation, **anchor)
        return ({"meta": meta, "columns": columns, "summary": summary},
                deviation <= max(tol, 10 * rep.sup * X))

    columns = {"x": rep.xs, "F1": rep.values, "E2": rep.e2,
               "residual": rep.residuals}
    return ({"meta": meta, "columns": columns,
             "summary": {**summary, **anchor}}, rep.sup <= tol)


def cmd_growth(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    X = int(o["X"])
    n = o["n"] or X
    if X > n:
        raise UsageError(f"--X {X} beyond --n {n}")
    table = get_table(cfg, spec, n, "float")
    c = _products.c_constant(spec)
    rep = _coeffs.growth_scan(table, c, X, samples=o["samples"],
                              x_min=o["x_min"])
    columns = {"x": [x for x, _, _ in rep.rows],
               "E": [e for _, e, _ in rep.rows],
               "ratio": [r for _, _, r in rep.rows]}
    summary = {"sup": rep.sup, "argmax": rep.argmax}
    return {"meta": _meta(cfg, spec, "float"), "columns": columns,
            "summary": summary}, True


def cmd_series_check(cfg: RunConfig):
    o = cfg.options
    spec = build_spec(cfg)
    n = o["n"] or 10 ** 5
    table = get_table(cfg, spec, n, "float")
    rep = _coeffs.series_identity_check(spec, o["s"], n, table=table)
    columns = _one_row(s=rep.s, N=rep.N, lhs=rep.lhs, rhs=rep.rhs,
                       diff=rep.diff, bound=rep.bound,
                       bound_kind=rep.bound_kind, ok=rep.ok)
    return {"meta": _meta(cfg, spec, "float"), "columns": columns}, rep.ok


_RUNNERS = {
    "constants": cmd_constants,
    "table": cmd_table,
    "error-term": cmd_error_term,
    "decompose": cmd_decompose,
    "verify-identity": cmd_verify_identity,
    "volterra": cmd_volterra,
    "growth": cmd_growth,
    "series-check": cmd_series_check,
}


def run_command(cfg: RunConfig):
    """Dispatch; returns (report data, all-verifications-passed)."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt_csv(v) -> str:
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


def _json_ready(v):
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
        return {k: _json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_ready(x) for x in v]
    return v


# rows are formatted and written a block at a time: a report never sits in
# memory as one string
_BLOCK_ROWS = 8192


def _row_count(columns: dict) -> int:
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"report columns differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _blocks(columns: dict):
    """Each block of up to _BLOCK_ROWS rows, as one list of Python values per
    column (numpy arrays through .tolist())."""
    for lo in range(0, _row_count(columns), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        yield [c[lo:hi].tolist() if isinstance(c, np.ndarray) else c[lo:hi]
               for c in columns.values()]


def _column_format(column) -> Optional[str]:
    """The %-format of every cell of a float64 or integer array; None for any
    other column, whose cells go through _fmt_csv one by one."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return "%.17g"
        if np.issubdtype(column.dtype, np.integer):
            return "%d"
    return None


def _write_csv(data: dict, out) -> None:
    """A header line, one line per row and the summary line, a block of rows
    at a time.

    When every column is a float64 or integer array, each block's cells are
    spelled in numpy (csvcells.csv_text): the bytes of '%.17g' and '%d'.
    Any other column sends the block through one % or _fmt_csv per cell.
    """
    columns = data["columns"]
    if _row_count(columns):
        out.write(",".join(columns) + "\n")
        formats = [_column_format(c) for c in columns.values()]
        if all(formats):
            for text in _csvcells.csv_text(list(columns.values()),
                                           _BLOCK_ROWS):
                out.write(text)
        else:
            for block in _blocks(columns):
                cells = [map(fmt.__mod__ if fmt else _fmt_csv, col)
                         for fmt, col in zip(formats, block)]
                out.write("".join(",".join(row) + "\n"
                                  for row in zip(*cells)))
    summary = data.get("summary")
    if summary:
        out.write("# " + " ".join(f"{k}={_fmt_csv(v)}"
                                  for k, v in summary.items()) + "\n")


def _nested(value, depth: int = 1) -> str:
    """json.dumps(value, indent=2) as a value at depth levels of indent:
    1 for a value of the top-level object, 3 for a value of a row."""
    return json.dumps(_json_ready(value), indent=2).replace(
        "\n", "\n" + "  " * depth)


def _json_cell(v) -> str:
    """A row value as json.dump(indent=2) spells it: a complex cell's
    [re, im] pair laid out over lines at a row value's depth, any other
    cell on one line, where json's C encoder spells it."""
    v = _json_ready(v)
    return _nested(v, 3) if isinstance(v, list) else json.dumps(v)


def _json_rows(columns: dict, exact):
    """block -> the text of its rows as json.dump(indent=2) lays them out
    inside "rows": [...], without the brackets.

    Each row is one % template of that layout: %r spells a cell of a
    finite float64 array as json does, repr, and %d a cell of an integer
    array.  A column named in exact holds integers that are exact values,
    spelled as strings like a Fraction's p/q: its cells take "%d", quoted,
    which spells an int64 cell and a Python int of any size alike.  Every
    other cell (of a list, a complex array, or a float array holding NaN
    or an infinity, which json spells NaN, Infinity and -Infinity) is
    spelled by _json_cell.
    """
    formats = []
    for name, c in columns.items():
        fmt = _column_format(c)
        if fmt == "%.17g":
            fmt = "%r" if np.isfinite(c).all() else None
        formats.append('"%d"' if name in exact else fmt)
    template = "    {\n" + ",\n".join(
        f"      {json.dumps(key).replace('%', '%%')}: {fmt or '%s'}"
        for key, fmt in zip(columns, formats)) + "\n    }"

    def rows(block):
        block = [col if fmt else map(_json_cell, col)
                 for col, fmt in zip(block, formats)]
        return ",\n".join(map(template.__mod__, zip(*block)))
    return rows


def _write_json(data: dict, out) -> None:
    """The bytes of json.dump({meta, rows[, summary]}, indent=2), with the
    rows spelled from the columns by one % template (_json_rows), a block
    at a time."""
    columns = data["columns"]
    out.write('{\n  "meta": ' + _nested(data["meta"]) + ',\n  "rows": ')
    rows = _json_rows(columns, data.get("exact_columns", ()))
    opening = "[\n"
    for block in _blocks(columns):
        out.write(opening + rows(block))
        opening = ",\n"
    out.write("[]" if opening == "[\n" else "\n  ]")
    if "summary" in data:
        out.write(',\n  "summary": ' + _nested(data["summary"]))
    out.write("\n}\n")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def emit_report(data: dict, format: str = "csv",
                path: Optional[str] = None) -> None:
    """Write {meta, columns[, summary]} as CSV (a header row, then one line
    per row) or as JSON {meta, rows[, summary]}, a block of rows at a time.

    An optional "exact_columns" key names integer columns that hold exact
    values: JSON spells their cells as strings ("-1"), as it spells a
    Fraction, and CSV as it spells any integer.

    A failed write, to --output or to stdout, is an IoError.  When stdout's
    reader has gone (a closed pipe), stdout is pointed at os.devnull so that
    the flush at interpreter exit does not fail a second time.
    """
    if format not in _WRITERS:
        raise UsageError(f"format must be csv or json, got {format!r}")
    write = _WRITERS[format]
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write(data, fh)
        except OSError as e:
            raise IoError(f"cannot write report to {path}: {e}")
        return
    try:
        write(data, sys.stdout)
        sys.stdout.flush()
    except OSError as e:
        if isinstance(e, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise IoError(f"cannot write report to stdout: {e}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # exact rationals are written to reports as p/q, and their digits can
    # exceed Python's default int <-> str limit of 4300
    sys.set_int_max_str_digits(0)
    try:
        cfg = parse_config(argv)
        data, ok = run_command(cfg)
        emit_report(data, cfg.options["format"], cfg.options["output"])
    except EulerphiError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:
        # a bug, not a failed verification: keep it apart from exit code 1
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return _INTERNAL_ERROR_EXIT
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
