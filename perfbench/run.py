"""Benchmark of the eulerphi CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/eulerphi`.  Each pass runs the workload's
ops (see workloads.py) one after another in a fresh worker process, a closed
loop with one client and one thread, in a pass directory of its own under
.perfbench-work/ that holds the op list, the reports and the pass's cache
dir and is removed after the pass.  Passes repeat until the next one would
overrun --seconds; every pass's output is checked (check.py) and the metrics
are medians over passes.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: run_s (a pass's op sequence, set-up
excluded), setup_s (fresh interpreter until eulerphi.cli is imported),
peak_rss_mb (the worker's ru_maxrss), points_per_s (x points reported by
verify-identity, decompose and error-term per second of those ops) and
ops_ok_frac (ops that passed their check, over ops attempted).

Times are scaled to a nominal CPU speed.  On a shared host the speed this
process gets swings by tens of percent within seconds, which would swamp the
program's own changes.  So the worker times a fixed reference kernel before
each op and after the last, and each op's time is multiplied by
REF_NOMINAL_S / (the mean of the kernel times just before and after it).

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py, whose times are raw wall times; wall.run_s and
wall.ref_s are the raw untraced pass and kernel times, and trace.overhead_s
is the traced minus the untraced median run_s, both speed-corrected.  The
spans of the last traced pass are written to
.perfbench-work/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PASS_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 9
# eulerphi.cli takes its cache dir from this variable when an op names none;
# the worker never sees it, so only the ops that pass --cache-dir use a cache
CACHE_ENV = "EULERPHI_CACHE_DIR"
POINT_COMMANDS = ("verify-identity", "decompose", "error-term")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "points_per_s": "1/s", "ops_ok_frac": "ratio"}
# The reference kernel's time at the speed all reported times are scaled to.
REF_NOMINAL_S = 0.03


class PassFailed(Exception):
    pass


def worker_env() -> dict:
    """The worker's environment: eulerphi from SRC, no cache dir by default."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (until it says ready)."""
    env = worker_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        raise PassFailed(f"worker did not start: {(line + err).strip()[-500:]}")
    return proc, setup_s


def speed(ref_s: list[float]) -> float:
    """CPU speed relative to nominal, from the reference kernel's times."""
    return REF_NOMINAL_S / statistics.median(ref_s)


def at_nominal_speed(walls: list[float], ref_s: list[float]) -> list[float]:
    """Op i's wall time at nominal speed, from the kernel times ref_s[i]
    (taken just before it) and ref_s[i + 1] (just after it)."""
    return [w * 2 * REF_NOMINAL_S / (ref_s[i] + ref_s[i + 1])
            for i, w in enumerate(walls)]


def setup_only() -> float:
    """Set-up time of one fresh worker, at nominal speed."""
    proc, setup_s = _spawn(["--setup-only"])
    out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    return setup_s * speed(json.loads(out)["ref_s"])


def run_pass(ops: list[dict], traced: bool, pass_dir: Path) -> dict:
    """One fresh worker over the whole op sequence, with each op's report
    and stderr read back from the files it wrote them to."""
    pass_dir.mkdir()
    try:
        argvs = workloads.with_cache_dir(ops, str(pass_dir / "cache"))
        (pass_dir / "ops.json").write_text(json.dumps(argvs), encoding="utf-8")
        proc, setup_s = _spawn([str(pass_dir)] + (["--trace"] if traced else []))
        try:
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except BaseException as e:  # timeout or SIGTERM: never leave the worker
            proc.kill()
            proc.communicate()
            if isinstance(e, subprocess.TimeoutExpired):
                raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S}s") from e
            raise
        if proc.returncode != 0 or not out.strip():
            raise PassFailed(f"worker exit {proc.returncode}: {err.strip()[-500:]}")
        result = json.loads(out.strip().splitlines()[-1])
        for i, res in enumerate(result["ops"]):
            res["text"] = (pass_dir / f"out-{i}.txt").read_text(encoding="utf-8")
            res["stderr"] = (pass_dir / f"err-{i}.txt").read_text(
                encoding="utf-8")[-2000:]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result["setup_s"] = setup_s
    return result


def check_pass(ops: list[dict], result: dict) -> list[str]:
    """One message per failed op (empty when every output is correct)."""
    failures = []
    for i, (op, res) in enumerate(zip(ops, result["ops"])):
        why = check.check_op(op["check"], res, result["ops"])
        if why:
            failures.append(f"op {i} ({op['argv'][0]}): {why}")
    return failures


def points_per_s(ops: list[dict], result: dict, walls: list[float]) -> float:
    pairs = [(check.reported_points(res), wall)
             for op, res, wall in zip(ops, result["ops"], walls)
             if op["argv"][0] in POINT_COMMANDS]
    return sum(p for p, _ in pairs) / sum(w for _, w in pairs)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(workload, seed)
    WORK.mkdir(exist_ok=True)
    setup_only()  # untimed: fills the bytecode cache of a fresh checkout
    start = time.perf_counter()
    plain, traced, setups = [], [], []
    attempted = failed = 0
    n = 0
    while True:
        is_traced = trace and n % 2 == 1
        t0 = time.perf_counter()
        attempted += len(ops)
        try:
            result = run_pass(ops, is_traced, WORK / f"pass-{os.getpid()}-{n}")
        except PassFailed as e:
            print(f"pass {n}: {e}", file=sys.stderr)
            failed += len(ops)
            result = None
        if result is not None:
            failures = check_pass(ops, result)
            for msg in failures:
                print(f"pass {n}: {msg}", file=sys.stderr)
            failed += len(failures)
            nominal = at_nominal_speed([res["wall_s"] for res in result["ops"]],
                                       result["ref_s"])
            result["nominal_run_s"] = sum(nominal)
            result["points_per_s"] = points_per_s(ops, result, nominal)
            result["report_bytes"] = sum(len(res["text"].encode())
                                         for res in result["ops"])
            del result["ops"]  # checked; the parent keeps no report text
            setups.append(result["setup_s"] * speed(result["ref_s"]))
            (traced if is_traced else plain).append(result)
        n += 1
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        need_more = trace and not (plain and traced) and n < 4
        if not need_more and (elapsed + last > seconds or n >= 100):
            break
    if not plain or (trace and not traced):
        raise PassFailed("no pass completed")
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_only())

    if trace:
        metrics = _layer_metrics(workload, seed, plain, traced)
    else:
        metrics = {
            "run_s": statistics.median(r["nominal_run_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "points_per_s": statistics.median(r["points_per_s"] for r in plain),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(workload, seed, plain, traced) -> dict:
    per_pass = [spans.layer_metrics(r["spans"], r["run_s"]) for r in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["cli.emit_report.bytes"] = statistics.median(
        r["report_bytes"] for r in traced)
    out["wall.run_s"] = statistics.median(r["run_s"] for r in plain)
    out["wall.ref_s"] = statistics.median(
        statistics.median(r["ref_s"]) for r in plain)
    out["trace.overhead_s"] = (
        statistics.median(r["nominal_run_s"] for r in traced)
        - statistics.median(r["nominal_run_s"] for r in plain))
    (WORK / f"trace-{workload}-{seed}.json").write_text(
        json.dumps(traced[-1]["spans"]), encoding="utf-8")
    return {k: _metric(out[k], spans.PER_LAYER_UNITS[k])
            for k in spans.PER_LAYER_UNITS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "eulerphi" / "cli.py").is_file():
        print(f"no eulerphi sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
