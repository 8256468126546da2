"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py PASS_DIR [--trace]   run the ops, print results
    python3 perfbench/worker.py --setup-only         import, time the kernel

The worker imports `eulerphi.cli` from this checkout's `src/`, prints `ready`
(the parent times set-up up to that line), then calls
`eulerphi.cli.main(argv)` for each op of PASS_DIR/ops.json in turn, one after
another in this one thread.  Op i's stdout and stderr go to the files
PASS_DIR/out-i.txt and PASS_DIR/err-i.txt, as a user's shell would send them
to a file or pipe, so the worker holds no report text.  Before each op and
after the last it times `reference_kernel`.  It then prints one JSON line:
per-op exit code, error and wall time, the pass's wall time, the reference
times, its peak RSS and, with --trace, the spans.  With --setup-only it
prints only the reference times.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import zlib
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the work eulerphi does.

    Fraction sums, strided numpy updates and float formatting, then a
    third as much time in whole-array numpy passes and zlib compression,
    as in table builds and save_table: its time tracks how fast the shared
    CPU runs this process at that moment.  Interpreted and native code speed
    up by different factors when the host gets faster, so the kernel holds
    both.  Its arrays are small, so it never sets the worker's peak RSS.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction((-1) ** k, k)
    a = np.ones(25_000)
    for m in range(2, 1500):
        a[m::m] += 1.0 / m
    vals = a[:2000].tolist()
    for _ in range(10):
        ",".join("%.17g" % v for v in vals)
    b = np.sqrt(np.arange(1.0, 25_001.0))
    for _ in range(40):
        b = np.cumsum(b) / b.sum()
    zlib.compress(b[:12_500].tobytes(), 6)
    return time.perf_counter() - t0


def _run_op(cli, argv: list[str], out_path: Path, err_path: Path) -> dict:
    rc, error = None, None
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an uncaught error is a failed op, not a dead run
            error = f"{type(e).__name__}: {e}"
        wall_s = time.perf_counter() - t0
    return {"rc": rc, "error": error, "wall_s": wall_s}


def main(argv: list[str]) -> int:
    import eulerphi.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"eulerphi imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    stdout = sys.stdout
    stdout.write("ready\n")
    stdout.flush()
    if argv[0] == "--setup-only":
        refs = [reference_kernel() for _ in range(3)]
        stdout.write(json.dumps({"ref_s": refs}) + "\n")
        return 0

    pass_dir = Path(argv[0])
    ops = json.loads((pass_dir / "ops.json").read_text(encoding="utf-8"))
    tracer = None
    if "--trace" in argv:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    results, refs = [], []
    for i, op_argv in enumerate(ops):
        refs.append(reference_kernel())
        if tracer:
            tracer.op = i
        results.append(_run_op(cli, op_argv, pass_dir / f"out-{i}.txt",
                               pass_dir / f"err-{i}.txt"))
    refs.append(reference_kernel())
    run_s = sum(r["wall_s"] for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stdout.write(json.dumps({"run_s": run_s, "ref_s": refs, "peak_rss_mb": rss_mb,
                             "ops": results,
                             "spans": tracer.spans if tracer else None}) + "\n")
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
