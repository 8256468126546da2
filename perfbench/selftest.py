"""Self-tests of the benchmark: generator, checker and span arithmetic.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from unittest import mock
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(10)


def _shape(ops):
    """Everything about an op list that sets its work, but not the seed's picks."""
    out = []
    for op in ops:
        argv = list(op["argv"])
        kinds = None
        if "--x" in argv:
            i = argv.index("--x") + 1
            xs = [Fraction(t) for t in argv[i].split(",")]
            kinds = [x.denominator for x in xs]
            argv[i] = len(xs)
        if "--kronecker" in argv:
            argv[argv.index("--kronecker") + 1] = "D"
        out.append((argv, kinds))
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.build(w, 7), workloads.build(w, 7))

    def test_seeds_change_points_not_work(self):
        for w in workloads.WORKLOADS:
            shapes = {json.dumps(_shape(workloads.build(w, s))) for s in SEEDS}
            self.assertEqual(len(shapes), 1, w)
            argvs = {json.dumps([op["argv"] for op in workloads.build(w, s)])
                     for s in SEEDS}
            self.assertEqual(len(argvs), len(SEEDS), w)

    def test_discriminants_from_fixed_lists(self):
        for s in SEEDS:
            for w, allowed in (("exact-identity", workloads.EXACT_DISCRIMINANTS),
                               ("float-scan", workloads.FLOAT_DISCRIMINANTS)):
                for op in workloads.build(w, s):
                    if "--kronecker" in op["argv"]:
                        d = int(op["argv"][op["argv"].index("--kronecker") + 1])
                        self.assertIn(d, allowed)

    def test_one_point_per_stratum(self):
        import random
        xs = workloads.stratified_points(random.Random(1), 30, 1, 301)
        self.assertEqual([int((x - 1) // 10) for x in xs], list(range(30)))
        self.assertEqual([x.denominator for x in xs[:3]], [1, 2, 7])
        self.assertTrue(all(x >= 1 for x in xs))

    def test_cache_placeholder_filled(self):
        ops = workloads.build("cache-reuse", 0)
        argvs = workloads.with_cache_dir(ops, "/tmp/c")
        self.assertTrue(all("--cache-dir" in a and "/tmp/c" in a for a in argvs))
        self.assertNotIn(workloads.CACHE_PLACEHOLDER, json.dumps(argvs))


def _result(text: str) -> dict:
    return {"rc": 0, "error": None, "stderr": "", "text": text}


ZETA = {"kind": "zeta"}


class CheckerTest(unittest.TestCase):
    def test_verify_residual(self):
        chk = {"kind": "verify", "x": ["3", "7/2"]}
        good = "x,verdict,residual\n3,pass,0\n7/2,pass,0\n"
        self.assertIsNone(check.check_op(chk, _result(good), []))
        bad = good.replace("7/2,pass,0", "7/2,pass,1/3")
        self.assertIn("residual", check.check_op(chk, _result(bad), []))

    def _decompose_text(self, xs, e2_shift=0, residual="0"):
        oracle = check.oracle_for(ZETA)
        c = Fraction(oracle.c)
        rows = ["x,E2,x_f1,half_g1,residual,exact_verdict"]
        for x in xs:
            xq = Fraction(x)
            e2 = oracle.e2_sum(xq) - c * xq * xq + e2_shift
            xf1 = Fraction(5, 3) * xq
            rows.append(f"{x},{e2},{xf1},{e2 - xf1},{residual},pass")
        return "\n".join(rows) + "\n"

    def test_decompose_exact_rows(self):
        xs = ["10", "25/2", "100/7", "40"]
        chk = {"kind": "decompose_exact", "spec": ZETA, "x": xs,
               "sample": [0, 1, 2, 3]}
        self.assertIsNone(check.check_op(chk, _result(self._decompose_text(xs)), []))
        bad = self._decompose_text(xs, residual="1/9")
        self.assertIn("residual", check.check_op(chk, _result(bad), []))
        # a wrong cumulative sum at one x implies a different C
        text = self._decompose_text(xs).splitlines()
        e2 = Fraction(text[2].split(",")[1]) + 1
        cells = text[2].split(",")
        cells[1], cells[3] = str(e2), str(e2 - Fraction(cells[2]))
        text[2] = ",".join(cells)
        self.assertIn("constants", check.check_op(chk, _result("\n".join(text)), []))

    def test_error_term_changed_float(self):
        oracle = check.oracle_for(ZETA)
        xs = ["100", "201/2", "2500"]
        rows = ["x,value,bound"]
        for x in xs:
            xv = float(Fraction(x))
            v = float(oracle.e2_sum(Fraction(x))) - oracle.c * xv * xv
            rows.append(f"{xv!r},{v!r},1e-3")
        chk = {"kind": "error_term_float", "spec": ZETA, "x": xs}
        text = "\n".join(rows) + "\n"
        self.assertIsNone(check.check_op(chk, _result(text), []))
        cells = rows[3].split(",")
        cells[1] = repr(float(cells[1]) + 50.0)
        rows[3] = ",".join(cells)
        self.assertIn("E2", check.check_op(chk, _result("\n".join(rows)), []))

    def test_truncated_cache_output(self):
        cold = _result("n,alpha,phi,cumulative\n1,1,1,1\n2,-1,1,2\n")
        warm = _result("n,alpha,phi,cumulative\n1,1,1,1\n")
        chk = {"kind": "same_as", "op": 0}
        self.assertIsNone(check.check_op(chk, cold, [cold]))
        self.assertIn("differs", check.check_op(chk, warm, [cold]))

    def test_failed_exit_and_exception_count(self):
        chk = {"kind": "verify", "x": ["3"]}
        res = _result("x,verdict,residual\n3,pass,0\n")
        self.assertIn("exit code 1", check.check_op(chk, {**res, "rc": 1}, []))
        self.assertIn("uncaught", check.check_op(
            chk, {**res, "rc": None, "error": "ValueError: x"}, []))

    def test_volterra_grid_rows(self):
        chk = {"kind": "volterra", "op": "solve", "X": 1, "h": 0.25}
        rows = "".join(f"{x},0,0,0\n" for x in (0.125, 0.375, 0.625, 0.875))
        good = "x,F1,E2,residual\n" + rows + "# sup=1e-9 n=4\n"
        self.assertIsNone(check.check_op(chk, _result(good), []))
        short = good.replace("0.875,0,0,0\n", "")
        self.assertIn("grid rows", check.check_op(chk, _result(short), []))
        big = good.replace("sup=1e-9", "sup=1e-3")
        self.assertIn("sup", check.check_op(chk, _result(big), []))

    def test_exact_table_against_oracle(self):
        chk = {"kind": "table", "spec": ZETA, "exact": True, "limit": 4}
        good = "n,alpha,phi,cumulative\n1,1,1,1\n2,-1,1,2\n3,-1,2,4\n4,0,2,6\n"
        self.assertIsNone(check.check_op(chk, _result(good), []))
        bad = good.replace("4,0,2,6", "4,0,3,7")
        self.assertIn("phi(4)", check.check_op(chk, _result(bad), []))


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "ok": True, "attrs": attrs}


class SpanTest(unittest.TestCase):
    def test_self_time_of_synthetic_tree(self):
        tree = [
            _span("cli.run_command", 0.0, 10.0),
            _span("coeffs.phi_table", 1.0, 3.0, 0, mode="float", N=9),
            _span("coeffs.sieve_alpha", 1.5, 2.5, 1, mode="float", N=9),
            _span("decomp.decompose", 4.0, 7.0, 0),
            _span("coeffs.error_term", 4.5, 5.0, 3),
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 1.0, 1.0, 2.5, 0.5])
        m = spans.layer_metrics(tree, run_s=12.0)
        self.assertEqual(m["coeffs.phi_table.float.self_s"], 1.0)
        self.assertEqual(m["coeffs.phi_table.exact.self_s"], 0.0)
        self.assertEqual(m["coeffs.self_s"], 2.5)
        self.assertEqual(m["coeffs.phi_table.entries"], 10)
        self.assertEqual(m["decomp.points"], 1)
        self.assertEqual(m["trace.glue_s"], 2.0)
        total = sum(m[f"{mod}.self_s"] for mod in spans.MODULES)
        self.assertEqual(total + m["trace.glue_s"], m["trace.run_s"])

    def test_overlapping_children_counted_once(self):
        self.assertEqual(spans.covered([(1, 3), (2, 5), (6, 7), (9, 12)], 0, 10), 6)

    def test_wrapper_nesting_and_errors(self):
        clock = iter(range(100)).__next__
        tracer = spans.Tracer(clock=clock)

        def boom():
            raise ValueError("x")

        inner = tracer.wrap("decomp.g1", boom)
        outer = tracer.wrap("decomp.decompose", lambda: inner())
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual([s["parent"] for s in tracer.spans], [None, 0])
        self.assertEqual([s["ok"] for s in tracer.spans], [False, False])
        self.assertTrue(all(s["end"] > s["start"] for s in tracer.spans))

    def test_install_wraps_every_binding(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        try:
            import eulerphi.coeffs as coeffs
            import eulerphi.decomp as decomp
        except ImportError:
            self.skipTest("eulerphi sources not found")
        import importlib
        modules = [importlib.import_module(f"eulerphi.{m}") for m in spans.MODULES]
        saved = [(m, dict(vars(m))) for m in modules]
        original = decomp.error_term
        try:
            spans.Tracer().install()
            self.assertIs(decomp.error_term, coeffs.error_term)
            self.assertIsNot(decomp.error_term, original)
            self.assertIsNot(coeffs.primes_upto, saved[2][1]["primes_upto"])
            self.assertIs(decomp.sawtooth, saved[3][1]["sawtooth"])
        finally:
            for m, attrs in saved:
                vars(m).update(attrs)


class WorkerTest(unittest.TestCase):
    def test_env_has_no_cache_dir(self):
        with mock.patch.dict(os.environ, {run.CACHE_ENV: "somewhere"}):
            env = run.worker_env()
        self.assertNotIn(run.CACHE_ENV, env)
        self.assertEqual(env["PYTHONPATH"], str(run.SRC))

    def test_cache_env_is_the_clis(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        try:
            import eulerphi.cli as cli
        except ImportError:
            self.skipTest("eulerphi sources not found")
        self.assertEqual(cli.CACHE_ENV, run.CACHE_ENV)

    def test_op_output_goes_to_files(self):
        class FakeCli:
            @staticmethod
            def main(argv):
                print("x,value")
                print("warn", file=sys.stderr)
                if argv == ["boom"]:
                    raise ValueError("bad")
                return 1

        with tempfile.TemporaryDirectory() as d:
            out, err = Path(d, "out.txt"), Path(d, "err.txt")
            res = worker._run_op(FakeCli, ["ok"], out, err)
            self.assertEqual((res["rc"], res["error"]), (1, None))
            self.assertEqual(out.read_text(), "x,value\n")
            self.assertEqual(err.read_text(), "warn\n")
            res = worker._run_op(FakeCli, ["boom"], out, err)
            self.assertEqual(res["error"], "ValueError: bad")


class SpeedTest(unittest.TestCase):
    def test_each_op_scaled_by_the_kernels_around_it(self):
        nominal = run.REF_NOMINAL_S
        ref = [nominal, nominal, 2 * nominal, 2 * nominal]
        self.assertEqual(run.at_nominal_speed([1.0, 3.0, 4.0], ref),
                         [1.0, 2.0, 2.0])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_metrics(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.PER_LAYER_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
