"""Checks of the benchmark itself: same seed, same inputs and counts; every
declared metric printed; no result without the library's sources.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Takes about two minutes; it runs each workload for a few ops, and each
end-to-end smoke run for one pass over the workload's ops.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

OPS = {"stream-highest": 4, "files-highest": 2}


def setUpModule():
    run.pin_blas()
    run.import_library()


def trace_ops(name: str, seed: int) -> dict:
    """Run the first OPS[name] ops of a workload traced; return what must
    depend on the seed alone."""
    import tracing
    import workloads

    workload = workloads.make_workloads(run.OUT)[name]
    session = workload.setup(seed)
    tracer = tracing.Tracer()
    c0 = run.conv_counter()
    try:
        with tracer.installed(run.trace_targets(workload.params.q)):
            outcomes = [workloads.run_op(workload, session, i) for i in range(OPS[name])]
    finally:
        session.close()
    summary = tracer.summary()
    return {
        "key": session.fingerprint,
        "ops": [(o.index, o.failed, o.unexpected, o.digest) for o in outcomes],
        "convs": run.conv_counter() - c0,
        "span_convs": summary["ring.conv_mul"]["calls"],
        "g_draws": summary["ideal.derive_T"]["calls"],
        "f_draws": summary["scheme.keygen.F_draw"]["calls"],
        "calls": {k: v["calls"] for k, v in summary.items()},
        "children": {k: dict(v["children"]) for k, v in summary.items()},
    }


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        for name in OPS:
            with self.subTest(workload=name):
                a, b = trace_ops(name, 7), trace_ops(name, 7)
                self.assertEqual(a, b)
                self.assertFalse(any(op[2] for op in a["ops"]), "an op had an undocumented outcome")
                # every convolution is seen by a wrapped call site
                self.assertEqual(a["convs"], a["span_convs"])

    def test_same_seed_same_probe_count(self):
        import workloads

        workload = workloads.make_workloads(run.OUT)["stream-highest"]
        session = workload.setup(7)
        keys = [session.keypair()]
        counts = [workloads.probe(workload, keys, 7, 30) for _ in range(2)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0][1], 0, "a probe raised an undocumented exception")

    def test_other_seed_other_inputs(self):
        a, b = trace_ops("stream-highest", 7), trace_ops("stream-highest", 8)
        self.assertNotEqual(a["key"], b["key"])
        self.assertNotEqual([op[3] for op in a["ops"]], [op[3] for op in b["ops"]])

    def test_product_counts_recoverable(self):
        got = trace_ops("files-highest", 3)
        for product, convs in (("quat.quat_mul_strassen", 7), ("quat.quat_mul_schoolbook", 16)):
            calls = got["calls"][product]
            self.assertGreater(calls, 0)
            self.assertEqual(got["children"][product]["ring.conv_mul"], convs * calls)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class Smoke(unittest.TestCase):
    ungated = ["encrypt_ms_p90", "decrypt_ms_p90", "failed_ratio", "resends"]
    extra = {"stream-highest": ungated,
             "files-highest": ungated + ["keygen_ms_p50", "keygen_ms_p90", "cli_encrypt_ms_p50",
                                         "cli_decrypt_ms_p50", "cli_decrypt_ms_p90"]}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_every_metric_printed(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(OPS))
        for name in OPS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "5", "--seconds", "3",
                                 "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    text = "\n".join(lines[:-1])
                    for label in ("python", "numpy", "blas", "blas_threads_pinned", "nproc"):
                        self.assertIn(f"env {label} = ", text)
                    if trace == 0:
                        for extra in self.extra[name]:
                            self.assertRegex(text, rf"(?m)^{extra} ")

    def test_no_result_without_sources(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "stream-highest", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
