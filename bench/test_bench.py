"""Tests of the benchmark itself.

    python3 -m pytest -q bench        # or: python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP_JOB = ("census", "census.counterexample_gl2")


def run_child(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        check=True, capture_output=True, text=True, cwd=BENCH_DIR.parent,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (0, -1, 0.0, 10.0),  # root
            (1, 0, 1.0, 4.0),  # child with a grandchild
            (2, 1, 2.0, 3.0),
            (1, 0, 3.0, 6.0),  # overlaps its sibling: [1, 6] is covered once
            (2, 0, 8.0, 12.0),  # sticks out of the root: clipped to [8, 10]
            (0, -1, 20.0, 21.5),  # a second root without children
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 3.0, 4.0, 1.5])

    def test_self_times_add_up_to_the_root(self):
        tracer = tracing.Tracer()
        leaf = tracer.span("leaf", lambda: sum(range(1000)))
        mid = tracer.span("mid", lambda: [leaf() for _ in range(3)])
        tracer.call("bench.job", lambda: [mid() for _ in range(4)])
        layers = tracing.summarize(tracer, {})
        own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(own, layers["bench.job.total_s"], places=12)
        self.assertEqual(layers["leaf.calls"], 12)
        self.assertEqual(layers["leaf<mid"], 12)
        self.assertEqual(layers["mid<bench.job"], 4)


class CorrectnessCheckTest(unittest.TestCase):
    def test_a_corrupted_digest_raises_fail_frac(self):
        workload, job = CHEAP_JOB
        reference = workloads.load_reference()
        clean = child.run(workload, 0, only=[job], reference=reference)
        self.assertEqual((clean["attempted"], clean["failed"]), (1, 0))

        corrupted = dict(reference, digests=dict(reference["digests"], **{job: "0" * 64}))
        bad = child.run(workload, 0, only=[job], reference=corrupted)
        self.assertEqual(bad["failed"], 1)
        self.assertIn("differs from the reference", bad["errors"][job])
        result = run.summarize([clean, bad], [], trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] / result["attempted"], 0.5)


class SeedTest(unittest.TestCase):
    def test_a_seed_fixes_the_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.draw(name, 7), workloads.draw(name, 7))
                self.assertNotEqual(workloads.draw(name, 7), workloads.draw(name, 8))

    def test_classify_draws_keep_the_class_mix(self):
        classes = workloads.load_reference()["classify_classes"]
        for seed in (1, 2):
            picked = workloads.draw("classify", seed)
            for universe, quotas in workloads.CLASSIFY_QUOTAS.items():
                mix = {}
                for idx in picked[universe]:
                    mix[classes[universe][idx]] = mix.get(classes[universe][idx], 0) + 1
                self.assertEqual(mix, quotas)


class TracingIsolationTest(unittest.TestCase):
    def test_only_the_traced_run_installs_wrappers(self):
        workload, job = CHEAP_JOB
        plain = run_child("--workload", workload, "--seed", "0", "--trace", "0", "--only", job)
        traced = run_child("--workload", workload, "--seed", "0", "--trace", "1", "--only", job)
        self.assertEqual(plain["wrappers_installed"], 0)
        self.assertNotIn("layers", plain)
        self.assertGreater(traced["wrappers_installed"], 0)
        self.assertEqual(traced["failed"], 0)
        self.assertEqual(traced["layers"]["grouplab.counterexample_gl2.calls"], 4)


class BenchmarkFileTest(unittest.TestCase):
    def test_the_file_matches_what_the_runner_reports(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in run.PER_LAYER],
        )
        self.assertTrue(all(m["bound"] <= 0.25 for m in spec["end_to_end"]))


class NoProgramTest(unittest.TestCase):
    def test_a_tree_without_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
