"""Smoke test of the benchmark at tiny bounds.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench

It checks that every workload passes its checks, that every metric named in
BENCHMARK.json is reported, that traced and untraced passes give the same
output digests, and that a directory without the package source is refused.
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
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_prints(self):
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in BENCHMARK["per_layer"]], list(spans.LAYER_METRICS))
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))

    def test_untraced_run_reports_every_end_to_end_metric(self):
        proc = bench("--workload", "all", "--scale", "tiny", "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        expected = {
            f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in BENCHMARK["end_to_end"]
        }
        self.assertEqual(set(result["metrics"]), expected)
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        proc = bench("--workload", "all", "--scale", "tiny", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        expected = {
            f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in BENCHMARK["per_layer"]
        }
        self.assertEqual(set(result["metrics"]), expected)

    def test_traced_and_untraced_digests_are_equal(self):
        for name in workloads.WORKLOADS:
            digests = []
            for extra in ([], ["--trace-out", os.path.join(ROOT, workloads.CLI_DIR, "smoke.json")]):
                os.makedirs(os.path.join(ROOT, workloads.CLI_DIR), exist_ok=True)
                proc = subprocess.run(
                    [
                        sys.executable, os.path.join(HERE, "worker.py"),
                        "--workload", name, "--seed", "3", "--scale", "tiny",
                        "--phase", "run", "--warm", "0", *extra,
                    ],
                    cwd=ROOT,
                    env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(result["failed"], 0, name)
                digests.append(result["digest"])
            self.assertEqual(digests[0], digests[1], name)

    def test_directory_without_source_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "suite32", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
