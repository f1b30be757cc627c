"""Smoke runs of every workload at a tiny dataset size.

Run through `python3 perfbench/run.py --self-test`, which builds the
benchmark and sets PERFBENCH_BIN and PERFBENCH_JSON.
"""

import json
import os
import subprocess
import unittest

BIN = os.environ.get("PERFBENCH_BIN", "")
BENCH_JSON = os.environ.get("PERFBENCH_JSON", "")
# Table 2 / 32768: a few thousand vertices, well under a second a pass.
TINY = ["--divisor", "32768", "--seconds", "0"]


def run(workload, trace, seed=5):
    out = subprocess.run(
        [BIN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + TINY,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    return out


class SmokeRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCH_JSON) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return result

    def test_every_workload_untraced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0)["metrics"]
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_traced_counts_repeat(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                a = self.check(w["name"], 1)["metrics"]
                b = self.check(w["name"], 1)["metrics"]
                for name, m in a.items():
                    if m["unit"] == "count":
                        self.assertEqual(m["value"], b[name]["value"], name)

    def test_unknown_workload_fails_without_result(self):
        out = run("no_such_workload", 0)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
