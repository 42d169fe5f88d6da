"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark (as run.py does), runs the self-time arithmetic
checks, and checks that the metrics BENCHMARK.json names are the ones the
benchmark emits, with the same units.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build(("perfbench", "perfbench_selftest"))
        cls.binary = os.path.join(cls.build_dir, "perfbench")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def spec_metrics(self, kind):
        return {m["name"]: m["unit"] for m in self.spec[kind]}

    def test_self_time_arithmetic(self):
        subprocess.run([os.path.join(self.build_dir, "perfbench_selftest")],
                       check=True)

    def test_metric_names_and_units_are_well_formed(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in self.spec[kind]]
        self.assertEqual(len(names), len(set(names)), "duplicate name")
        for kind in ("end_to_end", "per_layer"):
            for metric in self.spec[kind]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)

    def test_catalogue_matches_benchmark_json(self):
        listed = subprocess.run([self.binary, "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout
        catalogue = {"end_to_end": {}, "per_layer": {}}
        for line in listed.splitlines():
            name, unit, kind = line.split()
            catalogue[kind][name] = unit
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(catalogue[kind], self.spec_metrics(kind), kind)

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [self.binary, "--workload", "paper_fig8", "--seed", "3",
                 "--seconds", "0.001", "--trace", str(trace)],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"], out)
            self.assertEqual(result["failed"], 0)
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            self.assertEqual(emitted, self.spec_metrics(kind))

    def test_unknown_workload_is_refused(self):
        done = subprocess.run(
            [self.binary, "--workload", "nope", "--seed", "1", "--seconds",
             "1", "--trace", "0"], capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
