"""The benchmark's own tests: metric-name grammar, the percentile rule, the
fingerprint comparison and the serve_mixed schedule.

    python3 -m unittest discover -s perfbench/tests
"""

import itertools
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from common import comparable, percentile, summarize, valid_metric_name  # noqa: E402
from workloads import COLD_PER_BLOCK, WARM_PER_DOC, schedule  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "exec.compute_ms.parcels", "desim.events_per_s", "a-1"):
            self.assertTrue(valid_metric_name(good), good)
        for bad in ("", ".lead", "has space", "per/second", "x" * 65, "ünit"):
            self.assertFalse(valid_metric_name(bad), bad)

    def test_benchmark_json_names_are_valid_and_unique(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_metric_name(name), name)
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 90), 90)  # 10 samples above rank 90
        self.assertIsNone(percentile(values, 99))  # only 1 above
        self.assertEqual(percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(percentile(list(range(1, 1001)), 99.9))

    def test_median_needs_twenty_samples(self):
        self.assertIsNotNone(percentile(list(range(20)), 50))
        self.assertIsNone(percentile(list(range(19)), 50))

    def test_summary_states_count_and_drops_unsupported(self):
        s = summarize([float(i) for i in range(100)])
        self.assertEqual(s["n"], 100)
        self.assertIn("p90", s)
        self.assertNotIn("p99", s)
        self.assertTrue(summarize([1.0, 2.0])["p50_below_rule"])


class Fingerprint(unittest.TestCase):
    HOST = {"cores": 2, "cpu_model": "X", "rustc": "rustc 1.95.0", "profile": "release"}

    def test_other_revision_compares(self):
        a = dict(self.HOST, git_rev="a", source_digest="1")
        b = dict(self.HOST, git_rev="b", source_digest="2")
        self.assertIsNone(comparable(a, b))

    def test_other_host_is_refused(self):
        for key, value in (("cores", 1), ("cpu_model", "Y"), ("rustc", "rustc 1.80"), ("profile", "dev")):
            self.assertIn(key, comparable(self.HOST, dict(self.HOST, **{key: value})))


class Schedule(unittest.TestCase):
    DOCS = ["a", "b", "c"]

    def take(self, seed, n):
        return list(itertools.islice(schedule(seed, self.DOCS), n))

    def test_seed_reproduces_the_schedule(self):
        self.assertEqual(self.take(5, 200), self.take(5, 200))
        self.assertNotEqual(self.take(5, 200), self.take(6, 200))

    def test_every_block_has_the_same_mix(self):
        block = len(self.DOCS) * WARM_PER_DOC + COLD_PER_BLOCK
        for seed in (1, 2):
            items = self.take(seed, block * 6)
            for b in range(6):
                chunk = items[b * block:(b + 1) * block]
                warm = [d for kind, d, _ in chunk if kind == "warm"]
                cold = [(d, s) for kind, d, s in chunk if kind == "cold"]
                self.assertEqual(sorted(warm), sorted(self.DOCS * WARM_PER_DOC))
                self.assertEqual([d for d, _ in cold], [self.DOCS[b % len(self.DOCS)]])

    def test_cold_seeds_never_repeat(self):
        seeds = [s for kind, _, s in self.take(3, 3000) if kind == "cold"]
        self.assertEqual(len(seeds), len(set(seeds)))


if __name__ == "__main__":
    unittest.main()
