"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import metrics, report, spans, stats  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


class PercentileRule(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(99), 75.0)

    def test_larger_runs_reach_higher_percentiles(self):
        self.assertEqual(stats.highest_percentile(199), 90.0)
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_too_few_samples_for_any_percentile(self):
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertIsNone(stats.highest_percentile(19))

    def test_ten_samples_lie_beyond_the_reported_percentile(self):
        for n in (20, 57, 100, 150, 999, 4321):
            q = stats.highest_percentile(n)
            values = list(range(n))
            cut = stats.nearest_rank(values, q)
            self.assertGreaterEqual(sum(v > cut for v in values), 10, (n, q))

    def test_interquartile_mean(self):
        self.assertEqual(stats.interquartile_mean([1, 2, 3, 4, 100, 200, 300, 400]), 76.75)
        self.assertEqual(stats.interquartile_mean([7.5]), 7.5)
        # A set with a gap at its middle: the median jumps across the gap
        # when one value moves, the interquartile mean moves a little.
        a = [1] * 50 + [10] * 50
        b = [1] * 49 + [10] * 51
        self.assertEqual(stats.median(a), 5.5)
        self.assertEqual(stats.median(b), 10)
        self.assertAlmostEqual(stats.interquartile_mean(b) - stats.interquartile_mean(a), 9 / 50)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3, 6, 7, 8, 9, 10]
        self.assertEqual(stats.nearest_rank(values, 90), 9)
        self.assertEqual(stats.nearest_rank(values, 50), 5)
        self.assertEqual(stats.nearest_rank(values, 100), 10)
        self.assertEqual(stats.nearest_rank([3.5], 90), 3.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)


def span(name, layer, start, end, parent=-1):
    return [name, layer, start, end, parent, 0, -1, 0]


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        s = spans.load([span("a", "x", 10, 25)])
        self.assertEqual(spans.self_times(s), [15])

    def test_nested_and_sibling_spans(self):
        rows = [
            span("root", "bench", 0, 100),
            span("child1", "core", 10, 40, parent=0),
            span("grandchild", "simmpi", 15, 25, parent=1),
            span("child2", "core", 50, 70, parent=0),
        ]
        self.assertEqual(spans.self_times(spans.load(rows)), [50, 20, 10, 20])
        self.assertEqual(spans.layer_self_ns(spans.load(rows)),
                         {"bench": 50, "core": 40, "simmpi": 10})

    def test_overlapping_children_count_once(self):
        # Per-rank spans recorded from parallel threads overlap in time.
        rows = [
            span("run", "simmpi", 0, 100),
            span("body0", "collectives", 10, 60, parent=0),
            span("body1", "collectives", 20, 80, parent=0),
            span("body2", "collectives", 30, 50, parent=0),
        ]
        self.assertEqual(spans.self_times(spans.load(rows))[0], 30)

    def test_children_are_clipped_to_the_parent(self):
        rows = [span("p", "a", 10, 20), span("c", "b", 5, 15, parent=0)]
        self.assertEqual(spans.self_times(spans.load(rows)), [5, 10])

    def test_layer_times_add_up_to_the_root(self):
        rows = [
            span("root", "bench", 0, 1000),
            span("a", "core", 100, 400, parent=0),
            span("b", "simmpi", 150, 300, parent=1),
            span("c", "util", 200, 250, parent=2),
            span("d", "core", 500, 900, parent=0),
        ]
        self.assertEqual(sum(spans.layer_self_ns(spans.load(rows)).values()), 1000)


class ResultJson(unittest.TestCase):
    def test_round_trip(self):
        result = report.build(True, 1000, 0, {
            "latency_ms": (1.2034000000000001, "ms"),
            "setup_s": (0.8127, "s"),
            "count": (3, "count"),
        })
        line = report.emit(result)
        self.assertNotIn("\n", line)
        back = report.parse(line)
        self.assertEqual(back, result)
        self.assertEqual(back["metrics"]["latency_ms"]["value"], 1.2034000000000001)

    def test_emit_keeps_every_digit(self):
        value = 0.1 + 0.2
        back = report.parse(report.emit(report.build(True, 1, 0, {"m": (value, "s")})))
        self.assertEqual(back["metrics"]["m"]["value"], value)

    def test_rejects_malformed_results(self):
        good = report.build(True, 1, 0, {"m": (1.0, "s")})
        bad_keys = dict(good, extra=1)
        with self.assertRaises(ValueError):
            report.parse(json.dumps(bad_keys))
        with self.assertRaises(ValueError):
            report.parse(json.dumps(dict(good, attempted=0)))
        with self.assertRaises(ValueError):
            report.parse(json.dumps(dict(good, correct="yes")))
        with self.assertRaises(ValueError):
            report.emit(report.build(True, 1, 0, {"m": (float("nan"), "s")}))


class Catalogue(unittest.TestCase):
    """BENCHMARK.json and the metric catalogue name the same metrics."""

    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK_JSON) as f:
            cls.bench = json.load(f)

    def test_end_to_end_matches(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in self.bench["end_to_end"]}
        self.assertEqual(listed, metrics.END_TO_END)
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_per_layer_matches(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]}
        self.assertEqual(listed, metrics.PER_LAYER)

    def test_deterministic_metrics_are_end_to_end(self):
        for name in metrics.DETERMINISTIC_E2E:
            self.assertIn(name, metrics.END_TO_END)


if __name__ == "__main__":
    unittest.main()
