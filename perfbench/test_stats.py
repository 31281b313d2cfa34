"""Self-tests of the perfbench statistics and manifest.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 2.0, 5.0, 8.0, 3.0, 6.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_quartiles_need_two_samples(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class TailRule(unittest.TestCase):
    def test_too_few_samples_omit_the_tail(self):
        # 39 samples: p75 sits at rank 30, leaving only 9 beyond it.
        self.assertIsNone(stats.tail(list(range(39))))
        self.assertIsNone(stats.tail([]))

    def test_smallest_sample_with_a_tail(self):
        # 40 samples: p75 is rank 30, exactly 10 beyond.
        self.assertEqual(stats.tail(list(range(1, 41))), (75.0, 30))

    def test_picks_the_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))
        # p99.9 leaves 1 beyond, p99 leaves 10 beyond.
        self.assertEqual(stats.tail(values), (99.0, 990))
        self.assertEqual(stats.tail(list(range(1, 10001))), (99.9, 9990))

    def test_order_does_not_matter(self):
        values = list(range(200))
        self.assertEqual(stats.tail(values), stats.tail(values[::-1]))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [["op", -1, 0, 100],
                 ["tds", 0, 10, 90],
                 ["qi", 1, 20, 50]]
        self.assertEqual(stats.self_times(spans), [20, 50, 30])

    def test_siblings_are_subtracted_once_each(self):
        spans = [["op", -1, 0, 100],
                 ["a", 0, 0, 30],
                 ["b", 0, 40, 70]]
        self.assertEqual(stats.self_times(spans), [40, 30, 30])
        self.assertFalse(stats.siblings_overlap(spans))

    def test_overlapping_siblings_subtract_their_union(self):
        spans = [["phase", -1, 0, 100],
                 ["cell", 0, 10, 60],
                 ["cell", 0, 40, 80]]
        self.assertEqual(stats.self_times(spans)[0], 30)
        self.assertTrue(stats.siblings_overlap(spans))

    def test_children_are_clipped_to_the_parent(self):
        spans = [["op", -1, 10, 20], ["late", 0, 15, 40]]
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_self_times_add_up_to_the_roots(self):
        spans = [["op", -1, 0, 100], ["a", 0, 5, 45], ["b", 1, 10, 20],
                 ["c", 0, 50, 95], ["op", -1, 200, 260], ["a", 4, 210, 250]]
        by_name = stats.self_time_by_name(spans)
        self.assertEqual(sum(by_name.values()), 100 + 60)
        self.assertEqual(by_name, {"op": 15 + 20, "a": 30 + 40, "b": 10,
                                   "c": 45})


class HistogramQuantile(unittest.TestCase):
    def test_interpolates_inside_the_log2_bucket(self):
        buckets = [[8, 2], [16, 2]]  # [8,16) x2, [16,32) x2
        self.assertEqual(stats.histogram_quantile(buckets, 0.5), 16)
        self.assertEqual(stats.histogram_quantile(buckets, 0.75), 24)

    def test_zero_bucket_and_empty(self):
        self.assertEqual(stats.histogram_quantile([[0, 4]], 0.5), 0.5)
        self.assertIsNone(stats.histogram_quantile([], 0.5))


class ErrorRate(unittest.TestCase):
    def test_failed_over_attempted(self):
        self.assertEqual(stats.error_rate(200, 0), 0.0)
        self.assertEqual(stats.error_rate(200, 3), 0.015)
        self.assertEqual(stats.error_rate(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.error_rate(5, 6)
        with self.assertRaises(ValueError):
            stats.error_rate(5, -1)


class Manifest(unittest.TestCase):
    def test_committed_benchmark_json_matches_the_driver(self):
        committed = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.assertEqual(json.loads(committed.read_text()), run.manifest())

    def test_every_span_metric_is_a_declared_layer_metric(self):
        declared = {name for name, _, _ in run.PER_LAYER}
        self.assertLessEqual(set(run.SPAN_METRICS.values()), declared)
        self.assertLessEqual(set(run.SAMPLE_MEDIANS.values()), declared)


if __name__ == "__main__":
    unittest.main()
