"""Unit tests of the benchmark's statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class NearestRank(unittest.TestCase):
    def test_picks_a_sample_never_interpolates(self):
        values = [float(v) for v in range(10, 0, -1)]  # unsorted input
        self.assertEqual(stats.nearest_rank(values, 0.5), 5.0)
        self.assertEqual(stats.nearest_rank(values, 0.95), 10.0)
        self.assertEqual(stats.nearest_rank(values, 1.0), 10.0)
        self.assertEqual(stats.nearest_rank(values, 0.1), 1.0)
        self.assertEqual(stats.nearest_rank(values, 0.11), 2.0)

    def test_rank_arithmetic(self):
        # ceil(q * n)-th smallest, 1-indexed; float noise in q * n must not
        # push an exact rank up by one.
        self.assertEqual(stats.nearest_rank_index(200, 0.95), 189)
        self.assertEqual(stats.nearest_rank_index(20, 0.95), 18)
        self.assertEqual(stats.nearest_rank_index(100, 0.07), 6)
        self.assertEqual(stats.nearest_rank_index(1, 0.5), 0)
        self.assertEqual(stats.nearest_rank_index(3, 0.01), 0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        for q in (0.0, -0.1, 1.5):
            with self.assertRaises(ValueError):
                stats.nearest_rank([1.0], q)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond_p95_needs_200(self):
        self.assertEqual(stats.min_samples_for_tail(0.95), 200)
        self.assertFalse(stats.tail_supported(199, 0.95))
        self.assertTrue(stats.tail_supported(200, 0.95))
        self.assertEqual(stats.samples_beyond(200, 0.95), 10)
        self.assertEqual(stats.samples_beyond(199, 0.95), 9)

    def test_other_percentiles(self):
        self.assertEqual(stats.min_samples_for_tail(0.5), 20)
        self.assertEqual(stats.min_samples_for_tail(0.99), 1000)
        self.assertEqual(stats.min_samples_for_tail(0.9, beyond=1), 10)
        self.assertFalse(stats.tail_supported(0, 0.5))


class Regression(unittest.TestCase):
    def test_lower_is_better(self):
        parent = [10.0, 9.0, 11.0]
        self.assertFalse(
            stats.regressed(parent, [12.4, 12.5, 12.3], 0.25, "lower"))
        self.assertTrue(
            stats.regressed(parent, [12.6, 12.7, 12.6], 0.25, "lower"))
        self.assertFalse(stats.regressed(parent, [1.0], 0.25, "lower"))

    def test_higher_is_better(self):
        parent = [10.0, 10.0]
        self.assertTrue(stats.regressed(parent, [7.4], 0.25, "higher"))
        self.assertFalse(stats.regressed(parent, [7.6], 0.25, "higher"))
        self.assertFalse(stats.regressed(parent, [30.0], 0.25, "higher"))

    def test_compares_medians_not_means(self):
        # One outlier run moves the mean past the bound, not the median.
        self.assertFalse(
            stats.regressed([10.0] * 5, [10.0] * 4 + [100.0], 0.1, "lower"))

    def test_worse_by_and_bad_input(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(stats.worse_by(10.0, 12.0, "higher"), -0.2)
        with self.assertRaises(ValueError):
            stats.worse_by(0.0, 1.0, "lower")
        with self.assertRaises(ValueError):
            stats.regressed([1.0], [1.0], 0.1, "sideways")


class Spread(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25.
        self.assertAlmostEqual(stats.quartile_spread(values), 5.5 / 5.5)
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def span(self, id_, parent, layer, start, end):
        return {"id": id_, "parent": parent, "layer": layer,
                "start_us": start, "end_us": end}

    def test_concurrent_children_count_once(self):
        spans = [self.span(0, -1, "common", 0, 100),
                 self.span(1, 0, "sim", 10, 50),
                 self.span(2, 0, "sim", 30, 70)]
        self.assertEqual(stats.self_times(spans), {"common": 40.0, "sim": 80.0})

    def test_nesting_and_clipping(self):
        spans = [self.span(0, -1, "serving", 0, 50),
                 self.span(1, 0, "dispatch", 40, 60),  # overruns its parent
                 self.span(2, 1, "ml", 45, 55),
                 self.span(3, -1, "sweep", 60, 61)]
        self.assertEqual(stats.self_times(spans),
                         {"serving": 40.0, "dispatch": 10.0, "ml": 10.0,
                          "sweep": 1.0})


if __name__ == "__main__":
    unittest.main()
