"""Unit tests for benchmark/stats.py: python3 benchmark/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5))

    def test_spread_is_quartile_distance_over_median(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q3 = stats.quartiles(xs)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / 5.5)
        self.assertEqual(stats.spread([4.0, 4.0, 4.0]), 0.0)


class Bounds(unittest.TestCase):
    def test_worsening_sign_follows_better(self):
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "lower"), -0.1)

    def test_regression_past_the_bound(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        change = [x * 1.3 for x in parent]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.2), "regression")

    def test_within_bound_is_no_regression(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        change = [x * 1.1 for x in parent]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.2), "no regression")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        change = [x * 1.05 for x in parent]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        # Every change run beats every parent run, but the median gap (5.05)
        # is inside the parent's quartile distance (5.5): not a win, and not
        # unresolved either.
        parent = [10.0 + i for i in range(10)]
        change = [9.0 + 0.1 * i for i in range(10)]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "better")


class WinRule(unittest.TestCase):
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]

    def test_clear_gain_wins(self):
        change = [x - 1.0 for x in self.parent]
        self.assertEqual(stats.wins(self.parent, change, "lower"), 10)
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.2), "win")

    def test_eight_of_ten_is_not_a_win(self):
        change = [x - 1.0 for x in self.parent]
        change[0] = self.parent[0] + 0.5
        change[1] = self.parent[1] + 0.5
        self.assertEqual(stats.wins(self.parent, change, "lower"), 8)
        self.assertNotEqual(stats.verdict(self.parent, change, "lower", 0.2), "win")

    def test_ties_count_for_neither(self):
        change = list(self.parent)
        self.assertEqual(stats.wins(self.parent, change, "lower"), 0)
        self.assertEqual(stats.wins(self.parent, change, "higher"), 0)

    def test_median_gap_must_exceed_parent_iqr(self):
        # Every pair wins by a hair, but the medians differ by less than the
        # parent's own quartile distance.
        change = [x - 0.01 for x in self.parent]
        self.assertEqual(stats.wins(self.parent, change, "lower"), 10)
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.2), "no regression")

    def test_higher_is_better(self):
        change = [x + 1.0 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.2), "win")
        self.assertEqual(stats.verdict(change, self.parent, "higher", 0.05), "regression")


class Digest(unittest.TestCase):
    def test_fnv1a_reference_vectors(self):
        self.assertEqual(stats.fnv1a(""), "cbf29ce484222325")
        self.assertEqual(stats.fnv1a("a"), "af63dc4c8601ec8c")
        self.assertEqual(stats.fnv1a("foobar"), "85944171f73967e8")


if __name__ == "__main__":
    unittest.main()
