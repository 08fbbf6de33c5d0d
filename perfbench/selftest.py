"""Unit checks of the benchmark's measurement arithmetic.

Run from the repository root::

    python3 perfbench/selftest.py

The file name keeps it out of the repository's ``pytest`` collection:
the benchmark is run on purpose, never as a side effect of the tests.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    TAIL_BEYOND,
    Tally,
    open_loop_timing,
    poisson_schedule,
    spread,
    tail,
)


class TailPercentile(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 26))  # 25 distinct samples
        result = tail(values)
        self.assertEqual(sum(1 for v in values if v > result.value), TAIL_BEYOND)
        self.assertEqual(result.value, 15)
        self.assertAlmostEqual(result.percentile, 60.0)
        self.assertEqual((result.samples, result.beyond), (25, 10))

    def test_is_the_highest_such_percentile(self):
        values = [0.1 * i for i in range(100)]
        result = tail(values)
        # one sample higher would leave only nine beyond
        higher = sorted(values)[sorted(values).index(result.value) + 1]
        self.assertEqual(sum(1 for v in values if v > higher), TAIL_BEYOND - 1)
        self.assertAlmostEqual(result.percentile, 90.0)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(30)]
        shuffled = values[::2] + values[1::2]
        self.assertEqual(tail(shuffled), tail(values))
        self.assertEqual(tail(shuffled).value, 19.0)

    def test_twenty_samples_is_the_smallest_with_a_tail(self):
        result = tail(range(20))
        self.assertEqual((result.value, result.beyond), (9.0, 10))
        self.assertAlmostEqual(result.percentile, 50.0)

    def test_too_few_samples_report_the_maximum(self):
        result = tail([3.0, 1.0, 2.0])
        self.assertEqual(result.value, 3.0)
        self.assertEqual((result.percentile, result.samples, result.beyond), (100.0, 3, 0))
        # 19 samples would put ten-beyond under the median
        self.assertEqual(tail(range(19)), tail([18.0] + list(range(18))))
        self.assertEqual(tail(range(19)).percentile, 100.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            tail([])


class ErrorRate(unittest.TestCase):
    def test_exceptions_jobs_and_checks_all_count(self):
        tally = Tally()
        for _ in range(8):
            tally.request()
        tally.request("ValueError: bad pair")
        tally.request("job failed: solve failed")
        tally.check("finite-plan", True)
        tally.check("bitwise", False, "plans differ")
        self.assertEqual(tally.attempted, 10)
        self.assertEqual(tally.failed, 3)
        self.assertAlmostEqual(tally.error_rate, 0.3)
        self.assertEqual([c["ok"] for c in tally.checks], [True, False])

    def test_clean_run_has_zero_error_rate(self):
        tally = Tally()
        for _ in range(5):
            tally.request()
        tally.check("finite-plan", True)
        self.assertEqual(tally.error_rate, 0.0)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(Tally().error_rate, 1.0)


class OpenLoopLateness(unittest.TestCase):
    def test_latency_runs_from_due_time_not_send_time(self):
        # the generator stalled: request 1 was due at 1.0 but sent at 1.5
        timing = open_loop_timing(
            due=[0.0, 1.0, 2.0],
            sent=[0.0, 1.5, 2.0],
            finished=[0.25, 2.0, 2.5],
            limit=0.75,
        )
        self.assertEqual(timing.latencies, [0.25, 1.0, 0.5])
        self.assertEqual(timing.gen_lag_max, 0.5)
        self.assertEqual(timing.met, 2)

    def test_unfinished_request_misses_the_limit(self):
        tally = Tally()
        timing = open_loop_timing(
            due=[0.0, 1.0, 2.0], sent=[0.0, 1.0, 2.0],
            finished=[0.5, None, 2.5], limit=1.0,
        )
        for finished in (0.5, None, 2.5):
            tally.request(None if finished is not None else "job rejected")
        self.assertEqual(timing.latencies, [0.5, 0.5])
        self.assertEqual(timing.met, 2)
        self.assertAlmostEqual(timing.met / tally.attempted, 2 / 3)
        self.assertAlmostEqual(tally.error_rate, 1 / 3)

    def test_early_send_is_not_negative_lag(self):
        timing = open_loop_timing([1.0], [0.9], [1.2], 1.0)
        self.assertEqual(timing.gen_lag_max, 0.0)

    def test_lengths_must_agree(self):
        with self.assertRaises(ValueError):
            open_loop_timing([0.0], [0.0, 1.0], [1.0], 1.0)

    def test_poisson_schedule_is_seeded_and_bounded(self):
        first = poisson_schedule(5.0, 10.0, np.random.default_rng(3))
        again = poisson_schedule(5.0, 10.0, np.random.default_rng(3))
        self.assertEqual(first, again)
        self.assertEqual(len(first), 50)
        self.assertTrue(all(a <= b for a, b in zip(first, first[1:])))
        self.assertTrue(0 <= first[0] and first[-1] < 10.0)
        other = poisson_schedule(5.0, 10.0, np.random.default_rng(4))
        self.assertEqual(len(other), 50)
        self.assertNotEqual(first, other)
        short = poisson_schedule(1.0, 0.01, np.random.default_rng(3), at_least=8)
        self.assertEqual(len(short), 8)


class Spread(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        # exclusive quartiles of 1..9 are 2.5, 5, 7.5
        self.assertAlmostEqual(spread(range(1, 10)), 1.0)
        self.assertEqual(spread([4.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
