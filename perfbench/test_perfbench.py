"""Tests of the benchmark's own arithmetic:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import tempfile
import unittest

import metrics
import run


class SummarizeTest(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        s = metrics.summarize(values)
        p25, p50, p75 = statistics.quantiles(values, n=4)
        self.assertEqual((s["p25"], s["median"], s["p75"], s["n"]),
                         (p25, p50, p75, 10))
        self.assertEqual(s["median"], 5.5)

    def test_single_value_is_its_own_summary(self):
        self.assertEqual(metrics.summarize([2.5]),
                         {"median": 2.5, "p25": 2.5, "p75": 2.5, "n": 1})

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.summarize([])


class TallyTest(unittest.TestCase):
    def test_fail_frac_is_failed_over_attempted(self):
        tally = metrics.Tally()
        for ok in (True, False, True, True):
            tally.record(ok)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.fail_frac, 0.25)

    def test_fail_frac_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            _ = metrics.Tally().fail_frac

    def test_one_tampered_byte_counts_as_a_failure(self):
        reference = b'{"experiment":"attack_matrix","results":{"x":1.5}}\n'
        with tempfile.TemporaryDirectory() as d:
            good = os.path.join(d, "good.json")
            bad = os.path.join(d, "bad.json")
            with open(good, "wb") as f:
                f.write(reference)
            tampered = bytearray(reference)
            tampered[len(tampered) // 2] ^= 0x01
            with open(bad, "wb") as f:
                f.write(bytes(tampered))
            tally = metrics.Tally()
            tally.record(metrics.output_matches(good, reference))
            tally.record(metrics.output_matches(bad, reference))
            tally.record(metrics.output_matches(os.path.join(d, "gone"),
                                                reference))
        self.assertEqual((tally.attempted, tally.failed), (3, 2))


class SpanTest(unittest.TestCase):
    # root [0, 100] on the main thread; a stage [10, 60] whose two tasks run
    # on two workers and overlap ([10, 40] and [30, 60]); task 1 contains a
    # simulate span [20, 30]; a serial tail [70, 90] with a score [75, 85].
    SPANS = [
        (1, 0, "workload", 0, 100),
        (2, 1, "runner.stage", 10, 60),
        (3, 2, "runner.task", 10, 40),
        (4, 2, "runner.task", 30, 60),
        (5, 3, "attack.simulate", 20, 30),
        (6, 1, "runner.serial_tail", 70, 90),
        (7, 6, "attack.score", 75, 85),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = metrics.self_times(self.SPANS)
        self.assertEqual(own[1], 100 - 50 - 20)  # stage and tail cover 70
        self.assertEqual(own[2], 0)              # overlapping tasks cover it
        self.assertEqual(own[3], 30 - 10)
        self.assertEqual(own[4], 30)
        self.assertEqual(own[5], 10)
        self.assertEqual(own[6], 10)
        self.assertEqual(own[7], 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(1, 0, "workload", 0, 10), (2, 1, "x", 5, 20)]
        self.assertEqual(metrics.self_times(spans)[1], 5)

    def test_coverage_is_the_union_of_non_root_spans(self):
        self.assertAlmostEqual(metrics.coverage(self.SPANS), 0.7)

    def test_parse_round_trip(self):
        text = "".join(f"{i}\t{p}\t{n}\t{s}\t{e}\t0\tw\n"
                       for i, p, n, s, e in self.SPANS)
        self.assertEqual(metrics.parse_spans(text), self.SPANS)

    def test_layer_metrics(self):
        m = metrics.layer_metrics(
            [(i, p, n, s * 10**8, e * 10**8) for i, p, n, s, e in self.SPANS],
            {"attack.score_calls": 1, "cache.accesses": 4}, workers=2)
        self.assertAlmostEqual(m["attack.simulate_s"], 1.0)
        self.assertAlmostEqual(m["attack.score_s"], 1.0)
        self.assertAlmostEqual(m["runner.stage_s"], 5.0)
        self.assertAlmostEqual(m["runner.serial_tail_s"], 2.0)
        # two tasks of 3 s on 2 workers during a 5 s stage
        self.assertAlmostEqual(m["runner.worker_idle_frac"], 1 - 6 / 10)
        self.assertAlmostEqual(m["cache.ns_per_access"], 1e9 / 4)
        self.assertEqual(m["attack.score_calls"], 1)
        self.assertEqual(m["isa.ns_per_instr"], 0.0)
        self.assertAlmostEqual(m["trace.coverage"], 0.7)


class HostRecordTest(unittest.TestCase):
    def host(self, cache_lines):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "CMakeCache.txt"), "w") as f:
                f.write("\n".join(cache_lines) + "\n")
            return run.host_record(run.Path(d), workers=2)

    def test_release_build_is_recorded(self):
        host = self.host(["CMAKE_BUILD_TYPE:STRING=Release",
                          "CMAKE_CXX_COMPILER:FILEPATH=/usr/bin/c++"])
        self.assertEqual(host["build_type"], "Release")
        self.assertEqual(host["workers"], 2)
        self.assertEqual(len(host["loadavg"]), 3)
        self.assertIn("nproc", host)

    def test_debug_and_sanitizer_builds_are_refused(self):
        for lines in (["CMAKE_BUILD_TYPE:STRING=Debug"],
                      ["CMAKE_BUILD_TYPE:STRING=Release", "TSC_SANITIZE:BOOL=ON"],
                      ["CMAKE_BUILD_TYPE:STRING=Release",
                       "TSC_SANITIZE_THREAD:BOOL=ON"],
                      ["CMAKE_BUILD_TYPE:STRING=Release",
                       "CMAKE_CXX_FLAGS:STRING=-fsanitize=address"]):
            with self.assertRaises(run.BenchError):
                self.host(lines)


if __name__ == "__main__":
    unittest.main()
