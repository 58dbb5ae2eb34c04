"""Self-test of the benchmark harness (not of coxangle).

    python3 bench/selftest.py

Checks that a wrong expected value, a wrong exit code and a crashing
request each count as one failed request without stopping the pass, that
a checkout without `src/coxangle` is refused, and that seeds give
reproducible request sequences.
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC_DIR))


STDOUT_KEY = "min-angle:cat-A3-aniso-13:json"
CODE_KEY = "validate:bad-A3-aniso-1:table"
INTACT_KEY = "min-angle:cat-B3-aniso-12:json"


class CorruptedExpectedData(unittest.TestCase):
    def setUp(self):
        _, self.cli, expected = run.setup("query-stream")
        keys = (STDOUT_KEY, CODE_KEY, INTACT_KEY)
        self.requests = [r for r in workloads.query_pool() if r.key in keys]
        self.assertEqual(len(self.requests), 3)
        self.expected = {k: dict(v) for k, v in expected.items()}

    def failed_keys(self, result):
        return sorted(k for k in (STDOUT_KEY, CODE_KEY, INTACT_KEY)
                      if any(f.startswith(k + ":") for f in result.failures))

    def test_intact_data_passes(self):
        result = run.run_pass(self.cli, self.requests, self.expected)
        self.assertEqual(result.failures, [])
        self.assertEqual(len(result.latencies), 3)

    def test_corrupted_values_are_failures_not_crashes(self):
        self.expected[STDOUT_KEY]["stdout"] += "x"
        self.expected[CODE_KEY]["code"] = 0
        result = run.run_pass(self.cli, self.requests, self.expected)
        self.assertEqual(self.failed_keys(result), sorted([STDOUT_KEY, CODE_KEY]))
        self.assertEqual(len(result.latencies), 3)
        self.assertEqual(result.rows, self.expected[INTACT_KEY]["rows"])

    def test_raising_request_is_a_failure(self):
        class Crashing:
            @staticmethod
            def run(argv):
                raise RuntimeError("boom")

        result = run.run_pass(Crashing, self.requests, self.expected)
        self.assertEqual(len(result.failures), 3)
        self.assertIn("RuntimeError: boom", result.failures[0])


class Refusal(unittest.TestCase):
    def test_checkout_without_source_is_refused(self):
        saved = run.SRC_DIR
        run.SRC_DIR = saved.parent / "no-such-src"
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "enumerate", "--seconds", "1"])
        finally:
            run.SRC_DIR = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


class Seeds(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.pass_order(w, 7, 2), workloads.pass_order(w, 7, 2))

    def test_other_seed_same_mix_other_order(self):
        a = workloads.pass_order("query-stream", 1, 0)
        b = workloads.pass_order("query-stream", 2, 0)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(r.key for r in a), sorted(r.key for r in b))


class Percentiles(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(6), 100.0)
        self.assertEqual(run.tail_percentile(102), 90.0)
        self.assertEqual(run.tail_percentile(210), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(values, 90.0), 90.0)
        self.assertEqual(run.percentile(values, 100.0), 100.0)


if __name__ == "__main__":
    unittest.main()
