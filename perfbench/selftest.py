"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that a tiny run of each workload prints every metric of
BENCHMARK.json with its unit, that one seed yields byte-identical inputs,
that an injected hang is scored as a failed op and not as exit 1, and that
the checks reject wrong answers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import REF_SECONDS, Speedometer  # noqa: E402
from checks import check  # noqa: E402
from run import tail  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class SmokeTest(unittest.TestCase):
    def _run(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_with_its_unit(self):
        bench = _benchmark()
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in bench[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)


def _dump(builder) -> str:
    files = sorted((path, repr(content)) for path, content in builder.files.items())
    return json.dumps([files, builder.rounds, builder.defects], sort_keys=True)


class SeedTest(unittest.TestCase):
    def test_one_seed_gives_identical_inputs(self):
        for name, build in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(_dump(build(7)), _dump(build(7)))
                self.assertNotEqual(_dump(build(7)), _dump(build(8)))


class HangTest(unittest.TestCase):
    """A FIFO without a writer blocks the program's open() forever."""

    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"), prefix="selftest-")
        self.fifo = os.path.join(self.dir, "hang.txt")
        os.mkfifo(self.fifo)
        self.op = {"id": "hang", "kind": "cli", "argv": ["--json", "regseq", self.fifo],
                   "limit": 0.3, "expect": {"exit": 1, "check": "rejected"}}

    def tearDown(self):
        os.remove(self.fifo)
        os.rmdir(self.dir)

    def test_hang_is_a_failed_op(self):
        outcome = Runner({"rounds": []}).run(self.op)
        self.assertEqual(outcome["status"], "timeout")
        self.assertIsNone(outcome["exit"])
        self.assertIsNotNone(check(self.op, outcome))

    def test_builtin_timeout_error_would_read_as_exit_1(self):
        runner = Runner({"rounds": []})

        def builtin_timeout(_signum, _frame):
            raise TimeoutError

        signal.signal(signal.SIGALRM, builtin_timeout)
        outcome = runner.run(self.op)
        self.assertEqual((outcome["status"], outcome["exit"]), ("ok", 1))
        self.assertIsNone(check(self.op, outcome))  # the hang would go unseen


class SpeedTest(unittest.TestCase):
    def test_reference_seconds_follow_the_nearest_samples(self):
        speed = Speedometer()
        speed.samples = [(t, 2 * REF_SECONDS) for t in (0.0, 0.3, 0.6, 0.9)]
        speed.samples += [(t, REF_SECONDS) for t in (20.0, 20.3, 20.6, 20.9)]
        self.assertAlmostEqual(speed.factor(0.2, 0.4), 0.5)  # a slow spell
        self.assertAlmostEqual(speed.factor(20.0, 21.0), 1.0)
        self.assertAlmostEqual(speed.factor(), 2 / 3)  # the whole run
        self.assertAlmostEqual(speed.factor(10.45, 10.45), 2 / 3)  # the 4 nearest

    def test_sampling_time_is_measured(self):
        speed = Speedometer()
        speed.sample()
        speed.maybe_sample()  # too soon after the last one
        self.assertEqual(len(speed.samples), 1)
        self.assertEqual(speed.spent_since(-1.0), speed.samples[0][1])


class CheckTest(unittest.TestCase):
    def test_tail_has_ten_samples_above(self):
        self.assertEqual(tail(list(range(100))), (89, 89))
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 2))

    def test_wrong_reports_are_rejected(self):
        op = {"expect": {"exit": 0, "check": "assoc", "n": 2, "d": 2,
                         "gens": [[[[2, 0], "1"]], [[[0, 2], "1"]]]}}

        def outcome(form):
            report = {"command": "assoc", "nvars": 2, "d": 2, "nu": 2,
                      "result": {"form": form}}
            return {"status": "ok", "exit": 0, "stdout": json.dumps(report), "stderr": ""}

        self.assertIsNone(check(op, outcome("(1/2)*z1*z2")))
        self.assertIsNotNone(check(op, outcome("z1*z2")))
        self.assertIsNotNone(check(op, outcome("(1/2)*z1*z2 + z1^2")))
        hull = {"expect": {"exit": 0, "check": "hull", "weights": [1, -1]}}
        self.assertIsNotNone(check(hull, {"status": "ok", "exit": 0, "stdout": "[2, -2]"}))


if __name__ == "__main__":
    unittest.main()
