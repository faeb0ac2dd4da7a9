#!/usr/bin/env python3
"""Unit tests of perf_gate.py's decision rule; no benchmark is run.

    python3 scripts/test_perf_gate.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_gate  # noqa: E402  (after the path and bytecode settings)

END_TO_END = [
    {"name": "sweep_wall_s", "better": "lower", "bound": 0.25},
    {"name": "sim_mips", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def run(sweep_wall_s=10.0, sim_mips=60.0, peak_rss_mb=160.0, correct=True):
    values = {"sweep_wall_s": sweep_wall_s, "sim_mips": sim_mips,
              "peak_rss_mb": peak_rss_mb}
    return {"result": {"correct": correct, "attempted": 9, "failed": 0,
                       "metrics": {k: {"value": v} for k, v in values.items()}}}


def verdicts(base, head):
    return {name: verdict for name, verdict, _ in
            perf_gate.decide(END_TO_END, base, head)}


class DecideTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        runs = [run(), run(sweep_wall_s=10.4), run(sweep_wall_s=9.8)]
        self.assertEqual(set(verdicts(runs, runs).values()), {"pass"})

    def test_uniform_sim_mips_halving_fails(self):
        base = [run(sim_mips=m) for m in (60.0, 62.0, 58.0)]
        head = [run(sim_mips=m / 2) for m in (60.0, 62.0, 58.0)]
        got = verdicts(base, head)
        self.assertEqual(got["sim_mips"], "fail")
        self.assertEqual(got["sweep_wall_s"], "pass")

    def test_wide_base_spread_with_overlapping_head_is_unresolved(self):
        base = [run(sweep_wall_s=s) for s in (10.0, 15.0, 20.0)]
        head = [run(sweep_wall_s=s) for s in (14.0, 20.0, 26.0)]
        self.assertEqual(verdicts(base, head)["sweep_wall_s"], "unresolved")

    def test_head_wholly_worse_than_a_wide_base_fails(self):
        base = [run(sweep_wall_s=s) for s in (10.0, 15.0, 20.0)]
        head = [run(sweep_wall_s=s) for s in (21.0, 22.0, 26.0)]
        self.assertEqual(verdicts(base, head)["sweep_wall_s"], "fail")

    def test_incorrect_head_run_fails(self):
        base = [run(), run(), run()]
        head = [run(), run(correct=False), run()]
        self.assertEqual(verdicts(base, head), {"correct": "fail"})

    def test_missing_result_fails(self):
        base = [run(), run(), run()]
        self.assertEqual(verdicts(base, [run(), {"result": None}, run()]),
                         {"correct": "fail"})


if __name__ == "__main__":
    unittest.main()
