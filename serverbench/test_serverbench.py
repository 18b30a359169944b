#!/usr/bin/env python3
"""The benchmark's own test: the generator is a pure function of its seed,
a full-size run whose percentile sits on a cost-class step fails, and
every workload runs end to end in smoke mode (both run kinds, every
named metric present, protocol parity on the bottom-up workloads).

  python3 serverbench/test_serverbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class ServerBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, cls.hypo_serve = run.build()
        cls.spec = run.load_workloads()

    def fingerprint(self, name, seed):
        _, args = run.params_for(self.spec, name, {"prefill_commits": 25})
        out = subprocess.run(
            [self.binary, "--fingerprint", "--seed", str(seed),
             "--seconds", "2"] + args,
            stdout=subprocess.PIPE, text=True, check=True).stdout
        return out.strip()

    def test_same_seed_same_program_and_script(self):
        for name in self.spec["workloads"]:
            first = self.fingerprint(name, 5)
            self.assertEqual(first, self.fingerprint(name, 5), name)
            self.assertNotEqual(first, self.fingerprint(name, 6), name)

    def test_cost_class_step_fails_a_full_size_run(self):
        # Half the what-ifs trip the step budget, so the what-if median
        # sits between answered what-ifs and trips: the run must fail
        # and print no result.
        _, args = run.params_for(self.spec, "registrar_tabled", {
            "students": 300, "whatif_grad": 1, "whatif_open": 1,
            "nominal_ops_per_s": 1})
        proc = subprocess.run(
            [self.binary, "--workload", "registrar_tabled", "--seed", "1",
             "--seconds", "1", "--trace", "0",
             "--workdir", run.workdir()] + args,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("cost-class step: whatif_p50_ms", proc.stderr)
        last = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(list(last), ["serverbench_detail"])

    def test_smoke(self):
        rc = subprocess.call([sys.executable, os.path.join(HERE, "run.py"),
                              "--smoke"], cwd=run.ROOT)
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
