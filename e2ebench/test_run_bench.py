#!/usr/bin/env python3
"""Self-test of run_bench.py's reductions and regression verdicts.

Runs without the bench program: the suite files it compares are
synthesized here.
  python3 e2ebench/test_run_bench.py
"""

import copy
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_bench  # noqa: E402

HOST_S = {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1}
SIM_MHZ = {"name": "sim_mhz", "unit": "MHz", "better": "higher", "bound": 0.1}
SETUP_S = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}


def run_doc(host_s, gen_s, construct_s, probe=1.0):
    """A bench-program document whose probes all read `probe` times the
    reference."""
    t = run_bench.PROBE_REFERENCE_S * probe

    def probes(n):
        return {"compute_s": [t] * n, "memory_s": [t] * n}

    return {"host_s": host_s, "modeled_cycles": 1e8, "requests": 1000,
            "gen_s": gen_s, "construct_s": construct_s, "peak_rss_mb": 64.0,
            "setup_probes": probes(2), "rep_probes": probes(len(host_s) + 1)}


def suite(host_s, seed=1):
    """A suite file whose every workload row has these host_s samples."""
    e2e = {}
    for spec in run_bench.SPEC["end_to_end"]:
        values = host_s if spec["name"] == "host_s" else [1.0] * len(host_s)
        e2e[spec["name"]] = run_bench.summary(list(values), spec["unit"])
    row = {"correct": True, "checks": {"digest_stable": True},
           "attempted": len(host_s), "failed": 0, "end_to_end": e2e,
           "model": {name: 1 for name in run_bench.EXACT}}
    return {"schema": "easydram-e2ebench-v1", "seed": seed, "scale": 1.0,
            "workloads": {w: copy.deepcopy(row) for w in run_bench.WORKLOADS}}


class Reductions(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        xs = [0.91, 0.84, 0.88, 0.95, 0.86, 0.90, 0.87, 0.89, 0.93]
        q1, med, q3 = run_bench.quartiles(xs)
        self.assertEqual([q1, med, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(med, statistics.median(xs))
        self.assertAlmostEqual(run_bench.spread(xs), (q3 - q1) / med)

    def test_single_sample_has_no_spread(self):
        self.assertEqual(run_bench.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(run_bench.spread([2.5]), 0.0)

    def test_lower_quartile_stays_in_range(self):
        self.assertEqual(run_bench.lower_quartile([0.5, 0.25]), 0.3125)
        self.assertEqual(run_bench.lower_quartile([3.0, 1.0, 2.0]), 1.5)

    def test_end_to_end_values_per_run(self):
        doc = run_doc([0.5, 0.5, 0.9, 0.5, 0.5], gen_s=[0.1, 0.3, 0.2],
                      construct_s=[0.01, 0.03, 0.02, 0.02, 0.02])
        v = run_bench.end_to_end_values([doc])
        self.assertEqual(v["host_s"], [0.5])
        self.assertEqual(v["sim_mhz"], [200.0])
        self.assertEqual(v["mem_req_per_s"], [2000.0])
        self.assertAlmostEqual(v["setup_s"][0], 0.2 + 0.02)
        self.assertEqual(v["peak_rss_mb"], [64.0])

    def test_slow_host_is_scaled_to_the_reference(self):
        doc = run_doc([0.6] * 4, gen_s=[0.3], construct_s=[0.0] * 4,
                      probe=1.5)
        v = run_bench.end_to_end_values([doc])
        self.assertAlmostEqual(v["host_s"][0], 0.6 / 1.5)
        self.assertAlmostEqual(v["setup_s"][0], 0.3 / 1.5)

    def test_scaling_uses_the_faster_reading_around_a_phase(self):
        ref = run_bench.PROBE_REFERENCE_S
        self.assertAlmostEqual(run_bench.to_reference(3.0, ref, 3 * ref), 3.0)
        self.assertAlmostEqual(run_bench.to_reference(2.0, 3 * ref, 2 * ref),
                               1.0)

    def test_reading_is_the_geometric_mean_of_the_probes(self):
        self.assertEqual(run_bench.readings(
            {"compute_s": [0.02, 0.08], "memory_s": [0.08, 0.02]}),
            [0.04, 0.04])


class Verdicts(unittest.TestCase):
    def test_within_bound_is_ok(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        change = [x * 1.05 for x in base]
        self.assertEqual(run_bench.compare_metric(HOST_S, base, change)[0],
                         "ok")

    def test_past_bound_regresses(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        change = [x * 1.2 for x in base]
        v, worse = run_bench.compare_metric(HOST_S, base, change)
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(worse, 0.2)

    def test_wide_spread_is_unresolved(self):
        base = [0.7, 1.0, 1.3, 0.8, 1.2]
        change = [0.8, 1.25, 1.4, 0.9, 1.1]
        self.assertEqual(run_bench.compare_metric(HOST_S, base, change)[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [2.0, 2.6, 3.2]
        change = [1.0, 1.4, 1.9]
        self.assertEqual(run_bench.compare_metric(HOST_S, base, change)[0],
                         "better")

    def test_wide_spread_but_every_run_worse_regresses(self):
        base = [1.0, 1.4, 1.9]
        change = [2.0, 2.6, 3.2]
        self.assertEqual(run_bench.compare_metric(HOST_S, base, change)[0],
                         "regressed")

    def test_higher_is_better_direction(self):
        base = [100.0, 101.0, 99.0]
        worse = [x * 0.8 for x in base]
        better = [x * 1.2 for x in base]
        self.assertEqual(run_bench.compare_metric(SIM_MHZ, base, worse)[0],
                         "regressed")
        self.assertEqual(run_bench.compare_metric(SIM_MHZ, base, better)[0],
                         "better")

    def test_setup_shift_within_absolute_tolerance_is_ok(self):
        # A millisecond set-up that reads 1.2 ms in one process and 2.0 ms
        # in the next is 67% worse, but far inside the 5 ms tolerance.
        base = [0.0012, 0.0012, 0.0013, 0.0012, 0.0012]
        change = [0.0020, 0.0020, 0.0021, 0.0019, 0.0020]
        v, worse = run_bench.compare_metric(SETUP_S, base, change)
        self.assertEqual(v, "ok")
        self.assertGreater(worse, 0.5)

    def test_setup_regression_past_both_bounds(self):
        base = [0.020, 0.021, 0.019, 0.020, 0.020]
        change = [x * 1.5 for x in base]
        self.assertEqual(run_bench.compare_metric(SETUP_S, base, change)[0],
                         "regressed")


class CompareFiles(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.base = [0.90, 0.91, 0.89, 0.90, 0.92, 0.90, 0.91, 0.89, 0.90]

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = Path(self.dir.name) / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_injected_host_s_regression_fails(self):
        bound = next(m["bound"] for m in run_bench.SPEC["end_to_end"]
                     if m["name"] == "host_s")
        a = self.write("a.json", suite(self.base))
        b = self.write("b.json",
                       suite([x * (1.1 + bound) for x in self.base]))
        self.assertEqual(run_bench.main(["--compare", a, b]), 1)

    def test_same_results_pass(self):
        a = self.write("a.json", suite(self.base))
        self.assertEqual(run_bench.main(["--compare", a, a]), 0)

    def test_changed_model_output_fails(self):
        changed = suite(self.base)
        changed["workloads"]["chase"]["model"]["modeled_cycles"] = 2
        a = self.write("a.json", suite(self.base))
        b = self.write("b.json", changed)
        self.assertEqual(run_bench.main(["--compare", a, b]), 1)


if __name__ == "__main__":
    unittest.main()
