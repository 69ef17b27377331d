#!/usr/bin/env python3
"""Self-tests for the benchmark.

    python3 wlanbench/test_bench.py          # from the repository root

The last test builds the benchmark binary and runs a short traced pass per workload
(about a minute the first time, while it compiles).
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import derive  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return run.benchmark_spec()


class DerivedRatios(unittest.TestCase):
    REGISTRY = {
        "sim.events_executed": 1000, "sim.queue.scheduled": 550,
        "sim.queue.fired": 100, "sim.queue.cancelled": 451,
        "medium.tx_started": 50, "medium.corrupt_deliveries": 445,
        "medium.interference_checks": 100, "medium.pairs_scanned": 25,
        "mac.cohort.enrollments": 100, "mac.cohort.withdrawals": 96,
        "mac.cohort.decisions_fired": 4, "mac.cohort.cohorts_formed": 10,
        "traffic.arrivals": 200, "traffic.drops": 2,
    }

    def layers(self, registry):
        return {"counters": registry, "sim_seconds": 10.0, "measure_seconds": 8.0}

    def test_ratios_recomputed_by_hand(self):
        got = derive.counter_ratios(self.layers(self.REGISTRY))
        want = {
            "sim.events_per_sim_s": 100.0, "sim.sched_per_event": 5.5,
            "sim.cancel_frac": 0.82, "phy.tx_per_sim_s": 5.0,
            "phy.corrupt_per_tx": 8.9, "phy.checks_per_tx": 2.0,
            "phy.pairs_scanned_per_tx": 0.5, "mac.withdraw_frac": 0.96,
            "mac.enroll_per_decision": 25.0, "mac.cohorts_per_tx": 0.2,
            "traffic.arrivals_per_sim_s": 25.0, "traffic.drop_rate": 0.01,
        }
        self.assertEqual(set(got), set(want))
        for name, value in want.items():
            self.assertAlmostEqual(got[name], value, places=12, msg=name)

    def test_absent_counters_give_zero(self):
        registry = {k: v for k, v in self.REGISTRY.items()
                    if not k.startswith("traffic.")}
        got = derive.counter_ratios(self.layers(registry))
        self.assertEqual(got["traffic.arrivals_per_sim_s"], 0.0)
        self.assertEqual(got["traffic.drop_rate"], 0.0)

    def test_profile_and_overhead(self):
        layers = self.layers(self.REGISTRY)
        layers["unit_sim_rate"] = 30.0
        layers["timings"] = {name: 1.0 for name in derive.TIMINGS}
        profile = {"unit_sim_rate": 24.0, "profile": {
            "medium": {"events": 4, "wall_ns": 6000},
            "station": {"events": 0, "wall_ns": 0}}}
        got = derive.layer_metrics(layers, profile)
        self.assertAlmostEqual(got["obs.trace_overhead"][0], 0.25)
        self.assertEqual(got["obs.profile.medium.ns_per_event"], (1500.0, "ns"))
        self.assertEqual(got["obs.profile.station.ns_per_event"], (0.0, "ns"))
        self.assertEqual(set(got), set(derive.LAYER_TABLE))

    def test_spread_uses_python_quartiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.1, 9.9, 10.8]
        med, q1, q3, rel = derive.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((med, q1, q3), (statistics.median(values), want_q1, want_q3))
        self.assertAlmostEqual(rel, (want_q3 - want_q1) / med)


class OutputChecks(unittest.TestCase):
    EXPECTED = {"default_seed": 1, "hashes": {"dyn60_wtop": "aa"},
                "dyn60_wtop_phase_mbps": [20.0, 30.0], "phase_band": 0.1}

    def raw(self, hashes, phases):
        return {"checks_attempted": 0, "checks_failed": 0, "check_failures": [],
                "hashes": hashes, "phase_mbps": phases}

    def test_clean_run_passes(self):
        c = run.check_timed("dyn60_wtop", 1, self.raw(["aa", "aa"], [21, 29, 20, 30]),
                            self.EXPECTED)
        self.assertEqual((c.attempted, c.failed), (7, 0))

    def test_hash_drift_and_band_miss_fail(self):
        c = run.check_timed("dyn60_wtop", 1, self.raw(["aa", "bb"], [21, 40]),
                            self.EXPECTED)
        self.assertEqual((c.attempted, c.failed), (5, 2))
        c = run.check_timed("dyn60_wtop", 2, self.raw(["cc"], [20, 30]), self.EXPECTED)
        self.assertEqual((c.attempted, c.failed), (3, 0))  # recorded hash: seed 1 only


class Contract(unittest.TestCase):
    def test_names_and_keys(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        names = [w["name"] for w in s["workloads"]]
        self.assertEqual(tuple(names), derive.ALL_WORKLOADS)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_per_layer_matches_layer_table(self):
        self.assertEqual([m["name"] for m in spec()["per_layer"]], list(derive.LAYER_TABLE))


class TracedPass(unittest.TestCase):
    """Every per-layer metric in BENCHMARK.json is emitted by the traced pass
    of each workload it is listed under (and, in fact, of every workload)."""

    def test_traced_pass_emits_listed_metrics(self):
        per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        root = os.path.dirname(HERE)
        for workload in derive.ALL_WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", "1"],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True, timeout=900)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], workload)
            for name, (_layer, _e2e, workloads) in derive.LAYER_TABLE.items():
                if workload in workloads:
                    self.assertIn(name, result["metrics"], f"{workload}: {name}")
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             per_layer, workload)


if __name__ == "__main__":
    unittest.main()
