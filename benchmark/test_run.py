#!/usr/bin/env python3
"""Unit tests for benchmark/run.py's statistics, checks and comparisons,
against fixture data (no build, no reps).

    python3 benchmark/test_run.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "wall_ref_s", "unit": "s", "better": "lower",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [],
}


def rep(digest="0x1", attempted=4, failed=0, checks="", mode="rep",
        **extra):
    out = {"mode": mode, "digest": digest, "attempted": attempted,
           "failed": failed, "failed_checks": checks}
    out.update(extra)
    return out


def result_set(seed=1, **workloads):
    """A result.json-shaped dict: workload -> {metric: (value, iqr)}."""
    return {"seed": seed, "workloads": {
        w: {"metrics": {name: {"value": v, "iqr_share": iqr}
                        for name, (v, iqr) in metrics.items()}}
        for w, metrics in workloads.items()}}


class Statistics(unittest.TestCase):
    def test_median_and_iqr_match_statistics_quantiles(self):
        values = [4.0, 1.0, 3.0, 2.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.median(values), 3.0)
        self.assertAlmostEqual(run.iqr_share(values), (q[2] - q[0]) / 3.0)

    def test_iqr_of_one_value_is_zero(self):
        self.assertEqual(run.iqr_share([5.0]), 0.0)

    def test_iqr_of_identical_values_is_zero(self):
        self.assertEqual(run.iqr_share([2.0] * 6), 0.0)


class EndToEndValues(unittest.TestCase):
    def test_fastest_rep_rescaled_by_fastest_reference_loop(self):
        reps = [rep(wall_s=3.0, setup_s=2e-4, peak_rss_mb=30.0, ref_s=0.04),
                rep(wall_s=2.0, setup_s=3e-4, peak_rss_mb=31.0, ref_s=0.05),
                rep(wall_s=2.5, setup_s=1e-4, peak_rss_mb=40.0, ref_s=0.05)]
        out = run.e2e_values(reps)
        self.assertAlmostEqual(out["wall_ref_s"],
                               2.0 / 0.04 * run.REFERENCE_LOOP_S)
        self.assertEqual(out["setup_s"], 1e-4)
        self.assertEqual(out["peak_rss_mb"], 31.0)

    def test_slow_phase_cancels_out(self):
        fast = run.e2e_values(
            [rep(wall_s=2.0, setup_s=0, peak_rss_mb=0, ref_s=0.025)])
        slow = run.e2e_values(
            [rep(wall_s=2.3, setup_s=0, peak_rss_mb=0, ref_s=0.025 * 1.15)])
        self.assertAlmostEqual(fast["wall_ref_s"], slow["wall_ref_s"])


class ParseRepLine(unittest.TestCase):
    def test_last_line_is_the_rep(self):
        text = 'warming up\n{"mode": "rep", "wall_s": 1.5}\n\n'
        self.assertEqual(run.parse_rep_line(text)["wall_s"], 1.5)

    def test_malformed_json_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_rep_line('{"mode": "rep", "wall_s": \n')

    def test_empty_output_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_rep_line("\n  \n")

    def test_line_without_mode_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_rep_line("[1, 2]")


class FailedShareRule(unittest.TestCase):
    def test_clean_reps_fail_nothing(self):
        checks, failed = run.check_reps([rep(mode="traced"), rep(), rep()])
        self.assertEqual((checks, failed), ([], 0))

    def test_failed_check_fails_every_op_of_that_rep(self):
        checks, failed = run.check_reps(
            [rep(), rep(checks="paper:xpr_overflow")])
        self.assertEqual(checks, ["paper:xpr_overflow"])
        self.assertEqual(failed, 4)

    def test_digest_mismatch_across_reps_fails_the_rep(self):
        checks, failed = run.check_reps([rep("0x1"), rep("0x2")])
        self.assertEqual(checks, ["digest_across_reps"])
        self.assertEqual(failed, 4)

    def test_traced_digest_mismatch_is_named(self):
        checks, failed = run.check_reps([rep("0x1"),
                                         rep("0x2", mode="traced")])
        self.assertEqual(checks, ["digest_traced"])
        self.assertEqual(failed, 4)

    def test_failed_trials_count_one_by_one(self):
        checks, failed = run.check_reps(
            [rep(attempted=1500, failed=2, checks="checker:storm"),
             rep(attempted=1500, failed=2, checks="checker:storm")])
        self.assertEqual(checks, ["checker:storm"])
        self.assertEqual(failed, 3000)
        checks, failed = run.check_reps([rep(attempted=1500, failed=2)])
        self.assertEqual(failed, 2)


class Agree(unittest.TestCase):
    def verdicts(self, a, b):
        return {(w, m): v for w, m, v, _ in run.agree(a, b, SPEC)}

    def test_exact_metrics_must_be_equal(self):
        a = result_set(w={"shootdown_p99_us": (2300.5, 0.0)})
        same = result_set(w={"shootdown_p99_us": (2300.5, 0.0)})
        moved = result_set(w={"shootdown_p99_us": (2300.6, 0.0)})
        self.assertEqual(self.verdicts(a, same)[("w", "shootdown_p99_us")],
                         "agree")
        self.assertEqual(self.verdicts(a, moved)[("w", "shootdown_p99_us")],
                         "differ")

    def test_host_metric_within_bound_agrees(self):
        a = result_set(w={"wall_ref_s": (4.0, 0.01)})
        b = result_set(w={"wall_ref_s": (4.3, 0.02)})
        self.assertEqual(self.verdicts(a, b)[("w", "wall_ref_s")], "agree")

    def test_host_metric_beyond_bound_differs(self):
        a = result_set(w={"wall_ref_s": (4.0, 0.01)})
        b = result_set(w={"wall_ref_s": (4.5, 0.01)})
        self.assertEqual(self.verdicts(a, b)[("w", "wall_ref_s")],
                         "differ")

    def test_spread_wider_than_bound_is_unresolved(self):
        a = result_set(w={"wall_ref_s": (4.0, 0.12)})
        b = result_set(w={"wall_ref_s": (4.0, 0.01)})
        self.assertEqual(self.verdicts(a, b)[("w", "wall_ref_s")],
                         "unresolved")

    def test_host_metric_without_bound_is_not_compared(self):
        a = result_set(w={"sim.drill_event_ns": (12.0, 0.0)})
        b = result_set(w={"sim.drill_event_ns": (30.0, 0.0)})
        self.assertEqual(self.verdicts(a, b), {})

    def test_any_failed_op_disagrees(self):
        a = result_set(w={"failed_share": (0.0, 0.0)})
        b = result_set(w={"failed_share": (0.25, 0.0)})
        self.assertEqual(self.verdicts(a, b)[("w", "failed_share")],
                         "differ")

    def test_different_seeds_disagree(self):
        a = result_set(seed=1, w={})
        b = result_set(seed=2, w={})
        self.assertEqual(self.verdicts(a, b)[("*", "seed")], "differ")

    def test_missing_workload_disagrees(self):
        a = result_set(w={"wall_ref_s": (1.0, 0.0)})
        b = result_set()
        self.assertEqual(self.verdicts(a, b)[("w", "*")], "differ")


class LayerValues(unittest.TestCase):
    def traced(self):
        out = {"mode": "traced", "wall_s": 1.1}
        out.update({name: 0 for name in (
            "sim_runtime_s", "shootdown_p50_us", "shootdown_p99_us",
            "shootdown_p999_us", "shootdown_overhead_pct",
            "request_mean_us", "chk.coverage_buckets", "chk.trials",
            "hw.tlb_lookups", "vm.faults", "pmap.shootdowns")})
        for stem in run.SPAN_MEANS.values():
            out[f"span.{stem}.sum_us"] = 0
            out[f"span.{stem}.count"] = 0
        out.update({"sim.events": 1_000_000,
                    "span.vm.fault.sum_us": 900, "span.vm.fault.count": 3})
        return out

    def test_shares_and_residual(self):
        drills = {"sim.drill_event_ns": 200.0,
                  "sim.drill_fiber_switch_ns": 100.0,
                  "hw.drill_tlb_lookup_ns": 1.0,
                  "vm.drill_fault_host_us": 1.0,
                  "pmap.drill_shootdown_host_us": 1.0}
        reps = [self.traced(), rep(wall_s=2.0), rep(wall_s=1.0),
                rep(wall_s=3.0)]
        out = run.layer_values(reps, drills)
        # 1M events x 100 ns per fiber switch over the fastest rep's 1 s.
        self.assertAlmostEqual(out["sim.est_host_share"], 0.1)
        self.assertAlmostEqual(out["residual_host_share"], 0.9)
        self.assertAlmostEqual(out["sim.host_ns_per_event"], 1000.0)
        self.assertEqual(out["wall_s"], 1.0)
        # The fastest traced rep against the fastest untraced rep.
        self.assertAlmostEqual(out["obs.stats_overhead_pct"], 10.0)
        self.assertAlmostEqual(out["vm.fault_us_mean"], 300.0)
        self.assertEqual(out["kern.irq_deliver_us_mean"], 0.0)


if __name__ == "__main__":
    unittest.main()
