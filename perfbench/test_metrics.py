"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402
import run  # noqa: E402


def span(id, parent, start, end, name="x", label="", **attrs):
    return {"id": id, "parent": parent, "run": 1, "name": name, "label": label,
            "start_ns": start, "end_ns": end, "attrs": attrs}


class SelfTime(unittest.TestCase):
    def test_no_children_is_the_whole_span(self):
        self.assertEqual(M.self_time(span(1, 0, 10, 50), []), 40)

    def test_overlapping_children_count_once(self):
        # Two pool threads run children side by side: [10,30) and [20,40)
        # cover [10,40) together, so 30 of the parent's 100 are covered.
        parent = span(1, 0, 0, 100)
        kids = [span(2, 1, 10, 30), span(3, 1, 20, 40)]
        self.assertEqual(M.self_time(parent, kids), 70)

    def test_grandchildren_inside_a_child_add_nothing(self):
        parent = span(1, 0, 0, 100)
        child = span(2, 1, 10, 60)
        grandchild = span(3, 2, 20, 30)
        spans = [parent, child, grandchild]
        kids = M.children_of(spans)
        self.assertEqual(M.self_time(parent, kids[1]), 50)
        self.assertEqual(M.self_time(child, kids[2]), 40)

    def test_children_are_clipped_to_the_parent(self):
        parent = span(1, 0, 100, 200)
        kids = [span(2, 1, 50, 120), span(3, 1, 190, 260), span(4, 1, 300, 400)]
        self.assertEqual(M.self_time(parent, kids), 70)

    def test_touching_intervals_merge(self):
        self.assertEqual(M.covered([(0, 10), (10, 20), (30, 35)]), 25)


class OrderStatistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        for n in range(2, 12):
            vals = [float(v * v % 7) + v for v in range(n)]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            self.assertEqual(M.quartiles(vals), (q1, q2, q3))

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(M.quartiles([3.5]), (3.5, 3.5, 3.5))
        self.assertEqual(M.iqr_share([3.5]), 0.0)

    def test_quartiles_at_two_and_three_samples(self):
        self.assertEqual(M.quartiles([1.0, 2.0]), (0.75, 1.5, 2.25))
        self.assertEqual(M.quartiles([1.0, 2.0, 4.0]), (1.0, 2.0, 4.0))

    def test_no_tail_percentile_below_twenty_samples(self):
        # The median of 19 samples has only 9 beyond it.
        for n in range(0, 20):
            self.assertIsNone(M.tail_percentile(n), n)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(M.tail_percentile(20), 50)
        self.assertEqual(M.tail_percentile(40), 75)
        self.assertEqual(M.tail_percentile(100), 90)
        self.assertEqual(M.tail_percentile(1000), 99)

        def beyond(p, n):
            return n - math.ceil(p * n / 100)

        for n in (21, 33, 57, 250):
            p = M.tail_percentile(n)
            self.assertGreaterEqual(beyond(p, n), 10)
            self.assertLess(beyond(p + 1, n), 10)

    def test_nearest_rank_percentile(self):
        vals = list(range(1, 41))
        self.assertEqual(M.percentile(vals, 75), 30)
        self.assertEqual(M.percentile(vals, 50), 20)
        self.assertEqual(M.percentile([5.0], 99), 5.0)

    def test_summary_reports_the_tail_only_with_enough_samples(self):
        self.assertNotIn("tail_p", M.summarize([1.0] * 10))
        s = M.summarize([float(i) for i in range(40)])
        self.assertEqual((s["tail_p"], s["tail"], s["n"]), (75, 29.0, 40))


STDERR = """survey: platform=haswell fidelity=quick seed=7 jobs=1 pool=2 engine=event warm-start=on fleet-size=8
survey: table4                  6.84 s
survey: fleet_cap_spread        2.57 s
survey: wrote /tmp/o.json
"""

STDOUT = """  [PASS] something: fine

Survey scoreboard: quick fidelity checks per experiment (sweep pool: 2 threads)
+------------------+----------------+--------+--------+-----+-------+-----+-----+--------+-------+
| experiment       | anchor         | checks | status | pts | reuse | sur | chk | wall s | sim s |
+------------------+----------------+--------+--------+-----+-------+-----+-----+--------+-------+
|           table4 |       Table IV |    2/2 |   PASS |   6 |     6 |   0 |   0 |   6.84 | 18.00 |
| fleet_cap_spread | Beyond the paper |  4/4 |   PASS |  16 |    16 |   0 |   0 |   2.57 | 24.00 |
+------------------+----------------+--------+--------+-----+-------+-----+-----+--------+-------+

survey: 2 experiments, 6/6 checks passed
"""


class Parsing(unittest.TestCase):
    def test_banner(self):
        b = M.parse_banner(STDERR.splitlines()[0])
        self.assertEqual((b["platform"], b["pool"], b["jobs"], b["fleet-size"]), ("haswell", "2", "1", "8"))
        self.assertIsNone(M.parse_banner("survey: table4   6.84 s"))

    def test_per_experiment_stderr_lines(self):
        self.assertEqual(M.parse_timings(STDERR), {"table4": 6.84, "fleet_cap_spread": 2.57})

    def test_pts_column(self):
        rows = M.parse_scoreboard(STDOUT)
        self.assertEqual(sorted(rows), ["fleet_cap_spread", "table4"])
        self.assertEqual(rows["table4"]["reuse"], "6")
        self.assertEqual(M.scoreboard_points(STDOUT), 22)

    def test_text_without_a_scoreboard_has_no_points(self):
        self.assertEqual(M.scoreboard_points("no table here\n"), 0)


def synthetic_layer_spans():
    """One span of every kind the layer exercises write."""
    s = [
        span(1, 0, 0, 1000, "sweep", "sweep_warm", points=2),
        span(2, 1, 0, 300, "warmup"),
        span(3, 1, 300, 900, "point"),
        span(4, 3, 300, 400, "node.advance", full=20, light=0, limited=1),
        span(5, 3, 400, 450, "node.advance", full=0, light=20, limited=0),
        span(6, 3, 450, 500, "node.advance", full=20, light=0, limited=0),
        span(7, 3, 500, 510, "tools.perfctr", "sample+derive"),
        span(8, 3, 510, 610, "pcu.solve", calls=4, limited=1),
        span(9, 3, 610, 620, "pcu.solve", calls=4, limited=0),
        span(10, 0, 0, 10, "node.build"), span(11, 0, 0, 10, "node.restore"),
        span(12, 0, 0, 10, "node.snapshot"), span(13, 0, 0, 10, "node.fork", planes=14),
        span(14, 0, 0, 50, "analytic.predict", limited=1), span(15, 0, 0, 5, "analytic.predict", limited=0),
        span(16, 0, 0, 1, "analytic.for_chip"),
        span(17, 0, 0, 100, "fleet.sample", calls=10), span(18, 0, 0, 100, "fleet.apply", calls=10),
        span(19, 0, 0, 100, "fleet.spread", values=10),
        span(20, 0, 0, 1000, "tools.ftalat", samples=10), span(21, 0, 0, 1000, "tools.cstate", wakes=10),
        span(22, 1, 900, 950, "spotcheck"),
    ]
    return s


class LayerReduction(unittest.TestCase):
    def test_layer_metrics_from_spans(self):
        m = M.layer_metrics(synthetic_layer_spans())
        self.assertEqual(m["node.full_steps"], 40)
        self.assertEqual(m["node.light_fraction"], 20 / 60)
        self.assertEqual(m["node.limited_step_share"], 20 / 60)
        self.assertEqual(m["node.full_step_limited_us"], 100 / 1e3 / 20)
        self.assertEqual(m["node.light_step_ns"], 50 / 20)
        self.assertEqual(m["pcu.solve_limited_us"], 100 / 1e3 / 4)
        self.assertEqual(m["analytic.capped_share"], 0.5)
        self.assertEqual(m["analytic.capped_time_share"], 50 / 55)
        self.assertEqual(m["survey.warmup_share"], 0.3)
        self.assertEqual(m["survey.spotcheck_share"], 0.05)
        # 1000 ns sweep, children cover [0,950): 50 ns self over 2 points.
        self.assertEqual(m["survey.sweep_self_us_per_point"], 50 / 1e3 / 2)
        self.assertEqual(m["tools.ftalat_us_per_sample"], 0.1)

    def test_layers_that_made_no_call_read_zero(self):
        m = M.layer_metrics([])
        self.assertTrue(all(v == 0 for v in m.values()))

    def test_experiment_metrics(self):
        spans = [span(1, 0, 0, 2e9, "experiment", "table4", sim_s=18, points=6, reuses=6,
                      surrogate_hits=6, spot_checks=2)]
        m = M.experiment_metrics(spans, ["table4", "fig3"])
        self.assertEqual(m["experiments.table4.wall_s"], 2.0)
        self.assertEqual(m["experiments.fig3.wall_s"], 0.0)
        self.assertEqual(m["survey.spotcheck_ratio"], 2 / 6)


class BenchmarkContract(unittest.TestCase):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_every_end_to_end_metric_is_emitted(self):
        results = [{"wall": 2.0, "cpu": 3.0, "rss": 20.0, "setup": 0.001}]
        docs = [{"total": 4, "failed": 0, "sim": 10.0, "points": 8, "sha": "x"}]
        emitted = set(run.sample_metrics(results, docs)) | {"setup_s"}
        self.assertEqual(emitted, {m["name"] for m in self.bench["end_to_end"]})

    def test_every_per_layer_metric_is_emitted(self):
        emitted = set(M.experiment_metrics([], run.experiment_ids()))
        emitted |= set(M.layer_metrics(synthetic_layer_spans()))
        emitted.add("trace.overhead_s")
        self.assertEqual(emitted, {m["name"] for m in self.bench["per_layer"]})

    def test_workloads_match(self):
        self.assertEqual(list(run.WORKLOADS), [w["name"] for w in self.bench["workloads"]])

    def test_interaction_map_names_only_benchmark_metrics_and_workloads(self):
        imap = json.loads((run.ROOT / "perfbench" / "interactions.json").read_text())
        layer = {m["name"] for m in self.bench["per_layer"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for group in imap["groups"]:
            self.assertLessEqual(set(group["layer_metrics"]), layer, group["name"])
            for pred in group["moves"] + group["no_change"]:
                self.assertIn(pred["workload"], workloads, group["name"])
                self.assertLessEqual(set(pred["metrics"]), e2e, group["name"])
                self.assertIn(pred.get("only_through", "survey.points"), layer, group["name"])

    def test_every_benchmark_seed_selects_a_scanned_passing_seed(self):
        picked = {run.survey_seed(s) for s in range(1000)}
        self.assertEqual(picked, set(run.SURVEY_SEEDS))
        self.assertFalse(picked & {2, 21, 27, 39})
        self.assertEqual(run.survey_seed(2**64 - 1), run.survey_seed((2**64 - 1) % len(run.SURVEY_SEEDS)))

    def test_missing_document_counts_its_checks_as_failed(self):
        ok = {"total": 5, "failed": 0}
        self.assertEqual(run.tally([[ok], [None]], 1), (10, 5))
        self.assertEqual(run.tally([[None]], 1), (1, 1))


if __name__ == "__main__":
    unittest.main()
