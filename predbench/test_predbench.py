"""Tests of the benchmark's own machinery (no program run needed).

Run: ``python3 -m pytest predbench/test_predbench.py`` or
``python3 -m unittest discover -s predbench``.
"""

from __future__ import annotations

import copy
import sys
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import hostspeed  # noqa: E402
import serve_mix  # noqa: E402
import tracing  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_linear_interpolation_matches_numpy_default(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(common.percentile(xs, 50), 3.0)
        self.assertAlmostEqual(common.percentile(xs, 90), 4.6)
        self.assertEqual(common.percentile(xs, 0), 1.0)
        self.assertEqual(common.percentile(xs, 100), 5.0)

    def test_tail_has_at_least_ten_samples_beyond_it(self):
        self.assertIsNone(common.tail_percentile(19))
        self.assertEqual(common.tail_percentile(20), 50.0)
        self.assertEqual(common.tail_percentile(100), 90.0)
        self.assertEqual(common.tail_percentile(999), 95.0)
        self.assertEqual(common.tail_percentile(1000), 99.0)
        self.assertEqual(common.tail_percentile(10_000), 99.9)

    def test_summary_states_sample_counts(self):
        s = common.summarize(range(200))
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_p"], 95.0)
        self.assertGreaterEqual(s["tail_beyond"], 10)
        self.assertEqual(common.summarize([]), {"n": 0})


def _span(name, start, end, parent=-1, op=None, extra=None):
    return [name, start, end, parent, op, extra]


class SelfTime(unittest.TestCase):
    """bench.op [0, 10] > runtime.profile [1, 7] > runtime.execute [2, 4];
    the profile also made leaf calls worth 1 s; parallel.inter_op [7, 9]."""

    def setUp(self):
        main = {"pid": 1, "forked": False, "spans": [
            _span("bench.op", 0.0, 10.0, op=0),
            _span("runtime.profile", 1.0, 7.0, 0,
                  extra={"leaf": {"parallel.strategies": [1.0, 3]}}),
            _span("runtime.execute", 2.0, 4.0, 1),
            _span("parallel.inter_op", 7.0, 9.0, 0),
            _span("runtime.profile", 20.0, 21.0),  # outside the window
        ]}
        worker = {"pid": 2, "forked": True, "cpu_s": 2.5, "spans": [
            _span("nn.forward", 3.0, 6.0)]}
        self.prof = tracing.Profile([main, worker], [(0.0, 10.0)])

    def test_self_time_subtracts_children_and_leaves(self):
        p = self.prof.self_s
        self.assertAlmostEqual(p["bench.op"], 10.0 - 6.0 - 2.0)
        self.assertAlmostEqual(p["runtime.profile"], 6.0 - 2.0 - 1.0)
        self.assertAlmostEqual(p["runtime.execute"], 2.0)
        self.assertAlmostEqual(p["parallel.strategies"], 1.0)
        self.assertEqual(self.prof.count["parallel.strategies"], 3)
        self.assertEqual(self.prof.count["runtime.profile"], 1)

    def test_worker_spans_count_for_their_layer(self):
        self.assertAlmostEqual(self.prof.self_s["nn.forward"], 3.0)
        self.assertEqual(self.prof.workers, 1)
        self.assertEqual(self.prof.worker_cpu_s, 2.5)
        layers = self.prof.layer_self_ms()
        self.assertAlmostEqual(layers["runtime"], 5000.0)
        self.assertAlmostEqual(layers["nn"], 3000.0)

    def test_blocking_spans_are_wait_not_layer_work(self):
        batch = {"pid": 1, "forked": False, "spans": [
            _span("experiments.parallel_map", 0.0, 4.0),
            _span("experiments.pool_wait", 1.0, 4.0, 0)]}
        layers = tracing.Profile([batch], [(0.0, 5.0)]).layer_self_ms()
        self.assertAlmostEqual(layers["experiments"], 1000.0)
        self.assertAlmostEqual(layers["wait"], 3000.0)

    def test_unattributed_share_is_op_self_time(self):
        self.assertAlmostEqual(tracing.unattributed_share(self.prof), 0.2)

    def test_hit_rate_from_children(self):
        # one profile span, and it had an execute child: a memo miss
        self.assertEqual(self.prof.hit_rate("runtime.profile",
                                            "runtime.execute"), 0.0)
        self.assertEqual(self.prof.childless.get("runtime.profile", 0), 0)


class OpenLoop(unittest.TestCase):
    def test_stalled_sender_inflates_later_requests(self):
        clock = [0.0]
        sent_at = {}

        def send(conn, req):
            sent_at[req["id"]] = clock[0]
            if req["id"] == 1:
                clock[0] += 0.5  # the sender stalls for 500 ms

        def sleep(dt):
            clock[0] += dt

        sched = [(0.1 * k, k % 2, {"id": k, "op": "predict"})
                 for k in range(6)]
        times = serve_mix.run_open_loop(sched, send, clock=lambda: clock[0],
                                        sleep=sleep, start_delay=0.0)
        # answers arrive the instant they are sent: latency is lateness
        answers = {i: [(sent_at[i], {"id": i, "ok": True})] for i in sent_at}
        recs = {r["id"]: r for r in serve_mix.latencies(sched, times,
                                                        answers)}
        self.assertAlmostEqual(recs[0]["latency_ms"], 0.0)
        self.assertAlmostEqual(recs[1]["latency_ms"], 0.0)
        self.assertAlmostEqual(recs[2]["latency_ms"], 400.0)
        self.assertAlmostEqual(recs[3]["latency_ms"], 300.0)
        self.assertAlmostEqual(recs[5]["latency_ms"], 100.0)
        self.assertAlmostEqual(recs[2]["lateness_s"], 0.4)


    def test_pooled_client_sends_on_the_less_busy_connection(self):
        class Conn:
            def __init__(self):
                self.pending, self.got = set(), []

            def send(self, req):
                self.pending.add(req["id"])
                self.got.append(req["id"])

        client = serve_mix.Client.__new__(serve_mix.Client)
        client.lock = threading.Lock()
        client.conns, client.sent = [Conn(), Conn()], []
        client._send(0, {"id": 1})  # both idle: the scheduled one
        client._send(0, {"id": 2})  # 0 is busy with 1: the idle one
        client._send(1, {"id": 3})  # one unanswered each: the scheduled one
        client.conns[0].pending.clear()
        client._send(1, {"id": 4})  # 0 has drained: it goes there
        self.assertEqual(client.conns[0].got, [1, 4])
        self.assertEqual(client.conns[1].got, [2, 3])
        self.assertEqual(client.sent, [1, 2, 3, 4])


class RateSearch(unittest.TestCase):
    def test_monotone_fit_pools_violators(self):
        self.assertEqual(serve_mix.monotone([0.2, 0.9, 0.5, 3.0, 1.2]),
                         [0.2, 0.7, 0.7, 2.1, 2.1])

    def test_crossing_interpolates_between_rungs(self):
        self.assertAlmostEqual(
            serve_mix.crossing([30, 70, 85, 100], [0.2, 0.5, 0.8, 1.4]),
            85 + 15 * (0.2 / 0.6))
        # one noisy failing rung below passing ones does not drag the
        # answer down to it, as a bisection would
        self.assertAlmostEqual(serve_mix.crossing(
            [30, 70, 85, 100, 115], [0.2, 1.3, 0.4, 0.9, 1.5]), 102.5)
        self.assertEqual(serve_mix.crossing([30, 70], [0.2, 0.5]), 70)
        self.assertEqual(serve_mix.crossing([30, 70], [1.5, 2.0]), 30)


class OutputChecks(unittest.TestCase):
    PLAN = [{"unit_range": (0, 2), "layer_range": (0, 3), "submesh": 0},
            {"unit_range": (2, 4), "layer_range": (3, 6), "submesh": 1}]
    DEVICES = {0: 1, 1: 2, 2: 4}

    def plan_problems(self, plan):
        return checks.check_plan(plan, 6, 4, self.DEVICES, 4)

    def test_valid_plan_passes(self):
        self.assertEqual(self.plan_problems(self.PLAN), [])

    def test_tampered_plans_fail(self):
        gap = copy.deepcopy(self.PLAN)
        gap[1]["layer_range"] = (4, 6)
        overlap = copy.deepcopy(self.PLAN)
        overlap[1]["unit_range"] = (1, 4)
        short = copy.deepcopy(self.PLAN)[:1]
        foreign = copy.deepcopy(self.PLAN)
        foreign[0]["submesh"] = "3x3-elsewhere"
        greedy = copy.deepcopy(self.PLAN)
        greedy[0]["submesh"] = 2
        for plan in (gap, overlap, short, foreign, greedy, []):
            self.assertTrue(self.plan_problems(plan), plan)

    def test_table_entries_finite_and_positive(self):
        self.assertEqual(checks.check_table({(0, 1, 0): 0.5}), [])
        for bad in (float("inf"), float("nan"), 0.0, -1.0):
            self.assertTrue(checks.check_table({(0, 1, 0): 0.5,
                                                (1, 2, 0): bad}))

    def test_one_response_per_request(self):
        self.assertEqual(checks.check_responses([1, 2], {1: ["a"], 2: ["b"]}),
                         [])
        self.assertTrue(checks.check_responses([1, 2], {1: ["a"]}))
        self.assertTrue(checks.check_responses([1], {1: ["a", "b"]}))
        self.assertTrue(checks.check_responses([1], {1: ["a"], 9: ["b"]}))

    def test_whatif_must_obey_eqn4(self):
        good = {"stage_latencies_s": [0.1, 0.3], "n_microbatches": 8,
                "iteration_latency_s": {"1f1b": 0.1 + 0.3 + 7 * 0.3}}
        self.assertEqual(checks.check_whatif(good), [])
        bad = copy.deepcopy(good)
        bad["iteration_latency_s"]["1f1b"] *= 1.001
        self.assertTrue(checks.check_whatif(bad))

    def test_search_answers_checked(self):
        def cand(units, times, b=4):
            return {"n_stages": len(units), "stage_units": units,
                    "stage_latencies_s": times,
                    "iteration_latency_s": checks.eqn4(times, b)}
        one = cand([[0, 4]], [1.0])
        two = cand([[0, 2], [2, 4]], [0.4, 0.5])
        good = {"schedule": "1f1b", "n_microbatches": 4,
                "candidates": [one, two], "best": two}
        self.assertEqual(checks.check_search(good, 4), [])
        wrong_best = dict(good, best=one)
        gap = copy.deepcopy(good)
        gap["candidates"][1]["stage_units"] = [[0, 1], [2, 4]]
        off = copy.deepcopy(good)
        off["candidates"][0]["iteration_latency_s"] += 0.01
        for bad in (wrong_best, gap, off):
            self.assertTrue(checks.check_search(bad, 4))

    def test_served_prediction_must_match_in_process(self):
        ref = {"model": {"0-2-None": 0.25}}
        rec = {"id": 7, "op": "predict",
               "req": {"params": {"slice": [0, 2]}},
               "resp": {"id": 7, "ok": True, "served_by": "model",
                        "result": {"latency_s": 0.25}}}
        self.assertEqual(serve_mix.answer_problems([rec], ref), [])
        bad = copy.deepcopy(rec)
        bad["resp"]["result"]["latency_s"] = 0.2501
        self.assertTrue(serve_mix.answer_problems([bad], ref))
        refused = copy.deepcopy(rec)
        refused["resp"] = {"id": 7, "ok": False,
                           "error": {"code": "overloaded"}}
        self.assertTrue(serve_mix.answer_problems([refused], ref))


class HostSpeedScaling(unittest.TestCase):
    def test_times_scale_with_the_factor_and_rates_against_it(self):
        raw = {"search_s": 2.0, "max_rate_rps": 1.5, "setup_s": 0.4,
               "plan_regret": 1.01}
        out = hostspeed.scale(raw, 1.25, "alpa-search")
        self.assertEqual(out["search_s"], 2.5)
        self.assertAlmostEqual(out["max_rate_rps"], 1.2)
        self.assertEqual(out["setup_s"], 0.5)
        # quality metrics do not depend on the probe
        self.assertEqual(out["plan_regret"], 1.01)

    def test_serving_latencies_and_rate_stay_as_measured(self):
        raw = {"cpu_ms_per_op": 8.0, "mix_p90_ms": 20.0,
               "max_rate_rps": 150.0}
        out = hostspeed.scale(raw, 0.5, "serve-mix")
        self.assertEqual(out, {"cpu_ms_per_op": 4.0, "mix_p90_ms": 20.0,
                               "max_rate_rps": 150.0})

    def test_probe_runs_everywhere_and_helpers_end(self):
        with hostspeed.HostSpeed() as speed:
            speed.sample()
        self.assertEqual(len(speed.samples), hostspeed.PROBES_PER_SAMPLE)
        self.assertTrue(all(h.returncode is not None for h in speed.helpers))
        d = speed.detail()
        self.assertAlmostEqual(d["factor"] * d["probe_median_s"],
                               hostspeed.REF_PROBE_S)


if __name__ == "__main__":
    unittest.main()
