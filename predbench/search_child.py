"""One program process of the search workloads.

Started by ``run.py`` with the pinned environment.  It imports the
program, builds the models, clusterings and cluster, and prints
``READY <monotonic time>``; that is the set-up time.  With
``--mode setup`` it exits there.  With ``--mode run`` it then runs the
untimed references and the timed cold reps through the public Python
API, and writes its results as JSON to ``--out``.

alpa-search searches GPT, MoE, BERT and ViT with ``full``; predtop-search
searches GPT and MoE with ``predtop-dag_transformer`` (trust on, default
ensemble).  The workload seed orders the cases inside each rep.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_plan, check_table  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from common import (cell_counts, digest, geomean, journal_events, median,  # noqa: E402
                    percentile, tree_cpu_s, tree_peak_rss_mb)

from repro.cluster.mesh import enumerate_submeshes, logical_views  # noqa: E402
from repro.cluster.platforms import get_platform  # noqa: E402
from repro.core.sampling import stratified_sample  # noqa: E402
from repro.core.search import PlanSearcher  # noqa: E402
from repro.models.clustering import cluster_layers  # noqa: E402
from repro.models.configs import benchmark_config  # noqa: E402
from repro.models.model import build_model  # noqa: E402
from repro.parallel import intra_op, resharding  # noqa: E402
from repro.parallel.plan_cache import (cached_optimize_stage,  # noqa: E402
                                       global_plan_cache)
from repro.predictors.encoding_cache import global_encoding_cache  # noqa: E402
from repro.predictors.trainer import TrainConfig  # noqa: E402
from repro.predictors.trust import TrustConfig  # noqa: E402
from repro.runtime import opcost  # noqa: E402
from repro.runtime.executor import execute_plan  # noqa: E402
from repro.runtime.profiler import StageProfiler  # noqa: E402
from repro.runtime.schedules import get_schedule  # noqa: E402

#: fast depth: 2 blocks, 4 clustering units, 8 micro-batches
LAYERS, UNITS, MICROBATCHES = 2, 4, 8
SAMPLE_FRACTION = 0.5
CASES = {"alpa-search": ("gpt", "moe", "bert", "vit"),
         "predtop-search": ("gpt", "moe")}


class TableSearcher(PlanSearcher):
    """Keeps the stage-latency table the inter-op DP was given."""

    table = None

    def _run_dp(self, table):
        self.table = table
        return super()._run_dp(table)


def clear_memos() -> None:
    """Drop every process-wide memo, so each rep does the same work."""
    global_plan_cache().clear()
    intra_op.clear_table_caches()
    resharding.clear_reshard_caches()
    opcost.clear_op_time_cache()
    global_encoding_cache().clear()


def truth(profiler: StageProfiler, layer_slice, submesh) -> float:
    """In-process best latency over logical views, memory-feasible only
    (what the search's own measurement records for an entry)."""
    best = math.inf
    for lv in logical_views(submesh):
        p = profiler.profile_stage(*layer_slice, submesh, lv.dp, lv.mp)
        if p.profile.memory_bytes <= submesh.gpu.mem_capacity:
            best = min(best, p.latency)
    return best


class Case:
    def __init__(self, family: str, cluster) -> None:
        self.family = family
        self.model = build_model(benchmark_config(family, LAYERS))
        self.clustering = cluster_layers(self.model, UNITS)
        self.cluster = cluster
        self.submeshes = enumerate_submeshes(cluster)
        self.transfer = cluster.inter_link.transfer_time(
            self.model.activation_bytes())
        self.unit_slices = [(i, j) for i in range(UNITS)
                            for j in range(i + 1, UNITS + 1)]
        sampled = set(stratified_sample(self.unit_slices, SAMPLE_FRACTION, 0))
        self.predicted = {(i, j, m) for (i, j) in self.unit_slices
                          if (i, j) not in sampled
                          for m in range(len(self.submeshes))}
        self.truth: dict = {}
        self.ref_profiler: StageProfiler | None = None
        self.ref_latency = math.nan

    def searcher(self, workload: str, jobs=None) -> TableSearcher:
        profiler = StageProfiler(self.model, aggressive_fusion=True)
        if workload == "alpa-search":
            return TableSearcher(self.model, self.clustering, self.cluster,
                                 n_microbatches=MICROBATCHES,
                                 profiler=profiler, jobs=jobs)
        return TableSearcher(
            self.model, self.clustering, self.cluster,
            n_microbatches=MICROBATCHES, profiler=profiler,
            sample_fraction=SAMPLE_FRACTION,
            train_config=TrainConfig(epochs=20, patience=20, batch_size=8,
                                     lr=2e-3, seed=0),
            seed=0, jobs=jobs, trust=TrustConfig(enabled=True))

    def reference(self) -> None:
        """Untimed in-process exhaustive search: truth and regret base."""
        ref = self.searcher("alpa-search", jobs=1)
        result = ref.search_full()
        self.ref_profiler = ref.profiler
        for (i, j, m) in ref.table.values:
            self.truth[(i, j, m)] = truth(
                ref.profiler, self.clustering.slice_range(i, j),
                self.submeshes[m])
        self.ref_latency = self.plan_latency(result.plan)

    def plan_latency(self, plan) -> float:
        """1F1B iteration latency of ``plan`` on in-process truth."""
        # the plan's submesh objects may be copies pickled through the
        # pool, whose key() differs; truth is keyed on this process's own
        times = [truth(self.ref_profiler, st.layer_range,
                       self.submeshes[st.submesh_index])
                 for st in plan.stages]
        return get_schedule("1f1b").simulated_latency(
            times, MICROBATCHES, transfer_time=self.transfer)

    def estimate_ratios(self) -> list[float]:
        """DP estimate over noise-free executed latency, committed plans."""
        ratios = []
        for (i, j, m) in sorted(self.truth):
            s, e = self.clustering.slice_range(i, j)
            graph = self.ref_profiler.training_graph(s, e)
            for lv in logical_views(self.submeshes[m]):
                plan = cached_optimize_stage(
                    graph, self.submeshes[m].logical(lv.dp, lv.mp))
                ratios.append(plan.estimated_time
                              / execute_plan(plan, noise=False).latency)
        return ratios

    def check(self, searcher: TableSearcher, plan) -> list[str]:
        n = len(self.submeshes)
        stages = [{"unit_range": st.unit_range,
                   "layer_range": st.layer_range,
                   "submesh": (st.submesh_index if 0 <= st.submesh_index < n
                               and st.submesh == self.submeshes[
                                   st.submesh_index] else repr(st.submesh))}
                  for st in plan.stages]
        return [f"{self.family}: {p}" for p in
                check_plan(stages, len(self.model.layers), UNITS,
                           {i: sm.num_devices
                            for i, sm in enumerate(self.submeshes)},
                           self.cluster.num_devices)
                + check_table(searcher.table.values)]


def outputs(case: Case, searcher: TableSearcher, result) -> dict:
    table = searcher.table.values
    plan = result.plan
    return {
        "plan_digest": digest([(st.unit_range, st.submesh_index)
                               for st in plan.stages]),
        "table_digest": digest(sorted((list(k), repr(v))
                                      for k, v in table.items())),
        "plan_latency_s": case.plan_latency(plan),
        "trust": result.trust.as_dict() if result.trust else None,
        "table": {k: v for k, v in table.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out", default="")
    ap.add_argument("--trace-dir", default="")
    args = ap.parse_args()

    cluster = get_platform("platform2").cluster()
    families = list(CASES[args.workload])
    random.Random(args.seed).shuffle(families)
    cases = [Case(f, cluster) for f in families]
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0

    workload = args.workload
    for case in cases:
        clear_memos()
        case.reference()
    ratios = []
    if args.trace:
        ratios = [r for case in cases for r in case.estimate_ratios()]

    me = os.getpid()
    reps, problems, first = [], [], {}
    attempted = failed = 0

    def rep(index: int, tracer=None) -> dict:
        """One cold rep; its times (and its traced span) cover the
        searches alone, and the output checks run after them."""
        nonlocal attempted, failed
        clear_memos()
        if tracer is not None:
            tracer.op = index
            _, span = tracer.begin("bench.op", index)
        cpu0, t0 = tree_cpu_s(me), time.perf_counter()
        per_case, done = {}, []
        for case in cases:
            attempted += 1
            c0 = time.perf_counter()
            searcher = case.searcher(workload)
            try:
                result = (searcher.search_full() if workload == "alpa-search"
                          else searcher.search_predtop())
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                failed += 1
                problems.append(f"rep {index} {case.family}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            per_case[case.family] = time.perf_counter() - c0
            done.append((case, searcher, result))
        timing = {"wall_s": time.perf_counter() - t0,
                  "cpu_s": tree_cpu_s(me) - cpu0, "case_s": per_case}
        if tracer is not None:
            tracer.end(span)
            tracer.op = None
            timing["window"] = (span[1], span[2])
        for case, searcher, result in done:
            bad = case.check(searcher, result.plan)
            out = outputs(case, searcher, result)
            ref = first.setdefault(case.family, out)
            for key in ("plan_digest", "table_digest"):
                if out[key] != ref[key]:
                    bad.append(f"{case.family}: {key} differs from rep 0")
            if bad:
                failed += 1
                problems.extend(f"rep {index} {p}" for p in bad)
        return timing

    def timed(budget: float, tracer=None, speed=None) -> list[dict]:
        """Reps until ``budget`` seconds of reps have run; host-speed
        probes, when asked for, go around each rep, off the budget."""
        out, spent = [], 0.0
        if speed is not None:
            speed.sample()
        while not out or spent < budget:
            t0 = time.perf_counter()
            out.append(rep(len(reps) + len(out), tracer))
            spent += time.perf_counter() - t0
            if speed is not None:
                speed.sample()
        return out

    traced_reps: list[dict] = []
    tracer = None
    host_speed = None
    if args.trace:
        reps.extend(timed(args.seconds / 2))
        import tracing
        tracer = tracing.install(Path(args.trace_dir))
        traced_reps = timed(args.seconds / 2, tracer)
        tracer.dump()
    else:
        with HostSpeed(dict(os.environ)) as speed:
            reps.extend(timed(args.seconds, speed=speed))
        host_speed = speed.detail()

    res = {"attempted": attempted, "failed": failed, "problems": problems,
           "reps": reps, "cases": {}, "host_speed": host_speed}
    for case in cases:
        o = first.get(case.family)
        if o is None:
            continue
        table = o["table"]
        entries = (sorted(case.predicted) if workload == "predtop-search"
                   else sorted(table))
        measured = [k for k in sorted(table) if k not in case.predicted
                    or workload == "alpa-search"]
        res["cases"][case.family] = {
            "plan_digest": o["plan_digest"],
            "table_digest": o["table_digest"],
            "plan_latency_s": o["plan_latency_s"],
            "ref_latency_s": case.ref_latency,
            "rel_errors": [abs(table[k] - case.truth[k]) / case.truth[k]
                           for k in entries],
            "truth_mismatch": sum(1 for k in measured
                                  if table[k] != case.truth[k]),
            "trust": o["trust"],
        }
    if len(res["cases"]) == len(cases):
        res["metrics"] = e2e_metrics(res, tree_peak_rss_mb(
            me, include_reaped=True))
    if args.trace:
        res["per_layer"] = per_layer(res, tracer, traced_reps, ratios)
    Path(args.out).write_text(json.dumps(res))
    return 0


def e2e_metrics(res: dict, peak_rss_mb: float) -> dict:
    """End-to-end metrics of a search workload."""
    reps = res["reps"]
    cases = res["cases"]
    case_ms = [1e3 * t for r in reps for t in r["case_s"].values()]
    errors = [e for c in cases.values() for e in c["rel_errors"]]
    trusts = [c["trust"] for c in cases.values() if c["trust"]]
    if trusts:
        model_share = (sum(t["trusted"] for t in trusts)
                       / sum(t["total"] for t in trusts))
    else:
        # exhaustive profiling: every entry is a measurement, none fell back
        model_share = 1.0
    return {
        "search_s": median([r["wall_s"] for r in reps]),
        "cpu_ms_per_op": 1e3 * median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": peak_rss_mb,
        "plan_latency_s": geomean(c["plan_latency_s"] for c in cases.values()),
        "plan_regret": geomean(c["plan_latency_s"] / c["ref_latency_s"]
                               for c in cases.values()),
        "stage_mre": sum(errors) / len(errors),
        "model_share": model_share,
        "predict_p50_ms": median(case_ms),
        "mix_p90_ms": percentile([1e3 * r["wall_s"] for r in reps], 90.0),
        "max_rate_rps": (sum(len(r["case_s"]) for r in reps)
                         / sum(r["wall_s"] for r in reps)),
    }


def per_layer(res: dict, tracer, traced_reps: list[dict],
              ratios: list[float]) -> dict:
    """Per-layer metrics of the traced reps (span analysis + counts)."""
    import tracing

    prof = tracing.Profile(tracing.load(tracer.out_dir),
                           [r["window"] for r in traced_reps])
    trusts = [c["trust"] for c in res["cases"].values() if c["trust"]]
    external = {
        "parallel.estimate_ratio_p50": median(ratios) if ratios else 0.0,
        "runtime.truth_mismatch": sum(c["truth_mismatch"]
                                      for c in res["cases"].values()),
        "predictors.escalated_analytical": sum(
            t["escalated_analytical"] for t in trusts),
        "predictors.escalated_profiled": sum(
            t["escalated_profiled"] for t in trusts),
        "predictors.degraded": sum(t["degraded"] for t in trusts),
        "serving.search_cache_hit_rate": 0.0,
        "serving.predict_p90_ms": 0.0,
        "serving.degraded_answers": 0,
        "serving.shed": 0,
        "serving.breaker_trips": 0,
        # every rep is cold and searches each case once
        "bench.search_repeat_share": 0.0,
        "trace.unattributed_share": tracing.unattributed_share(prof),
        "trace.overhead_ms_per_op": tracing.overhead_ms(
            [r["wall_s"] for r in traced_reps],
            [r["wall_s"] for r in res["reps"]]),
    }
    n_ops = len(traced_reps)
    events = journal_events(Path(os.environ["REPRO_CACHE"]))
    external.update({k: v / n_ops for k, v in cell_counts(events).items()})
    return {"metrics": tracing.layer_metrics(prof, n_ops, external),
            "layers_ms_per_op": {k: v / n_ops for k, v in
                                 prof.layer_self_ms().items()},
            "workers": prof.workers, "spans": prof.n_spans}


if __name__ == "__main__":
    raise SystemExit(main())
