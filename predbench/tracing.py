"""Span tracing around the program's layer boundaries, for the traced pass.

:func:`install` wraps public functions and methods of every layer module
in place (and a few private serving methods where the daemon has no
public boundary), so no program code changes.  Spans are kept in memory:

* the process that installed the tracer writes its spans with
  :meth:`Tracer.dump` when the benchmark ends;
* forked children (pool workers, supervised search candidates) inherit
  the wrappers, record into their own buffer and append it to
  ``<out_dir>/spans-<pid>.jsonl`` each time their outermost span closes,
  so time spent in workers is attributed to its layer instead of showing
  up as pool wait in the parent.

A span record is ``[name, start, end, parent, op, extra]``: ``parent``
indexes the record list of the same flush, ``op`` is the operation id
(search rep or request id) and ``extra`` holds per-span counts and the
time of *leaf* calls (hot, tiny functions timed without a span of their
own, charged to their layer and subtracted from the enclosing span).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from common import median

_TRACER: "Tracer | None" = None
#: Tensor objects created so far in this process (bumped by a wrapper)
_TENSORS = [0]


class Tracer:
    """Per-process span buffer with per-thread span stacks."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.forked = False
        #: operation id for spans of threads that set none themselves
        self.op = None
        self.stamps: dict[int, float] = {}
        self._fh = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the child starts with the parent's open stack; its own spans
        # form fresh trees that are flushed to its own file
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.stamps = {}
        self.forked = True
        self._fh = None

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def current_op(self):
        return getattr(self.local, "op", None) or self.op

    def begin(self, name: str, op=None) -> tuple[int, list]:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0,
               stack[-1][0] if stack else -1,
               self.current_op() if op is None else op, None]
        with self.lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append((idx, rec))
        return idx, rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.forked and not stack:
            self.flush()

    def record(self, name: str, start: float, end: float, op=None,
               extra: dict | None = None) -> None:
        """Append an already finished span with no parent."""
        with self.lock:
            self.spans.append([name, start, end, -1, op, extra])

    def leaf(self, name: str, start: float, end: float) -> None:
        stack = self._stack()
        if not stack:
            self.record(name, start, end)
            return
        rec = stack[-1][1]
        if rec[5] is None:
            rec[5] = {}
        acc = rec[5].setdefault("leaf", {}).setdefault(name, [0.0, 0])
        acc[0] += end - start
        acc[1] += 1

    def flush(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        if self._fh is None:
            self._fh = open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a")
        t = os.times()
        self._fh.write(json.dumps({"pid": os.getpid(), "forked": True,
                                   "cpu_s": t.user + t.system,
                                   "spans": spans}) + "\n")
        self._fh.flush()

    def dump(self) -> None:
        """Write this (main) process's spans; call once at the end."""
        with self.lock:
            spans, self.spans = self.spans, []
        with open(self.out_dir / f"spans-{os.getpid()}-main.jsonl", "w") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "forked": False,
                                 "spans": spans}) + "\n")


# ---------------------------------------------------------------- wrappers
def _span(name, fn, *, pre=None, post=None, op_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = _TRACER
        op = op_of(args) if op_of is not None else None
        state = pre() if pre is not None else None
        prev_op = None
        if op is not None:
            prev_op = getattr(tr.local, "op", None)
            tr.local.op = op
        _, rec = tr.begin(name, op)
        try:
            out = fn(*args, **kwargs)
            if post is not None:
                post(rec, state, args, out)
            return out
        finally:
            tr.end(rec)
            if op is not None:
                tr.local.op = prev_op
    return wrapper


def _leaf(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _TRACER.leaf(name, t0, time.perf_counter())
    return wrapper


def _counted(fn, bump):
    """``fn`` calling ``bump()`` first: a count without a span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)
    return wrapper


def _count_tensor() -> None:
    _TENSORS[0] += 1


def _count_pool_start() -> None:
    t = time.perf_counter()
    _TRACER.record("experiments.pool_start", t, t)


def _patch_function(modname: str, attr: str, make) -> None:
    """Replace ``modname.attr`` and every ``from modname import attr``."""
    orig = getattr(importlib.import_module(modname), attr)
    new = make(orig)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "__dict__", {}).get(attr) is orig):
            setattr(mod, attr, new)


def _patch_method(modname: str, clsname: str, attr: str, make) -> None:
    cls = getattr(importlib.import_module(modname), clsname)
    setattr(cls, attr, make(cls.__dict__[attr]))


def _extra(rec: list) -> dict:
    if rec[5] is None:
        rec[5] = {}
    return rec[5]


def _collapse_pre():
    from repro.parallel.intra_op import collapse_stats
    s = collapse_stats()
    return s.hits, s.misses


def _collapse_post(rec, state, args, out):
    from repro.parallel.intra_op import collapse_stats
    s = collapse_stats()
    if s.hits >= state[0] and s.misses >= state[1]:
        _extra(rec).update(ch=s.hits - state[0], cm=s.misses - state[1])


def _pad_post(rec, state, args, batches):
    pad = real = 0
    for b in batches:
        bsz, n = b.node_mask.shape
        pad += bsz * n * n
        real += int(sum(int(k) ** 2 for k in b.node_mask.sum(axis=1)))
    _extra(rec).update(pad=pad, real=real)


def _tensors_pre():
    return _TENSORS[0]


def _tensors_post(rec, state, args, out):
    _extra(rec)["tensors"] = _TENSORS[0] - state


def _size_post(rec, state, args, out):
    _extra(rec)["size"] = len(args[1])


def _op_from_result(rec, state, args, out):
    rec[4] = getattr(out, "id", None)


def _install_queue_stamps(tr: Tracer) -> None:
    """Time each item from enqueue to dequeue on the daemon's fair queues."""
    from repro.serving.tenancy import FairQueue

    put, get, get_nowait = (FairQueue.put_nowait, FairQueue.get,
                            FairQueue.get_nowait)

    def put_wrapper(self, tenant, item):
        ok = put(self, tenant, item)
        if ok:
            tr.stamps[id(item)] = time.perf_counter()
        return ok

    def taken(item):
        if item is not None:
            t0 = tr.stamps.pop(id(item), None)
            if t0 is not None:
                req = getattr(item, "request", None)
                tr.record("serving.queue_wait", t0, time.perf_counter(),
                          op=getattr(req, "id", None))
        return item

    FairQueue.put_nowait = put_wrapper
    FairQueue.get = lambda self, timeout=None: taken(get(self, timeout))
    FairQueue.get_nowait = lambda self: taken(get_nowait(self))


def install(out_dir: Path) -> Tracer:
    """Create this process's tracer and wrap every layer boundary."""
    global _TRACER
    _TRACER = Tracer(out_dir)
    for mod in ("repro.core.search", "repro.core.predtop",
                "repro.serving.server", "repro.serving.runtime",
                "repro.serving.batcher", "repro.experiments.engine",
                "repro.predictors.trainer", "repro.predictors.base",
                "repro.predictors.gcn", "repro.predictors.gat",
                "repro.predictors.dag_transformer"):
        importlib.import_module(mod)

    # ir
    _patch_method("repro.models.model", "Model", "stage_graph",
                  lambda f: _span("ir.stage_graph", f))
    _patch_function("repro.ir.pruning", "prune_graph",
                    lambda f: _span("ir.prune", f))
    _patch_function("repro.ir.fusion", "fuse_elementwise",
                    lambda f: _span("ir.fuse", f))
    _patch_function("repro.ir.autodiff", "build_training_graph",
                    lambda f: _span("ir.autodiff", f))
    # parallel
    _patch_function("repro.parallel.strategies", "node_strategies",
                    lambda f: _leaf("parallel.strategies", f))
    _patch_function("repro.parallel.intra_op", "optimize_stage",
                    lambda f: _span("parallel.intra_op", f,
                                    pre=_collapse_pre, post=_collapse_post))
    _patch_method("repro.parallel.plan_cache", "PlanCache", "optimize",
                  lambda f: _span("parallel.plan_cache", f))
    _patch_function("repro.parallel.inter_op", "slice_stages",
                    lambda f: _span("parallel.inter_op", f))
    # runtime
    _patch_method("repro.runtime.profiler", "StageProfiler", "profile_stage",
                  lambda f: _span("runtime.profile", f))
    _patch_function("repro.runtime.executor", "execute_plan",
                    lambda f: _span("runtime.execute", f))
    _patch_method("repro.core.search", "PlanSearcher", "_score_plan",
                  lambda f: _span("runtime.score", f))
    # predictors
    _patch_function("repro.predictors.encoding_cache", "compute_encoding",
                    lambda f: _span("predictors.encode", f))
    _patch_method("repro.predictors.encoding_cache", "EncodingCache", "get",
                  lambda f: _span("predictors.encoding_cache", f))
    _patch_function("repro.predictors.dataset", "make_batches",
                    lambda f: _span("predictors.batch", f, post=_pad_post))
    _patch_method("repro.predictors.base", "LatencyPredictor", "fit",
                  lambda f: _span("predictors.fit", f, pre=_tensors_pre,
                                  post=_tensors_post))
    _patch_method("repro.predictors.trust", "EnsemblePredictor",
                  "predict_many",
                  lambda f: _span("predictors.predict_many", f))
    _patch_function("repro.predictors.trust", "assess",
                    lambda f: _leaf("predictors.trust", f))
    # nn
    for modname, clsname in (("repro.predictors.dag_transformer",
                              "DAGTransformerModel"),
                             ("repro.predictors.gcn", "GCNModel"),
                             ("repro.predictors.gat", "GATModel")):
        _patch_method(modname, clsname, "forward",
                      lambda f: _span("nn.forward", f))
    _patch_method("repro.nn.tensor", "Tensor", "backward",
                  lambda f: _span("nn.backward", f))
    _patch_method("repro.nn.optim", "Adam", "step",
                  lambda f: _span("nn.optimizer", f))
    _patch_method("repro.nn.tensor", "Tensor", "__init__",
                  lambda f: _counted(f, _count_tensor))
    # experiments
    _patch_function("repro.experiments.engine", "parallel_map",
                    lambda f: _span("experiments.parallel_map", f))
    _patch_function("repro.experiments.engine", "supervised_map",
                    lambda f: _span("experiments.supervised_map", f))
    _patch_method("repro.experiments.pool", "PersistentPool", "wait",
                  lambda f: _span("experiments.pool_wait", f))
    _patch_method("repro.experiments.pool", "PersistentPool", "__init__",
                  lambda f: _counted(f, _count_pool_start))
    # serving
    _patch_function("repro.serving.protocol", "parse_request",
                    lambda f: _span("serving.parse", f, post=_op_from_result))
    _patch_method("repro.serving.tenancy", "AdmissionController", "admit",
                  lambda f: _span("serving.admit", f,
                                  op_of=lambda a: a[3]))
    _patch_method("repro.serving.server", "ReproServer", "_dispatch",
                  lambda f: _span("serving.dispatch", f,
                                  op_of=lambda a: a[1].id))
    _patch_method("repro.serving.server", "ReproServer", "_handle_whatif",
                  lambda f: _span("serving.whatif", f))
    _patch_method("repro.serving.server", "ReproServer", "_handle_search",
                  lambda f: _span("serving.search", f))
    _patch_method("repro.serving.server", "ReproServer", "_send",
                  lambda f: _span("serving.reply", f,
                                  op_of=lambda a: a[2].get("id")))
    _patch_method("repro.serving.batcher", "MicroBatcher", "_execute",
                  lambda f: _span("serving.batch", f, post=_size_post))
    _patch_method("repro.serving.runtime", "PredictorRuntime",
                  "predict_batch", lambda f: _span("serving.model", f))
    _install_queue_stamps(_TRACER)
    return _TRACER


# ---------------------------------------------------------------- analysis
#: synthetic spans timing a queue; they overlap the spans of the request
#: that waited, so they are kept out of self time altogether
WAIT_SPANS = ("serving.queue_wait",)
#: spans whose self time is blocking on other threads or processes;
#: the layer table shows it as "wait" rather than as work of their layer
BLOCKING_SPANS = ("serving.dispatch", "experiments.pool_wait")
#: the benchmark's own per-operation span (its self time is unattributed)
OP_SPAN = "bench.op"


def load(out_dir: Path) -> list[dict]:
    """Every flushed span batch under ``out_dir``."""
    batches = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                batches.append(json.loads(line))
    return batches


class Profile:
    """Self time, counts and extras per span name inside time windows."""

    def __init__(self, batches: list[dict],
                 windows: list[tuple[float, float]]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        #: spans of a name that had a child of another name
        self.with_child: dict[tuple[str, str], int] = defaultdict(int)
        self.childless: dict[str, int] = defaultdict(int)
        self.main_spans: list[list] = []
        self.n_spans = 0
        worker_cpu: dict[int, float] = {}

        def inside(t: float) -> bool:
            return any(a <= t <= b for a, b in windows)

        for batch in batches:
            spans = batch["spans"]
            child_s = [0.0] * len(spans)
            child_names: list[set] = [set() for _ in spans]
            for name, start, end, parent, _, _ in spans:
                if parent >= 0 and name not in WAIT_SPANS:
                    child_s[parent] += end - start
                    child_names[parent].add(name)
            used = False
            for i, (name, start, end, parent, op, extra) in enumerate(spans):
                if not inside(start):
                    continue
                used = True
                self.n_spans += 1
                dur = end - start
                leaf_s = 0.0
                for lname, (lt, ln) in ((extra or {}).get("leaf", {})).items():
                    self.self_s[lname] += lt
                    self.total_s[lname] += lt
                    self.count[lname] += ln
                    leaf_s += lt
                self.count[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child_s[i] - leaf_s
                for key, value in (extra or {}).items():
                    if key != "leaf":
                        self.extra[f"{name}:{key}"] += value
                if child_names[i]:
                    for cname in child_names[i]:
                        self.with_child[(name, cname)] += 1
                else:
                    self.childless[name] += 1
                if not batch["forked"]:
                    self.main_spans.append([name, start, end, parent, op,
                                            child_s[i] + leaf_s])
            if used and batch["forked"]:
                worker_cpu[batch["pid"]] = batch["cpu_s"]
        self.worker_cpu_s = sum(worker_cpu.values())
        self.workers = len(worker_cpu)

    def ms(self, *names: str) -> float:
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names)

    def hit_rate(self, lookup: str, miss_child: str) -> float:
        n = self.count.get(lookup, 0)
        if not n:
            return 0.0
        return 1.0 - self.with_child.get((lookup, miss_child), 0) / n

    def layer_self_ms(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            if name not in WAIT_SPANS:
                layer = ("wait" if name in BLOCKING_SPANS
                         else name.split(".")[0])
                layers[layer] += 1e3 * s
        return dict(layers)


def layer_metrics(prof: Profile, n_ops: int, external: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    Times are self time per operation (rep or request) unless named per
    step; ``external`` supplies the counts the benchmark takes from the
    program's results and journal rather than from spans.
    """
    per = 1.0 / max(1, n_ops)
    steps = prof.count.get("nn.optimizer", 0)
    forwards = prof.count.get("nn.forward", 0)
    ch = prof.extra.get("parallel.intra_op:ch", 0.0)
    cm = prof.extra.get("parallel.intra_op:cm", 0.0)
    real = prof.extra.get("predictors.batch:real", 0.0)
    batches = prof.count.get("serving.batch", 0)
    waits = prof.count.get("serving.queue_wait", 0)
    m = {
        "ir.graph_build_ms": prof.ms("ir.stage_graph", "ir.prune",
                                     "ir.fuse") * per,
        "ir.autodiff_ms": prof.ms("ir.autodiff") * per,
        "ir.graphs_built": prof.count.get("ir.stage_graph", 0) * per,
        "parallel.strategies_ms": prof.ms("parallel.strategies") * per,
        "parallel.intra_op_ms": prof.ms("parallel.intra_op") * per,
        "parallel.intra_op_solves": prof.count.get("parallel.intra_op", 0) * per,
        "parallel.plan_cache_hit_rate": prof.hit_rate("parallel.plan_cache",
                                                      "parallel.intra_op"),
        "parallel.collapse_hit_rate": ch / (ch + cm) if ch + cm else 0.0,
        "parallel.inter_op_ms": prof.ms("parallel.inter_op") * per,
        "runtime.profile_ms": prof.ms("runtime.profile") * per,
        "runtime.profile_memo_hit_rate": (
            prof.childless.get("runtime.profile", 0)
            / prof.count["runtime.profile"]
            if prof.count.get("runtime.profile") else 0.0),
        "runtime.execute_ms": prof.ms("runtime.execute") * per,
        "runtime.score_ms": prof.ms("runtime.score") * per,
        "predictors.encode_ms": prof.ms("predictors.encode",
                                        "predictors.encoding_cache") * per,
        "predictors.encoding_cache_hit_rate": prof.hit_rate(
            "predictors.encoding_cache", "predictors.encode"),
        "predictors.batch_ms": prof.ms("predictors.batch") * per,
        "predictors.fit_ms": prof.ms("predictors.fit") * per,
        "predictors.fits": prof.count.get("predictors.fit", 0) * per,
        "predictors.pad_ratio": (prof.extra.get("predictors.batch:pad", 0.0)
                                 / real if real else 0.0),
        "predictors.predict_many_ms": prof.ms("predictors.predict_many") * per,
        "predictors.trust_ms": prof.ms("predictors.trust") * per,
        "nn.forward_ms_per_step": (1e3 * prof.total_s.get("nn.forward", 0.0)
                                   / forwards if forwards else 0.0),
        "nn.backward_ms_per_step": (1e3 * prof.total_s.get("nn.backward", 0.0)
                                    / steps if steps else 0.0),
        "nn.optimizer_ms_per_step": (1e3 * prof.total_s.get("nn.optimizer",
                                                            0.0)
                                     / steps if steps else 0.0),
        "nn.steps": steps * per,
        "nn.tensors_per_step": (prof.extra.get("predictors.fit:tensors", 0.0)
                                / steps if steps else 0.0),
        "experiments.pool_wait_ms": prof.ms("experiments.pool_wait") * per,
        "experiments.worker_cpu_ms": 1e3 * prof.worker_cpu_s * per,
        "experiments.pool_restarts": prof.count.get("experiments.pool_start",
                                                    0) * per,
        "experiments.supervised_map_ms": prof.ms(
            "experiments.supervised_map") * per,
        "serving.parse_ms": prof.ms("serving.parse") * per,
        "serving.admit_ms": prof.ms("serving.admit") * per,
        "serving.queue_wait_ms": (1e3 * prof.total_s.get("serving.queue_wait",
                                                         0.0)
                                  / waits if waits else 0.0),
        "serving.batch_size_mean": (prof.extra.get("serving.batch:size", 0.0)
                                    / batches if batches else 0.0),
        "serving.model_ms": prof.ms("serving.model") * per,
        "serving.whatif_ms": prof.ms("serving.whatif") * per,
        "serving.search_ms": prof.ms("serving.search") * per,
        "serving.reply_ms": prof.ms("serving.reply") * per,
        "trace.spans_per_op": prof.n_spans * per,
    }
    m.update(external)
    return m


def unattributed_share(prof: Profile) -> float:
    """Self time of the benchmark's own op spans over their duration."""
    ops = [s for s in prof.main_spans if s[0] == OP_SPAN]
    total = sum(s[2] - s[1] for s in ops)
    return sum(s[2] - s[1] - s[5] for s in ops) / total if total else 0.0


def overhead_ms(traced_s: list[float], untraced_s: list[float]) -> float:
    """Traced minus untraced median time per operation, in ms."""
    return 1e3 * (median(traced_s) - median(untraced_s))
