"""Output checks behind ``failed``: each returns a list of problems.

They take plain data (dicts, lists, floats) so the tests can feed them
tampered plans and answers without running the program.
"""

from __future__ import annotations

import math

#: relative tolerance for float32 model outputs computed in two processes
#: (batch composition changes the padded layout, not the arithmetic)
MODEL_RTOL = 1e-5
#: relative tolerance for closed forms recomputed from returned floats
EQN_RTOL = 1e-12


def eqn4(stage_times: list[float], n_microbatches: int) -> float:
    """1F1B iteration latency, Eqn 4: Σt + (B−1)·max t."""
    return sum(stage_times) + (n_microbatches - 1) * max(stage_times)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(
        abs(a), abs(b))


def check_plan(stages: list[dict], n_layers: int, n_units: int,
               submesh_devices: dict, cluster_devices: int,
               ) -> list[str]:
    """A plan covers every layer once, contiguously, on valid submeshes.

    ``stages`` holds ``unit_range``, ``layer_range`` and ``submesh`` (an
    identifier) per stage, in pipeline order; ``submesh_devices`` maps the
    identifiers of the cluster's submeshes to their device counts.
    """
    problems = []
    if not stages:
        return ["plan has no stages"]
    layer_at = unit_at = 0
    devices = 0
    for k, st in enumerate(stages):
        (u0, u1), (l0, l1) = st["unit_range"], st["layer_range"]
        if u0 != unit_at or u1 <= u0:
            problems.append(f"stage {k} units {u0}-{u1} not contiguous "
                            f"from {unit_at}")
        if l0 != layer_at or l1 <= l0:
            problems.append(f"stage {k} layers {l0}-{l1} not contiguous "
                            f"from {layer_at}")
        unit_at, layer_at = u1, l1
        if st["submesh"] not in submesh_devices:
            problems.append(f"stage {k} on unknown submesh {st['submesh']}")
        else:
            devices += submesh_devices[st["submesh"]]
    if layer_at != n_layers:
        problems.append(f"plan covers layers up to {layer_at} of {n_layers}")
    if unit_at != n_units:
        problems.append(f"plan covers units up to {unit_at} of {n_units}")
    if devices > cluster_devices:
        problems.append(f"plan uses {devices} devices of {cluster_devices}")
    return problems


def check_table(values: dict) -> list[str]:
    """Every stage-latency table entry is finite and positive."""
    return [f"table entry {key} = {v!r}" for key, v in sorted(values.items())
            if not (math.isfinite(v) and v > 0.0)]


def check_responses(sent: list, answers: dict) -> list[str]:
    """Exactly one response per request sent, each with its own id."""
    problems = []
    for req_id in sent:
        n = len(answers.get(req_id, ()))
        if n != 1:
            problems.append(f"request {req_id}: {n} responses")
    extra = set(answers) - set(sent)
    if extra:
        problems.append(f"{len(extra)} responses with unknown ids")
    return problems


def check_whatif(result: dict) -> list[str]:
    """The answer's 1F1B latency equals Eqn 4 over its stage latencies."""
    t = result["stage_latencies_s"]
    got = result["iteration_latency_s"]["1f1b"]
    want = eqn4(t, result["n_microbatches"])
    if not _close(got, want, EQN_RTOL):
        return [f"whatif 1f1b {got!r} != Eqn 4 {want!r}"]
    return []


def check_search(result: dict, n_units: int) -> list[str]:
    """Each candidate obeys Eqn 4, tiles the units, and best is the min."""
    problems = []
    if result.get("schedule") != "1f1b":
        return [f"search answered for schedule {result.get('schedule')!r}"]
    cands = result["candidates"]
    for c in cands:
        want = eqn4(c["stage_latencies_s"], result["n_microbatches"])
        if not _close(c["iteration_latency_s"], want, EQN_RTOL):
            problems.append(f"candidate k={c['n_stages']} latency "
                            f"{c['iteration_latency_s']!r} != Eqn 4 {want!r}")
        at = 0
        for u0, u1 in c["stage_units"]:
            if u0 != at or u1 <= u0:
                problems.append(f"candidate k={c['n_stages']} units not "
                                f"contiguous at {u0}")
            at = u1
        if at != n_units:
            problems.append(f"candidate k={c['n_stages']} covers {at} of "
                            f"{n_units} units")
    if cands and result["best"]["iteration_latency_s"] != min(
            c["iteration_latency_s"] for c in cands):
        problems.append("best is not the fastest candidate")
    return problems


def check_model_answer(got: float, want: float) -> list[str]:
    """A served model prediction equals the in-process reference."""
    if not _close(got, want, MODEL_RTOL):
        return [f"served {got!r} != in-process {want!r}"]
    return []
