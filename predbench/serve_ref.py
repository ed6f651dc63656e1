"""In-process reference for the serve-mix checks.

Usage: ``python3 serve_ref.py KEYS_JSON OUT_JSON``.  Builds a
``PredictorRuntime`` from the same configuration ``repro serve`` uses by
default, and for every ``[unit_start, unit_end, microbatch]`` key writes
the runtime's guarded model answer and the stage latency re-measured by
the profiler (best logical view), keyed ``"a-b-mb"``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path


def main() -> int:
    from repro.cli import make_parser
    from repro.predictors.trust import TrustConfig
    from repro.serving import PredictorRuntime, RuntimeConfig

    args = make_parser().parse_args(["serve"])
    trust = dataclasses.replace(TrustConfig.from_env(), enabled=True,
                                ensemble_size=max(1, args.ensemble))
    runtime = PredictorRuntime.build(RuntimeConfig(
        family=args.family, layers=args.layers, platform=args.platform,
        mesh=args.mesh, units=args.units, seed=args.seed,
        predictor=args.predictor, sample_fraction=args.sample_fraction,
        epochs=args.epochs, checkpoints=tuple(args.checkpoint), trust=trust,
        schedule=args.schedule))
    out = {"model": {}, "truth": {}}
    for a, b, mb in json.loads(Path(sys.argv[1]).read_text()):
        params = {"slice": [a, b]}
        if mb is not None:
            params["microbatch"] = mb
        graphs = runtime.resolve_graphs(params, many=False)
        answers, _, served_by = runtime.predict_batch(graphs, True)
        s, e = runtime.clustering.slice_range(a, b)
        key = f"{a}-{b}-{mb}"
        out["model"][key] = answers[0]["latency_s"]
        out["truth"][key] = runtime.profiler.optimal_latency(
            s, e, runtime.mesh, mb)[0]
    Path(sys.argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
