"""PredTOP benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 predbench/run.py --workload alpa-search --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json with its
unit and direction; ``--trace 1`` runs the traced pass and prints the
per-layer metrics and the self time per layer.  The last line of stdout
is always the result object ``{"correct", "attempted", "failed",
"metrics"}``; everything above it is for people.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import fail, median, program_env, provenance  # noqa: E402
from hostspeed import scale  # noqa: E402

WORKLOADS = ("alpa-search", "predtop-search", "serve-mix")
#: fresh program starts per run for setup_s (plus the run child itself)
SEARCH_SETUP_STARTS = 4
#: every program process of a run must have ended this long after start
DEADLINE = time.monotonic() + 170


def _left() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def _spawn_ready(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a program process; return it and its launch-to-READY time."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    # a child that hangs before READY is killed at the deadline, which
    # ends the blocked read below
    watchdog = threading.Timer(_left(), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        fail(f"program process did not become ready: {line!r}")
    return proc, float(line.split()[1]) - t0


def _finish(proc: subprocess.Popen) -> None:
    try:
        rest, _ = proc.communicate(timeout=_left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("program process timed out")
    if proc.returncode != 0:
        fail(f"program process exited {proc.returncode}: {rest[-2000:]}")


def run_search(args, env: dict, run_dir: Path) -> dict:
    base = [sys.executable, str(HERE / "search_child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # one untimed start compiles bytecode and warms the page cache
    _finish(_spawn_ready(base + ["--mode", "setup"], env)[0])
    setups = []
    for _ in range(SEARCH_SETUP_STARTS):
        proc, setup = _spawn_ready(base + ["--mode", "setup"], env)
        _finish(proc)
        setups.append(setup)
    out = run_dir / "result.json"
    proc, setup = _spawn_ready(
        base + ["--mode", "run", "--out", str(out),
                "--trace-dir", str(run_dir / "trace")], env)
    _finish(proc)
    setups.append(setup)
    res = json.loads(out.read_text())
    if "metrics" in res:
        res["metrics"]["setup_s"] = median(setups)
    reps = res.pop("reps")
    # sample counts behind search_s / mix_p90_ms and predict_p50/p90_ms
    res["detail"] = {"setup_samples_s": setups, "reps": reps,
                     "samples": {"reps": len(reps), "case_searches": sum(
                         len(r["case_s"]) for r in reps)},
                     "cases": res.pop("cases")}
    return res


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".predbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    for sub in ("cache", "tmp", "trace"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    env = program_env(ROOT, run_dir)
    try:
        if args.workload == "serve-mix":
            import serve_mix
            res = serve_mix.run(ROOT, env, run_dir, args.seed, args.seconds,
                                bool(args.trace))
        else:
            res = run_search(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    speed = res.pop("host_speed", None)
    if speed is not None and "metrics" in res:
        res.setdefault("detail", {}).update(
            host_speed=speed, raw_metrics=res["metrics"])
        res["metrics"] = scale(res["metrics"], speed["factor"],
                               args.workload)

    measured = (res.get("per_layer", {}).get("metrics", {}) if args.trace
                else res.get("metrics", {}))
    missing = [m["name"] for m in wanted
               if not isinstance(measured.get(m["name"]), (int, float))
               or not math.isfinite(measured[m["name"]])]
    if missing:
        for p in res.get("problems", [])[:20]:
            print(f"  {p}", file=sys.stderr)
        fail(f"no value for {', '.join(missing)}")

    detail = {"provenance": provenance(ROOT, env, args.seed, args.workload),
              "traced": bool(args.trace),
              "problems": res.get("problems", []),
              **res.get("detail", {})}
    if args.trace:
        detail["layers_self_ms_per_op"] = res["per_layer"]["layers_ms_per_op"]
        detail["trace_workers"] = res["per_layer"]["workers"]
        detail["trace_spans"] = res["per_layer"]["spans"]
    print(json.dumps(detail, indent=1, sort_keys=True, default=str))
    print(f"\n{args.workload} seed {args.seed}: "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for m in wanted:
        better = f"  ({m['better']} is better)" if "better" in m else ""
        print(f"  {m['name']:<38} {_format(measured[m['name']]):>14} "
              f"{m['unit']}{better}")
    if args.trace:
        print("  self time per layer, ms per operation:")
        for layer, ms in sorted(detail["layers_self_ms_per_op"].items(),
                                key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {ms:12.3f}")
    result = {
        "correct": res["failed"] == 0 and not res.get("problems"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
