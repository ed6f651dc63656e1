"""Statistics, environment pinning, provenance and process accounting.

Everything here is stdlib-only so the harness itself imports nothing from
the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: BLAS/OpenMP thread pools pinned to one thread: unpinned, a cold GPT
#: PredTOP search took 14.0-17.7 s against 5.8-6.2 s pinned, with its CPU
#: time swinging 2x from rep to rep on a 2-core host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: percentiles the tail rule may pick from, highest last
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------- statistics
def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0:
            best = p
    return best


def summarize(values) -> dict:
    """Median, p90 and the tail percentile of a latency sample, with counts."""
    values = list(values)
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = median(values)
    out["p90"] = percentile(values, 90.0)
    tail = tail_percentile(len(values))
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
        out["tail_beyond"] = round(len(values) * (100.0 - tail) / 100.0)
    return out


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable object (floats by repr)."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ------------------------------------------------------------ environment
def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_env(root: Path, run_dir: Path) -> dict:
    """Environment for every program process of one benchmark run.

    Inherited ``REPRO_*`` settings are dropped so only the pinned ones
    below reach the program; the cache and temp dirs are private to the
    run, so the checkout's ``.repro_cache/`` is never read or written.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    # plans depend on the worker count (pool workers key meshes
    # differently), so it is pinned and recorded rather than inherited
    env["REPRO_JOBS"] = str(nproc())
    env["REPRO_CACHE"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir / "tmp")
    env["PYTHONPATH"] = str(root / "src")
    return env


def provenance(root: Path, env: dict, seed: int, workload: str) -> dict:
    """What a result was measured on, stamped into every detail record."""
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_digest": src.hexdigest()[:16],
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "repro_env": {k: v for k, v in sorted(env.items())
                      if k.startswith("REPRO_")},
    }


# ----------------------------------------------------- process accounting
def _stat_fields(pid: int | str) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may contain spaces; fields resume after its ')'
    return raw[raw.rindex(")") + 2:].split()


def children_of(pid: int) -> list[int]:
    """Live direct children of ``pid`` (from ``/proc``)."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid``, its reaped children and its live children.

    ``RUSAGE_CHILDREN`` (and ``cutime``) only count children that were
    waited for, so the persistent pool's live workers are read from
    ``/proc`` directly.
    """
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 (1-based) of stat
    ticks = sum(int(x) for x in fields[11:15])
    for kid in children_of(pid):
        kf = _stat_fields(kid)
        if kf is not None:
            ticks += int(kf[11]) + int(kf[12])
    return ticks / _CLK_TCK


def host_steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests, all CPUs."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int, include_reaped: bool = False) -> float:
    """Largest peak RSS in the process tree of ``pid``, in MB.

    ``include_reaped`` adds ``RUSAGE_CHILDREN`` (the largest waited-for
    child); it is only meaningful when ``pid`` is this process.
    """
    peak = _vm_hwm_kb(pid)
    for kid in children_of(pid):
        peak = max(peak, _vm_hwm_kb(kid))
    if include_reaped:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def fail(message: str) -> "NoReturn":  # noqa: F821
    """Abort the run without printing a result line."""
    print(f"predbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def journal_events(cache_dir: Path) -> list[dict]:
    """Every event the program journaled under its cache root."""
    events = []
    for path in sorted(Path(cache_dir).glob("manifest.jsonl*")):
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


def cell_counts(events: list[dict]) -> dict:
    """Supervised-cell retries and timeouts from the run journal."""
    retries = sum(1 for e in events if e.get("event") == "cell_retry")
    timeouts = sum(1 for e in events
                   if e.get("event") in ("cell_retry", "cell_failed")
                   and e.get("class") == "timeout")
    return {"experiments.cell_retries": retries,
            "experiments.cell_timeouts": timeouts}
