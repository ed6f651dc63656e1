"""Host-speed calibration: a fixed probe run on every vCPU at once.

On a shared host the speed of the vCPUs drifts by tens of percent over
minutes as neighbours come and go, and a run measures whatever speed the
host had while it ran: the same cold alpa-search rep took 2.1 s in one
run and 3.3 s in another an hour apart, CPU time included.  That drift
is the host's, not the program's, so timing metrics are reported in
reference-host units: the raw value times ``REF_PROBE_S`` over the
median time of a fixed probe taken during the same run (around every
search rep; while the serving daemon is idle).  A change to the program
moves the raw value and leaves the probe alone, so it shows in full; the
raw values and the factor are kept in the result's detail.  serve-mix
uses the factor, measured before its first phase, to offer its load in
reference-host rates (``factor`` times each rate); see ``SCALED`` for
what each workload scales.

The probe mixes interpreter work (dict and string churn) with small
numpy kernels.  It runs in this process and in ``nproc - 1`` helper
processes at the same time, because the program keeps every vCPU busy
and a neighbour may slow only one of them.  Run as a script, this file
is such a helper: it answers each ``probe`` line on stdin with the
probe's time on stdout.

Measured on a 2-vCPU VM over one afternoon, while the probe's median
per run ranged 0.11-0.21 s (quartile distance over median of all runs
pooled, raw -> scaled): alpa-search ``search_s`` 0.23 -> 0.08 over 35
runs; predtop-search ``search_s`` 0.24 -> 0.13 over 40; serve-mix
``cpu_ms_per_op`` 0.18 -> 0.09 and ``search_s`` 0.20 -> 0.13 over 61;
``setup_s`` 0.33-0.38 -> 0.16-0.21 on each.  The probe is a proxy:
within a set of runs made close together it can move while the program
does not.  Serving latency followed it least, so serve-mix paces its
load by the factor and reports its latencies as measured.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from common import median

#: median probe time on the reference host (a 2-vCPU VM); metrics are
#: scaled to it, so on that host they read as plain seconds
REF_PROBE_S = 0.12
#: probe samples taken at each call of :meth:`HostSpeed.sample`
PROBES_PER_SAMPLE = 2


def probe() -> float:
    """Wall time of a fixed piece of interpreter and numpy work."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(200_000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + len(str(i))
    sorted(counts.items())
    a = np.arange(4096, dtype=np.float64).reshape(64, 64)
    for _ in range(2400):
        b = a @ a.T
        a = b / (b.max() + 1.0) + 0.5
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples of one run, taken on every vCPU at once."""

    def __init__(self, env: dict | None = None) -> None:
        self.samples: list[float] = []
        width = len(os.sched_getaffinity(0))
        self.helpers = [
            subprocess.Popen([sys.executable, __file__], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(width - 1)]

    def sample(self) -> None:
        """Run the probe everywhere at once; keep the mean time."""
        for _ in range(PROBES_PER_SAMPLE):
            for h in self.helpers:
                h.stdin.write("probe\n")
                h.stdin.flush()
            times = [probe()]
            for h in self.helpers:
                line = h.stdout.readline()
                if not line:
                    raise RuntimeError("host-speed helper exited")
                times.append(float(line))
            self.samples.append(sum(times) / len(times))

    def factor(self) -> float:
        """Reference-host seconds per second here, from the samples so far."""
        return REF_PROBE_S / median(self.samples)

    def detail(self) -> dict:
        return {"factor": self.factor(), "probe_median_s": median(self.samples),
                "ref_probe_s": REF_PROBE_S, "samples_s": self.samples}

    def close(self) -> None:
        for h in self.helpers:
            # an explicit stop: forked pool workers may hold the pipe's
            # write end open, so the helper would never see end of file
            try:
                h.stdin.write("stop\n")
                h.stdin.close()
            except BrokenPipeError:
                pass
            try:
                h.wait(timeout=10)
            except subprocess.TimeoutExpired:
                h.kill()
                h.wait()
            h.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_TIMINGS = {"setup_s": 1, "search_s": 1, "cpu_ms_per_op": 1,
            "predict_p50_ms": 1, "mix_p90_ms": 1, "max_rate_rps": -1}
#: per workload, the metrics reported scaled and the power of the factor
#: each scales by (rates scale inversely).  serve-mix offers its load in
#: reference-host rates instead, so its latencies are plain and its
#: ``max_rate_rps`` is in those rates already; its host-work metrics
#: are scaled.
SCALED = {"alpa-search": _TIMINGS, "predtop-search": _TIMINGS,
          "serve-mix": {"setup_s": 1, "search_s": 1, "cpu_ms_per_op": 1}}


def scale(metrics: dict, factor: float, workload: str) -> dict:
    """``metrics`` with the workload's scaled metrics in reference-host
    units; the other metrics do not depend on host speed."""
    powers = SCALED[workload]
    return {k: v * factor ** powers[k] if k in powers else v
            for k, v in metrics.items()}


def _helper() -> None:
    for line in sys.stdin:
        if line.strip() != "probe":
            break
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    _helper()
