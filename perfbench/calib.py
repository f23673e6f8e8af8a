"""Host-speed references for the end-to-end times.

On a shared 2-core x86 host the speed of the same pass drifted by 20-40%
over tens of seconds, more than any useful bound.  So timings are paired
with probes taken beside them that do not involve crkron, and end-to-end
times are reported as seconds on a reference host: ``raw * REF / probe``.

- ``cpu_probe``: a fixed pure-Python integer loop, for compute times;
  runpass.py takes one between operations at most every 0.25 s.
- ``spawn_probe``: starting and ending a bare interpreter, right before
  each start-up sample (process creation and interpreter start are kernel
  and I/O bound and follow the loop poorly).

The raw seconds and the probe medians are printed in the ``raw`` data row
beside the metrics, so the scaling can be undone.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

# Probe values of a quiet 2-core x86 host under CPython 3.11; they only fix
# the scale of the reported seconds.
CPU_REF_S = 0.005
SPAWN_REF_S = 0.06


def cpu_probe(samples: int = 10) -> float:
    """Median seconds of a 100,000-step integer loop."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


def spawn_probe() -> float:
    """Wall seconds to start and end ``python3 -c pass``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start
