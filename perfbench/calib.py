"""Machine-speed probe used to rescale request times to a reference speed.

On a shared virtual machine the speed of a core drifts by 15-30 % over tens
of seconds.  The drift is largely common to the package and to the fixed
kernel below: the time of an ``operator_compare`` request and of the kernel
rose and fell together while their ratio stayed within about 5 %, and over
ten 30-second runs rescaling cut the spread of the median request time from
16 % to 4 % (h2-field) and from 22 % to 13 % (na-cover); for fresh
``hypmax.cli`` processes it cut the per-call spread from 10.5 % to 7 %.  The
benchmark runs the kernel after every request and every set-up process and
rescales each of their times by ``REFERENCE_S / (mean kernel time around
it)``, so the metrics read as seconds on the machine at its reference speed.
The kernel uses numpy and plain Python only, never the package under test,
so no change to the package moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the 2-core Intel Xeon VM (2 MiB L2 per core, Python
# 3.11, numpy 2.4) that the benchmark was written on.
REFERENCE_S = 0.1

_rng = np.random.default_rng(12345)
_small = _rng.random(32_768)  # the size of the h2-field grid: cache-resident
_big = _rng.random(1 << 18)  # larger than L2: streamed from the last-level cache


def kernel_s() -> float:
    """Seconds taken by one pass of the fixed kernel: elementwise numpy on an
    L2-resident and on a larger array, then an interpreter loop."""
    t0 = perf_counter()
    for _ in range(200):
        ((_small - 0.3) ** 2 + (0.5 * _small - 0.2) ** 2 < 0.25 * _small).sum()
    for _ in range(20):
        (np.sqrt(_big * _big + 1.0) < 1.2).sum()
    acc = 0
    for i in range(400_000):
        acc += i * i
    return perf_counter() - t0


def scale(k_before: float, k_after: float) -> float:
    """Factor that turns a time measured between two kernel runs into
    seconds at the reference speed."""
    return REFERENCE_S / (0.5 * (k_before + k_after))
