"""Contention gauge: a fixed reference kernel timed between ops.

On a shared host the same code runs up to about twice as slow while other
tenants load the core, in spells that last from a fraction of a second to
the length of a whole run, so raw latencies of two runs of the same code
differ by more than the regressions the benchmark must catch. The gauge
times a fixed kernel of small numpy calls (a 4x4 eigvalsh, a matmul and a
reduction, ten times), which slows down under contention much like qpe's
small-matrix ops do, and which does not use qpe, so no change to the
library moves it. run.py reads it at most every PERIOD_S of wall time and
rescales each op's latency by REFERENCE_NS / reading, with reading the mean
of the gauge readings on either side of the op: the result is the latency
the op would have had with the gauge at its reference speed. The raw
figures are printed beside the rescaled ones.
"""
from __future__ import annotations

from time import perf_counter_ns

import numpy as np

PERIOD_S = 0.02
# uncontended reading on the reference host (2-vCPU Intel Xeon, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread); only the scale of rescaled figures
# depends on it, not their run-to-run spread
REFERENCE_NS = 75_000

# bound now, so a tracer patching numpy.linalg later does not touch the gauge
_eigvalsh = np.linalg.eigvalsh
_SMALL = np.random.default_rng(0).standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.T


def _kernel() -> int:
    t0 = perf_counter_ns()
    for _ in range(10):
        _eigvalsh(_SMALL)
        _SMALL @ _SMALL
        np.abs(_SMALL).max()
    return perf_counter_ns() - t0


def reading() -> int:
    """Nanoseconds for the reference kernel, best of two back-to-back runs."""
    return min(_kernel(), _kernel())


def rescale(latency_ns: float, reading_ns: int) -> float:
    return latency_ns * REFERENCE_NS / reading_ns
