"""The reference kernel: how fast the machine runs at a given moment.

The benchmark's machine may be shared, and its speed then drifts by tens of
percent over minutes.  A fixed slice of numpy and Python work that does not
touch ``qre`` is timed next to the measured work, and the throughput and
set-up figures are scaled by its time to the speed at which one slice takes
``SLICE_NOMINAL_S``.
"""

from __future__ import annotations

import time

SLICE_NOMINAL_S = 0.002    # about a slice's time on an Intel Xeon at a typical moment


def reference_kernel():
    """Build the slice: a function that runs it once and returns its seconds."""
    import numpy

    rng = numpy.random.default_rng(0)
    small = [m + m.T for m in (rng.standard_normal((d, d)) for d in (4, 8))]
    big = rng.standard_normal((64, 64))
    big = big + big.T

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            for m in small:
                w, v = numpy.linalg.eigh(m)
                (v * w) @ v.T
                numpy.linalg.svd(m)
            acc = 0.0
            for i in range(300):
                acc += i * 0.5
        numpy.linalg.eigh(big)
        return time.perf_counter() - t0

    return run
