"""Wall times on one scale: a fixed reference kernel measures the machine's speed.

Other programs on a shared host slow this one down by up to 1.8x, on both
CPUs at once and for stretches of seconds to minutes, so whole runs can be
slow.  Choosing among repeats cannot undo that, but the slowdown hits any
interpreter-bound code alike: over a minute in which a call's wall time
varied by 55%, its ratio to this kernel, timed next to it, varied by 4%.

The kernel uses only the interpreter and numpy, never the package, so no
change to the package can move it.  ``REFERENCE_S`` fixes the scale: a
scaled time is the wall time the call would take on the machine the
benchmark was defined on, unloaded.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's time on an unloaded CPU of that machine (Intel Xeon, 2 vCPUs,
#: Python 3.11.7, numpy 2.4.6; median 545 us, fastest 492 us)
REFERENCE_S = 500e-6

#: Set-up is scaled differently.  Importing suffers load through the file
#: system and the loader more than through computation: next to the kernel,
#: set-up time still varied by 2x.  Numpy is most of the package's set-up,
#: and a fresh interpreter's ``import numpy`` on the same machine is the
#: reference; this is its time there, unloaded (fastest of 60 samples).
NUMPY_IMPORT_S = 0.066


def kernel_seconds() -> float:
    """Wall time of one run of the kernel: small-array numpy arithmetic and
    float conversion in a Python loop, the mix the package spends its time in."""
    y = np.array([1.0])
    s = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        z = y + 0.5 * (y * 1.01)
        s += float(np.max(np.abs(z - y)))
    return time.perf_counter() - t0


class Scale:
    """Times the kernel before and after a measured interval and scales the
    interval's wall time to the reference machine."""

    def __enter__(self):
        self.before = kernel_seconds()
        return self

    def __exit__(self, *exc):
        self.factor = REFERENCE_S / ((self.before + kernel_seconds()) / 2.0)
        return False
