"""A fixed reference kernel that measures the machine's current speed.

The measuring host is shared: its cores slow down (and sometimes speed
up) in phases that can last minutes, so even the best op of a 30 s run
moves with the phase the run fell into.  ``run.py`` therefore times
this kernel after every op and rescales the run's best op time by the
kernel's best time in the same run, and its median set-up time by the
kernel's median.  A phase that slows both by the same factor cancels
out.

The kernel uses no code of the program, so no change to the program
moves it.  It mixes the kinds of work the program's ops do (Python
big-int modular arithmetic in loops, numpy uint64 lane arithmetic,
dict and list churn) and takes about as long as one op, so a quiet
stretch the op can fit in is one the kernel can fit in too.
"""

from __future__ import annotations

import numpy as np

#: The kernel's best time in ms on the 2-vCPU Xeon (KVM) host that the
#: benchmark was tuned on, in a quiet period.  The rescaled metrics are
#: multiplied by it, so there they read like the raw times.
NOMINAL_MS = 37.0

_P = 0xFFFFFFFF00000001  # Goldilocks
_N = 1 << 13


def reference() -> int:
    """Run the kernel once; returns a checksum so no work is skipped."""
    # Radix-2 NTT over Goldilocks on Python ints.
    a = [(i * 0x9E3779B97F4A7C15) % _P for i in range(_N)]
    w = pow(7, (_P - 1) // _N, _P)
    half = 1
    while half < _N:
        step = pow(w, _N // (2 * half), _P)
        for start in range(0, _N, 2 * half):
            t = 1
            for j in range(start, start + half):
                u, v = a[j], a[j + half] * t % _P
                a[j], a[j + half] = (u + v) % _P, (u - v) % _P
                t = t * step % _P
        half *= 2
    # uint64 lane arithmetic.
    x = np.arange(1 << 15, dtype=np.uint64)
    for _ in range(120):
        x = (x * np.uint64(2654435761) + np.uint64(1)) & np.uint64(
            0xFFFFFFFF)
    # Dict and list churn.
    d: dict[int, list[int]] = {}
    for i in range(60000):
        d.setdefault(i % 997, []).append(i)
    return (a[1] + int(x[7]) + len(d[5])) % _P
