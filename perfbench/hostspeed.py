"""A fixed probe of host speed, to take the host's drift out of timings.

The benchmark's VM shares its physical cores with other tenants: the same
pass runs up to 1.9x slower for seconds to minutes at a time, so raw times
of runs minutes apart differ by more than any bound worth setting. The probe
is a fixed kernel of about 4 ms shaped like the program's inner loop (batched
2x2 complex products over 512 subcarriers, log2 and threshold comparisons,
a list of small dicts). It calls nothing in ``rsma_isac``, so a change to the
program does not move it. A command timed between two probes, and scaled by
``REFERENCE_S`` over the mean of the two, gives the command's time at the
reference host speed; a change that makes the program faster shows in full.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's time in a quiet phase of a 2-vCPU x86 VM (Intel Xeon,
# Python 3.11.7, numpy 2.4.6); scaled times read in seconds of that host.
REFERENCE_S = 0.004

_N = np.arange(512 * 2 * 2)
_H = (_N % 7 + 1j * (_N % 5)).reshape(512, 2, 2)
_THRESHOLDS_DB = np.linspace(-5.0, 30.0, 29)


def probe() -> float:
    """Wall time of one pass of the fixed kernel."""
    t = perf_counter()
    acc = 0.0
    for k in range(15):
        g = np.einsum("kij,kjl->kil", _H, _H.conj())
        sinr = np.abs(g[:, 0, 0]) / (1.0 + np.abs(g[:, 0, 1]))
        acc += float(np.log2(1.0 + sinr).mean())
        acc += int((10.0 * np.log10(sinr)[:, None] > _THRESHOLDS_DB).sum())
        rows = [{"k": k, "x": i * 0.5, "acc": acc} for i in range(40)]
        acc += sum(r["x"] for r in rows)
    return perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor that turns a time taken between two probes into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
