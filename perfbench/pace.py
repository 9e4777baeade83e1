"""A fixed probe of how fast this machine runs the benchmark's kind of code.

On a shared host the same pass can take twice as long for tens of
seconds while neighbours are busy, without any steal time showing in
the guest.  Timing this probe between units of work tells how fast the
machine ran meanwhile, so each unit's time can be rescaled to the speed
the machine had when the benchmark was calibrated.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

import numpy as np

# probe seconds at calibration (2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4, quiet host); rescaled times read as seconds at that speed
NOMINAL_S = 0.015

_TABLE = (np.arange(256, dtype=np.uint16)[:, None]
          * np.arange(256, dtype=np.uint16)[None, :] % 251).astype(np.uint8)
_ROWS = np.arange(16 * 32, dtype=np.uint8).reshape(16, 32)


def probe_s() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    The cyclic collector is paused meanwhile: a full collection of the
    workload's garbage would otherwise land in the probe now and then.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        return _probe()
    finally:
        if paused:
            gc.enable()


def probe_median(k: int = 3) -> float:
    """Median of k probes: one probe alone jitters by a few per cent."""
    return statistics.median(probe_s() for _ in range(k))


def _probe() -> float:
    t0 = perf_counter()
    heap: list = []
    seen: dict = {}
    for i in range(12000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i & 511] = seen.get(i & 511, 0) + 1
    while heap:
        heapq.heappop(heap)
    for i in range(600):
        coeffs = _ROWS[i & 15, :16]
        np.bitwise_xor.reduce(_TABLE[coeffs[:, None], _ROWS], axis=0)
    return perf_counter() - t0


class Pacer:
    """Times a pass in segments cut by tick(), each scaled by the probes at its ends.

    The probes' own time is left out of both the raw and the paced total.
    """

    def __init__(self):
        self.raw = self.paced = 0.0
        self._probe = probe_s()
        self._t = perf_counter()

    def tick(self) -> None:
        segment = perf_counter() - self._t
        probe = probe_s()
        self.raw += segment
        self.paced += segment * NOMINAL_S * 2 / (self._probe + probe)
        self._probe = probe
        self._t = perf_counter()

    @property
    def factor(self) -> float:
        """Paced over raw time: how to rescale any raw timing taken in the pass."""
        return self.paced / self.raw if self.raw else 1.0
