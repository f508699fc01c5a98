"""Host-speed correction for the benchmark's host timings.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU
cloud VM a fixed Python loop takes anywhere from 150 to 285 ms within a
minute, with no steal time visible to the guest, so neither CPU time
nor longer runs remove the drift from a wall-clock throughput.

A :class:`HostSpeed` samples the host while a round runs.  Every
``PERIOD_S`` of wall time a ``SIGALRM`` handler times :func:`probe`, a
fixed mix of interpreter and numpy work that uses only the benchmark's
own arrays.  The probe's time is taken out of the phase it interrupted,
and the round's host times are scaled by ``NOMINAL_S`` over the mean
probe time, so they read as seconds on a host whose probe takes
``NOMINAL_S``.  A change to the program moves the scaled times in
proportion to the raw ones; a change of host speed moves the probe too
and cancels out.  ``NOMINAL_S`` only sets the scale: it is about the
probe's mean time inside rounds on the 2-vCPU x86 host the benchmark
was tuned on.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: wall time between two probes
PERIOD_S = 0.05
#: probe time that corresponds to a scale factor of 1
NOMINAL_S = 3.0e-3

_VEC = np.arange(4096, dtype=np.float64)
_TABLE = np.zeros(1 << 21, dtype=np.int64)  # 16 MiB, larger than the caches
_IDX = np.random.default_rng(0).integers(0, len(_TABLE), 1 << 13)
_DICT = {i: i for i in range(512)}
_BUF = bytearray(1 << 12)


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


_SLOT = _Slot()


def probe() -> None:
    """About 3 ms of fixed work in the proportions that best tracked the
    four workloads' round times: small numpy kernels, dict updates and
    bytearray slicing, a gather from a table larger than the caches,
    interpreter arithmetic with attribute stores, and builtin calls."""
    for _ in range(120):
        (_VEC * 1.5 + 2.0).sum()
    d, b = _DICT, _BUF
    for i in range(750):
        k = i & 511
        d[k] = d[k] + 1
        b[k:k + 8] = b[k + 8:k + 16]
    _TABLE[_IDX].sum()
    _TABLE[_IDX + 7].sum()
    slot, x = _SLOT, 0
    for i in range(6000):
        x = (x * 31 + i) & 0xFFFF
        slot.value = x
    one = [1]
    for i in range(4000):
        len(one)
        max(i, 3)


class HostSpeed:
    """Samples :func:`probe` on a wall-clock timer between ``start``
    and ``stop``, and once at each end."""

    def __init__(self) -> None:
        #: (start, duration) of every probe since ``start``
        self.samples: List[Tuple[float, float]] = []
        for _ in range(3):  # warm the probe's code paths
            probe()

    def _sample(self, *_args) -> None:
        t0 = perf_counter()
        probe()
        self.samples.append((t0, perf_counter() - t0))

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def spent_s(self, begin: float, end: float) -> float:
        """Wall time the probes took between two ``perf_counter`` reads.
        A probe runs in a signal handler, so it never straddles one."""
        return sum(dt for t, dt in self.samples if begin <= t < end)

    @property
    def factor(self) -> float:
        """Nominal over mean probe time: below 1 on a slow host."""
        return NOMINAL_S / statistics.fmean(dt for _, dt in self.samples)
