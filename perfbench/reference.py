"""Host-speed reference: a fixed CPU kernel timed throughout a run.

The benchmark's machine is a small shared VM whose speed drifts by tens of
percent within seconds (the same serve requests take 2.7 ms in one stretch
and 4.5 ms in the next).  To keep runs comparable, each gated wall time is
multiplied by ``NOMINAL_S`` over the reference kernel's time at that moment:
the kernel is timed every ``EVERY_S`` seconds between the workload's calls
(and after every set-up), and a call is scaled by the samples nearest to it.
Inside long calls the kernel can also run after a named inner function
returns (``sampling_inside``); its time is taken out of the call's.
The kernel uses no opflow code, so a change to opflow cannot move it.  Raw
wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.008  # the kernel's typical time on the 2-vCPU machine the bounds were set on
EVERY_S = 0.25
NEAREST = 3

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((48, 48)) / 48
_BATCH = _RNG.standard_normal((8, 21, 256))  # hidden states of a slice of a training batch
_WEIGHT = _RNG.standard_normal((256, 256)) / 16


def kernel() -> float:
    """opflow's mix without opflow: small matmuls, dict updates and hashing
    (request serving), and a batched contraction (training)."""
    x = _MATRIX
    for _ in range(100):
        x = np.tanh(x @ _MATRIX + 0.1)
    counts: dict[int, int] = {}
    for i in range(10000):
        counts[i % 101] = counts.get(i % 101, 0) + i
    for i in range(800):
        hashlib.blake2b(str(i).encode(), digest_size=8).digest()
    h = np.tanh(np.einsum("bvh,hk->bvk", _BATCH, _WEIGHT))
    return float(x[0, 0] + h[0, 0, 0])


class Reference:
    """Reference samples of one run, each stamped with its midpoint."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.seconds)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time over [start, end] into a reference-speed time.

        It uses the median of the samples taken during the call or, when
        there are fewer than ``NEAREST`` of them, of the ``NEAREST`` samples
        nearest its midpoint, so one disturbed sample does not set it.
        """
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo >= NEAREST:
            return NOMINAL_S / statistics.median(self.seconds[lo:hi])
        mid = (start + end) / 2
        i = bisect.bisect(self.times, mid)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        near = sorted(window, key=lambda j: abs(self.times[j] - mid))[:NEAREST]
        return NOMINAL_S / statistics.median(self.seconds[j] for j in near)


@contextmanager
def sampling_inside(module, name: str, reference: Reference):
    """Let ``reference`` sample after each call of ``module.name``.

    A long timed call would otherwise see the reference only before and
    after.  The caller subtracts the sampled time from the call's wall time.
    """
    original = getattr(module, name)

    def sampled(*args, **kwargs):
        result = original(*args, **kwargs)
        reference.maybe_sample()
        return result

    setattr(module, name, sampled)
    try:
        yield
    finally:
        setattr(module, name, original)
