"""Host speed, sampled by a fixed kernel run beside the program's calls.

On a shared host the CPU time of the same work drifts by 20 to 40% over
minutes, as other tenants load the caches, the memory bus and the core's
sibling. The kernel here does a fixed amount of work (interpreter loops
over dicts and ints, a rank-1 update of a 4 MiB array, a small dense
layer) and calls nothing in the program. A time scaled by CAL_REF_S over
the kernel's median time, sampled over the same minutes, reads as that
time would on a host where the kernel takes CAL_REF_S, so a change to the
program moves it and the host's drift mostly does not.

The kernel tracks interpreter-bound work: over ten seeds the spread of the
rollout and exact rounds and of every set-up falls from 14-48% to 4-13%
with scaling. It does not track the dense simplex or the network updates,
whose spread it widened, so those rounds stay unscaled (HOST_SCALED in
workloads.py).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_REF_S = 0.012        # the kernel's median CPU time on the reference machine (README)
EVERY_S = 0.2            # one sample per this much program CPU time


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((512, 1024))          # 4 MiB
        self._u = rng.random(512) * 1e-9
        self._v = rng.random(1024)
        self._x = rng.random((1024, 128))          # a batch through a 128-wide layer
        self._w = rng.random((128, 128)) * 0.01
        self._owed = 0.0
        self.samples: list[float] = []

    def kernel(self) -> float:
        """CPU time of one pass of the fixed kernel."""
        t0 = time.process_time()
        d: dict[int, int] = {}
        acc = 0
        for i in range(18_000):
            k = i % 977
            d[k] = d.get(k, 0) + i
            acc += i * 3 % 7
        a, u, v = self._a, self._u, self._v
        for _ in range(4):
            for r in range(0, a.shape[0], 64):
                a[r:r + 64] -= np.multiply.outer(u[r:r + 64], v)
        for _ in range(3):
            np.tanh(self._x @ self._w)
        return time.process_time() - t0

    def after(self, program_s: float) -> None:
        """Sample once per EVERY_S of program time just spent."""
        self._owed += program_s
        while self._owed >= EVERY_S:
            self._owed -= EVERY_S
            self.samples.append(self.kernel())

    def take(self) -> list[float]:
        """The samples so far, which are then cleared."""
        out, self.samples = self.samples, []
        return out


def scale(samples: list[float]) -> float:
    """Factor from this host's speed to the reference speed."""
    return CAL_REF_S / statistics.median(samples)
