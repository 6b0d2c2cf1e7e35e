"""The host-speed probe: a fixed reference computation timed between
operations.

On a shared host the same operations run up to 1.4x slower for tens of
seconds at a time, while other tenants load the machine. The probe is timed
every PROBE_EVERY_S during a run; an operation's latency divided by the
probe time around it, times PROBE_REF_S, is its latency at the reference
speed. The probe is the benchmark's own code and calls nothing in pfschur,
so a change to the program moves the operations and not the probe. It works
on preallocated arrays only, so the allocator state the program leaves
behind does not change its time.
"""

from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.5
# About the probe's median time on a 2-vCPU Xeon VM at 2.0 GHz: latencies are
# scaled to the speed at which the probe takes this long.
PROBE_REF_S = 0.008

_N = 256
_Z = 1.3 * np.exp(2j * np.pi * np.arange(_N) / _N)[:, None]
_W = 0.7 * np.exp(2j * np.pi * np.arange(_N) / _N)[None, :]
_A = np.empty((_N, _N), complex)
_B = np.empty((_N, _N), complex)


def reference():
    """Fixed work in the program's two modes: arithmetic on a 256x256
    complex grid, as in a double-contour integrand, and an interpreter loop
    over scalars."""
    s = 0j
    for _ in range(6):
        np.multiply(_Z, _W, out=_A)
        np.multiply(_A, -0.3, out=_A)
        np.add(_A, 1, out=_A)
        np.subtract(_Z, _W, out=_B)
        np.divide(_A, _B, out=_A)
        s += _A.sum()
    for k in range(3000):
        s += (k * 0.5 + 1j) / (k + 2.0)
    return s


class HostSpeed:
    """Probe times over one run, and the operation latencies they imply at
    the reference speed."""

    def __init__(self, start):
        self.start = start          # perf_counter() at the start of the run
        self.times, self.seconds = [], []
        self._last = -np.inf

    def probe(self):
        t = perf_counter()
        reference()
        self._last = perf_counter()
        self.times.append(t - self.start)
        self.seconds.append(self._last - t)

    def maybe_probe(self):
        """Probe if PROBE_EVERY_S have passed since the last probe."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def normalise(self, starts, latencies):
        """Each latency, started at `starts` (seconds into the run), divided
        by the probe time interpolated there, times PROBE_REF_S."""
        at = np.interp(starts, self.times, self.seconds)
        return [float(x) for x in np.asarray(latencies) * PROBE_REF_S / at]
