"""Host-speed sampler: timings scaled to a fixed reference speed.

On a shared host the speed of one CPU-bound thread drifted by up to 2.4x
over minutes, and swung by 1.5x within seconds, as neighbours loaded the
cores it shares; a whole run's mean drifted with it.  While a Sampler is
active, a SIGALRM timer runs a fixed probe of the benchmark's own (pure
Python arithmetic and small numpy operations, like the package's code;
nothing from zonalg) every INTERVAL_S, inside commands as well as between
them.  A command's time is its wall time minus the probes run inside it,
scaled by REF_CHUNK_S / (the probes' mean time per chunk during it and in
the SMOOTH_S around it), which removes most of that drift: seconds become
*reference seconds*, the time the command would take on a host that runs
one probe chunk in REF_CHUNK_S.

The probe allocates no objects that the garbage collector tracks, so the
state the package leaves behind does not change its speed.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

# The median chunk took about this long on a shared 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4); the constant only sets the scale of reference seconds.
REF_CHUNK_S = 1.0e-4
PROBE_S = 2e-3  # one probe runs whole chunks for at least this long
INTERVAL_S = 0.1  # between probes
# A command is scaled by the probes that ended during it or this close to it:
# one probe's chunk time is noisy, and a short command scaled by its nearest
# probe alone would carry that noise.
SMOOTH_S = 0.5

_X = np.linspace(0.0, 1.0, 64)


def _chunk() -> int:
    # The mix was tuned so that the chunk's time tracked the times of check,
    # kernel eig and lift stats commands with a log-log slope of 0.9 to 1.1
    # while the host's speed drifted.
    s = 0
    for i in range(120):
        s += i * i
    a = _X
    for _ in range(19):
        a = np.abs(np.cos(a)) * 0.5 + 0.25
    return s


def probe(seconds: float) -> float:
    """Seconds per chunk, over whole chunks lasting at least `seconds`."""
    n = 0
    t0 = perf_counter()
    while True:
        _chunk()
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / n


class Sampler:
    """Context manager that probes on entry, every INTERVAL_S and on exit.

    Afterwards ``scale(t0, t1)`` turns an interval measured with
    perf_counter inside the block into (seconds, reference seconds), both
    without the probes that ran inside it.
    """

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.chunk_s = array("d")
        self._handler = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        self.chunk_s.append(probe(PROBE_S))
        self.start.append(t0)
        self.end.append(perf_counter())

    def __enter__(self) -> Sampler:
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def probe_seconds(self, t):
        """Seconds spent in probes before perf_counter time(s) t.

        No time the main code reads falls inside a probe: the handler runs
        between two of its bytecodes.
        """
        ends = np.frombuffer(self.end)
        cum = np.concatenate([[0.0], np.cumsum(ends - np.frombuffer(self.start))])
        return cum[np.searchsorted(ends, t, side="right")]

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, reference seconds) of [t0, t1] without the probes inside it."""
        seconds = (t1 - t0) - float(self.probe_seconds(t1) - self.probe_seconds(t0))
        ends = np.frombuffer(self.end)
        lo = np.searchsorted(ends, t0 - SMOOTH_S)
        hi = np.searchsorted(ends, t1 + SMOOTH_S, side="right")
        if lo == hi:  # a gap in the samples: take the nearest one on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ends))
        return seconds, seconds * REF_CHUNK_S / float(np.mean(np.frombuffer(self.chunk_s)[lo:hi]))

    def slowdown(self) -> float:
        """Median probe time per chunk over REF_CHUNK_S: how much slower than reference the host ran."""
        return float(np.median(np.frombuffer(self.chunk_s))) / REF_CHUNK_S
