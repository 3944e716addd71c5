"""Host-speed probe: times a fixed reference computation throughout a run.

The benchmark's host shares its cores with other machines, and its speed
moves between phases that differ by up to about 1.9x and last seconds to
tens of seconds, so a raw wall-clock measurement depends on which phases it
happened to see. Every PERIOD_S of wall time a SIGALRM handler, in the
measuring thread itself, runs a fixed computation of the same kind as
nlconfirm's own work (`reference`) twice and times the second run; the
first only refills the caches, so the timed run starts from the same cache
state whatever the program did before it. An interval's host-normalized
time is its wall time less the probe's own time inside it, with each piece
between probes scaled by the nominal probe duration over the mean probe
duration around that piece: the time the interval would have taken on a
host where one probe takes the nominal time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 1.5e-3         # the host-normalized time scale: one reference run = 1.5 ms ...
MEMORY_NOMINAL_S = 1.0e-3  # ... and one pass over the memory buffer = 1 ms
MEMORY_FLOATS = 1 << 20    # 8 MiB: more than a core's L2, so the pass reads from L3
PAD_S = 0.15               # probes this close to a time describe the host at that time

_rng = np.random.default_rng(0)
_FRAME = _rng.normal(size=400) * np.hanning(400)
_POINTS = _rng.normal(size=(300, 40))
_POINT = _rng.normal(size=40)
_HISTORY = list(_rng.normal(size=(1500, 13)))


def reference() -> float:
    """The fixed reference computation: about 1.5 ms on the host it was sized on.

    It mirrors one formant frame (autocorrelation, Levinson
    recursion, companion-matrix eigenvalues, per-root polynomial residuals),
    one MFCC-like spectrum, a small RBF kernel row and the re-stacking of a
    list of short feature vectors. Each part stands for a kind of work whose
    speed moves differently when the host is contended.
    """
    total = 0.0
    r = np.array([np.dot(_FRAME[: 400 - k], _FRAME[k:]) for k in range(13)])
    a = np.zeros(13)
    a[0], err = 1.0, r[0]
    for k in range(1, 13):
        lam = -(r[k] + np.dot(a[1:k], r[k - 1:0:-1])) / err
        a[1:k + 1] += lam * a[k - 1::-1][:k]
        err *= 1.0 - lam * lam
    companion = np.zeros((12, 12), dtype=complex)
    companion[0] = -a[1:]
    companion[1:, :-1] = np.eye(11)
    full = a.astype(complex)
    for root in np.linalg.eigvals(companion):
        total += abs(np.polyval(full, root)) + np.polyval(np.abs(full), abs(root))
        total += np.angle(root)
    power = np.abs(np.fft.rfft(_FRAME, 512)) ** 2
    total += float(np.log(power[:40] + 1e-9).sum())
    total += float(np.exp(-0.05 * ((_POINTS - _POINT) ** 2).sum(axis=1)).sum())
    total += float(np.asarray(_HISTORY)[-7:].sum())
    return total


class HostProbe:
    """Periodic reference timings from SIGALRM; start() and stop() bracket a run.

    With `memory`, each probe also sums an 8 MiB buffer, for workloads whose
    arrays outgrow the L2 cache and so also slow down when the host's
    memory traffic does.
    """

    def __init__(self, memory: bool = False):
        self.buffer = np.ones(MEMORY_FLOATS) if memory else None
        self.nominal_s = NOMINAL_S + (MEMORY_NOMINAL_S if memory else 0.0)
        self.starts: list[float] = []     # tick start
        self.busy: list[float] = []       # whole tick, to subtract from measured intervals
        self.durations: list[float] = []  # the timed part of the tick
        self._previous = None

    def _pass(self) -> None:
        reference()
        if self.buffer is not None:
            self.buffer.sum()

    def _tick(self, signum, frame) -> None:
        # The first pass refills the caches the program just used, so the timed
        # second pass sees the host's speed and not the program's footprint.
        start = time.perf_counter()
        self._pass()
        timed = time.perf_counter()
        self._pass()
        end = time.perf_counter()
        self.starts.append(start)
        self.busy.append(end - start)
        self.durations.append(end - timed)

    def start(self) -> None:
        self._tick(None, None)  # first-call set-up stays out of the samples
        self.starts.clear(), self.busy.clear(), self.durations.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factors(self, times) -> np.ndarray:
        """Host slowness at each time: mean probe duration within PAD_S, over nominal.

        Falls back to the next probe when none is that close, and to 1.0
        when the probe never ran.
        """
        times = np.asarray(times, dtype=float)
        if not self.starts:
            return np.ones(times.shape)
        starts = np.asarray(self.starts)
        cumulative = np.concatenate([[0.0], np.cumsum(self.durations)])
        lo = np.searchsorted(starts, times - PAD_S)
        hi = np.searchsorted(starts, times + PAD_S, side="right")
        nearest = np.minimum(np.searchsorted(starts, times), starts.size - 1)
        empty = hi == lo
        lo, hi = np.where(empty, nearest, lo), np.where(empty, nearest + 1, hi)
        return (cumulative[hi] - cumulative[lo]) / (hi - lo) / self.nominal_s

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall time less probe time, host-normalized time) of the interval [t0, t1].

        The interval is cut at every probe inside it; each piece is scaled by
        the host slowness at its midpoint.
        """
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        begins = [t0] + [s + b for s, b in zip(self.starts[i:j], self.busy[i:j])]
        ends = self.starts[i:j] + [t1]
        lengths = np.maximum(np.subtract(ends, begins), 0.0)
        midpoints = (np.add(begins, ends)) / 2.0
        return float(lengths.sum()), float((lengths / self.factors(midpoints)).sum())


class Stopwatch:
    """Times one interval: `wall` excludes probe time, `normalized` also rescales it."""

    def __init__(self, probe: HostProbe):
        self.probe = probe

    def __enter__(self) -> "Stopwatch":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall, self.normalized = self.probe.measure(self.t0, time.perf_counter())
