"""The benchmark's clock: process CPU time, scaled by the host's speed.

On a host with shared cores the same work runs up to 1.8 times faster or
slower from one minute to the next, depending on what else the host runs, and
every stage of a run speeds up and slows down together. Two things steady the
timings against that.

- `now()` is CPU time, not wall time, so time the process spent
  descheduled is not counted. The program does no I/O waits, sleeps or
  threads of its own (BLAS runs one thread), so on a quiet host the two agree.
- While a `Yardstick` is active, a CPU-time interval timer interrupts the
  program every `PERIOD` seconds and times one fixed piece of work
  (`_reference_work`: interpreter loops, small numpy operations and small
  matmuls, the mix the program itself runs). Each stretch of program time
  between two readings is scaled by the host's speed at that moment: the
  reference time of one reading over the median of the readings within
  `NEIGHBOURS` of it (half a second of program time). `seconds(t0, t1)` sums
  the scaled stretches between two `now()` values, so a stage that ran while
  the host was 1.5 times slower than usual counts as taking the time it takes
  at the reference speed.
  `raw_seconds(t0, t1)` is the same interval unscaled. Both leave out the
  time of the readings themselves.

Timer callbacks run in the main thread between bytecodes, so the program
stays single-threaded; a long C call delays the next reading until it
returns.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the main thread's CPU time: the process clock reads stale values while a
# CPU-time interval timer is armed, and the program runs on this one thread
now = time.thread_time

PERIOD = 0.1         # CPU seconds between readings; a reading takes about 3% of that
NEIGHBOURS = 2       # the speed at a reading is the median of it and this many either side
# median time of one reading on the reference host (KVM guest, two shared
# vCPUs of an Intel Xeon, numpy 2.4 with one OpenBLAS thread) over a set of
# ten runs per workload; reported seconds are CPU seconds at that speed
REFERENCE_S = 1.36e-3

_V = np.linspace(0.0, 1.0, 256)
_X = np.linspace(0.0, 1.0, 64 * 256).reshape(64, 256)     # a batch of 64 rows
_W = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)   # one 256-wide layer
_P = np.linspace(0.0, 1.0, 1 << 18)   # 2 MiB, an optimizer-sized array


def _reference_work() -> float:
    s, seen = 0.0, {}
    for i in range(1000):
        s += i * 0.5
        seen[i & 63] = s
    for _ in range(20):
        s += float((_V * 1.5 + 0.25).sum())
    s += float((_X @ _W)[0, 0])
    s += float((_P * 0.5 + _P).sum())
    return s


class Yardstick:
    """Readings of the reference work's time, taken every `PERIOD` CPU
    seconds while the yardstick is active (`with Yardstick() as clock:`)."""

    def __init__(self):
        self.starts: list[float] = []      # now() when each reading began
        self.ends: list[float] = []        # now() when each reading ended
        self.durations: list[float] = []   # time of each reading's timed pass
        self._previous = None

    def __enter__(self) -> "Yardstick":
        self.start = now()
        self._previous = signal.signal(signal.SIGPROF, self._read)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._integrate()

    def _read(self, signum, frame) -> None:
        start = now()
        # a first pass brings the work's code and data back into the caches
        # the program evicted, so that the timed pass measures the core's
        # speed, not what the program did before the timer fired
        _reference_work()
        t0 = now()
        _reference_work()
        t1 = now()
        self.starts.append(start)
        self.durations.append(t1 - t0)
        self.ends.append(t1)

    def _integrate(self) -> None:
        """Program time and reference time up to the end of each reading, and
        the scale of the stretch before each reading."""
        k = NEIGHBOURS
        self.scales = [REFERENCE_S / statistics.median(self.durations[max(0, i - k):i + k + 1])
                       for i in range(len(self.ends))] or [1.0]
        self._raw, self._ref = [0.0], [0.0]
        prev = self.start
        for start, end, scale in zip(self.starts, self.ends, self.scales):
            stretch = start - prev
            self._raw.append(self._raw[-1] + stretch)
            self._ref.append(self._ref[-1] + stretch * scale)
            prev = end

    def _at(self, t: float, scaled: bool) -> float:
        """Program time, or reference time if `scaled`, up to now() value t."""
        i = bisect.bisect_right(self.ends, t)   # readings that ended by t
        since = t - (self.ends[i - 1] if i else self.start)
        if not scaled:
            return self._raw[i] + since
        # t falls in the stretch before reading i; after the last reading,
        # the last reading's scale holds
        return self._ref[i] + since * self.scales[min(i, len(self.scales) - 1)]

    def raw_seconds(self, t0: float, t1: float) -> float:
        """Program CPU time between two now() values, readings left out."""
        return self._at(t1, False) - self._at(t0, False)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the program time between two now() values."""
        return self._at(t1, True) - self._at(t0, True)
