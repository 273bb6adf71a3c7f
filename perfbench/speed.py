"""Host-speed reference for the timed metrics.

The benchmark's host is shared: the same pure-Python work runs up to 1.6x
slower from one few-second window to the next, in CPU time as much as in
wall time, which no amount of repetition inside a run can average away.
`SpeedSampler` therefore runs a fixed reference computation, `probe()`,
from a SIGALRM timer every INTERVAL_S seconds while ops and set-ups run,
and records how long each probe took.  A timed interval [a, b] is then
reported in reference seconds: its wall time, less the probes that ran
inside it, times ``PROBE_NOMINAL_S / p``, where ``1 / p`` is the mean of
``1 / probe time`` over the probes near the interval.  A reference second
is a second on a host on which one probe takes exactly PROBE_NOMINAL_S.

The probe is plain ``fractions.Fraction`` and list arithmetic (the
library's own instruction mix), bound when this module is imported,
before the library is, so that nothing the library does changes it.  A
subprocess op pauses the parent's sampler and runs its own in the child
(clirun.py), whose probes are merged in with `add`.
"""

import signal
from fractions import Fraction as _Fraction
from time import perf_counter

INTERVAL_S = 0.04       # one probe every 40 ms of wall time
NEAR_S = 0.25           # probes this close to an interval also count
PROBE_NOMINAL_S = 1e-3  # a probe's time on the reference host

_N = 4
_A = [[_Fraction(i - 2 * j + 1, i + j + 2) for j in range(_N)] for i in range(_N)]


def probe():
    """The reference computation: a fixed 4x4 Fraction matrix power."""
    m = _A
    for _ in range(4):
        m = [[sum(m[i][k] * _A[k][j] for k in range(_N)) for j in range(_N)]
             for i in range(_N)]
    return m


class SpeedSampler:
    """Probe times sampled on a wall-clock timer; see the module doc."""

    def __init__(self):
        self.starts = []   # probe start times (perf_counter seconds)
        self.times = []    # probe durations
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        probe()
        self.times.append(perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def add(self, starts, times):
        """Merge probes taken by a child process (perf_counter is the same
        monotonic clock in every process)."""
        self.starts += starts
        self.times += times

    def ref_seconds(self, a, b):
        """Interval [a, b] in reference seconds (see the module doc)."""
        inside = near = 0.0
        count = 0
        for t, p in zip(self.starts, self.times):
            if a - NEAR_S <= t <= b + NEAR_S:
                near += 1.0 / p
                count += 1
                if a <= t <= b:
                    inside += p
        if not count:
            raise RuntimeError("no speed probe within %.2f s of an interval"
                               % NEAR_S)
        return (b - a - inside) * PROBE_NOMINAL_S * near / count

    def probe_median_s(self):
        times = sorted(self.times)
        return times[len(times) // 2] if times else None
