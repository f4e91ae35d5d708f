"""Host-speed sampling, so end-to-end times can be reported at one speed.

On the shared 2-vCPU VM the benchmark was made on, the host's speed moved
by up to 1.7x within seconds and between runs: the same ``vcc-nb`` cell took
4.3 s and 6.3 s minutes apart, and the median single-row latency of ten runs
ranged 190-330 us.  Pinning to one CPU did not remove it.  Timed just
before and after each of the benchmark's kinds of operation (tree fits,
naive-Bayes fits, Viterbi decoding, ``seqlabel train``) for 200 s, the
matching loop below (the scoring loop for fits and decoding, the JSON half
for ``seqlabel train``) tracked their speed with log-correlations of
0.70-0.82, and scaling by it cut the spread of 25-second window medians
from 0.17-0.27 to 0.03-0.04.

``HostSpeed`` runs a reference loop from a timer signal every ``INTERVAL``
seconds, in the main thread, so the samples are taken on the CPU and at the
moments the measured code runs.  ``span`` turns two ``mark()`` readings into
the interval's time minus the sampler's own time, plus the host's
slowness: the median of the loop's times during it and up to ``WINDOW``
seconds either side, as far as they are taken by the time it is asked
(the host's speed drifts over seconds, so a short interval
borrows its neighbours' samples rather than rest on one or two), over the
loop's typical time, raised to the workload's exponent.  A time is
reported at the typical speed as ``seconds / slowness``.

Each workload names the loop that resembles its own hot path: ``scoring``
(small-array and interpreter work) for the grid workloads, and
``scoring+files`` (that plus a JSON round trip and a float parse) for the
CLI.  Over ten search-nb runs the combined loop's run medians moved 1.7x
where Viterbi decoding moved 1.36x, so it over-corrected there; in the
interleaved trial ``seqlabel train`` tracked the JSON half better than the
scoring half.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
WINDOW = 0.25          # samples this close to an interval describe its speed

_TABLE = np.linspace(-3.0, 0.0, 5 * 107).reshape(5, 107)
_COLS = np.arange(0, 107, 4)
_FLOATS = [i / 7.0 for i in range(500)]


def scoring_loop() -> float:
    """Seconds for a fixed burst of interpreter and small-array work (column
    gathers, sums, exp, a dict and a string join), as in scoring and tree
    fitting.  Its working set is a few kilobytes, so the program's own
    memory use does not slow it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50):
        s = _TABLE[:, _COLS].sum(axis=1)
        p = np.exp(s - s.max())
        acc += float((p / p.sum())[i % 5])
        row = {f"y{j}": str(i * j) for j in range(8)}
        acc += len(",".join(row.values()))
    return time.perf_counter() - t0


def files_loop() -> float:
    """Seconds for a JSON round trip and a float parse of 500 numbers, as
    in model files and CSVs; about as long as ``scoring_loop``."""
    t0 = time.perf_counter()
    text = json.dumps(_FLOATS)
    sum(json.loads(text)) + sum(float(x) for x in text[1:-1].split(","))
    return time.perf_counter() - t0


# name: (reference loop, its typical time on that VM)
LOOPS = {
    "scoring": (scoring_loop, 0.001),
    "scoring+files": (lambda: scoring_loop() + files_loop(), 0.0015),
}


class HostSpeed:
    """Reference-loop samples taken from a timer signal while it is on."""

    def __init__(self, reference: str = "scoring", exponent: float = 1.0):
        """``exponent`` is the log-log slope of the measured work's times on
        the loop's (see ``Workload.exponent``)."""
        self.loop, self.typical = LOOPS[reference]
        self.exponent = exponent
        self.at: list[float] = []       # sample start times
        self.took: list[float] = []     # slowness: (loop time / typical) ** exponent
        self.own = 0.0                  # total time spent sampling
        self.cum: list[float] = []      # ``own`` after each sample
        self._old = None

    def __enter__(self):
        for _ in range(3):     # so the first intervals have samples before them
            self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.took.append((self.loop() / self.typical) ** self.exponent)
        self.at.append(t0)
        self.own += time.perf_counter() - t0
        self.cum.append(self.own)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.own

    def span(self, m0: tuple[float, float], m1: tuple[float, float]) -> tuple[float, float]:
        """(seconds between the marks less sampling time, slowness around
        them).  Without samples near the interval, slowness 1."""
        (t0, own0), (t1, own1) = m0, m1
        i = bisect.bisect_left(self.at, t0 - WINDOW)
        j = bisect.bisect_right(self.at, t1 + WINDOW)
        near = self.took[i:j]
        return (t1 - t0) - (own1 - own0), (statistics.median(near) if near else 1.0)

    def between(self, t0: float, t1: float) -> tuple[float, float]:
        """``span`` for two ``perf_counter()`` readings taken without
        ``mark()`` (for example a tracer span's start and end)."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        own = (self.cum[j - 1] if j else 0.0) - (self.cum[i - 1] if i else 0.0)
        return self.span((t0, 0.0), (t1, own))
