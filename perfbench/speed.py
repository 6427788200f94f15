"""Processor-speed probe for timing on a shared machine.

On a shared virtual machine the processor a run gets can be 30-60 %
slower for stretches of seconds to minutes, because of load outside
the machine; process CPU time slows with wall time, so neither clock
removes it.  `SpeedProbe` measures that speed while the program runs:
every `INTERVAL_S` a timer signal runs a fixed piece of exact-arithmetic,
string and dict work (`_reference_work`) in the main thread and records
how long it took.  `speed()` is the mean of `REFERENCE_S / duration`
over the samples, so 1.0 means the reference work ran at its nominal
speed, and `wall seconds * speed()` estimates the time the same work
would have taken at that nominal speed.

The reference work is fixed code of this benchmark and never calls the
program, so a change to the program cannot move the factor.  It costs
about one percent of each timed interval.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 120e-6
MIN_SAMPLES = 5
_WEIGHTS = (Fraction(1, 3), Fraction(2, 3))


def _reference_work() -> int:
    mass = Fraction(1)
    table = {}
    for i in range(48):
        word = format(i * 37 % 4096, "012b")
        mass *= _WEIGHTS[word.startswith("01")]
        table[word[:-1]] = mass
    return len(table)


class SpeedProbe:
    """Samples of the processor's speed, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int = 0) -> float:
        """Mean speed over the samples taken since `mark()` returned
        `since`, widened to the last `MIN_SAMPLES` for a call too short
        to be sampled; 1.0 before the first sample."""
        recent = self.samples[max(0, min(since, len(self.samples) - MIN_SAMPLES)):]
        if not recent:
            return 1.0
        return statistics.fmean(REFERENCE_S / d for d in recent)
