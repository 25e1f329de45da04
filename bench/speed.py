"""How fast the virtual CPU runs right now, sampled inside each worker.

On a shared host, neighbours slow the virtual CPU by up to half for seconds
at a time, and CPU time stretches with wall time, so neither tells work
from waiting.  A :class:`Sampler` times a fixed pure-Python loop from a
``SIGALRM`` handler every ``SAMPLE_INTERVAL_S`` of wall time.  Its mean
ratio ``PROBE_REF_S / probe time`` is the share of quiet-machine speed the
worker got; ``run.py`` multiplies the worker's times by it, after taking
out the time the samples themselves took (``spent``).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_LOOPS = 1_250
#: Time of the probe loop on the quiet machine (2-vCPU Xeon at 2.1 GHz).
PROBE_REF_S = 0.0033
SAMPLE_INTERVAL_S = 0.125


def probe():
    """Seconds the probe loop takes now.

    Small ``Fraction`` products, like the package's own arithmetic: they
    allocate and call ``gcd``, so the loop slows with the memory system and
    not only with the interpreter.
    """
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += (Fraction(i % 13, i % 7 + 1) * Fraction(3, i % 5 + 1)).numerator
    return time.perf_counter() - started


class Sampler:
    """Speed samples of one single-threaded process."""

    def __init__(self):
        self.ratios = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        seconds = probe()
        self.spent += seconds
        self.ratios.append(PROBE_REF_S / seconds)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self):
        """Mean share of quiet speed, 1.0 when no sample was taken."""
        return sum(self.ratios) / len(self.ratios) if self.ratios else 1.0
