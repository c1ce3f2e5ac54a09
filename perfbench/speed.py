"""Machine-speed probe, for times that do not move with the machine.

On a shared machine the same pure-Python work can take twice as long from
one second to the next, because other tenants compete for the core, and
the slow spells can last minutes.  Raw wall times then differ between two
runs of the same code by more than any bound worth gating on.

So the benchmark measures the machine's current speed with a fixed probe
and reports every time in *reference seconds*: measured seconds scaled by
``PROBE_REF_S`` over the probe's current duration, i.e. the time the work
would take on a machine that runs the probe in exactly ``PROBE_REF_S``.
The probe is a product of two fixed sparse polynomials -- exponent tuples
with odd slots, Koszul signs, Fraction coefficients in a dict -- written
here, independent of the package, so that it slows down with the machine
the way the package's own inner loops do; it tracked the package's
slow-downs better than a tight arithmetic loop or a cache-missing dict
walk did.  It runs from a CPU-time timer
every ``INTERVAL_S`` while commands run, so that it samples the same core
at the same moments; its own time is subtracted from the command it
interrupted.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_REF_S = 0.001
INTERVAL_S = 0.05

_SLOTS = 12
_ODD = (0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1)


def _poly(rng, terms):
    out = {}
    while len(out) < terms:
        mono = tuple(rng.randrange(2) if odd else rng.randrange(3)
                     for odd in _ODD)
        out[mono] = Fraction(rng.randrange(-9, 10) or 1,
                             rng.choice((1, 2, 3, 6)))
    return out


_rng = random.Random(20150810)
_LEFT, _RIGHT = _poly(_rng, 18), _poly(_rng, 18)


def probe():
    """Run the fixed probe once; return its duration in seconds."""
    start = time.perf_counter()
    out = {}
    for m1, c1 in _LEFT.items():
        for m2, c2 in _RIGHT.items():
            swaps = 0
            for v in range(_SLOTS):
                if m2[v] and _ODD[v]:
                    if m1[v]:
                        break
                    swaps += sum(m1[u] for u in range(v + 1, _SLOTS)
                                 if _ODD[u])
            else:
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = out.get(mono, Fraction(0)) + \
                    (-1 if swaps & 1 else 1) * c1 * c2
                if c:
                    out[mono] = c
                else:
                    del out[mono]
    return time.perf_counter() - start


class Sampler:
    """Probe durations taken from a SIGPROF timer while work runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def since(self, mark):
        """(seconds the probe took since ``mark``, the probe's duration to
        normalize that interval by)."""
        new = self.samples[mark:]
        recent = new or self.samples[-3:] or [probe()]
        return sum(new), statistics.mean(recent)


def reference_seconds(seconds, probe_s):
    return seconds * PROBE_REF_S / probe_s
