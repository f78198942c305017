"""Host-speed sampler: puts every time on one fixed scale, whatever the host's speed.

The benchmark's host is shared, and its speed for interpreter work changes
by a factor of up to two, from one second to the next and for tens of
seconds at a time; process CPU time changes with it, so it is no remedy,
and a reference burst timed between commands misses the changes that
happen during a long command.  A Sampler therefore runs a fixed unit of
big-integer arithmetic from a SIGALRM handler every INTERVAL_S while the
measured code runs, and records how long the unit took.  A measured span
is then rescaled by REFERENCE_UNIT_S / (the mean unit time around it),
after the time the handler itself took inside the span is subtracted:
the result is seconds on a host where the unit takes REFERENCE_UNIT_S.

The unit uses builtins only, nothing from geoseries and no module that
geoseries imports, so a change to the program can move it only through
the cache state the program leaves behind, which the untimed first run of
each tick (see Sampler) refills; and starting the sampler before
`import geoseries.cli` does not shorten that import.
"""

from __future__ import annotations

import signal
import time

# About the unit's time, timed by the sampler during a pass, on a quiet 2-core
# x86-64 host with Python 3.11, so that reported times read close to the
# measured ones there.  A constant, not a measurement: it only sets the
# scale of reported times.
REFERENCE_UNIT_S = 0.00015
INTERVAL_S = 0.02  # wall seconds between units
PAD_S = 0.1  # a span's speed comes from the units within this distance of it


def unit() -> str:
    """Exact sum of (k / (k + 1))^2 for k < 40, reduced at every step the way
    Fraction adds: big-integer products, Euclid's gcd, decimal text."""
    num, den = 0, 1
    for k in range(1, 40):
        b = (k + 1) * (k + 1)
        num, den = num * b + k * k * den, den * b
        x, y = num, den
        while y:
            x, y = y, x % y
        num, den = num // x, den // x
    return f"{num}/{den}"


class Sampler:
    """Times unit() every INTERVAL_S from SIGALRM while started.

    Each tick runs the unit twice and times the second run: the first
    refills the caches the program's own work has just evicted, so the
    timed run measures the host, not the program's footprint.  Keeps the
    (start, timed, end) perf_counter times of every tick.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        unit()
        timed = time.perf_counter()
        unit()
        self.ticks.append((start, timed, time.perf_counter()))

    def unit_times(self) -> list[float]:
        return [end - timed for _, timed, end in self.ticks]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, less the ticks run inside, in reference seconds."""
        inside = sum(max(0.0, min(e, end) - max(s, start)) for s, _, e in self.ticks)
        near = [e - t for s, t, e in self.ticks if start - PAD_S <= s and e <= end + PAD_S]
        if not near:  # a span the signal could not reach: take the closest tick
            _, t, e = min(self.ticks, key=lambda tick: min(abs(tick[0] - end), abs(tick[2] - start)))
            near = [e - t]
        return (end - start - inside) * REFERENCE_UNIT_S * len(near) / sum(near)
