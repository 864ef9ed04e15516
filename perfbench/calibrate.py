"""Speed calibration against a fixed standard-library kernel.

The benchmark shares its machine with other work, and the speed of the
machine drifts by a third or more over a few seconds. Every timing of the
benchmark is therefore taken next to short runs of a fixed kernel that
uses no ptree code, and is reported at reference speed: the raw time
multiplied by REFERENCE_S over the kernel's measured time. Set-up times
are paired the same way with a reference process (run this file). A
change to ptree cannot change the kernel or the reference process, so it
moves these figures as it moves raw times on an undisturbed machine.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Kernel time at the reference speed, about its best time on the 2-vCPU
# x86-64 host of the first baseline under CPython 3.11. It only sets the
# scale of the reported figures.
REFERENCE_S = 0.003
INTERVAL_S = 0.3


def kernel() -> Fraction:
    """Exact arithmetic and tuple-keyed dict work, as in ptree's inner loops."""
    for _ in range(8):
        masses: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
        total = Fraction(0)
        for i in range(1, 70):
            path = (i % 3,) * (i % 7)
            total += Fraction(1, i) * masses.get(path[:-1], Fraction(1, 2))
            masses[path] = total
    return total


def measure() -> float:
    """The kernel's best time of three runs: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Converts raw durations to reference speed.

    Durations added between two calibrations are scaled by the mean of
    those two kernel times. A calibration runs once INTERVAL_S has passed
    since the last one (interval 0: around every duration).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._previous = measure()
        self._last = perf_counter()

    def add(self, duration: float) -> None:
        self.raw.append(duration)
        self._pending.append(duration)
        if perf_counter() - self._last >= self.interval:
            self.flush()

    def flush(self) -> None:
        current = measure()
        factor = 2 * REFERENCE_S / (self._previous + current)
        self.scaled.extend(d * factor for d in self._pending)
        self._pending.clear()
        self._previous = current
        self._last = perf_counter()


# A reference process for set-up times: interpreter start, the standard
# library modules ptree imports, and some exact arithmetic. Set-up
# processes are timed in pairs with it, because process start-up slows
# down differently from a warm loop when the machine is busy.
REFERENCE_PROCESS_S = 0.08


def reference_process() -> None:
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import json  # noqa: F401
    import random  # noqa: F401
    import re  # noqa: F401
    import threading  # noqa: F401

    for _ in range(5):
        kernel()


if __name__ == "__main__":
    reference_process()
