"""A CPU-speed probe sampled while the measured work runs.

The host the benchmark was sized on changes speed by up to 40% within
minutes (see README.md), so raw times of the same work spread more than any
useful bound.  A SpeedProbe interrupts its process every INTERVAL_S with
SIGALRM and times a fixed stdlib loop of Fraction arithmetic and dict
updates (about REF_S).  The probe's own time is subtracted from the window
it fell in, and the window's time is rescaled to the speed at which the
loop takes REF_S.  The loop uses only the standard library, so no change to
ospuir can make it faster or slower.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from typing import List, Tuple

REF_S = 0.002        # loop time at the reference speed (the host running fast)
INTERVAL_S = 0.1     # one sample per 100 ms: about 2% of the time


def _loop() -> None:
    acc = {}
    x = Fraction(1, 3)
    for k in range(400):
        key = (k % 97, k % 13)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(k % 7 + 1, k % 5 + 1)


class SpeedProbe:
    """Periodic samples of the loop time: (start, seconds) pairs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()   # keep the interrupted program's heap out of the sample
        try:
            t0 = time.perf_counter()
            _loop()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        """Sample now, then every INTERVAL_S until stop()."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def window(self, t0: float, t1: float) -> dict:
        """Time of [t0, t1) without the probe's own time, and the samples
        that tell its speed: those inside it, or else the nearest ones."""
        inside = [s for start, s in self.samples if t0 <= start < t1]
        speed = inside or (
            [s for start, s in self.samples if start < t0][-1:]
            + [s for start, s in self.samples if start >= t1][:1])
        return {"seconds": t1 - t0 - sum(inside), "probe_s": sum(inside),
                "speed_n": len(speed), "speed_sum_s": sum(speed)}


def at_reference_speed(windows: List[dict]) -> Tuple[float, float]:
    """(seconds at reference speed, raw seconds) summed over windows.

    The speed is the mean of all the windows' samples; with no sample at
    all (a window closed before the probe ever ran) the raw time is kept.
    """
    raw = sum(w["seconds"] for w in windows)
    n = sum(w.get("speed_n", 0) for w in windows)
    if not n:
        return raw, raw
    mean = sum(w["speed_sum_s"] for w in windows) / n
    return raw * REF_S / mean, raw
