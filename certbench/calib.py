"""Calibration of timed intervals against a fixed stdlib reference loop.

A shared 2-core machine drifts in speed by tens of percent within a
minute.  Each timed interval is therefore divided by the mean duration of
the reference loop timed right before and right after it, and multiplied
by NOMINAL_S, the loop's duration on the reference machine.  Calibrated
times read as seconds on that machine at its nominal speed; the raw
median loop duration is printed with every run, so raw seconds can be
recovered as calibrated * raw_loop / NOMINAL_S.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# Median duration of reference_loop() on a shared 2-core x86-64 virtual
# machine under CPython 3.11.7; fixed once, never re-measured by the benchmark.
NOMINAL_S = 0.0035


def reference_loop() -> int:
    """Fraction and int arithmetic similar in kind to the program's kernels."""
    acc = Fraction(0)
    x = 1
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 2) * Fraction(3, i % 4 + 1)
        x = (x * 1103515245 + i) % 2147483647
    return acc.numerator % 97 + x % 89


def _assert_quiet():
    """Leftover threads or children would slow the loop and flatter the program."""
    if threading.active_count() != 1:
        raise RuntimeError("a thread is still running before a calibration sample")
    tasks = "/proc/self/task"
    if os.path.isdir(tasks) and len(os.listdir(tasks)) != 1:
        raise RuntimeError("a native thread is still running before a calibration sample")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        raise RuntimeError("a child process is still running before a calibration sample")


class Calibrator:
    """Times the reference loop and converts raw intervals to calibrated ones."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        _assert_quiet()
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def timed(self, fn):
        """Run fn(); return (its result, raw seconds, calibrated seconds)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.sample()
        scale = NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        return result, raw, raw * scale

    def raw_loop_s(self) -> float:
        return statistics.median(self.samples)
