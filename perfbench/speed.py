"""The machine's speed, sampled while a workload runs.

On a shared machine the speed available to one process can change by a
factor of two within seconds, and its CPU time slows down with it, so raw
times of the same work spread by 30% from run to run. A timer interrupts
the sample every TICK seconds and times a fixed pure-Python reference
kernel. The mean of those times over the sample, against REF_NOMINAL, is
the speed; times are reported as seconds at nominal speed, with the
kernel's own time taken out of the operation it interrupted. Each
operation is scaled by the ticks that fired during it and within half a
second either side.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

TICK = 0.1               # seconds between reference samples
LOCAL_MARGIN = 0.5       # seconds around an operation whose ticks set its speed
LOCAL_TICKS = 5          # fewest ticks for a local speed
REF_NOMINAL = 0.0035     # seconds the kernel takes at nominal speed
CALIBRATION_RUNS = 7     # kernel runs right after set-up


def reference_kernel() -> None:
    """Fixed work of the kind ellq does: Fraction arithmetic on growing
    integers, and tuple-keyed dict traffic."""
    acc = Fraction(1)
    for i in range(1, 400):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
    table = {}
    for i in range(1500):
        table[(i * 7919) % 1009, i % 13] = i


def timed_kernel() -> tuple[float, float]:
    """(wall, cpu) seconds of one kernel run. The cyclic garbage collector
    is off meanwhile: its passes cost more the more objects the program
    holds, which would make the kernel measure the heap, not the machine."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def scale(seconds: float, ref: float) -> float:
    """Seconds measured while the kernel took `ref`, at nominal speed."""
    return seconds * REF_NOMINAL / ref


class Speedometer:
    """Reference samples taken on a timer; `context()` labels each one with
    what was running when it fired (the open span, when tracing)."""

    def __init__(self, context=None):
        self.context = context
        self.calibration = [timed_kernel()[0] for _ in range(CALIBRATION_RUNS)]
        self.ticks: list[dict] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        wall, cpu = timed_kernel()
        self.ticks.append({"start": start, "wall": wall, "cpu": cpu,
                           "context": self.context() if self.context else None})

    def within(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, cpu) the kernel took in ticks that fired in [t0, t1)."""
        inside = [t for t in self.ticks if t0 <= t["start"] < t1]
        return sum(t["wall"] for t in inside), sum(t["cpu"] for t in inside)

    def local_ref(self, t0: float, t1: float) -> float:
        """Mean kernel time around the operation that ran in [t0, t1), since
        the speed drifts within a sample; the whole sample's mean when too
        few ticks fired near it."""
        near = [t["wall"] for t in self.ticks
                if t0 - LOCAL_MARGIN <= t["start"] < t1 + LOCAL_MARGIN]
        return statistics.mean(near) if len(near) >= LOCAL_TICKS else self.run_ref()

    def setup_ref(self) -> float:
        """Kernel time right after set-up, to scale the set-up time."""
        return statistics.median(self.calibration)

    def run_ref(self) -> float:
        """Mean kernel time over the operations (and the calibration, so a
        sample shorter than one tick still has a speed)."""
        return statistics.mean(self.calibration + [t["wall"] for t in self.ticks])
