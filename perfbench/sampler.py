"""Host-speed sampler: corrects pass and set-up times for host contention.

The benchmark runs on shared virtual CPUs whose speed changes by 20-70%
over seconds to minutes, as other tenants load the host.  Every request of
a pass slows down together, and CPU time slows with wall time, so neither
is steady from one run to the next.

While a measured process runs, a SIGALRM every PERIOD_S runs a fixed
pure-Python reference workload and times it.  The samples are spread evenly
over wall time, so the mean of REF_NOMINAL_S / sample is the share of the
nominal speed the host gave the process over that window.  A time scaled
by it (after the samples' own time is taken out) is the time the same work
would take at nominal speed: `adjusted = (raw - sampled) * speed`.

The reference mixes dict, tuple, str, call, sort and comprehension work,
like the interpreter-bound parts of reflectra.  Over passes of all four
workloads on a loaded host, pass time varied with this reference's speed
to a fitted power of 1.1-1.2 on every workload; a tight arithmetic loop
gave powers from 0.75 to 1.9, and a numpy sweep over 4 MB tracked worse.

REF_NOMINAL_S is the reference's fastest time on the 2-vCPU Xeon
(2.1 GHz) where the baseline was recorded, so an adjusted time reads as
seconds on that host with no contention.  On another host the adjusted
times are in the same units, scaled by that host's speed; compare them only
with runs on the same host.  Python handles the signal between bytecodes,
so a sample due during a long call into numpy runs when the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
REF_LOOPS = 700
REF_NOMINAL_S = 0.00053


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 1009


def reference() -> None:
    counts: dict[tuple[int, int], int] = {}
    for i in range(REF_LOOPS):
        key = (i % 37, _mix(i, 3) % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    sorted(counts.items())
    [x for x in range(300) if x % 3]


class Sampler:
    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _sample(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        reference()
        self.wall.append(time.perf_counter() - wall)
        self.cpu.append(time.process_time() - cpu)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean share of nominal speed over the samples (1.0 if none)."""
        if not self.wall:
            return 1.0
        return statistics.fmean(REF_NOMINAL_S / t for t in self.wall)

    def adjust(self, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """Wall and CPU seconds of the measured work at nominal speed."""
        speed = self.speed()
        return (wall_s - sum(self.wall)) * speed, (cpu_s - sum(self.cpu)) * speed
