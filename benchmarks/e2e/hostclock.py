"""A host-speed-compensated clock for the benchmark's timings.

The machine this benchmark runs on is shared: for stretches of seconds
to minutes it runs the same Python code up to twice as slowly, with no
steal time reported, so a wall-clock window measures the neighbours as
much as the code.  A sampler process runs a fixed pure-Python kernel
(which no change to ``src/`` can speed up or slow down) ten times a
second and reports its CPU time.  The host's slowdown at any moment is
that time over :data:`REFERENCE_S`, the kernel's time on the reference
host at full speed, and a span of wall time is converted to reference
seconds by dividing it, piece by piece, by the slowdown in force.

Running it directly is the sampler: one ``<perf_counter> <kernel CPU
seconds>`` line per sample on stdout until it is terminated.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import threading
import time
from typing import List, Tuple

#: The kernel's CPU time (best of three) at full speed on a 2-vCPU
#: x86-64 KVM guest (Intel Xeon, 2.1 GHz) under Python 3.11.
REFERENCE_S = 0.00072
#: Seconds between samples.
INTERVAL_S = 0.1


def kernel() -> int:
    table = {}
    recent = []
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        recent.append((i, str(i & 31)))
        if len(recent) > 64:
            recent.pop(0)
    return len(table)


def sample() -> float:
    """The kernel's CPU time, best of three."""
    best = float("inf")
    for _ in range(3):
        started = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - started)
    return best


def reference_seconds(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Wall time ``[start, end]`` in reference seconds, taking each
    sample's slowdown to hold until the next sample (the first one also
    before it)."""
    times = [t for t, _ in samples]
    i = max(bisect.bisect_right(times, start) - 1, 0)
    total = 0.0
    t = start
    while t < end:
        stop = min(times[i + 1], end) if i + 1 < len(times) else end
        total += (stop - t) * REFERENCE_S / samples[i][1]
        t = stop
        i += 1
    return total


class HostClock:
    """Runs the sampler for the life of one benchmark run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 30
        while not self.samples:
            if time.monotonic() > deadline or self._proc.poll() is not None:
                self.stop()
                raise RuntimeError("the host-speed sampler did not start")
            time.sleep(0.01)

    def _read(self) -> None:
        for line in self._proc.stdout:
            stamp, cpu = line.split()
            self.samples.append((float(stamp), float(cpu)))

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait(timeout=30)
        self._reader.join(timeout=30)
        self._proc.stdout.close()

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` (``perf_counter`` stamps) in reference seconds."""
        return reference_seconds(list(self.samples), start, end)

    def slowdown(self, start: float, end: float) -> float:
        """The median slowdown sampled within ``[start, end]``."""
        values = sorted(cpu for t, cpu in self.samples if start <= t <= end)
        values = values or sorted(cpu for _, cpu in self.samples)
        return values[len(values) // 2] / REFERENCE_S


def main() -> None:
    while True:
        cpu = sample()
        sys.stdout.write(f"{time.perf_counter()} {cpu}\n")
        sys.stdout.flush()
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    try:
        main()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
