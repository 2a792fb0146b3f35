"""A reference loop that reads how fast the benchmark's CPU runs right now.

The CPUs of a shared virtual machine change speed with the load of the host:
on a 2-vCPU machine the same pure-Python loop took 1.4 ms in one second and
2.2 ms in the next, the two CPUs moved independently, and the level drifted
from one minute to the next. A run of fixed length averages the fast and the
slow seconds it happened to get, so whole runs of the same code differed by
up to 1.5x.

The benchmark therefore runs this loop now and then, between ops while the
load threads stand still (:class:`Probe`), and times it in thread CPU time. The loop does the kind of work the
library does (struct packing, bytes, lists, text), but none of the library's
code, so a change to the library does not move it. Times are rescaled to the
speed at which the loop takes ``REFERENCE_S``: a latency is multiplied by
``factor``, and a rate divided by it.
"""
from __future__ import annotations

import array
import statistics
import struct
import threading
import time
from typing import Iterable

# CPU time of one pass of the loop at the nominal speed; about its median on
# a 2-vCPU Intel Xeon virtual machine at 2.0 GHz with CPython 3.11
REFERENCE_S = 0.45e-3
# how often the loop runs during a timed phase
EVERY_S = 0.05

_INT = struct.Struct(">q")


def _reference_work() -> int:
    buffer = bytearray()
    for value in range(-300, 300):
        buffer += _INT.pack(value * 7919)
    back = [_INT.unpack_from(buffer, 8 * i)[0] for i in range(600)]
    return len("-".join(map(str, back)).encode("utf-8").decode("utf-8"))


def sample() -> float:
    """Thread CPU seconds taken by one pass of the reference loop."""
    t0 = time.thread_time()
    _reference_work()
    return time.thread_time() - t0


def samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


def factor(taken: Iterable[float]) -> float:
    """How fast the CPU ran while these samples were taken, relative to nominal.

    Below 1 when the loop ran slower than ``REFERENCE_S``.
    """
    return REFERENCE_S / statistics.median(taken)


class Probe:
    """Now and then stops every load thread between two ops and reads the speed.

    With every load thread stopped no request is in flight, so the reference
    loop has the CPU to itself, the server process's share included. Each
    load thread calls :meth:`wait` between ops once ``due`` has passed; the
    last one to arrive runs the loop while the others wait. The pauses are
    recorded, so that they can be taken out of the timed phase.
    """

    def __init__(self, threads: int, timeout: float) -> None:
        self.due = 0.0
        self.at = array.array("d")  # perf_counter when each pass ended
        self.cpu = array.array("d")  # thread CPU seconds of each pass
        self.paused = array.array("d")  # wall seconds each pass held the load
        self._timeout = timeout
        self._barrier = threading.Barrier(threads, action=self._read)

    def _read(self) -> None:
        t0 = time.perf_counter()
        self.cpu.append(sample())
        self.at.append(time.perf_counter())
        self.paused.append(self.at[-1] - t0)
        self.due = self.at[-1] + EVERY_S

    def wait(self) -> bool:
        """Wait for the other load threads and the reading; False once the probe is off."""
        try:
            self._barrier.wait(self._timeout)
            return True
        except threading.BrokenBarrierError:
            return False

    def stop(self) -> None:
        """Release every waiting thread and take no more readings."""
        self._barrier.abort()
