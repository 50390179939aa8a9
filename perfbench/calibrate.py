"""Host-speed calibration for host-time metrics.

On a 2-vCPU virtual machine that shares physical cores with other
tenants, the same pure-Python loop took anywhere from 1x to 2x its
fastest time, in phases lasting from a second to a minute, so raw wall
time said more about the neighbours than about the program. Every timed
region is therefore bracketed by a fixed probe workload (the
benchmark's own code, independent of the program), and the region's
wall time is scaled by ``REFERENCE_PROBE_S / probe time``: host times
are reported in *reference seconds*, the time the region would take on
a machine that runs one probe in ``REFERENCE_PROBE_S``. A slower or
faster program still moves the result one for one; a slower machine
phase does not.
"""

import gc
import heapq
import statistics
import time

#: Wall time of one probe on the reference machine, in seconds.
REFERENCE_PROBE_S = 0.0025
#: Scheduler steps per probe.
PROBE_STEPS = 4000
#: Probes per calibration point; the median is used.
PROBES_PER_POINT = 3


def probe():
    """Fixed interpreter work shaped like a discrete-event simulator: a
    heap of generator processes updating a shared dict. Returns its wall
    time in seconds."""
    start = time.perf_counter()
    state = {}

    def process(index):
        count = 0
        while True:
            count += 1
            state[index] = state.get(index, 0) + count
            yield (index * 7 + count) % 13 + 1

    heap = [(0, index, process(index)) for index in range(16)]
    heapq.heapify(heap)
    seq = 16
    for _ in range(PROBE_STEPS):
        when, _seq, proc = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (when + next(proc), seq, proc))
    return time.perf_counter() - start


def probe_point():
    """Median probe time, with the cyclic GC held off so the program's
    heap size cannot slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(probe() for _ in range(PROBES_PER_POINT))
    finally:
        if enabled:
            gc.enable()


class CalibratedClock:
    """Accumulates raw and reference seconds over timed calls."""

    def __init__(self):
        self.raw_s = 0.0
        self.reference_s = 0.0
        self._last_probe = probe_point()

    def call(self, fn, *args):
        """Run ``fn(*args)``; returns ``(result, reference_seconds)``."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = probe_point()
        speed = (self._last_probe + after) / 2
        self._last_probe = after
        reference = wall * REFERENCE_PROBE_S / speed
        self.raw_s += wall
        self.reference_s += reference
        return result, reference
