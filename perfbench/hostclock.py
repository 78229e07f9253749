"""Timing that tracks how fast the host runs while a pass is measured.

On a shared host the neighbours can slow every instruction for stretches
of ten seconds to minutes: on a 2-vCPU x86 virtual machine we measured up
to 1.8 times slower, in wall-clock and CPU time alike, so that a raw time
says as much about the neighbours as about latticelab.  HostClock
therefore times a fixed reference kernel between the items of a pass, at
least every SAMPLE_EVERY_S, and expresses each stretch of work in
multiples of the kernel's time measured around it ("ref" units).  The
kernel is plain Python and small numpy operations, the same mix as
latticelab's hot paths; it is part of the benchmark and never changes
with the program.
"""

import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

clock = time.perf_counter
SAMPLE_EVERY_S = 0.2  # about 1 % of the time goes to the kernel
WINDOW = 6

_TABLE = np.arange(100).reshape(10, 10)


def reference_kernel():
    "About 2.5 ms of interpreter and small-array work, always the same."
    total = 0
    for i in range(20000):
        total += i * i
    index = {}
    for i in range(2000):
        index[(i, i)] = [i]
    for i in range(300):
        total += int((_TABLE[i % 10] == _TABLE[:, None, i % 10]).sum())
    return total + len(index)


class HostClock:
    def __init__(self):
        self.starts = []
        self.ends = []
        # Timed calls, scaled by finish() once samples on both sides exist.
        self._items = []
        self._call_starts = array("d")
        self._call_ends = array("d")
        reference_kernel()  # first call pays for lazy set-up

    def sample(self):
        "Time the reference kernel once; returns when it ended."
        start = clock()
        reference_kernel()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        return end

    def tick(self):
        "Sample if the last sample is older than SAMPLE_EVERY_S."
        if not self.ends or clock() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def timed(self, item, call, *args):
        """(result, error) of one call, timed for item.

        The item observes (seconds, ref units) in finish().  An exception
        is returned as the error of a failed item.
        """
        self.tick()
        start = clock()
        try:
            result, error = call(*args), None
        except Exception as exc:
            result, error = None, repr(exc)
        end = clock()
        self._items.append(item)
        self._call_starts.append(start)
        self._call_ends.append(end)
        return result, error

    def finish(self):
        "Sample once more and hand every timed call to its item."
        self.sample()
        for item, start, end in zip(self._items, self._call_starts, self._call_ends):
            item.observe(end - start, self.in_ref(start, end))
        self._items = []
        self._call_starts = array("d")
        self._call_ends = array("d")

    def stop(self, start):
        "(seconds, ref units) of the work from start until now; samples again."
        end = clock()
        self.sample()
        return self.span(start, end)

    def _local_ref(self, start, end):
        """Median kernel time of the WINDOW samples nearest the stretch
        [start, end], half before and half after it.  A single sample can
        read several times too slow when the kernel itself is preempted;
        the median ignores such samples but follows a slow stretch."""
        before = bisect_right(self.ends, start)
        lo = max(0, before - WINDOW // 2)
        hi = min(len(self.ends), lo + WINDOW)
        lo = max(0, hi - WINDOW)
        return statistics.median(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def in_ref(self, start, end):
        "A stretch with no sample inside it, in ref units."
        return (end - start) / self._local_ref(start, end)

    def span(self, start, end):
        """(seconds, ref units) of the work in [start, end], the kernel's
        own runs left out.  Each gap between samples is scaled by the mean
        of the two samples around it."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.ends, end)
        edges = [start] + [t for k in range(first, last) for t in (self.starts[k], self.ends[k])] + [end]
        seconds = ref = 0.0
        for gap_start, gap_end in zip(edges[::2], edges[1::2]):
            seconds += gap_end - gap_start
            ref += self.in_ref(gap_start, gap_end)
        return seconds, ref

    def slowdown(self):
        "Slowest over fastest local kernel time, a gauge of the host's noise."
        refs = [self._local_ref(t, t) for t in self.ends]
        return max(refs) / min(refs) if refs else 1.0
