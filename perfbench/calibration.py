"""A fixed pure-Python workload that measures the host's speed right now.

The hosts this benchmark runs on are shared, and their speed for
interpreter work drifts by a third or more over minutes, so seconds from
two runs a few minutes apart differ by more than any useful regression
bound. The benchmark therefore also times this loop between requests and
reports request and search times in units of one pass ("cal"): a slower host
stretches both alike and the ratio stays put, while a change to the
package moves only the numerator. The loop uses no code of the package and
mixes the same kinds of work the search does: dict lookups on tuple keys,
small-object allocation, tuple and set updates, and heap traffic.
"""

from __future__ import annotations

import gc
import heapq
import time

STEPS = 30000  # one pass takes about 0.1 s


class _Record:
    __slots__ = ("dist", "links")

    def __init__(self, dist):
        self.dist = dist
        self.links = set()


def _work() -> int:
    records = {}
    heap = []
    x = 12345
    for i in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 2003, x % 3)  # few keys: the loop must not raise the peak RSS
        rec = records.get(key)
        if rec is None:
            rec = records[key] = _Record((i % 13, i % 5, i % 3))
            heapq.heappush(heap, (min(rec.dist), i, rec))
        else:
            rec.dist = tuple(min(a, b + 1) for a, b in zip(rec.dist, (i % 11, i % 7, i % 2)))
            rec.links.add(i & 3)
    while heap:
        heapq.heappop(heap)
    return len(records)


def calibration_s(min_seconds: float) -> float:
    """Mean seconds per pass of the loop, over as many passes as fit in
    ``min_seconds`` (at least one). Longer calibration averages out the
    host's second-to-second jitter; the caller scales it with the request
    it brackets."""
    gc.collect()
    passes = 0
    started = time.perf_counter()
    while True:
        _work()
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return elapsed / passes
