"""Host-speed reference: a fixed pure-Python loop timed next to the work.

The benchmark's host runs the same instructions up to 1.7x slower in
stretches that last from seconds to minutes (other tenants share its
cores); CPU time stretches with wall time, so neither is steady on its
own.  This loop, which uses none of the program's code, is timed right
before and right after every measured chunk (a simulator cell, a store
pass).  A host-time figure is then reported as it would read on a host
that runs the loop in :data:`NOMINAL_S`:

    normalised = measured * NOMINAL_S / mean(loop before, loop after)

The loop mixes what the program spends its time on: ``__slots__``
objects, dict probes, a generator driven by ``send`` and a small heap.
On a 200 s trace of sim-fig7 its time correlated 0.98 with the cells'
(README, "Measuring on this host").
"""

from __future__ import annotations

import heapq
import random
import time

#: the loop's typical time on the host the reference figures come from
NOMINAL_S = 0.025


class _Node:
    __slots__ = ("key", "val", "nxt")

    def __init__(self, key, val, nxt):
        self.key = key
        self.val = val
        self.nxt = nxt


def _loop(n: int = 12_000) -> int:
    rng = random.Random(7)
    table = {}
    heap = []

    def body():
        total = 0
        while True:
            total += yield total

    gen = body()
    next(gen)
    head = None
    for i in range(n):
        k = rng.randrange(4096)
        node = table.get(k)
        if node is None:
            node = table[k] = head = _Node(k, i, head)
        else:
            node.val += 1
        heapq.heappush(heap, (node.val, k))
        if len(heap) > 64:
            heapq.heappop(heap)
        gen.send(k & 7)
    return len(table)


def loop_s() -> float:
    """Host seconds the reference loop takes right now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Bracket:
    """Normalises consecutive chunks, each timed between two loops.

    The loop after one chunk is the loop before the next, so a run of
    n chunks times the loop n + 1 times.
    """

    def __init__(self) -> None:
        self._before = loop_s()

    def factor(self) -> float:
        """Call right after a chunk: its ``NOMINAL_S / mean(loops)``."""
        after = loop_s()
        factor = NOMINAL_S / ((self._before + after) / 2.0)
        self._before = after
        return factor
