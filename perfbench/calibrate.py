"""A fixed pure-Python kernel that tells how fast the machine is right now.

The box this benchmark was built on — two vCPUs of a shared host — runs the
same code 1.3 to 1.7 times slower for seconds to minutes at a time
(``process_time`` moves with ``perf_counter``: the machine is slower, the
process is not descheduled).  A whole 20-second run regularly falls inside
such a phase, so no statistic over its repetitions is steady from run to
run.  ``run.py`` therefore brackets every repetition with passes of this
kernel and divides the repetition's host times by how much slower than
:data:`KERNEL_REF_S` the kernel ran around it.

The kernel uses only the stdlib (nothing a later PR can speed up) and has
the simulator's instruction mix — heap pushes and pops, dict stores,
slotted-attribute updates, generator resumes, float arithmetic — on a
working set that stays in cache: a walk over a 16 MB object graph tracked
the simulator's slowdown worse (spread 12-17 % against 4-8 %).
"""

import heapq
from time import perf_counter

#: What one pass takes on the reference box when nothing disturbs it.
KERNEL_REF_S = 0.024


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = key * 0.5


def _ticker(steps):
    total = 0.0
    for _ in range(steps):
        got = yield total
        total += got * 1.0000001


def kernel(steps: int = 30000) -> float:
    """Host seconds one pass takes."""
    start = perf_counter()
    heap, table = [], {}
    nodes = [_Node(i) for i in range(2000)]
    ticker = _ticker(steps + 1)
    next(ticker)
    for i in range(steps):
        key = (i * 7919) % 10007
        heapq.heappush(heap, (key * 0.001, i))
        table[key] = nodes[i % 2000]
        if i & 1:
            date, _ = heapq.heappop(heap)
            table[key].value += date
        ticker.send(1.0)
    return perf_counter() - start
