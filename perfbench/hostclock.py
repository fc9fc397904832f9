"""Wall time corrected for the host's speed at the moment it was measured.

On a small shared host the interpreter's speed drifts by ±25 % over
minutes (other tenants, frequency changes), so raw wall readings of one
workload spread across runs far more than any change worth detecting.
:class:`NominalClock` brackets every measured interval with a short fixed
reference loop.  The loop is pure Python with the simulator's kind of work
(calls, attribute and dict access, small bytes), and it
lives here, outside the program, so no change to the program moves it.
Each interval's wall time is scaled by the reference rate measured around
it over :data:`NOMINAL_RATE`, raised to :data:`ELASTICITY`: the result is
the time the interval would have taken on a host where the loop runs at
exactly that rate.  The time spent in the reference loop itself is
excluded from every interval.
"""

from __future__ import annotations

import time

clock = time.perf_counter

#: Reference-loop iterations per second on the nominal host.  Fixed for
#: good: changing it rescales every corrected time.
NOMINAL_RATE = 2_000_000.0

#: How closely the program's time follows the reference loop's speed.
#: Part of the program's time (cache and memory stalls on a heap of tens
#: of MiB) does not shrink when the small, cache-resident loop speeds up,
#: so a full correction (1.0) over-corrects.  Fitted once on twenty runs
#: of every workload, where 0.75 gave the narrowest spread on all four.
#: Fixed for good, like :data:`NOMINAL_RATE`.
ELASTICITY = 0.75

#: Iterations per reference sample (a few milliseconds).
ITERATIONS = 5000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


#: The loop's fixed working set, small enough to stay in cache.
_ITEMS = tuple(_Item(f"key{index}", index) for index in range(64))


def _touch(item: _Item, table: dict, index: int) -> int:
    table[item.key] = item.value + index
    return len(item.key.encode() + b"|")


def reference_rate(iterations: int = ITERATIONS) -> float:
    """Iterations per second of the fixed reference loop, right now.

    The loop allocates only objects the cyclic garbage collector does not
    track (ints, bytes), so it never triggers a collection: its speed
    depends on the host, not on how much garbage the program left behind.
    """
    items = _ITEMS
    table = {item.key: 0 for item in items}
    total = 0
    started = clock()
    for index in range(iterations):
        item = items[index & 63]
        total += _touch(item, table, index) + table[item.key] % 7
    return iterations / (clock() - started)


class NominalClock:
    """Laps of wall time, each scaled to the nominal host's speed."""

    def __init__(self):
        self._rate = reference_rate()
        self._started = clock()
        self.wall = 0.0

    def lap(self) -> float:
        """Nominal seconds since the previous lap (or construction).

        The raw wall seconds accumulate in :attr:`wall`.
        """
        wall = clock() - self._started
        rate = reference_rate()
        speed = (self._rate + rate) / 2.0 / NOMINAL_RATE
        nominal = wall * speed ** ELASTICITY
        self._rate = rate
        self.wall += wall
        self._started = clock()
        return nominal
