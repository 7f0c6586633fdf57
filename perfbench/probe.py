"""The speed of the CPU the benchmark runs on, measured with a fixed probe.

On a shared host the speed of one virtual CPU changes by half or more from
second to second, and the two CPUs of a small machine change independently
of each other.  The benchmark therefore keeps itself and every process it
starts on one CPU (``pin``), and times this probe, a fixed piece of
interpreter work that uses no tworow code, right before and right after
each operation on that CPU.  An operation's time multiplied by
``scale(before, after)`` is the time it would take at the speed at which
one probe unit takes ``UNIT_S`` seconds.
"""

from __future__ import annotations

import json
import os
import time

# seconds one unit takes on an unloaded 2-vCPU Intel Xeon virtual machine
# with Python 3.11.7; it only sets the scale of the reported times
UNIT_S = 0.01


def pin() -> int:
    """Keep this process, and every process it starts from now on, on the
    lowest-numbered CPU it may use; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _expand(word: tuple, memo: dict) -> dict:
    # a memoised rewrite of tuples into dicts of counts: hashing, dict
    # merging and small allocations, like the program's own work
    if word in memo:
        return memo[word]
    if len(word) <= 2:
        out = {word: 1}
    else:
        out = {}
        for i in range(1, len(word) - 1):
            for key, count in _expand(word[:i] + word[i + 1:], memo).items():
                out[key] = out.get(key, 0) + count
    memo[word] = out
    return out


def _unit() -> int:
    memo: dict = {}
    total = sum(sum(_expand(tuple(range(s, s + 11)), memo).values()) for s in range(2))
    rows = [[i * j % 97 for j in range(40)] for i in range(600)]
    return total + len(json.dumps(rows))


def unit_s(units: int) -> float:
    """Seconds per unit of ``units`` probe units run back to back."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two probes, each in
    seconds per unit, to the reference speed."""
    return UNIT_S / ((before + after) / 2)
