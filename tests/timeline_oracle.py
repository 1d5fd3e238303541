"""The generation timeline as a hand-written loop, before it was built
from ``itertools``.

``generation_times`` is kept verbatim as the oracle of the differential
test in ``tests/test_simulator.py``: ``tierplan.simulator._generation_times``
must give the same floats.
"""

from __future__ import annotations

import math


def generation_times(rate: float, duration: float, max_elements: int | None) -> list[float]:
    """0.0, then every 1/rate seconds while before the duration, at most
    max_elements of them."""
    if rate == 0:
        return []
    interval, cap = 1.0 / rate, math.inf if max_elements is None else max_elements
    times, t = [0.0], 0.0
    while len(times) < cap:
        t = t + interval
        if not t < duration:
            break
        times.append(t)
    return times
