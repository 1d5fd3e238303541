"""One worker's service as a loop with a branch per element, before it was
written as straight passes.

``serve`` is kept verbatim as the oracle of the differential test in
``tests/test_simulator.py``: ``tierplan.simulator._serve`` must write the
same waits, completions and phases and return the same floats.
"""

from __future__ import annotations

import bisect

from tierplan.simulator import _DONE, _QUEUED, _SERVICE, _fifo


def serve(columns, order: list[int], arrival, cores: int, s: float,
          duration: float, warmup: float) -> tuple[int, float]:
    """Pass one worker's arrivals, in ``order``, through its cores; record
    each element's wait, completion and phase.  Returns the number of
    arrivals from warmup on and the core-seconds spent after warmup."""
    phase, completed, queue_wait = columns.phase, columns.completed, columns.queue_wait
    arrivals = list(map(arrival.__getitem__, order))
    starts = _fifo(arrivals, cores, s, duration)
    busy = 0.0
    # finishes never decrease, so the elements done come first, then those in service
    for e, a, start in zip(order, arrivals, starts):
        queue_wait[e] = start - a
        end = start + s
        if end > duration:
            phase[e] = _SERVICE
            end = duration
        else:
            phase[e] = _DONE
            completed[e] = end
        overlap = end - max(start, warmup)
        if overlap > 0:
            busy += overlap
    for e in order[len(starts):]:
        phase[e] = _QUEUED
    return len(order) - bisect.bisect_left(arrivals, warmup), busy
