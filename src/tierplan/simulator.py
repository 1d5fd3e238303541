"""Simulation of the streaming pipeline, one stage at a time.

Every element follows generate -> preprocess (FIFO on the endpoint's cores)
-> transfer (dedicated per-endpoint link: serialization plus sampled one-way
propagation) -> worker FIFO queue -> service on one of the worker's cores.
Self-assigned endpoints process their own elements and skip the
preprocessing and network stages entirely.

Arrivals and service times are deterministic; the only randomness is the
propagation delay, drawn from a normal distribution truncated at zero, so a
run is fully determined by (topology, workload, params).

The pipeline is feed-forward and every queue is FIFO with a constant service
time, so each stage's times follow in closed form from the stage before
(Lindley 1952; Kiefer and Wolfowitz 1955) and no event queue is needed:

- Generation: every source emits at 0.0 and then every ``interval`` (the
  interval added up in sequence), one timeline ``g_k`` for all sources.
- Every queue is a FIFO with ``c`` servers and service time ``s``, whose
  arrivals start at ``start_i = max(a_i, start_{i-c} + s)`` and finish at
  ``start_i + s`` (``_fifo``): the endpoint CPU on ``g_k`` with the
  endpoint's cores and ``pre_s``, which every offloaded source shares, so
  one recursion serves them all; the link on the preprocessed times with
  ``c = 1`` and ``ser_s``; and each worker on its arrivals sorted by
  arrival time, ties in transmit order, with its cores and ``proc/quota``
  (``_serve``: the elements done are all the started ones but the last
  ``c`` at most, written in one pass without a branch).
- Propagation: delays are drawn from one seeded ``random.Random`` in
  transmit order: round ``k`` first, then the source's rank in sorted id
  order.  Only elements transmitted by the end of the run draw.

A stage counts as reached when its time is at most the duration; the last
stage reached is the element's phase.  These are the float operations, and
the tie order, of an event loop ordered by (time, insertion sequence), which
the test suite keeps as a differential oracle.  The recursions need the
shared timelines, so ``simulate`` rejects two topologies that
``build_topology`` never makes: offloaded sources with different
preprocessing times or endpoint cores, and (through ``Topology.check``) a
worker that processes its own elements and other sources' too.

A run is kept as columns (``_Columns``), each quantity at the level where
it varies.  By round, as ``array('d')``: the timeline, and the preprocess
and transfer every offloaded source shares, for the rounds that reached
each stage.  By source rank: whether the source offloads, and its worker's
service time.  By element: propagation, queue wait and completion time as
``array('d')`` (NaN where not done), and one ``bytearray`` of indices into
``PHASES``.  An element's preprocess and transfer are its round's where
its source offloads and the round reached the stage, else 0.0; its service
is its source's.  ``_Columns.components`` expands the five durations per
element on the fly, for the report (of done elements), the records and the
trace alike, which show a service and a completion only when done.
Records are built only for ``SimReport.elements``, and ``write_trace_csv``
formats the columns a chunk of rounds at a time, the second half of the
chunks in a forked child where it can.  Waiting for the endpoint CPU counts
into preprocess and waiting for the link into transfer.  End-to-end
latency is defined as the exact sum of the five components.

The latency sd is ``statistics.stdev``'s float from exact integer sums
(``stdev``): scaled by a power of two that makes every value an integer,
the sums of the values and of their squares are exact, so the sample
variance is an exact fraction whose square root is rounded correctly.
``statistics`` is imported only where those sums cannot serve.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import marshal
import math
import os
import random
import sys
import tempfile
import threading
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property, partial, reduce
from operator import add, lt, mul, sub
from typing import IO, Callable, Iterable, Iterator, Sequence

from .config import _shown
from .topology import Link, Topology, WorkloadProfile, _is_int, _is_number, capacity_of

# Largest run simulate accepts, in elements: a run peaks at 44 (wide) to 155
# bytes per element (one source), by tracemalloc (see README, "Simulator model").
MAX_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class SimParams:
    duration: float                  # simulated seconds
    warmup: float | None = None      # metrics exclude [0, warmup); default 10% of duration
    seed: int = 0
    max_elements: int | None = None  # per-endpoint cap on generated elements

    def __post_init__(self) -> None:
        if not (_is_number(self.duration) and 0 < self.duration < math.inf):
            raise ValueError(f"duration must be positive and finite, got {_shown(self.duration)}")
        if not (_is_number(self.warmup_s) and 0 <= self.warmup_s < self.duration):
            raise ValueError(f"warmup must lie in [0, duration), got {_shown(self.warmup_s)}")
        if self.max_elements is not None and not (_is_int(self.max_elements) and self.max_elements >= 1):
            raise ValueError(f"max_elements must be an integer of at least 1, got {_shown(self.max_elements)}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {_shown(self.seed)}")

    @property
    def warmup_s(self) -> float:
        return 0.1 * self.duration if self.warmup is None else self.warmup


@dataclass
class ElementRecord:
    source: str
    worker: str
    index: int
    generated: float
    preprocess: float = 0.0   # endpoint CPU wait + preprocessing
    transfer: float = 0.0     # link wait + serialization
    propagation: float = 0.0
    queue_wait: float = 0.0
    service: float = 0.0
    completed: float | None = None
    phase: str = "preprocess"  # preprocess|transfer|transit|queued|service|done

    @property
    def end_to_end(self) -> float:
        return self.preprocess + self.transfer + self.propagation + self.queue_wait + self.service


PHASES = ("preprocess", "transfer", "transit", "queued", "service", "done")
_TRANSFER, _TRANSIT, _QUEUED, _SERVICE, _DONE = range(1, 6)  # indices into PHASES
_IS_DONE = bytes(code == _DONE for code in range(256))  # bytearray.translate table: 1 for done, else 0

_TRACE_COLUMNS = (
    "source", "worker", "index", "generated_s", "preprocess_s", "transfer_s",
    "propagation_s", "queue_wait_s", "service_s", "end_to_end_s", "completed_s", "phase",
)
_TRACE_CHUNK_ROWS = 2000  # rows write_trace_csv formats at a time, in whole rounds


@dataclass
class _Columns:
    """A run's results, element ``k * len(sources) + rank`` being round ``k``
    of the source at that rank (the order elements are generated in), each
    quantity kept at the level where it varies (see the module docstring)."""

    sources: list[tuple[str, str]]   # (source id, worker id) by rank
    offloads: bytes                  # by rank: 1 where the source offloads, else 0
    service: array                   # array('d') by rank: its worker's service time
    generated: array                 # array('d') by round
    preprocess: array                # array('d') by round preprocessed within the run
    transfer: array                  # array('d') by round sent within the run
    propagation: array               # array('d') by element
    queue_wait: array                # array('d') by element
    completed: array                 # array('d') by element, NaN where the element is not done
    phase: bytearray                 # by element: index into PHASES

    def components(self, k0: int, k1: int) -> tuple[Iterable[float], ...]:
        """The five durations of each element in rounds ``k0`` up to ``k1``
        (within the run), in ``ElementRecord`` order: propagation and queue wait
        as memoryviews, the others as iterators, each new.  The service is the
        source's in every phase; ``rows`` and ``_format_rounds`` show it only when done."""
        lo, hi = k0 * len(self.sources), k1 * len(self.sources)
        pre, transfer = (_spread(memoryview(by_round)[k0:k1], k1 - k0, self.offloads, 0.0)
                         for by_round in (self.preprocess, self.transfer))
        return (pre, transfer, memoryview(self.propagation)[lo:hi], memoryview(self.queue_wait)[lo:hi],
                itertools.chain.from_iterable(itertools.repeat(self.service, k1 - k0)))

    def rows(self) -> Iterator[tuple]:
        """ElementRecord fields of every element, in generation order; the
        service and completion of an element not done are 0.0 and None."""
        values = zip(*self.components(0, len(self.generated)), self.completed, self.phase)
        for index, generated in enumerate(self.generated):
            for source, worker in self.sources:
                pre, transfer, propagation, wait, service, end, code = next(values)
                shown = (service, end) if code == _DONE else (0.0, None)
                yield (source, worker, index, generated, pre, transfer, propagation, wait, *shown, PHASES[code])


def _spread(by_round: Iterable, rounds: int, offloads: bytes, zero) -> Iterator:
    """``rounds`` rounds of an item per rank: the round's item of ``by_round``
    (``zero`` past its end) where the rank's source offloads, else ``zero``,
    repeated over each run of ranks with the same flag."""
    runs = [(flag, len(list(ranks))) for flag, ranks in itertools.groupby(offloads)]
    padded = itertools.islice(itertools.chain(by_round, itertools.repeat(zero)), rounds)
    return itertools.chain.from_iterable(itertools.repeat((zero, value)[flag], length)
                                         for value in padded for flag, length in runs)


@dataclass
class SimReport:
    params: SimParams
    generated: int
    completed: int
    measured: int                 # completed elements generated at or after warmup
    # the four means are None when no element was measured, the sd when
    # fewer than two were
    latency_mean_s: float | None
    latency_sd_s: float | None
    communication_mean_s: float | None   # transfer + propagation
    compute_mean_s: float | None         # preprocess + service
    queueing_mean_s: float | None
    worker_load_percent: dict[str, float]
    worker_busy_fraction: dict[str, float]
    throughput_eps: float         # elements completed per second from warmup on
    backlog: int                  # generated but not completed at the end
    backlog_at_warmup: int        # generated before warmup, not completed before it
    phase_counts: dict[str, int]
    columns: _Columns = field(repr=False, compare=False)

    @cached_property
    def elements(self) -> tuple[ElementRecord, ...]:
        """One record per element, in generation order; built on first use."""
        return tuple(ElementRecord(*row) for row in self.columns.rows())

    def to_dict(self) -> dict:
        """The params' duration, warmup and seed, then every other field but
        the columns, in field order; the mappings copied."""
        data = {"duration_s": self.params.duration, "warmup_s": self.params.warmup_s, "seed": self.params.seed}
        for f in fields(self):
            if f.name not in ("params", "columns"):
                value = getattr(self, f.name)
                data[f.name] = dict(value) if isinstance(value, dict) else value
        return data


def estimated_elements(sources: int, rate: float, params: SimParams) -> float:
    """About how many elements a run of ``sources`` endpoints generates:
    sources x min(max_elements, duration x rate + 1), the count
    ``simulate`` holds to ``MAX_ELEMENTS``."""
    per_source = float(params.duration) * rate + 1 if rate > 0 else 0
    if params.max_elements is not None:
        per_source = min(per_source, params.max_elements)
    return sources * per_source


def _generation_times(rate: float, duration: float, max_elements: int | None) -> array:
    """0.0, then every 1/rate seconds (the interval added up in sequence)
    while before the duration, at most max_elements of them.  islice takes
    no stop beyond sys.maxsize, which no run within the budget reaches."""
    if rate == 0:
        return array("d")
    times = itertools.accumulate(itertools.repeat(1.0 / rate), initial=0.0)
    cap = sys.maxsize if max_elements is None else min(max_elements, sys.maxsize)
    return array("d", itertools.islice(itertools.takewhile(lambda t: t < duration, times), cap))


def _assign(topology: Topology, workload: WorkloadProfile
            ) -> tuple[list[tuple[str, str]], dict[str, list[int]], bytes, tuple[float, int]]:
    """Sources by rank as (source id, worker id), every worker's source ranks,
    by rank 1 where the source offloads, else 0, and the preprocessing time
    and endpoint cores the offloaded sources share.  Without preprocessing
    the cores do not matter and count as 1."""
    sources = sorted((source_id, worker_id) for worker_id, assigned in topology.assignment.items()
                     for source_id in assigned)
    ranks: dict[str, list[int]] = {device.id: [] for device in topology.workers}
    for rank, (_, worker_id) in enumerate(sources):
        ranks[worker_id].append(rank)
    offloads = bytes(source_id != worker_id for source_id, worker_id in sources)
    endpoint_cpus = {(workload.pre_time / d.quota, d.cores if workload.pre_time else 1)
                     for d in (topology.device(source_id) for (source_id, _), offloaded in zip(sources, offloads)
                               if offloaded)}
    if len(endpoint_cpus) > 1:
        raise ValueError("offloaded sources must share one preprocessing time and core count "
                         "(same endpoint quota and cores)")
    return sources, ranks, offloads, endpoint_cpus.pop() if endpoint_cpus else (0.0, 1)


_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)  # as random.NV_MAGICCONST


def _truncated_normal(uniform: Callable[[], float], mu: float, sigma: float, count: int) -> list[float]:
    """``count`` draws of ``random.Random.normalvariate(mu, sigma)`` from
    the stream ``uniform`` (a ``Random.random``), each redrawn while it is
    negative.  normalvariate's Kinderman-Monahan loop is inlined with its
    float operations unchanged, which saves a method call per draw and pins
    the stream to this algorithm whatever a later Python does."""
    log, values = math.log, []
    for _ in range(count):
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                value = mu + z * sigma
                if value >= 0:  # truncate at zero by redrawing
                    break
        values.append(value)
    return values


def _fifo(arrivals: Sequence[float], cores: int, s: float, duration: float) -> list[float]:
    """Start times of a ``cores``-server FIFO with service time ``s``, in
    arrival order, for ``arrivals`` that never decrease:
    ``start_i = max(a_i, start_{i-cores} + s)``.  Starts never decrease
    either, so the list ends before the first start after ``duration``."""
    starts = [a for a in arrivals[:cores] if a <= duration]
    for a, earlier in zip(arrivals[cores:], starts):
        free = earlier + s
        if free > a:
            a = free
        if a > duration:
            break
        starts.append(a)
    return starts


def _offload(columns: _Columns, arrival: array, pre_s: float, cores: int, link: Link, workload: WorkloadProfile,
             duration: float, seed: int) -> None:
    """Endpoint CPU, link and propagation of the offloaded sources' elements:
    record each round's preprocess and transfer, each element's propagation
    and phase, and set their arrival times."""
    g, n_sources = columns.generated, len(columns.sources)
    offloaded = list(itertools.compress(range(n_sources), columns.offloads))
    ser_s = workload.element_size / link.throughput_mbit
    # the finish times within the run: endpoint CPU on the endpoint's cores, then the link
    prepared = [d for d in (start + pre_s for start in _fifo(g, cores, pre_s, duration)) if d <= duration]
    sent = [x for x in (start + ser_s for start in _fifo(prepared, 1, ser_s, duration)) if x <= duration]
    n_pre, n_sent = len(prepared) * n_sources, len(sent) * n_sources
    columns.preprocess = array("d", [d - gk for d, gk in zip(prepared, g)])
    columns.transfer = array("d", [x - d for x, d in zip(sent, prepared)])
    transferring, in_transit = bytes([_TRANSFER]) * len(prepared), bytes([_TRANSIT]) * len(sent)
    for rank in offloaded:
        columns.phase[rank:n_pre:n_sources] = transferring
        columns.phase[rank:n_sent:n_sources] = in_transit

    avg_s, sd_s = link.latency_avg_ms / 1000.0, link.latency_sd_ms / 1000.0
    uniform, propagation = random.Random(seed).random, columns.propagation
    m = len(offloaded)
    for k, x in enumerate(sent):  # in transmit order: round, then rank
        base = k * n_sources
        delays = [avg_s] * m if sd_s == 0 else _truncated_normal(uniform, avg_s, sd_s, m)
        for rank, value in zip(offloaded, delays):
            propagation[base + rank] = value
            arrival[base + rank] = x + value


def _serve(columns: _Columns, order: list[int], arrival: array, cores: int, s: float,
           duration: float, warmup: float) -> tuple[int, float]:
    """Pass one worker's arrivals, in ``order``, through its cores; record
    each element's wait, completion and phase.  Returns the number of
    arrivals from warmup on and the core-seconds spent after warmup.

    Starts, and so finishes, never decrease, and at most ``cores`` elements
    are in service at any time, so the elements done are the started ones
    but the last few, found by walking back from the last start.  They are
    written in one pass without a branch.  The busy time is each started
    element's ``min(start + s, duration) - max(start, warmup)`` where it is
    positive, added in element order.  Done elements that start before
    warmup add ``(start + s) - warmup`` where it is positive, the later
    ones ``(start + s) - start``, which is never negative, so the passes
    add the floats that a loop with a branch per element adds, in its
    order, and the sum keeps its bits."""
    if not order:  # an idle worker, as every worker of a run at rate 0
        return 0, 0.0
    phase, completed, queue_wait = columns.phase, columns.completed, columns.queue_wait
    arrivals = list(map(arrival.__getitem__, order))
    starts = _fifo(arrivals, cores, s, duration)
    done = len(starts)
    while done and starts[done - 1] + s > duration:  # at most `cores` steps
        done -= 1
    for e, a, start in zip(order, arrivals, itertools.islice(starts, done)):
        queue_wait[e] = start - a
        phase[e] = _DONE
        completed[e] = start + s
    early = min(bisect.bisect_left(starts, warmup), done)  # the done elements started before warmup
    ends = map(add, starts, itertools.repeat(s))  # the done elements' finishes, read by the two passes in turn
    overlaps = map(sub, itertools.islice(ends, early), itertools.repeat(warmup))
    busy = reduce(add, filter(partial(lt, 0.0), overlaps), 0.0)  # the positive ones
    busy = reduce(add, map(sub, itertools.islice(ends, done - early), itertools.islice(starts, early, done)), busy)
    for i in range(done, len(starts)):  # in service at the end
        e, start = order[i], starts[i]
        queue_wait[e] = start - arrivals[i]
        phase[e] = _SERVICE
        overlap = duration - max(start, warmup)
        if overlap > 0:
            busy += overlap
    for e in order[len(starts):]:
        phase[e] = _QUEUED
    return len(order) - bisect.bisect_left(arrivals, warmup), busy


def _end_to_end(pre: Iterable[float], transfer: Iterable[float], propagation: Iterable[float],
                queue_wait: Iterable[float], service: Iterable[float]) -> Iterator[float]:
    """Each element's latency: the five components summed in ``ElementRecord.end_to_end``'s order."""
    return map(add, map(add, map(add, map(add, pre, transfer), propagation), queue_wait), service)


def mean(values: Sequence[float]) -> float | None:
    """The mean of a sequence of floats as ``statistics.fmean`` computes
    it, None for none.  Where the sum of the finite values overflows,
    ``statistics.mean``, which sums exactly, so the mean stays finite."""
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        import statistics

        return statistics.mean(values)


_STDEV_CHUNK = 512  # values stdev scales to ints at a time; 4,096 broke the memory bound of a wide run


def stdev(values: Sequence[float]) -> float:
    """``statistics.stdev`` of a sequence of two or more floats, the same
    float, from integer sums instead of ``Fraction``s.

    Every value times 2**k is an integer, with k set by the smallest
    non-zero magnitude, so the sums of the scaled values and of their
    squares are exact, taken ``_STDEV_CHUNK`` values at a time, and the
    sample variance is the ratio (n*sum(x*x) - sum(x)**2) / (n*(n-1)*4**k).
    Its square root is rounded correctly, as ``statistics.stdev`` rounds it
    (Python 3.11 on), so the two agree bit for bit.  Where a scaled value
    would overflow a float, or a value is not finite, ``statistics.stdev``
    itself."""
    n = len(values)
    k = max(0, 53 - math.frexp(min(filter(None, map(abs, values)), default=0.0))[1])
    total = squares = 0
    try:
        for i in range(0, n, _STDEV_CHUNK):
            ints = list(map(int, map(math.ldexp, values[i:i + _STDEV_CHUNK], itertools.repeat(k))))
            total += sum(ints)
            squares += sum(map(mul, ints, ints))
    except (OverflowError, ValueError):  # ValueError: int(nan)
        import statistics  # here only, so a run on finite values never loads it

        return statistics.stdev(values)
    return _float_sqrt_of_frac(n * squares - total * total, n * (n - 1) << 2 * k)


def _float_sqrt_of_frac(n: int, m: int) -> float:
    """The square root of n/m as a float, correctly rounded: a copy of
    ``statistics._float_sqrt_of_frac`` (Python 3.11), which rounds to odd
    at 2 * 53 + 3 bits first."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        numerator = _integer_sqrt_of_frac_rto(n, m << 2 * q) << q
        denominator = 1
    else:
        numerator = _integer_sqrt_of_frac_rto(n << -2 * q, m)
        denominator = 1 << -q
    return numerator / denominator


def _integer_sqrt_of_frac_rto(n: int, m: int) -> int:
    """The square root of n/m, rounded to an integer by round-to-odd."""
    a = math.isqrt(n // m)
    return a | (a * a * m != n)


def latency_summary(latencies: Iterable[float], communication: Iterable[float],
                    compute: Iterable[float], queueing: Iterable[float]) -> dict[str, float | None]:
    """The latency statistics of a report: ``latency_mean_s`` and
    ``latency_sd_s`` of ``latencies``, then the ``mean`` of each component.
    The sd is ``stdev``, None below two values; a mean is None for none.
    Each iterable is read into one array, dropped before the next is read,
    so one array is alive at a time."""
    values = array("d", latencies)
    summary = {"latency_mean_s": mean(values), "latency_sd_s": stdev(values) if len(values) > 1 else None}
    del values
    for key, component in (("communication_mean_s", communication), ("compute_mean_s", compute),
                           ("queueing_mean_s", queueing)):
        summary[key] = mean(array("d", component))
    return summary


def simulate(topology: Topology, workload: WorkloadProfile, params: SimParams) -> SimReport:
    """Run one seeded simulation and return aggregate metrics plus every
    element's stage times.

    Raises ValueError for a workload that ``WorkloadProfile.check``
    refuses, a topology that ``Topology.check`` refuses, offloaded sources
    with different preprocessing times or endpoint cores (see the module
    docstring) and a run of more than ``MAX_ELEMENTS`` elements."""
    workload.check()
    topology.check()
    duration, warmup, rate = params.duration, params.warmup_s, workload.rate
    # (worker, processing time) by id, looked up before _assign and the budget: a missing tier is refused first
    workers = sorted([(d, workload.proc_on(d.tier)) for d in topology.workers], key=lambda pair: pair[0].id)
    sources, ranks, offloads, (pre_s, endpoint_cores) = _assign(topology, workload)

    n_sources = len(sources)
    estimate = estimated_elements(n_sources, rate, params)
    if estimate > MAX_ELEMENTS:
        raise ValueError(f"the run would generate about {estimate:.3g} elements, "
                         f"more than the budget of {MAX_ELEMENTS}")

    g = _generation_times(rate, duration, params.max_elements) if n_sources else array("d")
    n = len(g) * n_sources
    columns = _Columns(sources, offloads, array("d", [0.0]) * n_sources, g, array("d"), array("d"),
                       array("d", [0.0]) * n, array("d", [0.0]) * n, array("d", [math.nan]) * n, bytearray(n))
    arrival = array("d", [math.inf]) * n
    if 1 in offloads:
        _offload(columns, arrival, pre_s, endpoint_cores, topology.worker_link, workload, duration, params.seed)

    window = duration - warmup
    worker_load, worker_busy = {}, {}  # by worker id, in sorted order
    for worker, proc in workers:
        assigned = ranks[worker.id]
        if assigned and sources[assigned[0]][0] == worker.id:
            arrival[assigned[0]::n_sources] = g  # its own elements arrive as generated
        order = [base + rank for base in range(0, n, n_sources or 1) for rank in assigned  # n is 0 without sources
                 if arrival[base + rank] <= duration]
        order.sort(key=arrival.__getitem__)  # stable: ties stay in transmit order
        s = proc / worker.quota
        for rank in assigned:
            columns.service[rank] = s
        arrived, busy = _serve(columns, order, arrival, worker.cores, s, duration, warmup)
        worker_load[worker.id] = arrived * float(proc) / window / capacity_of(worker) * 100.0
        worker_busy[worker.id] = busy / (window * worker.cores)
    del arrival

    phase_counts = {p: columns.phase.count(code) for code, p in enumerate(PHASES)}
    early = bisect.bisect_left(g, warmup)  # rounds generated before warmup
    warming = early * n_sources  # elements generated before warmup
    # an element completes after it is generated, so only those generated
    # before warmup can complete before it; NaN compares false
    completed_early = sum(map(lt, memoryview(columns.completed)[:warming], itertools.repeat(warmup)))
    completed_in_window = phase_counts["done"] - completed_early

    # the measured elements: done, and generated from warmup on; the
    # components are read twice, for the latencies and for the means
    measured = memoryview(columns.phase.translate(_IS_DONE))[warming:]
    latencies = _end_to_end(*columns.components(early, len(g)))
    pre, transfer, propagation, queue_wait, service = columns.components(early, len(g))

    return SimReport(
        params=params,
        generated=n,
        completed=phase_counts["done"],
        measured=columns.phase.count(_DONE, warming),
        **latency_summary(*(itertools.compress(values, measured) for values in (
            latencies, map(add, transfer, propagation), map(add, pre, service), queue_wait))),
        worker_load_percent=worker_load,
        worker_busy_fraction=worker_busy,
        throughput_eps=completed_in_window / window,
        backlog=n - phase_counts["done"],
        backlog_at_warmup=warming - completed_early,
        phase_counts=phase_counts,
        columns=columns,
    )


def _csv_prefixes(sources: list[tuple[str, str]]) -> list[str]:
    """The ``source,worker`` cells of each rank as ``csv.writer`` writes
    them, quoting included."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    prefixes = []
    for ids in sources:
        writer.writerow(ids)
        prefixes.append(buffer.getvalue()[:-2])  # without the writer's "\r\n"
        buffer.seek(0)
        buffer.truncate()
    return prefixes


def _format_rounds(columns: _Columns, prefixes: list[str], services: list[str], k0: int, k1: int) -> str:
    """The trace rows of rounds ``k0`` up to ``k1``, each ended by ``\r\n``,
    formatted column by column; ``services`` holds each rank's service
    time as text."""
    heads = [f"{k},{g!r}" for k, g in enumerate(columns.generated[k0:k1], k0)]
    k1 = k0 + len(heads)
    lo, hi = k0 * len(prefixes), k1 * len(prefixes)
    codes = columns.phase[lo:hi]
    pre, tx, prop, wait, svc = columns.components(k0, k1)
    sums = _end_to_end(pre, tx, prop, wait, svc)
    total = ["" if code != _DONE else repr(value) for value, code in zip(sums, codes)]
    completed = ["" if code != _DONE else repr(end) for end, code in zip(columns.completed[lo:hi], codes)]
    service = ["0.0" if code != _DONE else text for text, code in zip(itertools.cycle(services), codes)]
    pre_text, tx_text = (_spread(map(repr, by_round[k0:k1]), k1 - k0, columns.offloads, "0.0")
                         for by_round in (columns.preprocess, columns.transfer))  # each round's text formatted once
    rows = zip(prefixes * len(heads), [head for head in heads for _ in prefixes], pre_text, tx_text, map(repr, prop),
               map(repr, wait), service, total, completed, map(PHASES.__getitem__, codes))
    return "\r\n".join([*map(",".join, rows), ""])


def _may_fork() -> bool:
    """Whether ``write_trace_csv`` may fork a second formatter: ``os.fork``
    exists, this process may run on two CPUs or more, and no other thread
    runs (the child would hold a copy of any lock another thread holds)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


def write_trace_csv(report: SimReport, stream: IO[str]) -> None:
    """One CSV row per element, completed or not, in generation order; the
    end-to-end latency is empty for elements that did not complete.

    The bytes are those ``csv.writer`` writes with its default dialect
    (floats by ``repr``, ``None`` empty, ``\r\n`` line ends).  Rows are
    formatted by ``_format_rounds`` in chunks of whole rounds of about
    ``_TRACE_CHUNK_ROWS`` rows; the ``source,worker`` cells and the service
    time of a rank are formatted once, and so are the ``index,generated_s``
    cells, the preprocess and the transfer of a round.

    A trace of two chunks or more, where ``_may_fork`` allows, is formatted
    by two processes: a forked child formats the second half of the chunks
    into an unlinked temporary file while this process formats and writes
    the first half, then copies the child's chunks to ``stream``.  Each
    process holds one chunk at a time.  Raises ``OSError`` if the child
    fails; the child is reaped on every path."""
    columns = report.columns
    stream.write(",".join(_TRACE_COLUMNS) + "\r\n")
    if not columns.sources:
        return
    prefixes, services = _csv_prefixes(columns.sources), list(map(repr, columns.service))
    chunk = max(1, _TRACE_CHUNK_ROWS // len(prefixes))  # rounds per chunk
    starts = range(0, len(columns.generated), chunk)
    if len(starts) < 2 or not _may_fork():
        for k0 in starts:
            stream.write(_format_rounds(columns, prefixes, services, k0, k0 + chunk))
        return
    half = len(starts) // 2
    with tempfile.TemporaryFile() as spool:
        pid = os.fork()
        if pid == 0:  # the child: leaves through os._exit on every path
            status = 1
            try:
                for k0 in starts[half:]:
                    marshal.dump(_format_rounds(columns, prefixes, services, k0, k0 + chunk), spool)
                spool.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            for k0 in starts[:half]:
                stream.write(_format_rounds(columns, prefixes, services, k0, k0 + chunk))
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)  # its chunks would not be written
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(f"the process formatting the second half of the trace exited with {code}")
        spool.seek(0)
        for _ in starts[half:]:
            stream.write(marshal.load(spool))
