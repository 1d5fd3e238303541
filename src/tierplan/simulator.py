"""Simulation of the streaming pipeline, one stage at a time.

Every element follows generate -> preprocess (endpoint, one core, FIFO) ->
transfer (dedicated per-endpoint link: serialization plus sampled one-way
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
- Endpoint CPU and link: every offloaded source has the same preprocessing
  and serialization time, so one recursion serves them all:
  ``d_k = max(g_k, d_{k-1}) + pre_s`` and ``x_k = max(d_k, x_{k-1}) + ser_s``.
- Propagation: delays are drawn from one seeded ``random.Random`` in
  transmit order: round ``k`` first, then the source's rank in sorted id
  order.  Only elements transmitted by the end of the run draw.
- Worker with ``c`` cores and service time ``s``: arrivals sorted by
  arrival time, ties in transmit order, start at
  ``start_i = max(a_i, start_{i-c} + s)`` and finish at ``start_i + s``.

A stage counts as reached when its time is at most the duration; the last
stage reached is the element's phase.  These are the float operations, and
the tie order, of an event loop ordered by (time, insertion sequence), which
the test suite keeps as a differential oracle.  The recursions need the
shared timelines, so ``simulate`` rejects two topologies that
``build_topology`` never makes: offloaded sources with different
preprocessing times, and (through ``Topology.check``) a worker that
processes its own elements and other sources' too.

Per-element results are kept as columns (one list per field); records are
built only for ``SimReport.elements``, and ``write_trace_csv`` formats the
columns a chunk of rounds at a time.  Each element carries five duration
components (preprocess, transfer, propagation, queue wait, service);
waiting for the endpoint CPU counts into preprocess and waiting for the
link into transfer.  End-to-end latency is defined as the exact sum of the
five components.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator

from .topology import Link, Topology, WorkloadProfile, capacity_of

# Largest run simulate accepts, in elements: a run peaks at about 210 bytes
# per element (see README, "Simulator model").
MAX_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class SimParams:
    duration: float                  # simulated seconds
    warmup: float | None = None      # metrics exclude [0, warmup); default 10% of duration
    seed: int = 0
    max_elements: int | None = None  # per-endpoint cap on generated elements

    def __post_init__(self) -> None:
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if not 0 <= self.warmup_s < self.duration:
            raise ValueError(f"warmup must lie in [0, duration), got {self.warmup_s!r}")
        if self.max_elements is not None and self.max_elements < 1:
            raise ValueError(f"max_elements must be at least 1, got {self.max_elements!r}")

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

_TRACE_COLUMNS = (
    "source", "worker", "index", "generated_s", "preprocess_s", "transfer_s",
    "propagation_s", "queue_wait_s", "service_s", "end_to_end_s", "completed_s", "phase",
)
_TRACE_CHUNK_ROWS = 2000  # rows write_trace_csv formats at a time, in whole rounds


@dataclass
class _Columns:
    """Per-element results, element ``k * len(sources) + rank`` being round
    ``k`` of the source at that rank (the order elements are generated in)."""

    sources: list[tuple[str, str]]   # (source id, worker id) by rank
    generated: list[float]           # per round
    preprocess: list[float]
    transfer: list[float]
    propagation: list[float]
    queue_wait: list[float]
    service: list[float]
    completed: list[float | None]
    phase: list[str]

    def rows(self) -> Iterator[tuple]:
        """ElementRecord fields of every element, in generation order."""
        values = zip(self.preprocess, self.transfer, self.propagation, self.queue_wait,
                     self.service, self.completed, self.phase)
        for index, generated in enumerate(self.generated):
            for source, worker in self.sources:
                yield (source, worker, index, generated, *next(values))


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
        return {
            "duration_s": self.params.duration,
            "warmup_s": self.params.warmup_s,
            "seed": self.params.seed,
            "generated": self.generated,
            "completed": self.completed,
            "measured": self.measured,
            "latency_mean_s": self.latency_mean_s,
            "latency_sd_s": self.latency_sd_s,
            "communication_mean_s": self.communication_mean_s,
            "compute_mean_s": self.compute_mean_s,
            "queueing_mean_s": self.queueing_mean_s,
            "worker_load_percent": dict(self.worker_load_percent),
            "worker_busy_fraction": dict(self.worker_busy_fraction),
            "throughput_eps": self.throughput_eps,
            "backlog": self.backlog,
            "backlog_at_warmup": self.backlog_at_warmup,
            "phase_counts": dict(self.phase_counts),
        }


def estimated_elements(sources: int, rate: float, params: SimParams) -> float:
    """About how many elements a run of ``sources`` endpoints generates:
    sources x min(max_elements, duration x rate + 1), the count
    ``simulate`` holds to ``MAX_ELEMENTS``."""
    per_source = params.duration * rate + 1 if rate > 0 else 0
    if params.max_elements is not None:
        per_source = min(per_source, params.max_elements)
    return sources * per_source


def _generation_times(rate: float, duration: float, max_elements: int | None) -> list[float]:
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


def _assign(topology: Topology,
            workload: WorkloadProfile) -> tuple[list[tuple[str, str]], dict[str, list[int]], float]:
    """Sources by rank as (source id, worker id), each worker's source ranks,
    and the preprocessing time all offloaded sources share."""
    sources = sorted((source_id, worker_id) for worker_id, assigned in topology.assignment.items()
                     for source_id in assigned)
    pre_times = {workload.pre_time / topology.device(source_id).quota
                 for source_id, worker_id in sources if source_id != worker_id}
    if len(pre_times) > 1:
        raise ValueError("offloaded sources must share one preprocessing time (same endpoint quota)")
    ranks: dict[str, list[int]] = {}
    for rank, (_, worker_id) in enumerate(sources):
        ranks.setdefault(worker_id, []).append(rank)
    return sources, ranks, pre_times.pop() if pre_times else 0.0


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


def _offload(columns: _Columns, arrival: list[float], offloaded: list[int], pre_s: float, link: Link,
             workload: WorkloadProfile, duration: float, seed: int) -> None:
    """Endpoint CPU, link and propagation of the offloaded sources' elements:
    record their stage times and phases and set their arrival times."""
    g, n_sources = columns.generated, len(columns.sources)
    ser_s = workload.element_size / link.throughput_mbit
    prepared, sent = [], []
    d = x = 0.0
    for gk in g:
        d = max(gk, d) + pre_s
        if d > duration:
            break
        prepared.append(d)
    for d in prepared:
        x = max(d, x) + ser_s
        if x > duration:
            break
        sent.append(x)
    n_pre, n_sent = len(prepared) * n_sources, len(sent) * n_sources
    pre_values = [d - gk for d, gk in zip(prepared, g)]
    transfer_values = [x - d for x, d in zip(sent, prepared)]
    for rank in offloaded:
        columns.preprocess[rank:n_pre:n_sources] = pre_values
        columns.phase[rank:n_pre:n_sources] = ["transfer"] * len(prepared)
        columns.transfer[rank:n_sent:n_sources] = transfer_values
        columns.phase[rank:n_sent:n_sources] = ["transit"] * len(sent)

    avg_s, sd_s = link.latency_avg_ms / 1000.0, link.latency_sd_ms / 1000.0
    uniform = random.Random(seed).random
    propagation, m = columns.propagation, len(offloaded)
    for k, x in enumerate(sent):  # in transmit order: round, then rank
        base = k * n_sources
        delays = [avg_s] * m if sd_s == 0 else _truncated_normal(uniform, avg_s, sd_s, m)
        for rank, value in zip(offloaded, delays):
            propagation[base + rank] = value
            arrival[base + rank] = x + value


def _serve(columns: _Columns, order: list[int], arrival: list[float], cores: int, s: float,
           duration: float, warmup: float) -> tuple[int, float]:
    """Pass one worker's arrivals, in ``order``, through its cores; record
    each element's wait, service, completion and phase.  Returns the number
    of arrivals from warmup on and the core-seconds spent after warmup."""
    phase, queue_wait, service, completed = columns.phase, columns.queue_wait, columns.service, columns.completed
    starts: list[float] = []
    in_service: list[float] = []
    count, busy = 0, 0.0
    for i, e in enumerate(order):
        a = arrival[e]
        if a >= warmup:
            count += 1
        start = a
        if i >= cores:
            free = starts[i - cores] + s
            if free > a:
                start = free
        starts.append(start)
        if start > duration:
            phase[e] = "queued"
            continue
        queue_wait[e] = start - a
        end = start + s
        if end > duration:
            phase[e] = "service"
            in_service.append(start)
            continue
        phase[e] = "done"
        service[e] = s
        completed[e] = end
        overlap = end - max(start, warmup)
        if overlap > 0:
            busy += overlap
    for start in in_service:  # capacity spent on elements still in service
        overlap = duration - max(start, warmup)
        if overlap > 0:
            busy += overlap
    return count, busy


def mean(values: list[float]) -> float | None:
    """The mean of the values as ``statistics.fmean`` computes it, None for
    none.  Where the sum of the finite values overflows,
    ``statistics.mean``, which sums exactly, so the mean stays finite."""
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        import statistics

        return statistics.mean(values)


def stdev(values: list[float]) -> float:
    """``statistics.stdev`` of two or more floats, the same float, from
    integer sums instead of ``Fraction``s.

    Every value times 2**k is an integer, with k set by the smallest
    non-zero magnitude, so the sums are exact and the sample variance is
    the ratio (n*sum(x*x) - sum(x)**2) / (n*(n-1)*4**k).  Its square root is
    rounded correctly, as ``statistics.stdev`` rounds it, so the two agree
    bit for bit.  Where a scaled value would overflow a float (or a value
    is not finite), ``statistics.stdev`` itself."""
    n = len(values)
    smallest = min(filter(None, map(abs, values)), default=0.0)
    k = max(0, 53 - math.frexp(smallest)[1])

    def scaled():  # streamed twice rather than held, so memory does not grow with n
        return map(int, map(math.ldexp, values, itertools.repeat(k)))

    try:
        total = sum(scaled())
    except (OverflowError, ValueError):  # ValueError: int(nan)
        import statistics

        return statistics.stdev(values)
    squares = sum(map(pow, scaled(), itertools.repeat(2)))
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


def simulate(topology: Topology, workload: WorkloadProfile, params: SimParams) -> SimReport:
    """Run one seeded simulation and return aggregate metrics plus every
    element's stage times.

    Raises ValueError for a workload that ``WorkloadProfile.check``
    refuses, a topology that ``Topology.check`` refuses, offloaded sources
    with different preprocessing times (see the module docstring) and a run
    of more than ``MAX_ELEMENTS`` elements."""
    workload.check()
    topology.check()
    duration, warmup, rate = params.duration, params.warmup_s, workload.rate
    workers = {device.id: device for device in topology.workers}
    service_s = {wid: workload.proc_on(device.tier) / device.quota for wid, device in workers.items()}
    sources, ranks, pre_s = _assign(topology, workload)

    n_sources = len(sources)
    estimate = estimated_elements(n_sources, rate, params)
    if estimate > MAX_ELEMENTS:
        raise ValueError(f"the run would generate about {estimate:.3g} elements, "
                         f"more than the budget of {MAX_ELEMENTS}")

    g = _generation_times(rate, duration, params.max_elements) if n_sources else []
    n = len(g) * n_sources
    columns = _Columns(sources, g, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n,
                       [None] * n, ["preprocess"] * n)
    arrival = [math.inf] * n
    offloaded = [rank for rank, (source_id, worker_id) in enumerate(sources) if source_id != worker_id]
    if offloaded:
        _offload(columns, arrival, offloaded, pre_s, topology.worker_link, workload, duration, params.seed)

    arrivals: dict[str, int] = {}
    busy_s: dict[str, float] = {}
    for worker_id, assigned in ranks.items():
        if sources[assigned[0]][0] == worker_id:
            arrival[assigned[0]::n_sources] = g  # its own elements arrive as generated
        order = [base + rank for base in range(0, n, n_sources) for rank in assigned
                 if arrival[base + rank] <= duration]
        order.sort(key=arrival.__getitem__)  # stable: ties stay in transmit order
        arrivals[worker_id], busy_s[worker_id] = _serve(
            columns, order, arrival, workers[worker_id].cores, service_s[worker_id], duration, warmup)
    del arrival

    window = duration - warmup
    completed = columns.completed
    done = [e for e, end in enumerate(completed) if end is not None]
    warming = bisect.bisect_left(g, warmup) * n_sources  # elements generated before warmup
    sample = done[bisect.bisect_left(done, warming):]
    pre, transfer, propagation = columns.preprocess, columns.transfer, columns.propagation
    queue_wait, service = columns.queue_wait, columns.service
    latencies = [pre[e] + transfer[e] + propagation[e] + queue_wait[e] + service[e] for e in sample]
    latency_mean_s = mean(latencies)
    latency_sd_s = stdev(latencies) if len(latencies) > 1 else None
    del latencies  # freed before the component means build their lists
    completed_in_window = sum(1 for e in done if completed[e] >= warmup)

    worker_load: dict[str, float] = {}
    worker_busy: dict[str, float] = {}
    for worker_id, device in sorted(workers.items()):
        demand = arrivals.get(worker_id, 0) * workload.proc_on(device.tier) / window
        worker_load[worker_id] = demand / capacity_of(device) * 100.0
        worker_busy[worker_id] = busy_s.get(worker_id, 0.0) / (window * device.cores)

    return SimReport(
        params=params,
        generated=n,
        completed=len(done),
        measured=len(sample),
        latency_mean_s=latency_mean_s,
        latency_sd_s=latency_sd_s,
        communication_mean_s=mean([transfer[e] + propagation[e] for e in sample]),
        compute_mean_s=mean([pre[e] + service[e] for e in sample]),
        queueing_mean_s=mean([queue_wait[e] for e in sample]),
        worker_load_percent=worker_load,
        worker_busy_fraction=worker_busy,
        throughput_eps=completed_in_window / window,
        backlog=n - len(done),
        backlog_at_warmup=warming - (len(done) - completed_in_window),
        phase_counts={p: columns.phase.count(p) for p in PHASES},
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


def _format_shared(values: list[float]) -> Iterable[str]:
    """``repr`` of each value, each distinct value formatted once.  0.0 and
    -0.0 are one key but two texts, so values where any has its sign bit set
    are formatted one by one."""
    if min(map(math.copysign, itertools.repeat(1.0), values), default=1.0) < 0:
        return map(repr, values)
    table = {value: repr(value) for value in set(values)}
    return map(table.__getitem__, values)


def write_trace_csv(report: SimReport, stream: IO[str]) -> None:
    """One CSV row per element, completed or not, in generation order; the
    end-to-end latency is empty for elements that did not complete.

    The bytes are those ``csv.writer`` writes with its default dialect
    (floats by ``repr``, ``None`` empty, ``\r\n`` line ends).  Rows are
    formatted column by column, in chunks of whole rounds of about
    ``_TRACE_CHUNK_ROWS`` rows; the ``source,worker`` cells of a rank and the
    ``index,generated_s`` cells of a round are formatted once, and so is each
    distinct preprocess, transfer and service time of a chunk."""
    columns = report.columns
    stream.write(",".join(_TRACE_COLUMNS) + "\r\n")
    if not columns.sources:
        return
    prefixes = _csv_prefixes(columns.sources)
    n_sources = len(prefixes)
    chunk = max(1, _TRACE_CHUNK_ROWS // n_sources)  # rounds per chunk
    for k0 in range(0, len(columns.generated), chunk):
        heads = [f"{k},{g!r}" for k, g in enumerate(columns.generated[k0:k0 + chunk], k0)]
        lo, hi = k0 * n_sources, (k0 + len(heads)) * n_sources
        pre, tx, prop, wait, svc = (column[lo:hi] for column in (
            columns.preprocess, columns.transfer, columns.propagation, columns.queue_wait, columns.service))
        phase = columns.phase[lo:hi]
        total = [repr(a + b + c + d + e) if p == "done" else ""
                 for a, b, c, d, e, p in zip(pre, tx, prop, wait, svc, phase)]
        completed = ["" if end is None else repr(end) for end in columns.completed[lo:hi]]
        rows = zip(prefixes * len(heads), [head for head in heads for _ in prefixes],
                   _format_shared(pre), _format_shared(tx), map(repr, prop), map(repr, wait),
                   _format_shared(svc), total, completed, phase)
        stream.write("\r\n".join(map(",".join, rows)))
        stream.write("\r\n")
