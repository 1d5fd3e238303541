"""The heap-ordered event loop the simulator ran before its stage-wise engine,
kept as the oracle of the differential test in ``test_engine_oracle.py``.

Events are ordered by (time, insertion sequence).  Every float operation is
the one the old engine performed, so the stage-wise engine must reproduce
the oracle bit for bit.  Like the engine, the oracle counts a time equal to
the warmup as after it: metrics exclude ``[0, warmup)``.  ``simulate_events`` returns the report dict that
``SimReport.to_dict()`` produces, plus one dict per element under
``"trace"``, keyed by the trace CSV's columns.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from collections import deque

PHASES = ("preprocess", "transfer", "transit", "queued", "service", "done")


class _Element:
    __slots__ = ("source", "worker", "index", "generated", "preprocess", "transfer", "propagation",
                 "queue_wait", "service", "completed", "phase", "stage_start")

    def __init__(self, source, worker, index, generated):
        self.source, self.worker, self.index, self.generated = source, worker, index, generated
        self.preprocess = self.transfer = self.propagation = self.queue_wait = self.service = 0.0
        self.completed = None
        self.phase = "preprocess"
        self.stage_start = 0.0

    @property
    def end_to_end(self) -> float:
        return self.preprocess + self.transfer + self.propagation + self.queue_wait + self.service

    def to_dict(self) -> dict:
        return {
            "source": self.source, "worker": self.worker, "index": self.index,
            "generated_s": self.generated, "preprocess_s": self.preprocess,
            "transfer_s": self.transfer, "propagation_s": self.propagation,
            "queue_wait_s": self.queue_wait, "service_s": self.service,
            "end_to_end_s": self.end_to_end if self.phase == "done" else None,
            "completed_s": self.completed, "phase": self.phase,
        }


class _Source:
    def __init__(self, worker_id, local, cores, pre_s, ser_s, prop_avg_s, prop_sd_s):
        self.worker_id, self.local = worker_id, local
        self.pre_s, self.ser_s, self.prop_avg_s, self.prop_sd_s = pre_s, ser_s, prop_avg_s, prop_sd_s
        self.next_index = 0
        self.cpu_free = cores
        self.link_busy = False
        self.cpu_queue: deque = deque()
        self.link_queue: deque = deque()


class _Worker:
    def __init__(self, device, service_s):
        self.device, self.service_s = device, service_s
        self.free = device.cores
        self.queue: deque = deque()
        self.in_service: dict[int, float] = {}
        self.arrivals = 0
        self.busy_s = 0.0


def simulate_events(topology, workload, params) -> dict:
    duration, warmup = params.duration, params.warmup_s
    workers = {d.id: _Worker(d, workload.proc_on(d.tier) / d.quota) for d in topology.workers}
    link = topology.worker_link
    sources: dict[str, _Source] = {}
    for worker_id, assigned in topology.assignment.items():
        for source_id in assigned:
            device = topology.device(source_id)
            if source_id == worker_id:
                sources[source_id] = _Source(worker_id, True, device.cores, 0.0, 0.0, 0.0, 0.0)
            else:
                sources[source_id] = _Source(
                    worker_id, False, device.cores, workload.pre_time / device.quota,
                    workload.element_size / link.throughput_mbit,
                    link.latency_avg_ms / 1000.0, link.latency_sd_ms / 1000.0)

    rng = random.Random(params.seed)
    records: list[_Element] = []
    events: list[tuple] = []  # (time, seq, action, payload)
    seq = 0

    def push(time, action, payload):
        nonlocal seq
        heapq.heappush(events, (time, seq, action, payload))
        seq += 1

    def sample_propagation(src):
        if src.prop_sd_s == 0:
            return src.prop_avg_s
        while True:
            value = rng.normalvariate(src.prop_avg_s, src.prop_sd_s)
            if value >= 0:
                return value

    def arrive(rec, worker, now):
        if now >= warmup:
            worker.arrivals += 1
        rec.stage_start = now
        if worker.free > 0:
            worker.free -= 1
            rec.phase = "service"
            worker.in_service[id(rec)] = now
            push(now + worker.service_s, "done", rec)
        else:
            rec.phase = "queued"
            worker.queue.append(rec)

    interval = 1.0 / workload.rate if workload.rate > 0 else math.inf
    if workload.rate > 0:
        for source_id in sorted(sources):
            push(0.0, "gen", source_id)

    while events and events[0][0] <= duration:
        now, _, action, payload = heapq.heappop(events)
        if action == "gen":
            src = sources[payload]
            rec = _Element(payload, src.worker_id, src.next_index, now)
            src.next_index += 1
            records.append(rec)
            if src.local:
                arrive(rec, workers[src.worker_id], now)
            elif src.cpu_free > 0:
                src.cpu_free -= 1
                push(now + src.pre_s, "pre", rec)
            else:
                src.cpu_queue.append(rec)
            next_gen = now + interval
            if next_gen < duration and (params.max_elements is None or src.next_index < params.max_elements):
                push(next_gen, "gen", payload)
        elif action == "pre":
            rec, src = payload, sources[payload.source]
            rec.preprocess = now - rec.generated
            rec.phase = "transfer"
            rec.stage_start = now
            if src.link_busy:
                src.link_queue.append(rec)
            else:
                src.link_busy = True
                push(now + src.ser_s, "tx", rec)
            if src.cpu_queue:
                push(now + src.pre_s, "pre", src.cpu_queue.popleft())
            else:
                src.cpu_free += 1
        elif action == "tx":
            rec, src = payload, sources[payload.source]
            rec.transfer = now - rec.stage_start
            rec.propagation = sample_propagation(src)
            rec.phase = "transit"
            push(now + rec.propagation, "arrive", rec)
            if src.link_queue:
                push(now + src.ser_s, "tx", src.link_queue.popleft())
            else:
                src.link_busy = False
        elif action == "arrive":
            arrive(payload, workers[payload.worker], now)
        else:  # done
            rec, worker = payload, workers[payload.worker]
            rec.service = worker.service_s
            rec.completed = now
            rec.phase = "done"
            start = worker.in_service.pop(id(rec))
            overlap = min(now, duration) - max(start, warmup)
            if overlap > 0:
                worker.busy_s += overlap
            if worker.queue:
                nxt = worker.queue.popleft()
                nxt.queue_wait = now - nxt.stage_start
                nxt.phase = "service"
                worker.in_service[id(nxt)] = now
                push(now + worker.service_s, "done", nxt)
            else:
                worker.free += 1

    for worker in workers.values():
        for start in worker.in_service.values():
            overlap = duration - max(start, warmup)
            if overlap > 0:
                worker.busy_s += overlap

    window = duration - warmup
    done = [rec for rec in records if rec.phase == "done"]
    sample = [rec for rec in done if rec.generated >= warmup]
    latencies = [rec.end_to_end for rec in sample]
    return {
        "duration_s": duration,
        "warmup_s": warmup,
        "seed": params.seed,
        "generated": len(records),
        "completed": len(done),
        "measured": len(sample),
        # null latency statistics when nothing was measured
        "latency_mean_s": statistics.fmean(latencies) if latencies else None,
        # no spread without two measured elements
        "latency_sd_s": statistics.stdev(latencies) if len(latencies) > 1 else None,
        "communication_mean_s": statistics.fmean(r.transfer + r.propagation for r in sample) if sample else None,
        "compute_mean_s": statistics.fmean(r.preprocess + r.service for r in sample) if sample else None,
        "queueing_mean_s": statistics.fmean(r.queue_wait for r in sample) if sample else None,
        "worker_load_percent": {
            wid: w.arrivals * workload.proc_on(w.device.tier) / window / (w.device.cores * w.device.quota) * 100.0
            for wid, w in sorted(workers.items())
        },
        "worker_busy_fraction": {
            wid: w.busy_s / (window * w.device.cores) for wid, w in sorted(workers.items())
        },
        "throughput_eps": sum(1 for rec in done if rec.completed >= warmup) / window,
        "backlog": len(records) - len(done),
        "backlog_at_warmup": sum(1 for rec in records if rec.generated < warmup)
        - sum(1 for rec in done if rec.completed < warmup),
        "phase_counts": {phase: sum(1 for rec in records if rec.phase == phase) for phase in PHASES},
        "trace": [rec.to_dict() for rec in records],
    }
