"""First-order capacity model: where can a streaming workload run?

Local processing is viable when the per-element processing time times the
generation rate fits the endpoint's capacity (cores times quota).  Offloading
is viable when three independent conditions hold: the worker absorbs the
aggregated processing demand of its endpoints, the endpoint absorbs the
preprocessing demand, and the generated data rate fits the link throughput.
All comparisons are weak inequalities: a load of exactly 100% still passes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .config import _shown, load_preset
from .topology import (
    Device,
    Link,
    Topology,
    WorkloadProfile,
    _is_count,
    _is_int,
    _is_number,
    build_topology,
    capacity_of,
    demand_on_worker,
)

WORKER_CAPACITY = "worker-capacity"
PREPROCESS_CAPACITY = "preprocess-capacity"
BANDWIDTH = "bandwidth"

# every placement, closest to the data first: the order classify prefers them in
PLACEMENTS = ("endpoint", "edge", "cloud")
NOT_VIABLE = "not-viable"

# Largest grid a GridSpec accepts, in cells: heatmap --json peaks at about
# 40 bytes per cell (see README, "CLI reference").
MAX_CELLS = 1_000_000


def system_load(demand: float, capacity: float) -> float:
    """Demand over capacity as a percentage.

    Anything above 100 means requests arrive faster than they are served and
    the queue grows without bound.  Positive demand against zero capacity is
    reported as inf.
    """
    if demand == 0:
        return 0.0
    if capacity == 0:
        return math.inf
    return demand / capacity * 100.0


@dataclass(frozen=True)
class ConditionCheck:
    """One viability condition.  demand and capacity share a unit per
    condition: core-seconds per second for the capacity checks, Mbit/s for
    the bandwidth check."""

    name: str
    demand: float
    capacity: float
    passed: bool


@dataclass(frozen=True)
class Verdict:
    viable: bool
    failed_conditions: tuple[str, ...]
    load_percent: float          # processing demand over processing capacity
    required_bandwidth: float    # Mbit/s the workload generates per endpoint
    checks: tuple[ConditionCheck, ...]

    def to_dict(self) -> dict:
        return {
            "viable": self.viable,
            "failed_conditions": list(self.failed_conditions),
            "load_percent": self.load_percent,
            "required_bandwidth_mbit": self.required_bandwidth,
            "checks": list(map(asdict, self.checks)),
        }


def _viability(workload: WorkloadProfile, endpoint: Device, worker: Device, endpoints_per_worker: int,
               link: Link | None) -> Verdict:
    """Can ``worker`` process the elements of ``endpoints_per_worker``
    endpoints like ``endpoint``?  The worker-capacity check is always made;
    elements shipped over a link also need the preprocess and bandwidth
    checks.  Local processing is the endpoint serving itself over no link."""
    demand = demand_on_worker(workload, worker.tier, endpoints_per_worker)
    capacity = capacity_of(worker)
    data_rate = workload.data_rate
    checks = [ConditionCheck(WORKER_CAPACITY, demand, capacity, demand <= capacity)]
    if link is not None:
        pre_demand = workload.pre_time * workload.rate
        pre_capacity = capacity_of(endpoint)
        checks += [
            ConditionCheck(PREPROCESS_CAPACITY, pre_demand, pre_capacity, pre_demand <= pre_capacity),
            ConditionCheck(BANDWIDTH, data_rate, link.throughput_mbit, data_rate <= link.throughput_mbit),
        ]
    failed = tuple(check.name for check in checks if not check.passed)
    return Verdict(viable=not failed, failed_conditions=failed, load_percent=system_load(demand, capacity),
                   required_bandwidth=data_rate, checks=tuple(checks))


def local_viability(workload: WorkloadProfile, endpoint: Device) -> Verdict:
    """Can the endpoint process its own elements as fast as it makes them?
    No preprocessing and no network are involved; required_bandwidth is
    reported for information only.  Raises ValueError for an endpoint that
    ``_check_placement`` refuses."""
    _check_placement(endpoint, "endpoint", endpoint, 1, None)
    return _viability(workload, endpoint, endpoint, 1, None)


def offload_viability(
    workload: WorkloadProfile,
    endpoint: Device,
    target: Device,
    endpoints_per_worker: int,
    link: Link,
) -> Verdict:
    """Can ``target`` process the elements of ``endpoints_per_worker``
    endpoints shipped over ``link``?  All three conditions are always
    evaluated, so every failure is reported, not just the first.  Raises
    ValueError for a placement that ``_check_placement`` refuses, named
    after the target's tier."""
    _check_placement(endpoint, target.tier, target, endpoints_per_worker, link)
    return _viability(workload, endpoint, target, endpoints_per_worker, link)


# ---------------------------------------------------------------------------
# placement classification


@dataclass(frozen=True)
class OffloadOption:
    worker: Device
    endpoints_per_worker: int
    link: Link


@dataclass(frozen=True)
class DeploymentFamily:
    """Placement candidates for one endpoint spec.

    ``options`` maps placement names to offload targets.  "endpoint" is
    normally absent and then means processing locally; a family may instead
    provide an "endpoint" option, which stands for offloading to a peer
    endpoint and replaces the local check.
    """

    endpoint: Device
    options: dict[str, OffloadOption] = field(default_factory=dict)


def _placements(family: DeploymentFamily) -> list[tuple[str, Device, int, Link | None]]:
    """(label, worker, endpoints per worker, link) of every placement the
    family defines, in ``PLACEMENTS`` order, returned only once
    ``_check_placement`` has passed every one.  Without an "endpoint"
    option the endpoint processes locally: it is its own worker, over no
    link."""
    placements = []
    for label in PLACEMENTS:
        option = family.options.get(label)
        if option is not None:
            placements.append((label, option.worker, option.endpoints_per_worker, option.link))
        elif label == "endpoint":
            placements.append((label, family.endpoint, 1, None))
    for placement in placements:
        _check_placement(family.endpoint, *placement)
    return placements


def _check_placement(endpoint: Device, label: str, worker: Device, endpoints_per_worker: int,
                     link: Link | None) -> None:
    """Raise ValueError, naming the field, unless the endpoint and the
    worker have integer cores >= 1 and a non-negative quota, the worker
    serves an integer count >= 1 of endpoints, and the link, if any, has a
    non-negative throughput.  The type predicates are ``Topology.check``'s
    (a bool is neither an int nor a number, and NaN is not >= 0); the
    ranges are the model's, which gives a defined class for a quota or
    throughput of 0 (nothing fits), above 1 or infinite."""
    for name, device in (("endpoint", endpoint), (f"{label} worker", worker)):
        cores, quota = device.cores, device.quota
        if not (_is_count(cores) and _is_number(quota) and quota >= 0):
            raise ValueError(f"{name} needs integer cores >= 1 and a non-negative quota, "
                             f"got cores {_shown(cores)}, quota {_shown(quota)}")
    if not _is_count(endpoints_per_worker):
        raise ValueError(f"{label} endpoints_per_worker must be an integer of at least 1, "
                         f"got {_shown(endpoints_per_worker)}")
    if link is not None and not (_is_number(link.throughput_mbit) and link.throughput_mbit >= 0):
        raise ValueError(f"{label} link throughput must be a non-negative number, "
                         f"got {_shown(link.throughput_mbit)}")


def classify(workload: WorkloadProfile, family: DeploymentFamily) -> str:
    """First viable placement in ``PLACEMENTS`` order, or "not-viable".

    Placements the family defines no spec for are skipped, so restricted
    families (a single deployment, say) classify within their own options.
    Every placement is checked before any is judged: raises ValueError
    for a family that ``_placements`` refuses.
    """
    for label, worker, endpoints_per_worker, link in _placements(family):
        if _viability(workload, family.endpoint, worker, endpoints_per_worker, link).viable:
            return label
    return NOT_VIABLE


def family_from_topology(topology: Topology) -> DeploymentFamily:
    """Collapse a (homogeneous) topology into its placement family: the
    source spec plus one offload option named after the worker tier.  A
    local-only topology yields a family with no offload options.  Raises
    TopologyError for a topology that ``Topology.check`` refuses."""
    topology.check()
    sources = topology.sources
    if not sources:
        raise ValueError("topology has no data-generating endpoints")
    endpoint = sources[0]
    link = topology.worker_link
    if link is None:
        return DeploymentFamily(endpoint=endpoint)
    # the first worker that serves a source: workers[0] in every topology
    # build_topology makes
    worker = next(w for w in topology.workers if topology.assignment.get(w.id))
    option = OffloadOption(worker, len(topology.assignment[worker.id]), link)
    return DeploymentFamily(endpoint=endpoint, options={worker.tier: option})


def reference_family() -> DeploymentFamily:
    """The benchmark design space: a 1-core endpoint, the small-edge worker
    option, and the cloud worker option."""
    edge = family_from_topology(build_topology(load_preset("edge-small")))
    cloud = family_from_topology(build_topology(load_preset("cloud")))
    return DeploymentFamily(endpoint=edge.endpoint, options={**edge.options, **cloud.options})


# ---------------------------------------------------------------------------
# design-space heatmap

# Reference example points, in heatmap coordinates (rate Hz, endpoint-tier
# seconds per element): A is the local-processing check, B the edge-offload
# check.  They share coordinates because the y axis anchors the endpoint
# entry and the remaining tiers scale along.
REFERENCE_MARKERS = (("A", 5.0, 0.11), ("B", 5.0, 0.11))


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: rates 0..rate_max (x), endpoint-anchored processing
    times 0..proc_max seconds (y), inclusive, evenly spaced."""

    rate_max: float = 10.0
    proc_max: float = 0.5
    rate_steps: int = 21
    proc_steps: int = 21

    def __post_init__(self) -> None:
        for name in ("rate_max", "proc_max"):
            value = getattr(self, name)
            if not (_is_number(value) and 0 < value < math.inf):
                raise ValueError(f"grid ranges must be positive and finite, got {name}={_shown(value)}")
        for name in ("rate_steps", "proc_steps"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"grid sample counts must be integers, got {name}={_shown(value)}")
        if self.rate_steps < 2 or self.proc_steps < 2:
            raise ValueError("grid needs at least 2 samples per axis")
        if self.rate_steps * self.proc_steps > MAX_CELLS:
            raise ValueError(f"grid of {self.rate_steps} x {self.proc_steps} samples has more than "
                             f"the {MAX_CELLS} cells a heatmap may have")


def _anchor(workload: WorkloadProfile) -> float:
    """The endpoint-tier processing time the heatmap's y axis scales."""
    anchor = workload.proc_on("endpoint")
    if anchor <= 0:
        raise ValueError("heatmap scaling needs a positive endpoint processing time in the base workload")
    return anchor


def classify_at(workload: WorkloadProfile, family: DeploymentFamily, rate: float, proc: float) -> str:
    """Classify one (rate, processing-time) point.  ``proc`` is the
    endpoint-tier seconds per element; every other tier's processing time is
    scaled by the same factor relative to ``workload``."""
    scaled = workload.scale_proc(proc / _anchor(workload)).with_rate(rate)
    return classify(scaled, family)


@dataclass(frozen=True)
class HeatmapGrid:
    rates: tuple[float, ...]
    proc_times: tuple[float, ...]
    cells: tuple[tuple[str, ...], ...]  # cells[i][j] is proc_times[i] x rates[j]

    def to_dict(self) -> dict:
        return {
            "rates_hz": list(self.rates),
            "proc_times_s": list(self.proc_times),
            "cells": [list(row) for row in self.cells],
        }

    def to_csv_text(self) -> str:
        """Grid as CSV: header row carries the rate samples, first column the
        processing-time samples, cells the class labels."""
        header = ["tproc_s/rate_hz"] + [repr(r) for r in self.rates]
        lines = [",".join(header)]
        for proc, row in zip(self.proc_times, self.cells):
            lines.append(",".join([repr(proc)] + list(row)))
        return "\n".join(lines) + "\n"


def _linspace(stop: float, num: int) -> tuple[float, ...]:
    """``num`` evenly spaced samples from 0 to ``stop`` inclusive, bit for bit
    the values of ``numpy.linspace(0.0, stop, num)``."""
    stop = float(stop)
    div = num - 1
    step = stop / div
    if step == 0:  # the step underflowed: scale the fractions instead
        head = [i / div * stop for i in range(div)]
    else:
        head = [i * step for i in range(div)]
    return (*head, stop)


def heatmap(spec: GridSpec, workload: WorkloadProfile, family: DeploymentFamily) -> HeatmapGrid:
    """Classify every point of the sampling grid.

    Every cell gets the class ``classify_at`` gives it: the grid evaluates the
    same float expressions in the same order, but computes the conditions
    that depend on the rate alone once per column and the scaled processing
    times once per row.  Unlike ``classify_at``, a tier the family offers
    with no processing time in ``workload`` is rejected up front, even where
    an earlier placement would have been viable.  The family is checked
    once, first, as ``classify`` checks it.
    """
    checked = _placements(family)
    rates = _linspace(spec.rate_max, spec.rate_steps)
    procs = _linspace(spec.proc_max, spec.proc_steps)
    anchor = _anchor(workload)

    pre_capacity = capacity_of(family.endpoint)
    pre_fits = [workload.pre_time * rate <= pre_capacity for rate in rates]
    everywhere = [True] * len(rates)  # no link: no rate-only condition
    # (label, unscaled seconds per element, endpoints per worker, capacity,
    # per-column result of the rate-only conditions), in PLACEMENTS order
    placements = [
        (label, workload.proc_on(worker.tier), endpoints_per_worker, capacity_of(worker),
         everywhere if link is None else
         [pre and rate * workload.element_size <= link.throughput_mbit for pre, rate in zip(pre_fits, rates)])
        for label, worker, endpoints_per_worker, link in checked
    ]

    cells = []
    for proc in procs:
        factor = proc / anchor
        row_checks = [(label, base * factor, n, capacity, fits) for label, base, n, capacity, fits in placements]
        row = []
        for j, rate in enumerate(rates):
            for label, scaled, n, capacity, fits in row_checks:
                if fits[j] and scaled * rate * n <= capacity:
                    row.append(label)
                    break
            else:
                row.append(NOT_VIABLE)
        cells.append(tuple(row))
    return HeatmapGrid(rates=rates, proc_times=procs, cells=tuple(cells))
