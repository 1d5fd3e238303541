"""Concrete topologies (devices, worker link, endpoint assignment) and workloads.

A topology materializes a deployment config into devices with roles:
workers process elements, sources generate them, controllers coordinate
and contribute no capacity.  Sources appear in exactly one worker's
assignment; in peer-to-peer deployments the workers are themselves
endpoints, and in local-only topologies every endpoint is assigned to
itself.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .config import MAX_DEVICES, TIERS, DeploymentConfig, TierPair, _shown, pair_key, validate, worker_plan


class TopologyError(ValueError):
    """The config cannot be materialized into a topology."""


def _is_number(value) -> bool:
    """Whether the range checks can compare ``value`` and the model can
    compute with it: a float, or an int (and so not a bool) that a float
    can hold, as ``validate`` holds."""
    if isinstance(value, float):
        return True
    return _is_int(value) and -sys.float_info.max <= value <= sys.float_info.max


def _is_int(value) -> bool:
    """Whether ``value`` is an int, and so not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """Whether ``value`` is an int of at least 1 that a float can hold, as
    a core or endpoint count the model multiplies must be."""
    return _is_int(value) and 1 <= value <= sys.float_info.max


@dataclass(frozen=True)
class Device:
    id: str
    tier: str
    cores: int
    quota: float  # fraction of each core available, in (0, 1]
    role: str     # "worker" | "controller" | "source"


@dataclass(frozen=True)
class Link:
    """Symmetric network path between two tiers; latency is one-way."""

    tiers: TierPair
    latency_avg_ms: float
    latency_sd_ms: float
    throughput_mbit: float


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-element resource demands of a streaming application.

    proc_time maps the tier doing the processing to seconds per element,
    pre_time is the on-endpoint preparation cost in seconds, rate is
    elements per second per endpoint, element_size is Mbit per element.
    """

    proc_time: Mapping[str, float]
    pre_time: float
    rate: float
    element_size: float

    @property
    def data_rate(self) -> float:
        """Mbit/s one endpoint pushes onto its link."""
        return self.rate * self.element_size

    def proc_on(self, tier: str) -> float:
        try:
            return self.proc_time[tier]
        except KeyError:
            raise ValueError(f"workload has no processing time for tier {tier!r}") from None

    def check(self) -> None:
        """Raise ValueError, naming the field, unless every processing
        time, the preprocessing time, the rate and the element size is a
        finite and non-negative number.  Not run at construction, because
        ``classify_at`` scales profiles by factors that may overflow."""
        fields = [(f"proc_time[{tier!r}]", value) for tier, value in self.proc_time.items()]
        fields += [("pre_time", self.pre_time), ("rate", self.rate), ("element_size", self.element_size)]
        for name, value in fields:
            if not (_is_number(value) and 0 <= value < math.inf):
                raise ValueError(f"workload {name} must be finite and non-negative, got {_shown(value)}")

    def with_rate(self, rate: float) -> WorkloadProfile:
        return replace(self, rate=rate)

    def scale_proc(self, factor: float) -> WorkloadProfile:
        """Scale every tier's processing time by the same factor."""
        return replace(self, proc_time={t: v * factor for t, v in self.proc_time.items()})


# Image-classification benchmark profile.  The cloud entry is assumed equal
# to the edge entry (same container, no separate measurement).
DEFAULT_WORKLOAD = WorkloadProfile(
    proc_time={"cloud": 0.14, "edge": 0.14, "endpoint": 0.11},
    pre_time=0.001,
    rate=5.0,
    element_size=0.54,
)


def capacity_of(device: Device) -> float:
    """Core-seconds per second the device can spend: cores times quota."""
    return device.cores * device.quota


def demand_on_worker(workload: WorkloadProfile, worker_tier: str, endpoints_per_worker: int) -> float:
    """Core-seconds per second one worker must absorb from its endpoints."""
    return workload.proc_on(worker_tier) * workload.rate * endpoints_per_worker


@dataclass(frozen=True)
class Topology:
    devices: tuple[Device, ...]
    worker_link: Link | None  # the link offloaded elements cross; None for local-only topologies
    assignment: Mapping[str, tuple[str, ...]]  # worker id -> source ids

    @cached_property
    def _devices_by_id(self) -> dict[str, Device]:
        return {d.id: d for d in self.devices}

    def device(self, device_id: str) -> Device:
        """The device with this id; KeyError if there is none."""
        return self._devices_by_id[device_id]

    @property
    def workers(self) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.role == "worker")

    @property
    def sources(self) -> tuple[Device, ...]:
        """Data-generating endpoints, i.e. every assigned device."""
        assigned = {sid for ids in self.assignment.values() for sid in ids}
        return tuple(d for d in self.devices if d.id in assigned)

    def check(self) -> None:
        """Raise TopologyError, naming the fault, unless no two devices share
        an id; the topology has a worker; every worker has integer cores
        >= 1 and a quota in (0, 1]; every assignment key is a worker; every
        source is a device assigned once; a worker that serves itself serves
        no other source; every offloading source has integer cores >= 1, a
        quota in (0, 1] and a link to cross; and the link's latency average
        and sd are finite and >= 0 and its throughput finite and > 0.  Cores
        must be an int, and a quota, latency or throughput an int or a float;
        a bool is neither, and an int must be one a float can hold."""
        if len(self._devices_by_id) < len(self.devices):
            ids = collections.Counter(d.id for d in self.devices)
            raise TopologyError(f"device id {next(i for i, n in ids.items() if n > 1)} names more than one device")
        workers = {d.id: d for d in self.devices if d.role == "worker"}
        if not workers:
            raise TopologyError("topology has no workers")
        for worker in workers.values():
            cores, quota = worker.cores, worker.quota
            if not (_is_count(cores) and _is_number(quota) and 0 < quota <= 1):
                raise TopologyError(f"worker {worker.id} needs integer cores >= 1 and a quota in (0, 1], "
                                    f"got cores {_shown(cores)}, quota {_shown(quota)}")
        assigned: set[str] = set()
        for worker_id, source_ids in self.assignment.items():
            if worker_id not in workers:
                raise TopologyError(f"sources are assigned to {worker_id}, which is not a worker")
            for source_id in source_ids:
                if source_id in assigned:
                    raise TopologyError(f"source {source_id} is assigned twice")
                assigned.add(source_id)
                device = self._devices_by_id.get(source_id)
                if device is None:
                    raise TopologyError(f"source {source_id} is not a device")
                if source_id == worker_id:
                    if len(source_ids) > 1:
                        raise TopologyError(
                            f"worker {worker_id} processes its own elements and other sources' too")
                    continue
                if not (_is_number(device.quota) and 0 < device.quota <= 1):
                    raise TopologyError(f"source {source_id} offloads with a quota outside (0, 1], "
                                        f"got {_shown(device.quota)}")
                if not _is_count(device.cores):
                    raise TopologyError(f"source {source_id} offloads with cores that are not an integer >= 1, "
                                        f"got {_shown(device.cores)}")
                if self.worker_link is None:
                    raise TopologyError(f"source {source_id} offloads to {worker_id} but the topology has no link")
        link = self.worker_link
        if link is not None:
            name = pair_key(link.tiers)
            if not all(_is_number(ms) and 0 <= ms < math.inf for ms in (link.latency_avg_ms, link.latency_sd_ms)):
                raise TopologyError(f"latency for {name} must be finite and non-negative, "
                                    f"got {_shown(link.latency_avg_ms)},{_shown(link.latency_sd_ms)}")
            if not (_is_number(link.throughput_mbit) and 0 < link.throughput_mbit < math.inf):
                raise TopologyError(f"throughput for {name} must be finite and positive, "
                                    f"got {_shown(link.throughput_mbit)}")


def build_topology(config: DeploymentConfig) -> Topology:
    """Materialize a config.  Deterministic: same config, same ids, same
    round-robin assignment.  Raises TopologyError, carrying the error
    messages of ``validate``, for a config that is not valid."""
    errors = [d.message for d in validate(config) if d.severity == "error"]
    if errors:
        raise TopologyError("; ".join(errors))
    plan = worker_plan(config)

    # in cloud, edge, endpoint order the devices are the plan's controllers,
    # then its workers, then its sources
    roles = itertools.chain(itertools.repeat("controller", plan.controllers),
                            itertools.repeat("worker", plan.workers),
                            itertools.repeat("source", plan.sources))
    devices: list[Device] = []
    for tier, count, cores, quota in zip(TIERS, config.devices_per_tier, config.cores_per_device,
                                         config.quota_per_cpu):
        devices += (Device(f"{tier}-{i}", tier, cores, quota, role) for i, role in zip(range(count), roles))
    workers = devices[plan.controllers:plan.controllers + plan.workers]
    sources = devices[plan.controllers + plan.workers:]

    return Topology(
        devices=tuple(devices),
        worker_link=Link(plan.link, *config.latency[plan.link], config.throughput[plan.link]),
        # round robin: source j goes to worker j mod the worker count
        assignment={w.id: tuple(s.id for s in sources[j::plan.workers]) for j, w in enumerate(workers)},
    )


def local_topology(count: int, cores: int = 1, quota: float = 0.5) -> Topology:
    """Endpoints that process their own elements: no preprocessing step, no
    network, each device assigned to itself."""
    if not _is_int(count):
        raise TopologyError(f"local topology needs an integer endpoint count, got {_shown(count)}")
    if not 1 <= count <= MAX_DEVICES:  # refused before any device is built
        raise TopologyError(f"local topology needs 1 to {MAX_DEVICES} endpoints, got {_shown(count)}")
    devices = tuple(Device(f"endpoint-{i}", "endpoint", cores, quota, "worker") for i in range(count))
    topology = Topology(devices=devices, worker_link=None, assignment={d.id: (d.id,) for d in devices})
    topology.check()
    return topology
