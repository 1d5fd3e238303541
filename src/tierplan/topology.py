"""Concrete topologies (devices, worker link, endpoint assignment) and workloads.

A topology materializes a deployment config into devices with roles:
workers process elements, sources generate them, controllers coordinate
and contribute no capacity.  Sources appear in exactly one worker's
assignment; in peer-to-peer deployments the workers are themselves
endpoints, and in local-only topologies every endpoint is assigned to
itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .config import TIERS, DeploymentConfig, TierPair, pair_key, validate, worker_plan


class TopologyError(ValueError):
    """The config cannot be materialized into a topology."""


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
        time, the preprocessing time, the rate and the element size is
        finite and non-negative.  Not run at construction, because
        ``classify_at`` scales profiles by factors that may overflow."""
        fields = [(f"proc_time[{tier!r}]", value) for tier, value in self.proc_time.items()]
        fields += [("pre_time", self.pre_time), ("rate", self.rate), ("element_size", self.element_size)]
        for name, value in fields:
            if not 0 <= value < math.inf:
                raise ValueError(f"workload {name} must be finite and non-negative, got {value!r}")

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
        # reversed, so a repeated id resolves to its first device
        return {d.id: d for d in reversed(self.devices)}

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
        """Raise TopologyError, naming the fault, unless the topology has a
        worker; every worker has integer cores >= 1 and a quota in (0, 1];
        every assignment key is a worker; every source is a device assigned
        once; a worker that serves itself serves no other source; every
        offloading source has a quota in (0, 1] and a link to cross; and
        the link's latency average and sd are finite and >= 0 and its
        throughput finite and > 0."""
        workers = {d.id: d for d in self.devices if d.role == "worker"}
        if not workers:
            raise TopologyError("topology has no workers")
        for worker in workers.values():
            if not (isinstance(worker.cores, int) and worker.cores >= 1 and 0 < worker.quota <= 1):
                raise TopologyError(f"worker {worker.id} needs integer cores >= 1 and a quota in (0, 1], "
                                    f"got cores {worker.cores!r}, quota {worker.quota!r}")
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
                if not 0 < device.quota <= 1:
                    raise TopologyError(f"source {source_id} offloads with a quota outside (0, 1], "
                                        f"got {device.quota!r}")
                if self.worker_link is None:
                    raise TopologyError(f"source {source_id} offloads to {worker_id} but the topology has no link")
        link = self.worker_link
        if link is not None:
            name = pair_key(link.tiers)
            if not (0 <= link.latency_avg_ms < math.inf and 0 <= link.latency_sd_ms < math.inf):
                raise TopologyError(f"latency for {name} must be finite and non-negative, "
                                    f"got {link.latency_avg_ms!r},{link.latency_sd_ms!r}")
            if not 0 < link.throughput_mbit < math.inf:
                raise TopologyError(f"throughput for {name} must be finite and positive, "
                                    f"got {link.throughput_mbit!r}")


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
    if not isinstance(count, int):
        raise TopologyError(f"local topology needs an integer endpoint count, got {count!r}")
    devices = tuple(Device(f"endpoint-{i}", "endpoint", cores, quota, "worker") for i in range(count))
    topology = Topology(devices=devices, worker_link=None, assignment={d.id: (d.id,) for d in devices})
    topology.check()
    return topology
