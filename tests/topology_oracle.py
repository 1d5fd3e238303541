"""``build_topology`` as it was before it took every role from the worker
plan's counts, kept as the oracle of the differential test in
``tests/test_properties.py``: the plan-driven version must build equal
topologies.

The body is kept verbatim except that the per-tier values, which the config
once served through ``devices(tier)``, ``cores(tier)`` and ``quota(tier)``,
are read from its tuples here.
"""

from __future__ import annotations

from tierplan.config import TIERS, DeploymentConfig, validate, worker_plan
from tierplan.topology import Device, Link, Topology, TopologyError


def build_topology(config: DeploymentConfig) -> Topology:
    errors = [d.message for d in validate(config) if d.severity == "error"]
    if errors:
        raise TopologyError("; ".join(errors))
    plan = worker_plan(config)

    devices: list[Device] = []
    worker_ids: list[str] = []
    source_ids: list[str] = []
    for tier in ("cloud", "edge", "endpoint"):
        rank = TIERS.index(tier)
        count = config.devices_per_tier[rank]
        cores, quota = config.cores_per_device[rank], config.quota_per_cpu[rank]
        for i in range(count):
            device_id = f"{tier}-{i}"
            if tier == plan.worker_tier:
                if plan.worker_tier == "cloud" and plan.controllers and i == 0:
                    role = "controller"
                elif plan.worker_tier == "endpoint":
                    role = "worker" if i < plan.workers else "source"
                else:
                    role = "worker"
            elif tier == "endpoint":
                role = "source"
            else:
                role = "controller"
            devices.append(Device(device_id, tier, cores, quota, role))
            if role == "worker":
                worker_ids.append(device_id)
            elif role == "source":
                source_ids.append(device_id)

    assignment: dict[str, list[str]] = {wid: [] for wid in worker_ids}
    for j, source_id in enumerate(source_ids):
        assignment[worker_ids[j % len(worker_ids)]].append(source_id)

    return Topology(
        devices=tuple(devices),
        links=(Link(plan.link, *config.latency[plan.link], config.throughput[plan.link]),),
        assignment={wid: tuple(ids) for wid, ids in assignment.items()},
        endpoints_per_worker=plan.endpoints_per_worker,
    )
