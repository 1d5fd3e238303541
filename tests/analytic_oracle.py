"""The analytic verdicts and the placement walk as they were before one
builder made every ``Verdict`` and one generator walked the placements.

``_verdict``, ``local_viability``, ``offload_viability`` and ``classify``
are kept verbatim as the oracle of the differential test in
``tests/test_analytic_oracle.py``: the rewritten versions in
``tierplan.analytic`` must give the same verdicts and the same classes.
"""

from __future__ import annotations

from tierplan.analytic import (
    BANDWIDTH,
    NOT_VIABLE,
    PLACEMENTS,
    PREPROCESS_CAPACITY,
    WORKER_CAPACITY,
    ConditionCheck,
    DeploymentFamily,
    Verdict,
    system_load,
)
from tierplan.topology import Device, Link, WorkloadProfile, capacity_of, demand_on_worker


def _verdict(checks: list[ConditionCheck], load: float, data_rate: float) -> Verdict:
    failed = tuple(check.name for check in checks if not check.passed)
    return Verdict(
        viable=not failed,
        failed_conditions=failed,
        load_percent=load,
        required_bandwidth=data_rate,
        checks=tuple(checks),
    )


def local_viability(workload: WorkloadProfile, endpoint: Device) -> Verdict:
    """Can the endpoint process its own elements as fast as it makes them?
    No preprocessing and no network are involved; required_bandwidth is
    reported for information only."""
    demand = workload.proc_on(endpoint.tier) * workload.rate
    capacity = capacity_of(endpoint)
    checks = [ConditionCheck(WORKER_CAPACITY, demand, capacity, demand <= capacity)]
    return _verdict(checks, system_load(demand, capacity), workload.data_rate)


def offload_viability(
    workload: WorkloadProfile,
    endpoint: Device,
    target: Device,
    endpoints_per_worker: int,
    link: Link,
) -> Verdict:
    """Can ``target`` process the elements of ``endpoints_per_worker``
    endpoints shipped over ``link``?  All three conditions are always
    evaluated, so every failure is reported, not just the first."""
    proc_demand = demand_on_worker(workload, target.tier, endpoints_per_worker)
    proc_capacity = capacity_of(target)
    pre_demand = workload.pre_time * workload.rate
    pre_capacity = capacity_of(endpoint)
    data_rate = workload.data_rate
    checks = [
        ConditionCheck(WORKER_CAPACITY, proc_demand, proc_capacity, proc_demand <= proc_capacity),
        ConditionCheck(PREPROCESS_CAPACITY, pre_demand, pre_capacity, pre_demand <= pre_capacity),
        ConditionCheck(BANDWIDTH, data_rate, link.throughput_mbit, data_rate <= link.throughput_mbit),
    ]
    return _verdict(checks, system_load(proc_demand, proc_capacity), data_rate)


def classify(workload: WorkloadProfile, family: DeploymentFamily) -> str:
    """First viable placement in ``PLACEMENTS`` order, or "not-viable".

    Placements the family defines no spec for are skipped, so restricted
    families (a single deployment, say) classify within their own options.
    """
    for placement in PLACEMENTS:
        option = family.options.get(placement)
        if option is not None:
            verdict = offload_viability(
                workload, family.endpoint, option.worker, option.endpoints_per_worker, option.link
            )
        elif placement == "endpoint":
            verdict = local_viability(workload, family.endpoint)
        else:
            continue
        if verdict.viable:
            return placement
    return NOT_VIABLE
