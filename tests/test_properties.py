"""Randomized invariants: viability monotonicity, load linearity, config
roundtrips, simulation determinism, latency identity, element conservation,
and the heatmap grid agreeing with the scalar classifier cell by cell."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from tierplan.analytic import (
    DeploymentFamily,
    GridSpec,
    OffloadOption,
    _linspace,
    classify_at,
    family_from_topology,
    heatmap,
    local_viability,
    offload_viability,
    reference_family,
    system_load,
)
from tierplan.config import (
    BenchmarkConfig,
    DeploymentConfig,
    load_preset,
    parse_config,
    render_config,
    tier_pair,
    validate,
    worker_plan,
)
from tierplan.simulator import SimParams, simulate
from tierplan.topology import Device, Link, WorkloadProfile, build_topology, local_topology

from topology_oracle import build_topology as oracle_build_topology

finite = dict(allow_nan=False, allow_infinity=False)

proc_times = st.floats(min_value=0.0, max_value=10.0, **finite)
rates = st.floats(min_value=0.0, max_value=100.0, **finite)
sizes = st.floats(min_value=0.0, max_value=50.0, **finite)
cardinalities = st.integers(min_value=1, max_value=64)
cores = st.integers(min_value=1, max_value=16)
quotas = st.floats(min_value=0.01, max_value=1.0, **finite)
bandwidths = st.floats(min_value=0.1, max_value=10_000.0, **finite)


@st.composite
def offload_cases(draw):
    workload = WorkloadProfile(
        proc_time={"endpoint": draw(proc_times), "edge": draw(proc_times)},
        pre_time=draw(proc_times),
        rate=draw(rates),
        element_size=draw(sizes),
    )
    endpoint = Device("endpoint-0", "endpoint", draw(cores), draw(quotas), "source")
    worker = Device("edge-0", "edge", draw(cores), draw(quotas), "worker")
    link = Link(tier_pair("edge", "endpoint"), 1.0, 0.0, draw(bandwidths))
    return workload, endpoint, worker, draw(cardinalities), link


class TestViabilityMonotonicity:
    """Raising any demand or cutting any capacity never turns a non-viable
    offload viable."""

    @settings(max_examples=1000, deadline=None)
    @given(offload_cases(), st.data())
    def test_decision_is_monotone(self, case, data):
        workload, endpoint, worker, endpoints, link = case
        base = offload_viability(workload, endpoint, worker, endpoints, link)

        factor_up = data.draw(st.floats(min_value=1.0, max_value=100.0, **finite))
        shrink = data.draw(st.floats(min_value=0.01, max_value=1.0, **finite))
        knob = data.draw(st.sampled_from(
            ["proc", "pre", "rate", "size", "endpoints", "worker_cores", "worker_quota",
             "endpoint_quota", "bandwidth"]
        ))
        if knob == "proc":
            workload = workload.scale_proc(factor_up)
        elif knob == "pre":
            workload = WorkloadProfile(workload.proc_time, workload.pre_time * factor_up,
                                       workload.rate, workload.element_size)
        elif knob == "rate":
            workload = workload.with_rate(workload.rate * factor_up)
        elif knob == "size":
            workload = WorkloadProfile(workload.proc_time, workload.pre_time,
                                       workload.rate, workload.element_size * factor_up)
        elif knob == "endpoints":
            endpoints = endpoints * max(2, int(factor_up))
        elif knob == "worker_cores":
            worker = Device(worker.id, worker.tier, max(1, int(worker.cores * shrink)), worker.quota, worker.role)
        elif knob == "worker_quota":
            worker = Device(worker.id, worker.tier, worker.cores, worker.quota * shrink, worker.role)
        elif knob == "endpoint_quota":
            endpoint = Device(endpoint.id, endpoint.tier, endpoint.cores, endpoint.quota * shrink, endpoint.role)
        else:
            link = Link(link.tiers, link.latency_avg_ms, link.latency_sd_ms,
                        link.throughput_mbit * shrink)

        worse = offload_viability(workload, endpoint, worker, endpoints, link)
        if worse.viable:
            assert base.viable

    @settings(max_examples=300, deadline=None)
    @given(offload_cases())
    def test_verdict_equals_the_three_inequalities(self, case):
        workload, endpoint, worker, endpoints, link = case
        verdict = offload_viability(workload, endpoint, worker, endpoints, link)
        fits_worker = workload.proc_on("edge") * workload.rate * endpoints <= worker.cores * worker.quota
        fits_endpoint = workload.pre_time * workload.rate <= endpoint.cores * endpoint.quota
        fits_link = workload.rate * workload.element_size <= link.throughput_mbit
        assert verdict.viable == (fits_worker and fits_endpoint and fits_link)

    @settings(max_examples=300, deadline=None)
    @given(
        proc=proc_times, rate=rates,
        device_cores=cores, quota=quotas,
    )
    def test_local_verdict_equals_the_inequality(self, proc, rate, device_cores, quota):
        workload = WorkloadProfile({"endpoint": proc}, 0.0, rate, 0.0)
        endpoint = Device("endpoint-0", "endpoint", device_cores, quota, "source")
        verdict = local_viability(workload, endpoint)
        assert verdict.viable == (proc * rate <= device_cores * quota)


class TestSystemLoadLinearity:
    @settings(max_examples=300, deadline=None)
    @given(
        demand=st.floats(min_value=1e-6, max_value=1e6, **finite),
        capacity=st.floats(min_value=1e-6, max_value=1e6, **finite),
        k=st.floats(min_value=1e-3, max_value=1e3, **finite),
    )
    def test_scaling_demand_scales_load(self, demand, capacity, k):
        assert math.isclose(
            system_load(k * demand, capacity), k * system_load(demand, capacity), rel_tol=1e-9
        )

    @settings(max_examples=300, deadline=None)
    @given(
        demand=st.floats(min_value=1e-6, max_value=1e6, **finite),
        capacity=st.floats(min_value=1e-6, max_value=1e6, **finite),
        k=st.floats(min_value=1e-3, max_value=1e3, **finite),
    )
    def test_scaling_capacity_divides_load(self, demand, capacity, k):
        assert math.isclose(
            system_load(demand, k * capacity), system_load(demand, capacity) / k, rel_tol=1e-9
        )


# configs assembled directly; numbers chosen so validation always passes
@st.composite
def valid_configs(draw):
    shape = draw(st.sampled_from(["edge", "cloud", "cloud+controller", "endpoint"]))
    worker_tier = shape.partition("+")[0]
    workers = draw(st.integers(min_value=1, max_value=8))
    per_worker = draw(st.integers(min_value=1, max_value=6))
    endpoints = workers * per_worker

    worker_cores = draw(cores)
    worker_quota = draw(quotas)
    endpoint_cores = draw(cores)
    endpoint_quota = draw(quotas)

    if worker_tier == "edge":
        controllers = draw(st.integers(min_value=0, max_value=2))
        devices = (controllers, workers, endpoints)
        tier_cores = (worker_cores if controllers else 0, worker_cores, endpoint_cores)
        tier_quota = (worker_quota if controllers else 0.0, worker_quota, endpoint_quota)
    elif shape == "cloud+controller":
        # the cloud preset's shape: the endpoints spread evenly over the
        # workers but not over every cloud device, so one is a controller
        assume(endpoints % (workers + 1))
        devices = (workers + 1, 0, endpoints)
        tier_cores = (worker_cores, 0, endpoint_cores)
        tier_quota = (worker_quota, 0.0, endpoint_quota)
    elif worker_tier == "cloud":
        devices = (workers, 0, endpoints)
        tier_cores = (worker_cores, 0, endpoint_cores)
        tier_quota = (worker_quota, 0.0, endpoint_quota)
    else:
        # peer-to-peer: an even endpoint count always splits cleanly
        devices = (0, 0, 2 * workers * per_worker)
        tier_cores = (0, 0, endpoint_cores)
        tier_quota = (0.0, 0.0, endpoint_quota)

    link = tier_pair(worker_tier, "endpoint")
    latency = {link: (draw(st.floats(min_value=0.0, max_value=500.0, **finite)),
                      draw(st.floats(min_value=0.0, max_value=50.0, **finite)))}
    throughput = {link: draw(bandwidths)}

    benchmark = BenchmarkConfig(
        use_benchmark=draw(st.booleans()),
        data_generation_frequency=draw(st.floats(min_value=0.0, max_value=100.0, **finite)),
        application=draw(st.text(alphabet="abcdefghij_", max_size=12)),
        resource_manager=draw(st.text(alphabet="abcdefghij_", max_size=12)),
    )
    return DeploymentConfig(
        devices_per_tier=devices,
        cores_per_device=tier_cores,
        quota_per_cpu=tier_quota,
        latency=latency,
        throughput=throughput,
        benchmark=benchmark,
    )


class TestConfigRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_parse_inverts_render(self, config):
        assert validate(config) == []
        assert parse_config(render_config(config)) == config

    @settings(max_examples=50, deadline=None)
    @given(valid_configs())
    def test_render_is_idempotent(self, config):
        once = render_config(config)
        assert render_config(parse_config(once)) == once


class TestTopologyMatchesOracle:
    """``build_topology``, which takes every role from the worker plan's
    counts, builds the topologies of its per-tier predecessor."""

    @settings(max_examples=300, deadline=None)
    @given(valid_configs())
    def test_valid_configs(self, config):
        assert build_topology(config) == oracle_build_topology(config)

    @pytest.mark.parametrize("name", ["cloud", "edge-large", "edge-small", "mist"])
    def test_presets(self, name):
        config = load_preset(name)
        assert build_topology(config) == oracle_build_topology(config)

    def test_edge_large_at_8000_endpoints(self):
        config = dataclasses.replace(load_preset("edge-large"), devices_per_tier=(1, 2000, 8000))
        assert build_topology(config) == oracle_build_topology(config)


def assert_passes_check_with_the_planned_counts(config):
    topology = build_topology(config)
    topology.check()
    per_worker = worker_plan(config).endpoints_per_worker
    assert [len(topology.assignment[w.id]) for w in topology.workers] == [per_worker] * len(topology.workers)


class TestBuiltTopologiesPassCheck:
    """``build_topology`` makes only topologies ``Topology.check`` accepts,
    each worker serving the plan's endpoint count."""

    @settings(max_examples=300, deadline=None)
    @given(valid_configs())
    def test_valid_configs(self, config):
        assert_passes_check_with_the_planned_counts(config)

    @pytest.mark.parametrize("name", ["cloud", "edge-large", "edge-small", "mist"])
    def test_presets(self, name):
        assert_passes_check_with_the_planned_counts(load_preset(name))

    def test_edge_large_at_8000_endpoints(self):
        config = dataclasses.replace(load_preset("edge-large"), devices_per_tier=(1, 2000, 8000))
        assert_passes_check_with_the_planned_counts(config)


PRESET_TOPOLOGIES = {name: build_topology(load_preset(name))
                     for name in ("cloud", "edge-large", "edge-small", "mist")}
QUICK_WORKLOAD = WorkloadProfile(
    proc_time={"cloud": 0.14, "edge": 0.14, "endpoint": 0.11},
    pre_time=0.001, rate=5.0, element_size=0.54,
)


class TestSimulationProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(sorted(PRESET_TOPOLOGIES)),
        seed=st.integers(min_value=0, max_value=2**31),
        duration=st.floats(min_value=1.0, max_value=5.0, **finite),
    )
    def test_determinism_by_seed(self, name, seed, duration):
        params = SimParams(duration=duration, seed=seed)
        first = simulate(PRESET_TOPOLOGIES[name], QUICK_WORKLOAD, params)
        second = simulate(PRESET_TOPOLOGIES[name], QUICK_WORKLOAD, params)
        assert first.to_dict() == second.to_dict()
        assert first.elements == second.elements

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(PRESET_TOPOLOGIES)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_latency_identity(self, name, seed):
        report = simulate(PRESET_TOPOLOGIES[name], QUICK_WORKLOAD,
                          SimParams(duration=4.0, seed=seed))
        for rec in report.elements:
            parts = rec.preprocess + rec.transfer + rec.propagation + rec.queue_wait + rec.service
            assert rec.end_to_end == parts
            if rec.phase == "done":
                assert math.isclose(rec.completed - rec.generated, parts,
                                    rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(PRESET_TOPOLOGIES)),
        seed=st.integers(min_value=0, max_value=2**31),
        duration=st.floats(min_value=1.0, max_value=6.0, **finite),
    )
    def test_conservation_at_termination(self, name, seed, duration):
        report = simulate(PRESET_TOPOLOGIES[name], QUICK_WORKLOAD,
                          SimParams(duration=duration, seed=seed))
        assert sum(report.phase_counts.values()) == report.generated
        assert report.phase_counts["done"] == report.completed
        assert report.backlog == report.generated - report.completed
        assert report.measured <= report.completed <= report.generated
        for rec in report.elements:
            assert rec.propagation >= 0.0


# Positive finite floats down to the smallest subnormal and up to the largest
# double, mixed with ordinary magnitudes so most grids have mixed classes.
positive = st.floats(min_value=0.0, exclude_min=True, **finite)
magnitudes = st.one_of(st.floats(min_value=0.01, max_value=100.0, **finite), positive)
nonnegative = st.one_of(st.just(0.0), magnitudes)
grid_specs = st.builds(
    GridSpec, rate_max=magnitudes, proc_max=magnitudes,
    rate_steps=st.integers(min_value=2, max_value=9), proc_steps=st.integers(min_value=2, max_value=9),
)
grid_workloads = st.builds(
    lambda endpoint, edge, cloud, pre, size: WorkloadProfile(
        proc_time={"endpoint": endpoint, "edge": edge, "cloud": cloud},
        pre_time=pre, rate=5.0, element_size=size,
    ),
    magnitudes, nonnegative, nonnegative, nonnegative, nonnegative,
)
GRID_FAMILIES = {
    "reference": reference_family(),
    "local-only": family_from_topology(local_topology(4)),
    **{name: family_from_topology(topology) for name, topology in PRESET_TOPOLOGIES.items()},
}


@st.composite
def tied_cases(draw):
    """A grid, a workload and a one-option family in which one sampled cell
    sits exactly on one condition's boundary: demand equals capacity, a load
    of exactly 100%, which passes."""
    spec = draw(grid_specs)
    workload = draw(grid_workloads)
    rate = draw(st.sampled_from(_linspace(spec.rate_max, spec.rate_steps)))
    proc = draw(st.sampled_from(_linspace(spec.proc_max, spec.proc_steps)))
    endpoints = draw(cardinalities)
    factor = proc / workload.proc_on("endpoint")
    demand = {  # the scalar path's expressions, in its evaluation order
        "local": workload.proc_on("endpoint") * factor * rate,
        "worker": workload.proc_on("edge") * factor * rate * endpoints,
        "preprocess": workload.pre_time * rate,
        "bandwidth": rate * workload.element_size,
    }
    tie = draw(st.sampled_from(sorted(demand)))
    # 0 x inf makes a NaN demand, which ties nothing and, as a quota or a
    # throughput, is refused by name
    assume(not math.isnan(demand[tie]))

    def capacity(*conditions):
        return demand[tie] if tie in conditions else draw(nonnegative)

    endpoint = Device("endpoint-0", "endpoint", 1, capacity("local", "preprocess"), "source")
    worker = Device("edge-0", "edge", 1, capacity("worker"), "worker")
    link = Link(tier_pair("edge", "endpoint"), 1.0, 0.0, capacity("bandwidth"))
    family = DeploymentFamily(endpoint=endpoint, options={"edge": OffloadOption(worker, endpoints, link)})
    return spec, workload, family


def assert_grid_matches_scalar_path(spec, workload, family):
    grid = heatmap(spec, workload, family)
    assert grid.rates == _linspace(spec.rate_max, spec.rate_steps)
    assert grid.proc_times == _linspace(spec.proc_max, spec.proc_steps)
    for i, proc in enumerate(grid.proc_times):
        for j, rate in enumerate(grid.rates):
            assert grid.cells[i][j] == classify_at(workload, family, rate, proc), (i, j)


class TestHeatmapMatchesScalarPath:
    """Every grid cell gets exactly the class ``classify_at`` gives it."""

    @settings(max_examples=300, deadline=None)
    @given(grid_specs, grid_workloads, st.sampled_from(sorted(GRID_FAMILIES)))
    def test_preset_families(self, spec, workload, family_name):
        assert_grid_matches_scalar_path(spec, workload, GRID_FAMILIES[family_name])

    @settings(max_examples=300, deadline=None)
    @given(tied_cases())
    def test_loads_of_exactly_100_percent(self, case):
        assert_grid_matches_scalar_path(*case)

    @settings(max_examples=200, deadline=None)
    @given(positive, st.integers(min_value=2, max_value=300))
    def test_linspace_matches_numpy(self, stop, num):
        np = pytest.importorskip("numpy")
        with np.errstate(over="ignore"):  # numpy computes, then overwrites, an overflowing last sample
            expected = np.linspace(0.0, stop, num)
        assert _linspace(stop, num) == tuple(expected.tolist())

    def test_linspace_matches_numpy_when_the_step_underflows(self):
        np = pytest.importorskip("numpy")
        assert 5e-324 / 200 == 0
        assert _linspace(5e-324, 201) == tuple(np.linspace(0.0, 5e-324, 201).tolist())
