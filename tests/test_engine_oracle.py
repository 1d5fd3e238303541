"""The stage-wise engine against the event-loop oracle, bit for bit, and the
topologies the engine declines."""

from __future__ import annotations

import csv
import io

import pytest
from event_oracle import simulate_events
from hypothesis import given, settings, strategies as st

from tierplan.config import BenchmarkConfig, DeploymentConfig, load_preset, tier_pair
from tierplan.simulator import MAX_ELEMENTS, SimParams, simulate, write_trace_csv
from tierplan.topology import Device, Link, Topology, WorkloadProfile, build_topology, local_topology

finite = dict(allow_nan=False, allow_infinity=False)

# round values make stage times collide exactly, so ties are common
times = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0]),
                  st.floats(min_value=0.0, max_value=1.5, **finite))
quotas = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(min_value=0.05, max_value=1.0, **finite))
cores = st.integers(min_value=1, max_value=4)


@st.composite
def deployments(draw):
    """A small config of any family that ``build_topology`` accepts."""
    worker_tier = draw(st.sampled_from(["edge", "cloud", "endpoint"]))
    workers = draw(st.integers(min_value=1, max_value=3))
    per_worker = draw(st.integers(min_value=1, max_value=3))
    worker_cores, worker_quota = draw(cores), draw(quotas)
    endpoint_cores, endpoint_quota = draw(cores), draw(quotas)
    if worker_tier == "edge":
        controllers = draw(st.integers(min_value=0, max_value=1))
        devices = (controllers, workers, workers * per_worker)
        tier_cores = (worker_cores if controllers else 0, worker_cores, endpoint_cores)
        tier_quota = (worker_quota if controllers else 0.0, worker_quota, endpoint_quota)
    elif worker_tier == "cloud":
        devices = (workers, 0, workers * per_worker)
        tier_cores = (worker_cores, 0, endpoint_cores)
        tier_quota = (worker_quota, 0.0, endpoint_quota)
    else:  # peer-to-peer: half the endpoints serve the other half
        devices = (0, 0, 2 * workers * per_worker)
        tier_cores = (0, 0, endpoint_cores)
        tier_quota = (0.0, 0.0, endpoint_quota)
    link = tier_pair(worker_tier, "endpoint")
    latency_ms = draw(st.sampled_from([0.0, 7.5, 45.0]) | st.floats(min_value=0.0, max_value=300.0, **finite))
    jitter_ms = draw(st.sampled_from([0.0, 0.0, 5.0]) | st.floats(min_value=0.0, max_value=200.0, **finite))
    throughput = draw(st.sampled_from([1.0, 8.0]) | st.floats(min_value=0.5, max_value=100.0, **finite))
    return DeploymentConfig(
        devices_per_tier=devices, cores_per_device=tier_cores, quota_per_cpu=tier_quota,
        latency={link: (latency_ms, jitter_ms)}, throughput={link: throughput},
        benchmark=BenchmarkConfig(False, 0.0, "", ""),
    )


local_topologies = st.builds(local_topology, st.integers(min_value=1, max_value=4), cores, quotas)
topologies = st.one_of(deployments().map(build_topology), local_topologies)
workloads = st.builds(
    lambda proc, pre, rate, size: WorkloadProfile(
        proc_time={"cloud": proc, "edge": proc, "endpoint": proc},
        pre_time=pre, rate=rate, element_size=size),
    times, times, st.sampled_from([0.0, 1.0, 2.0, 4.0, 10.0]) | st.floats(min_value=0.0, max_value=20.0, **finite),
    st.sampled_from([0.0, 0.54, 8.0]) | st.floats(min_value=0.0, max_value=20.0, **finite),
)


@st.composite
def run_params(draw):
    duration = draw(st.sampled_from([1.0, 3.0, 6.0]) | st.floats(min_value=0.01, max_value=8.0, **finite))
    warmup = draw(st.none() | st.just(0.0) | st.floats(min_value=0.0, max_value=duration, exclude_max=True, **finite))
    return SimParams(duration=duration, warmup=warmup, seed=draw(st.integers(min_value=0, max_value=2**32)),
                     max_elements=draw(st.none() | st.integers(min_value=1, max_value=12)))


def assert_same_run(topology, workload, params):
    """Every report field, every record field and every trace CSV field equal
    the oracle's.  Values are compared by repr, which tells -0.0 from 0.0, and
    CSV fields with the text of the value, which round-trips every float, so
    the comparison is bit for bit; rows are compared one at a time to keep a
    failure's message short."""
    report = simulate(topology, workload, params)
    expected = simulate_events(topology, workload, params)
    expected_trace = expected.pop("trace")
    assert repr(report.to_dict()) == repr(expected)
    buffer = io.StringIO()
    write_trace_csv(report, buffer)
    header, *csv_rows = csv.reader(io.StringIO(buffer.getvalue()))
    assert len(csv_rows) == len(report.elements) == len(expected_trace)
    for row, r, want in zip(csv_rows, report.elements, expected_trace):
        fields = (r.source, r.worker, r.index, r.generated, r.preprocess, r.transfer, r.propagation,
                  r.queue_wait, r.service, r.end_to_end if r.phase == "done" else None, r.completed, r.phase)
        assert repr(fields) == repr(tuple(want.values()))
        assert list(zip(header, row)) == [(key, "" if value is None else str(value)) for key, value in want.items()]


class TestMatchesTheEventLoop:
    @settings(max_examples=300, deadline=None)
    @given(topologies, workloads, run_params())
    def test_random_runs(self, topology, workload, params):
        assert_same_run(topology, workload, params)

    @pytest.mark.parametrize("name", ["cloud", "edge-large", "edge-small", "mist"])
    def test_presets(self, name):
        workload = WorkloadProfile({"cloud": 0.14, "edge": 0.16, "endpoint": 0.11}, 0.001, 5.0, 0.54)
        assert_same_run(build_topology(load_preset(name)), workload, SimParams(duration=12.0, seed=811))


class TestDeclinedTopologies:
    def test_offloaded_sources_with_different_quotas(self):
        topology = Topology(
            devices=(Device("edge-0", "edge", 1, 1.0, "worker"),
                     Device("endpoint-0", "endpoint", 1, 0.5, "source"),
                     Device("endpoint-1", "endpoint", 1, 0.25, "source")),
            worker_link=Link(tier_pair("edge", "endpoint"), 1.0, 0.0, 8.0),
            assignment={"edge-0": ("endpoint-0", "endpoint-1")},
        )
        workload = WorkloadProfile({"edge": 0.1}, 0.001, 5.0, 0.54)
        with pytest.raises(ValueError, match="preprocessing time"):
            simulate(topology, workload, SimParams(duration=1.0))
        # without preprocessing the quotas do not matter
        assert_same_run(topology, WorkloadProfile({"edge": 0.1}, 0.0, 5.0, 0.54), SimParams(duration=3.0))

    def test_worker_serving_itself_and_others(self):
        topology = Topology(
            devices=(Device("endpoint-0", "endpoint", 1, 0.5, "worker"),
                     Device("endpoint-1", "endpoint", 1, 0.5, "source")),
            worker_link=Link(tier_pair("endpoint", "endpoint"), 1.0, 0.0, 8.0),
            assignment={"endpoint-0": ("endpoint-0", "endpoint-1")},
        )
        with pytest.raises(ValueError, match="its own elements"):
            simulate(topology, WorkloadProfile({"endpoint": 0.1}, 0.0, 5.0, 0.5), SimParams(duration=1.0))


class TestElementBudget:
    def test_oversized_run_is_refused_before_it_starts(self):
        topology = build_topology(load_preset("cloud"))
        # about 40 x 1e9 elements: refused without allocating anything
        with pytest.raises(ValueError, match="budget"):
            simulate(topology, WorkloadProfile({"cloud": 0.1}, 0.0, 1e8, 0.0), SimParams(duration=10.0))

    def test_max_elements_brings_a_run_under_the_budget(self):
        topology = local_topology(2)
        workload = WorkloadProfile({"endpoint": 0.1}, 0.0, float(MAX_ELEMENTS), 0.0)
        report = simulate(topology, workload, SimParams(duration=10.0, max_elements=3))
        assert report.generated == 6
