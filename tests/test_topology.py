"""Topology construction from configs, the topologies ``Topology.check``
refuses, and the workload profile."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import signal
import tracemalloc

import jsonschema
import pytest

from tierplan.config import MAX_DEVICES, load_preset, parse_config, tier_pair, validate
from tierplan.simulator import SimParams, simulate
from tierplan.topology import (
    DEFAULT_WORKLOAD,
    Device,
    Link,
    Topology,
    TopologyError,
    WorkloadProfile,
    build_topology,
    capacity_of,
    demand_on_worker,
    local_topology,
)


class TestPresetTopologies:
    def test_cloud_preset(self):
        topo = build_topology(load_preset("cloud"))
        workers = topo.workers
        assert len(workers) == 10
        assert all(d.tier == "cloud" for d in workers)
        controllers = [d for d in topo.devices if d.role == "controller"]
        assert [d.id for d in controllers] == ["cloud-0"]
        assert len(topo.sources) == 40
        assert {len(ids) for ids in topo.assignment.values()} == {4}
        assert topo.worker_link.tiers == ("cloud", "endpoint")
        assert topo.worker_link.latency_avg_ms == 45.0

    def test_edge_large_preset(self):
        topo = build_topology(load_preset("edge-large"))
        assert len(topo.workers) == 10
        assert all(d.tier == "edge" for d in topo.workers)
        # the lone cloud device coordinates, it does not process
        assert [d.id for d in topo.devices if d.role == "controller"] == ["cloud-0"]
        assert {len(ids) for ids in topo.assignment.values()} == {4}
        assert topo.worker_link.latency_avg_ms == 30.0

    def test_edge_small_preset(self):
        topo = build_topology(load_preset("edge-small"))
        assert len(topo.workers) == 10
        assert len(topo.sources) == 20
        assert {len(ids) for ids in topo.assignment.values()} == {2}
        worker = topo.workers[0]
        assert worker.cores == 2 and worker.quota == 0.75

    def test_mist_preset_splits_endpoints(self):
        topo = build_topology(load_preset("mist"))
        workers = topo.workers
        sources = topo.sources
        assert len(workers) == 10 and len(sources) == 10
        assert all(d.tier == "endpoint" for d in topo.devices)
        # first half by id are the peers that process
        assert {d.id for d in workers} == {f"endpoint-{i}" for i in range(10)}
        assert {d.id for d in sources} == {f"endpoint-{i}" for i in range(10, 20)}
        assert {len(ids) for ids in topo.assignment.values()} == {1}

    def test_round_robin_assignment(self):
        topo = build_topology(load_preset("edge-small"))
        # 20 sources over 10 workers, dealt in id order
        assert topo.assignment["edge-0"] == ("endpoint-0", "endpoint-10")
        assert topo.assignment["edge-9"] == ("endpoint-9", "endpoint-19")

    def test_all_cloud_devices_work_when_counts_divide(self, full_config_text):
        topo = build_topology(parse_config(full_config_text))
        assert len(topo.workers) == 10
        assert not [d for d in topo.devices if d.role == "controller"]


class TestBuildErrors:
    def test_indivisible_counts(self, full_config_text):
        config = dataclasses.replace(parse_config(full_config_text), devices_per_tier=(7, 0, 40))
        with pytest.raises(TopologyError, match="spread evenly"):
            build_topology(config)

    def test_empty_config_cannot_host_processing(self):
        broken = dataclasses.replace(load_preset("mist"), devices_per_tier=(0, 0, 0))
        with pytest.raises(TopologyError):
            build_topology(broken)

    def test_missing_link_latency(self, minimal_config_text):
        stripped = dataclasses.replace(parse_config(minimal_config_text), latency={})
        with pytest.raises(TopologyError, match="link"):
            build_topology(stripped)


class TestOneValidationPath:
    EDGE_LINK = ("edge", "endpoint")

    def test_negative_latency_is_refused_before_simulating(self):
        # simulate used to report negative delays for -50 ms and to redraw
        # forever for -1e5 ms
        for latency in ((-50.0, 0.0), (-1e5, 1.0)):
            config = dataclasses.replace(load_preset("edge-small"), latency={self.EDGE_LINK: latency})
            with pytest.raises(TopologyError, match="latency for edge_to_endpoint"):
                build_topology(config)

    def test_error_carries_every_validate_error(self):
        config = dataclasses.replace(load_preset("edge-small"), latency={self.EDGE_LINK: (-1.0, 0.0)},
                                     quota_per_cpu=(1.0, 0.0, 0.5))
        errors = [d.message for d in validate(config) if d.severity == "error"]
        assert len(errors) == 2
        with pytest.raises(TopologyError) as exc_info:
            build_topology(config)
        assert str(exc_info.value) == "; ".join(errors)

    def test_non_finite_links_are_invalid(self):
        preset = load_preset("edge-small")
        unused = ("cloud", "cloud")
        for change in (
            {"throughput": {self.EDGE_LINK: 8.0, unused: math.inf}},
            {"throughput": {self.EDGE_LINK: math.nan}},
            {"latency": {self.EDGE_LINK: (7.5, math.inf)}},
            {"latency": {self.EDGE_LINK: (math.inf, 0.0)}},
        ):
            config = dataclasses.replace(preset, **change)
            assert [d.severity for d in validate(config) if "finite" in d.message] == ["error"], change
            with pytest.raises(TopologyError, match="finite"):
                build_topology(config)

    def test_unpopulated_tier_quota_must_be_finite(self):
        config = dataclasses.replace(load_preset("mist"), quota_per_cpu=(math.inf, 0.0, 0.5))
        assert [d.key for d in validate(config)] == ["quota_per_cpu"]

    def test_device_total_is_bounded_before_anything_is_built(self):
        at_bound = dataclasses.replace(load_preset("edge-small"), devices_per_tier=(0, 1, MAX_DEVICES - 1))
        assert validate(at_bound) == []
        above = dataclasses.replace(at_bound, devices_per_tier=(0, 1, MAX_DEVICES))
        tracemalloc.start()
        try:
            with pytest.raises(TopologyError, match=f"more than the {MAX_DEVICES}"):
                build_topology(above)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # one device takes about 250 bytes


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, so that
    an input that makes the engine loop fails a test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


WORKER = Device("edge-0", "edge", 2, 0.75, "worker")
SOURCES = (Device("endpoint-0", "endpoint", 1, 0.5, "source"), Device("endpoint-1", "endpoint", 1, 0.5, "source"))
EDGE_LINK = Link(tier_pair("edge", "endpoint"), 7.5, 5.0, 8.0)


def hand_built(worker: Device = WORKER, source_quota: float = 0.5, link: Link | None = EDGE_LINK,
               assignment: dict | None = None) -> Topology:
    """One edge worker serving two endpoints, with one part changed."""
    sources = tuple(dataclasses.replace(s, quota=source_quota) for s in SOURCES)
    if assignment is None:
        assignment = {worker.id: tuple(s.id for s in sources)}
    return Topology((worker, *sources), link, assignment)


def with_link(latency_avg_ms: float = 7.5, latency_sd_ms: float = 5.0, throughput_mbit: float = 8.0) -> Topology:
    return hand_built(link=Link(EDGE_LINK.tiers, latency_avg_ms, latency_sd_ms, throughput_mbit))


# one topology per refusal of Topology.check, with the message it gives
REFUSED = {
    "no workers": (Topology(SOURCES, EDGE_LINK, {}), "topology has no workers"),
    "0 cores": (hand_built(dataclasses.replace(WORKER, cores=0)),
                "worker edge-0 needs integer cores >= 1 and a quota in (0, 1], got cores 0, quota 0.75"),
    "2.5 cores": (hand_built(dataclasses.replace(WORKER, cores=2.5)),
                  "worker edge-0 needs integer cores >= 1 and a quota in (0, 1], got cores 2.5, quota 0.75"),
    "worker quota 0": (hand_built(dataclasses.replace(WORKER, quota=0.0)),
                       "worker edge-0 needs integer cores >= 1 and a quota in (0, 1], got cores 2, quota 0.0"),
    "worker quota nan": (hand_built(dataclasses.replace(WORKER, quota=math.nan)),
                         "worker edge-0 needs integer cores >= 1 and a quota in (0, 1], got cores 2, quota nan"),
    "key not a worker": (hand_built(assignment={"endpoint-0": ("endpoint-1",)}),
                         "sources are assigned to endpoint-0, which is not a worker"),
    "source not a device": (hand_built(assignment={"edge-0": ("endpoint-0", "endpoint-9")}),
                            "source endpoint-9 is not a device"),
    "source assigned twice": (hand_built(assignment={"edge-0": ("endpoint-0", "endpoint-1", "endpoint-0")}),
                              "source endpoint-0 is assigned twice"),
    "worker serves itself and others": (hand_built(assignment={"edge-0": ("endpoint-0", "edge-0")}),
                                        "worker edge-0 processes its own elements and other sources' too"),
    "source quota 0": (hand_built(source_quota=0.0),
                       "source endpoint-0 offloads with a quota outside (0, 1], got 0.0"),
    "source quota 1.5": (hand_built(source_quota=1.5),
                         "source endpoint-0 offloads with a quota outside (0, 1], got 1.5"),
    "no link": (hand_built(link=None), "source endpoint-0 offloads to edge-0 but the topology has no link"),
    "NaN latency": (with_link(latency_avg_ms=math.nan),
                    "latency for edge_to_endpoint must be finite and non-negative, got nan,5.0"),
    "-1e6 ms latency, sd 1": (with_link(latency_avg_ms=-1e6, latency_sd_ms=1.0),
                              "latency for edge_to_endpoint must be finite and non-negative, got -1000000.0,1.0"),
    "-1 ms latency": (with_link(latency_avg_ms=-1.0, latency_sd_ms=0.0),
                      "latency for edge_to_endpoint must be finite and non-negative, got -1.0,0.0"),
    "infinite sd": (with_link(latency_sd_ms=math.inf),
                    "latency for edge_to_endpoint must be finite and non-negative, got 7.5,inf"),
    "throughput 0": (with_link(throughput_mbit=0.0),
                     "throughput for edge_to_endpoint must be finite and positive, got 0.0"),
    "infinite throughput": (with_link(throughput_mbit=math.inf),
                            "throughput for edge_to_endpoint must be finite and positive, got inf"),
}


class TestCheck:
    @pytest.mark.parametrize("name", REFUSED)
    def test_names_the_fault(self, name):
        topology, message = REFUSED[name]
        with pytest.raises(TopologyError) as refused:
            topology.check()
        assert str(refused.value) == message

    @pytest.mark.parametrize("name", REFUSED)
    def test_simulate_refuses_within_a_second(self, name):
        topology, message = REFUSED[name]
        with time_limit(1), pytest.raises(TopologyError) as refused:
            simulate(topology, DEFAULT_WORKLOAD, SimParams(duration=2.0))
        assert str(refused.value) == message

    def test_accepts_the_unchanged_parts(self):
        for topology in (hand_built(), with_link(0.0, 0.0, 5e-324), local_topology(2)):
            assert topology.check() is None


def test_local_topology_is_self_assigned():
    topo = local_topology(3)
    assert len(topo.devices) == 3
    assert all(d.role == "worker" for d in topo.devices)
    assert topo.assignment == {
        "endpoint-0": ("endpoint-0",),
        "endpoint-1": ("endpoint-1",),
        "endpoint-2": ("endpoint-2",),
    }
    assert topo.worker_link is None
    assert {len(ids) for ids in topo.assignment.values()} == {1}


def test_local_topology_refuses_what_check_refuses():
    for count, message in ((0, "topology has no workers"), (2.5, "integer endpoint count, got 2.5")):
        with pytest.raises(TopologyError, match=message):
            local_topology(count)
    with pytest.raises(TopologyError, match="needs integer cores >= 1 and a quota in"):
        local_topology(2, quota=0.0)


def test_build_is_deterministic():
    assert build_topology(load_preset("cloud")) == build_topology(load_preset("cloud"))


def test_device_lookup():
    topo = build_topology(load_preset("edge-small"))
    assert topo.device("edge-3").tier == "edge"
    with pytest.raises(KeyError):
        topo.device("edge-99")


class TestWorkloadProfile:
    def test_default_profile(self):
        assert DEFAULT_WORKLOAD.proc_time == {"cloud": 0.14, "edge": 0.14, "endpoint": 0.11}
        assert DEFAULT_WORKLOAD.pre_time == 0.001
        assert DEFAULT_WORKLOAD.rate == 5.0
        assert DEFAULT_WORKLOAD.element_size == 0.54

    def test_data_rate(self):
        assert DEFAULT_WORKLOAD.data_rate == pytest.approx(2.7, abs=1e-12)

    def test_proc_on_unknown_tier(self):
        with pytest.raises(ValueError, match="fog"):
            DEFAULT_WORKLOAD.proc_on("fog")

    def test_with_rate(self):
        doubled = DEFAULT_WORKLOAD.with_rate(10.0)
        assert doubled.rate == 10.0
        assert doubled.proc_time == DEFAULT_WORKLOAD.proc_time

    def test_scale_proc_touches_every_tier(self):
        scaled = DEFAULT_WORKLOAD.scale_proc(2.0)
        assert scaled.proc_on("endpoint") == pytest.approx(0.22)
        assert scaled.proc_on("edge") == pytest.approx(0.28)
        assert scaled.pre_time == DEFAULT_WORKLOAD.pre_time

    @staticmethod
    def _with(field: str, value: float) -> tuple[WorkloadProfile, str]:
        """DEFAULT_WORKLOAD with one field, or one tier's processing time, set
        to ``value``; and the name ``check`` gives that field."""
        if field in DEFAULT_WORKLOAD.proc_time:
            proc = {**DEFAULT_WORKLOAD.proc_time, field: value}
            return dataclasses.replace(DEFAULT_WORKLOAD, proc_time=proc), f"proc_time[{field!r}]"
        return dataclasses.replace(DEFAULT_WORKLOAD, **{field: value}), field

    FIELDS = ("cloud", "edge", "endpoint", "pre_time", "rate", "element_size")

    @pytest.mark.parametrize("field", FIELDS)
    def test_check_refuses_and_names_the_field(self, field):
        for value in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
            workload, name = self._with(field, value)
            with pytest.raises(ValueError) as refused:
                workload.check()
            assert name in str(refused.value), value

    @pytest.mark.parametrize("field", FIELDS)
    def test_check_accepts_zero_and_large_values(self, field):
        for value in (0.0, -0.0, 1e308):
            workload, _ = self._with(field, value)
            assert workload.check() is None


def test_capacity_and_demand_helpers():
    topo = build_topology(load_preset("edge-small"))
    worker = topo.workers[0]
    assert capacity_of(worker) == pytest.approx(1.5)
    assert demand_on_worker(DEFAULT_WORKLOAD, "edge", 2) == pytest.approx(1.4)
