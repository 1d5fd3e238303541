"""Topology construction from configs and the workload profile."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import jsonschema
import pytest

from tierplan.config import MAX_DEVICES, load_preset, parse_config, validate
from tierplan.topology import (
    DEFAULT_WORKLOAD,
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
        assert topo.endpoints_per_worker == 4
        assert topo.worker_link.tiers == ("cloud", "endpoint")
        assert topo.worker_link.latency_avg_ms == 45.0

    def test_edge_large_preset(self):
        topo = build_topology(load_preset("edge-large"))
        assert len(topo.workers) == 10
        assert all(d.tier == "edge" for d in topo.workers)
        # the lone cloud device coordinates, it does not process
        assert [d.id for d in topo.devices if d.role == "controller"] == ["cloud-0"]
        assert topo.endpoints_per_worker == 4
        assert topo.worker_link.latency_avg_ms == 30.0

    def test_edge_small_preset(self):
        topo = build_topology(load_preset("edge-small"))
        assert len(topo.workers) == 10
        assert len(topo.sources) == 20
        assert topo.endpoints_per_worker == 2
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
        assert topo.endpoints_per_worker == 1

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
    assert topo.endpoints_per_worker == 1


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
