"""Viability model oracles and the design-space heatmap.

Expected loads are frozen as exact fractions worked out by hand from
demand = seconds-per-element x rate x endpoints-per-worker and
capacity = cores x quota, before comparing with the implementation.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest
from test_topology import REFUSED

from tierplan.analytic import (
    BANDWIDTH,
    DeploymentFamily,
    GridSpec,
    MAX_CELLS,
    NOT_VIABLE,
    OffloadOption,
    PLACEMENTS,
    PREPROCESS_CAPACITY,
    REFERENCE_MARKERS,
    WORKER_CAPACITY,
    classify,
    classify_at,
    family_from_topology,
    heatmap,
    local_viability,
    offload_viability,
    reference_family,
    system_load,
)
from tierplan.config import load_preset
from tierplan.topology import DEFAULT_WORKLOAD, Device, Link, TopologyError, WorkloadProfile, build_topology

EXACT = 1e-9

ENDPOINT = Device("endpoint-0", "endpoint", cores=1, quota=0.5, role="source")
SMALL_EDGE = Device("edge-0", "edge", cores=2, quota=0.75, role="worker")
CLOUD = Device("cloud-1", "cloud", cores=4, quota=1.0, role="worker")
LINK_8MBIT = Link(("edge", "endpoint"), latency_avg_ms=7.5, latency_sd_ms=1.0, throughput_mbit=8.0)


def load_for(workload: WorkloadProfile, target: Device, endpoints: int) -> float:
    return offload_viability(workload, ENDPOINT, target, endpoints, LINK_8MBIT).load_percent


class TestLocalViability:
    """A 1-core endpoint at half quota cannot keep up with 5 Hz of 0.11 s work."""

    def test_verdict(self):
        verdict = local_viability(DEFAULT_WORKLOAD, ENDPOINT)
        assert not verdict.viable
        assert verdict.failed_conditions == (WORKER_CAPACITY,)

    def test_load_is_110_percent(self):
        verdict = local_viability(DEFAULT_WORKLOAD, ENDPOINT)
        # 0.11 x 5 = 0.55 demanded of 0.5 available
        assert verdict.load_percent == pytest.approx(110.0, abs=EXACT)

    def test_single_capacity_check(self):
        verdict = local_viability(DEFAULT_WORKLOAD, ENDPOINT)
        [check] = verdict.checks
        assert check.name == WORKER_CAPACITY
        assert check.demand == pytest.approx(0.55, abs=EXACT)
        assert check.capacity == 0.5
        assert not check.passed

    def test_data_rate_reported_for_information(self):
        verdict = local_viability(DEFAULT_WORKLOAD, ENDPOINT)
        assert verdict.required_bandwidth == pytest.approx(2.7, abs=EXACT)

    def test_fast_endpoint_is_viable(self):
        light = DEFAULT_WORKLOAD.scale_proc(0.5)
        assert local_viability(light, ENDPOINT).viable

    def test_equality_counts_as_viable(self):
        workload = WorkloadProfile(proc_time={"endpoint": 0.1}, pre_time=0.0, rate=5.0, element_size=0.0)
        assert local_viability(workload, ENDPOINT).viable


class TestOffloadViability:
    """Two endpoints sharing a small edge worker fit, at 93.3333% load."""

    def test_verdict(self):
        verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        assert verdict.viable
        assert verdict.failed_conditions == ()

    def test_load_to_four_decimals(self):
        verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        # 0.14 x 5 x 2 = 1.4 demanded of 2 x 0.75 = 1.5 available
        assert verdict.load_percent == pytest.approx(280.0 / 3.0, abs=EXACT)
        assert round(verdict.load_percent, 4) == 93.3333

    def test_all_three_conditions_reported(self):
        verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        by_name = {check.name: check for check in verdict.checks}
        assert set(by_name) == {WORKER_CAPACITY, PREPROCESS_CAPACITY, BANDWIDTH}
        assert all(check.passed for check in verdict.checks)

    def test_preprocess_ratio_is_one_percent(self):
        verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        check = next(c for c in verdict.checks if c.name == PREPROCESS_CAPACITY)
        # 0.001 x 5 against the endpoint's half core
        assert check.demand == pytest.approx(0.005, abs=EXACT)
        assert check.capacity == 0.5
        assert system_load(check.demand, check.capacity) == pytest.approx(1.0, abs=EXACT)

    def test_bandwidth_requirement(self):
        verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        check = next(c for c in verdict.checks if c.name == BANDWIDTH)
        assert check.demand == pytest.approx(2.7, abs=EXACT)
        assert check.capacity == 8.0
        assert verdict.required_bandwidth == pytest.approx(2.7, abs=EXACT)

    def test_every_failure_is_reported_not_just_the_first(self):
        heavy = WorkloadProfile(
            proc_time={"edge": 10.0, "endpoint": 10.0}, pre_time=10.0, rate=5.0, element_size=100.0
        )
        verdict = offload_viability(heavy, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
        assert set(verdict.failed_conditions) == {WORKER_CAPACITY, PREPROCESS_CAPACITY, BANDWIDTH}


class TestCardinalitySweep:
    """Analytic loads across aggregation cardinalities match hand-worked values."""

    @pytest.mark.parametrize(
        "endpoints,expected",
        [(1, 140.0 / 3.0), (2, 280.0 / 3.0), (4, 560.0 / 3.0)],
    )
    def test_small_edge_worker(self, endpoints, expected):
        assert load_for(DEFAULT_WORKLOAD, SMALL_EDGE, endpoints) == pytest.approx(expected, abs=EXACT)

    def test_small_edge_supports_two_endpoints_not_four(self):
        assert load_for(DEFAULT_WORKLOAD, SMALL_EDGE, 2) <= 100.0
        assert load_for(DEFAULT_WORKLOAD, SMALL_EDGE, 4) > 100.0

    @pytest.mark.parametrize("endpoints,expected", [(4, 70.0), (8, 140.0)])
    def test_cloud_worker(self, endpoints, expected):
        assert load_for(DEFAULT_WORKLOAD, CLOUD, endpoints) == pytest.approx(expected, abs=EXACT)

    def test_cloud_supports_four_endpoints_not_eight(self):
        assert load_for(DEFAULT_WORKLOAD, CLOUD, 4) <= 100.0
        assert load_for(DEFAULT_WORKLOAD, CLOUD, 8) > 100.0

    def test_endpoint_only_overloads(self):
        assert local_viability(DEFAULT_WORKLOAD, ENDPOINT).load_percent == pytest.approx(110.0, abs=EXACT)


class TestSystemLoad:
    def test_zero_demand_is_zero_load(self):
        assert system_load(0.0, 1.0) == 0.0
        assert system_load(0.0, 0.0) == 0.0

    def test_positive_demand_on_zero_capacity(self):
        assert system_load(1.0, 0.0) == math.inf

    def test_percentage(self):
        assert system_load(1.4, 1.5) == pytest.approx(280.0 / 3.0, abs=EXACT)


def test_verdict_to_dict_shape():
    verdict = offload_viability(DEFAULT_WORKLOAD, ENDPOINT, SMALL_EDGE, 2, LINK_8MBIT)
    data = verdict.to_dict()
    assert data["viable"] is True
    assert data["failed_conditions"] == []
    assert data["required_bandwidth_mbit"] == pytest.approx(2.7)
    assert [c["name"] for c in data["checks"]] == [WORKER_CAPACITY, PREPROCESS_CAPACITY, BANDWIDTH]


class TestClassify:
    def test_default_policy_prefers_closest(self):
        # the one placement order: closest to the data first
        assert PLACEMENTS == ("endpoint", "edge", "cloud")

    def test_default_workload_lands_on_edge(self):
        family = reference_family()
        assert classify(DEFAULT_WORKLOAD, family) == "edge"

    def test_light_workload_stays_on_endpoint(self):
        family = reference_family()
        assert classify(DEFAULT_WORKLOAD.scale_proc(0.1), family) == "endpoint"

    def test_heavy_workload_is_not_viable(self):
        family = reference_family()
        assert classify(DEFAULT_WORKLOAD.scale_proc(100.0), family) == NOT_VIABLE

    def test_missing_placements_are_skipped(self):
        family = DeploymentFamily(
            endpoint=ENDPOINT,
            options={"cloud": OffloadOption(CLOUD, 4, LINK_8MBIT)},
        )
        # endpoint fails locally, no edge option exists, cloud absorbs it
        assert classify(DEFAULT_WORKLOAD, family) == "cloud"

    def test_peer_option_replaces_local_check(self):
        peer = Device("endpoint-0", "endpoint", cores=2, quota=0.5, role="worker")
        family = DeploymentFamily(
            endpoint=ENDPOINT,
            options={"endpoint": OffloadOption(peer, 1, LINK_8MBIT)},
        )
        # locally 110% but a full peer core makes 55%
        assert classify(DEFAULT_WORKLOAD, family) == "endpoint"


class TestFamilyFromTopology:
    def test_offload_family(self):
        family = family_from_topology(build_topology(load_preset("edge-small")))
        assert family.endpoint.tier == "endpoint"
        [placement] = family.options
        assert placement == "edge"
        option = family.options["edge"]
        assert option.endpoints_per_worker == 2
        assert option.link.throughput_mbit == 8.0

    def test_refuses_what_the_simulator_refuses(self):
        # a NaN latency was classified "edge", and a source assigned twice
        # counted twice towards its worker's load
        for name, (topology, message) in REFUSED.items():
            with pytest.raises(TopologyError) as refused:
                family_from_topology(topology)
            assert str(refused.value) == message, name

    def test_mist_family_offloads_to_peers(self):
        family = family_from_topology(build_topology(load_preset("mist")))
        assert set(family.options) == {"endpoint"}
        assert family.options["endpoint"].worker.role == "worker"

    def test_reference_family_spans_edge_and_cloud(self):
        family = reference_family()
        assert set(family.options) == {"edge", "cloud"}
        assert family.endpoint.cores == 1 and family.endpoint.quota == 0.5


class TestHeatmap:
    def test_grid_spec_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GridSpec(rate_max=0.0)
        with pytest.raises(ValueError):
            GridSpec(proc_max=-1.0)
        with pytest.raises(ValueError):
            GridSpec(rate_max=math.inf)
        with pytest.raises(ValueError):
            GridSpec(proc_max=math.inf)
        with pytest.raises(ValueError):
            GridSpec(rate_steps=1)
        for steps in ({"rate_steps": 2.5}, {"proc_steps": 21.0}):
            with pytest.raises(ValueError, match="must be integers"):
                GridSpec(**steps)

    def test_cell_count_is_bounded_before_anything_is_built(self):
        GridSpec(rate_steps=MAX_CELLS // 2, proc_steps=2)  # exactly at the bound
        tracemalloc.start()
        try:
            for rate_steps, proc_steps in ((MAX_CELLS // 2 + 1, 2), (100_000, 100_000)):
                with pytest.raises(ValueError, match=f"more than the {MAX_CELLS} cells"):
                    GridSpec(rate_steps=rate_steps, proc_steps=proc_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # one cell takes about 120 bytes in heatmap --json

    def test_grid_shape_and_axes(self):
        spec = GridSpec(rate_max=10.0, proc_max=0.5, rate_steps=5, proc_steps=3)
        grid = heatmap(spec, DEFAULT_WORKLOAD, reference_family())
        assert grid.rates == (0.0, 2.5, 5.0, 7.5, 10.0)
        assert grid.proc_times == (0.0, 0.25, 0.5)
        assert len(grid.cells) == 3 and all(len(row) == 5 for row in grid.cells)

    def test_zero_rate_and_zero_proc_are_endpoint_class(self):
        grid = heatmap(GridSpec(), DEFAULT_WORKLOAD, reference_family())
        assert all(row[0] == "endpoint" for row in grid.cells)
        assert all(cell == "endpoint" for cell in grid.cells[0])

    def test_default_grid_contains_all_four_classes(self):
        grid = heatmap(GridSpec(), DEFAULT_WORKLOAD, reference_family())
        labels = {cell for row in grid.cells for cell in row}
        assert labels == {"endpoint", "edge", "cloud", "not-viable"}

    def test_classes_only_escalate_along_each_row(self):
        grid = heatmap(GridSpec(), DEFAULT_WORKLOAD, reference_family())
        rank = {"endpoint": 0, "edge": 1, "cloud": 2, "not-viable": 3}
        for row in grid.cells:
            ranks = [rank[cell] for cell in row]
            assert ranks == sorted(ranks)

    def test_classes_only_escalate_down_each_column(self):
        grid = heatmap(GridSpec(), DEFAULT_WORKLOAD, reference_family())
        rank = {"endpoint": 0, "edge": 1, "cloud": 2, "not-viable": 3}
        for j in range(len(grid.rates)):
            ranks = [rank[row[j]] for row in grid.cells]
            assert ranks == sorted(ranks)

    def test_two_by_two_corners(self):
        spec = GridSpec(rate_max=10.0, proc_max=0.5, rate_steps=2, proc_steps=2)
        grid = heatmap(spec, DEFAULT_WORKLOAD, reference_family())
        assert grid.cells[0] == ("endpoint", "endpoint")
        assert grid.cells[1][0] == "endpoint"
        assert grid.cells[1][1] == "not-viable"

    def test_csv_text_shape(self):
        spec = GridSpec(rate_steps=3, proc_steps=2)
        text = heatmap(spec, DEFAULT_WORKLOAD, reference_family()).to_csv_text()
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("tproc_s/rate_hz,")
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_classify_at_matches_unscaled_classify(self):
        family = reference_family()
        direct = classify(DEFAULT_WORKLOAD, family)
        assert classify_at(DEFAULT_WORKLOAD, family, 5.0, 0.11) == direct

    def test_classify_at_needs_an_anchor(self):
        flat = WorkloadProfile(proc_time={"endpoint": 0.0}, pre_time=0.0, rate=1.0, element_size=0.0)
        with pytest.raises(ValueError):
            classify_at(flat, reference_family(), 1.0, 0.1)


class TestReferenceMarkers:
    def test_marker_coordinates(self):
        labels = [m[0] for m in REFERENCE_MARKERS]
        assert labels == ["A", "B"]
        for _, rate, proc in REFERENCE_MARKERS:
            assert (rate, proc) == (5.0, 0.11)

    def test_markers_are_not_endpoint_class(self):
        family = reference_family()
        for _, rate, proc in REFERENCE_MARKERS:
            assert classify_at(DEFAULT_WORKLOAD, family, rate, proc) != "endpoint"

    def test_markers_are_edge_class(self):
        family = reference_family()
        for _, rate, proc in REFERENCE_MARKERS:
            assert classify_at(DEFAULT_WORKLOAD, family, rate, proc) == "edge"
