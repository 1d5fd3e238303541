"""Event-driven pipeline simulation against hand-worked queueing oracles."""

from __future__ import annotations

import csv
import dataclasses
import io
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from tierplan.config import parse_config
from tierplan.simulator import (
    PHASES,
    SimParams,
    mean,
    simulate,
    stdev,
    write_trace_csv,
)
from tierplan.config import load_preset
from tierplan.topology import (
    DEFAULT_WORKLOAD,
    Device,
    Topology,
    WorkloadProfile,
    build_topology,
    local_topology,
)

# one cloud worker with a single full-speed core, two endpoints, no network
# delay: arrivals hit a plain FIFO single-server queue
SINGLE_SERVER_CONFIG = """\
[infrastructure]
devices_per_tier = 1,0,2
cores_per_device = 1,0,1
quota_per_cpu = 1.0,0,1.0
cloud_to_endpoint = 0,0
cloud_to_endpoint = 1000
"""

ONE_WORKER_OFFLOAD_CONFIG = """\
[infrastructure]
devices_per_tier = 0,1,1
cores_per_device = 0,2,1
quota_per_cpu = 0,0.75,0.5
edge_to_endpoint = 7.5,0
edge_to_endpoint = 8
"""

# edge-small capacity with twice the endpoints: 186.7% load per worker
OVERLOADED_EDGE_CONFIG = """\
[infrastructure]
devices_per_tier = 0,5,20
cores_per_device = 0,2,1
quota_per_cpu = 0,0.75,0.5
edge_to_endpoint = 7.5,1
edge_to_endpoint = 8

[benchmark]
use_benchmark = True
data_generation_frequency = 5
"""


def uniform_workload(proc: float, rate: float, pre: float = 0.0, size: float = 0.0) -> WorkloadProfile:
    return WorkloadProfile(
        proc_time={"cloud": proc, "edge": proc, "endpoint": proc},
        pre_time=pre,
        rate=rate,
        element_size=size,
    )


class TestDeterministicSingleDevice:
    """Local processing, one element per second, service well under the
    generation interval: every element should take exactly its service time."""

    def run(self):
        topo = local_topology(1, cores=1, quota=1.0)
        return simulate(topo, uniform_workload(proc=0.2, rate=1.0), SimParams(duration=10.5, seed=1))

    def test_every_element_completes(self):
        report = self.run()
        assert report.generated == 11
        assert report.completed == 11
        assert report.backlog == 0

    def test_end_to_end_is_exactly_the_service_time(self):
        report = self.run()
        for rec in report.elements:
            assert rec.phase == "done"
            assert rec.service == 0.2
            assert rec.preprocess == rec.transfer == rec.propagation == rec.queue_wait == 0.0
            assert rec.end_to_end == 0.2

    def test_aggregates(self):
        report = self.run()
        assert report.latency_mean_s == pytest.approx(0.2, abs=1e-12)
        assert report.latency_sd_s == 0.0
        assert report.queueing_mean_s == 0.0
        assert report.communication_mean_s == 0.0


class TestUncontendedOffload:
    """One endpoint, one edge worker, no jitter: each stage contributes a
    closed-form duration and nothing ever queues."""

    def run(self):
        topo = build_topology(parse_config(ONE_WORKER_OFFLOAD_CONFIG))
        return simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=20.0, seed=3))

    def test_first_element_components(self):
        rec = self.run().elements[0]
        assert rec.preprocess == 0.001 / 0.5
        assert rec.transfer == pytest.approx(0.54 / 8.0, abs=1e-12)
        assert rec.propagation == 0.0075
        assert rec.queue_wait == 0.0
        assert rec.service == 0.14 / 0.75

    def test_pipeline_never_queues(self):
        report = self.run()
        assert report.queueing_mean_s == 0.0
        # identical elements up to timestamp rounding
        assert report.latency_sd_s == pytest.approx(0.0, abs=1e-12)

    def test_mean_matches_component_sum(self):
        report = self.run()
        expected = 0.002 + 0.0675 + 0.0075 + 0.14 / 0.75
        assert report.latency_mean_s == pytest.approx(expected, abs=1e-9)
        assert report.communication_mean_s == pytest.approx(0.075, abs=1e-9)
        assert report.compute_mean_s == pytest.approx(0.002 + 0.14 / 0.75, abs=1e-9)


class TestSingleServerQueue:
    """Two endpoints feed one single-core cloud worker that cannot keep up.
    Waiting times must follow the classic single-server recurrence: each
    element starts at max(arrival, previous completion)."""

    def run(self, duration=6.0):
        topo = build_topology(parse_config(SINGLE_SERVER_CONFIG))
        workload = uniform_workload(proc=0.7, rate=1.0)
        return simulate(topo, workload, SimParams(duration=duration, seed=9, warmup=0.0))

    def test_waits_match_recurrence(self):
        report = self.run()
        service = 0.7
        prev_end = 0.0
        for rec in report.elements:
            start = max(rec.generated, prev_end)
            expected_wait = start - rec.generated
            prev_end = start + service
            if rec.phase in ("service", "done"):
                assert rec.queue_wait == expected_wait
            if rec.phase == "done":
                assert rec.completed == pytest.approx(prev_end, abs=1e-12)

    def test_completions_are_paced_by_the_server(self):
        report = self.run()
        # busy from t=0, one completion each 0.7 s, processed through t=6
        assert report.completed == 8
        assert report.generated == 12
        assert report.backlog == 4

    def test_fifo_order_breaks_ties_by_source_seeding_order(self):
        report = self.run()
        first_two = [rec.source for rec in report.elements[:2]]
        assert first_two == ["endpoint-0", "endpoint-1"]
        assert report.elements[0].queue_wait == 0.0
        assert report.elements[1].queue_wait == 0.7


class TestOverload:
    def test_backlog_grows_at_the_predicted_rate(self):
        topo = build_topology(parse_config(OVERLOADED_EDGE_CONFIG))
        params = SimParams(duration=60.0, warmup=6.0, seed=5)
        report = simulate(topo, DEFAULT_WORKLOAD, params)
        # each worker absorbs 2.8 core-s/s against 1.5 available; the
        # difference divided by the per-element cost is the pile-up rate
        per_worker = (2.8 - 1.5) / 0.14
        expected = per_worker * 5 * (60.0 - 6.0)
        growth = report.backlog - report.backlog_at_warmup
        assert growth == pytest.approx(expected, rel=0.05)

    def test_measured_load_reports_the_overload(self):
        topo = build_topology(parse_config(OVERLOADED_EDGE_CONFIG))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=30.0, seed=5))
        for load in report.worker_load_percent.values():
            assert load == pytest.approx(560.0 / 3.0, rel=0.02)

    def test_saturated_workers_stay_busy(self):
        topo = build_topology(parse_config(OVERLOADED_EDGE_CONFIG))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=30.0, seed=5))
        for busy in report.worker_busy_fraction.values():
            assert busy == pytest.approx(1.0, abs=0.02)


class TestStableAgreement:
    def test_measured_load_tracks_the_analytic_value(self):
        topo = build_topology(load_preset("edge-small"))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=40.0, seed=11))
        for load in report.worker_load_percent.values():
            assert load == pytest.approx(280.0 / 3.0, abs=1.0)

    def test_busy_fraction_tracks_utilization(self):
        topo = build_topology(load_preset("edge-small"))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=40.0, seed=11))
        for busy in report.worker_busy_fraction.values():
            assert busy == pytest.approx(0.9333, abs=0.03)


class TestDeterminism:
    def test_same_seed_same_report(self):
        topo = build_topology(load_preset("edge-small"))
        params = SimParams(duration=8.0, seed=7)
        a = simulate(topo, DEFAULT_WORKLOAD, params)
        b = simulate(topo, DEFAULT_WORKLOAD, params)
        assert a.to_dict() == b.to_dict()
        assert a.elements == b.elements

    def test_different_seed_changes_the_jitter(self):
        topo = build_topology(load_preset("edge-small"))
        a = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=8.0, seed=7))
        b = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=8.0, seed=8))
        assert a.latency_mean_s != b.latency_mean_s


class TestConservation:
    def test_every_element_is_in_exactly_one_phase(self):
        topo = build_topology(load_preset("cloud"))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=12.0, seed=2))
        assert sum(report.phase_counts.values()) == report.generated
        assert set(report.phase_counts) == set(PHASES)
        assert report.phase_counts["done"] == report.completed
        assert report.backlog == report.generated - report.completed

    def test_propagation_never_negative(self):
        # jitter comparable to the mean forces the truncation path
        topo = build_topology(load_preset("mist"))
        workload = DEFAULT_WORKLOAD
        report = simulate(topo, workload, SimParams(duration=10.0, seed=13))
        for rec in report.elements:
            assert rec.propagation >= 0.0


class TestLatencyIdentity:
    def test_components_sum_to_the_total(self):
        topo = build_topology(load_preset("edge-large"))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=10.0, seed=4))
        for rec in report.elements:
            if rec.phase != "done":
                continue
            total = rec.preprocess + rec.transfer + rec.propagation + rec.queue_wait + rec.service
            assert rec.end_to_end == total
            assert rec.completed - rec.generated == pytest.approx(total, abs=1e-9)

    def test_breakdown_components_sum_to_the_mean(self):
        topo = build_topology(load_preset("edge-small"))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=20.0, seed=4))
        total = report.communication_mean_s + report.compute_mean_s + report.queueing_mean_s
        assert total == pytest.approx(report.latency_mean_s, abs=1e-9)

    def test_breakdown_needs_measured_elements(self):
        report = simulate(local_topology(1), DEFAULT_WORKLOAD.with_rate(5.0),
                          SimParams(duration=1.0, warmup=0.99, seed=1))
        assert report.measured == 0
        assert report.latency_mean_s is None and report.latency_sd_s is None
        assert report.communication_mean_s is report.compute_mean_s is report.queueing_mean_s is None

    def test_one_measured_element_has_no_spread(self):
        report = simulate(local_topology(1), DEFAULT_WORKLOAD.with_rate(5.0),
                          SimParams(duration=1.0, warmup=0.5, seed=1))
        assert report.measured == 1
        assert report.latency_mean_s is not None and report.latency_sd_s is None

    def test_latencies_whose_sum_overflows_have_a_finite_mean(self):
        # 40 measured latencies of about 1e308 s each: fmean's sum overflows
        workload = WorkloadProfile({"cloud": 1e308}, 0.001, 5.0, 0.54)
        report = simulate(build_topology(load_preset("cloud")), workload,
                          SimParams(duration=1e308, warmup=0.0, max_elements=1))
        assert report.measured == 40
        assert report.latency_mean_s == report.compute_mean_s == pytest.approx(1e308)


def _outcome(function, values):
    """The float's bits, or the overflow ``statistics`` raises for a spread
    beyond the float range."""
    try:
        return function(values).hex()
    except OverflowError:
        return "OverflowError"


class TestStatistics:
    """``stdev`` and ``mean`` give the floats of ``statistics.stdev`` and
    ``statistics.fmean``, bit for bit, on every finite input."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
    @example([0.0, -0.0])
    @example([5e-324, 0.0, -5e-324])
    @example([1e300, 5e-324])  # 2**k * 1e300 overflows: the statistics.stdev fallback
    @example([1.7e308, -1.7e308])  # a spread beyond the float range
    def test_stdev_is_bit_for_bit_statistics_stdev(self, values):
        assert _outcome(stdev, values) == _outcome(statistics.stdev, values)

    def test_stdev_falls_back_where_scaled_values_overflow(self, monkeypatch):
        calls = []
        monkeypatch.setattr(statistics, "stdev", lambda values: calls.append(values) or 1.0)
        assert stdev([0.1, 0.2, 0.3]) != 1.0 and calls == []
        assert stdev([1e300, 5e-324]) == 1.0 and calls == [[1e300, 5e-324]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([1e308, 1e308])  # fsum overflows: the exact statistics.mean
    def test_mean_is_fmean_where_the_sum_is_finite(self, values):
        try:
            expected = statistics.fmean(values)
        except OverflowError:
            expected = statistics.mean(values)
        assert mean(values).hex() == expected.hex()


class TestParams:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(local_topology(1), DEFAULT_WORKLOAD, SimParams(duration=0.0))

    def test_warmup_must_precede_the_end(self):
        with pytest.raises(ValueError):
            simulate(local_topology(1), DEFAULT_WORKLOAD, SimParams(duration=5.0, warmup=5.0))

    def test_default_warmup_is_ten_percent(self):
        assert SimParams(duration=40.0).warmup_s == 4.0
        assert SimParams(duration=40.0, warmup=1.0).warmup_s == 1.0

    def test_without_warmup_nothing_is_left_over_from_it(self):
        report = simulate(build_topology(load_preset("edge-small")), DEFAULT_WORKLOAD,
                          SimParams(duration=2.0, warmup=0.0, seed=1))
        assert report.backlog_at_warmup == 0

    def test_elements_generated_at_the_warmup_instant_count_after_it(self):
        # two endpoints generate at 0, 1, 2, 3 and 4 s and finish each
        # element 0.1 s later; the warmup lands on the instant 2 s
        workload = WorkloadProfile({"endpoint": 0.1}, 0.0, 1.0, 0.0)
        report = simulate(local_topology(2, quota=1.0), workload, SimParams(duration=5.0, warmup=2.0))
        assert report.measured == 6
        assert report.backlog_at_warmup == 0
        assert report.throughput_eps == 6 / 3.0
        # three arrivals of 0.1 core-s each over the 3 s after warmup
        assert report.worker_load_percent == pytest.approx({"endpoint-0": 10.0, "endpoint-1": 10.0})

    def test_rate_must_be_finite(self):
        with pytest.raises(ValueError):
            simulate(local_topology(1), DEFAULT_WORKLOAD.with_rate(float("inf")),
                     SimParams(duration=1.0))

    @pytest.mark.parametrize("field", ["pre_time", "element_size"])
    def test_workload_is_checked(self, field):
        topology = build_topology(load_preset("edge-small"))
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match=field):
                simulate(topology, dataclasses.replace(DEFAULT_WORKLOAD, **{field: value}),
                         SimParams(duration=1.0))

    def test_topology_needs_workers(self):
        lonely = Topology(
            devices=(Device("endpoint-0", "endpoint", 1, 0.5, "source"),),
            worker_link=None,
            assignment={},
        )
        with pytest.raises(ValueError, match="worker"):
            simulate(lonely, DEFAULT_WORKLOAD, SimParams(duration=1.0))

    def test_max_elements_caps_generation(self):
        report = simulate(local_topology(2), uniform_workload(proc=0.01, rate=10.0),
                          SimParams(duration=10.0, max_elements=5))
        assert report.generated == 10
        assert report.completed == 10

    def test_zero_rate_generates_nothing(self):
        report = simulate(local_topology(1), DEFAULT_WORKLOAD.with_rate(0.0),
                          SimParams(duration=5.0))
        assert report.generated == 0
        assert report.latency_mean_s is None


class TestTrace:
    def test_csv_columns_and_rows(self):
        topo = build_topology(parse_config(ONE_WORKER_OFFLOAD_CONFIG))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=5.0, seed=3))
        buffer = io.StringIO()
        write_trace_csv(report, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == report.generated
        first = rows[0]
        assert first["source"] == "endpoint-0"
        assert first["worker"] == "edge-0"
        assert float(first["preprocess_s"]) == 0.002
        assert first["phase"] == "done"

    def test_incomplete_elements_have_no_total(self):
        topo = build_topology(parse_config(OVERLOADED_EDGE_CONFIG))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=10.0, seed=3))
        buffer = io.StringIO()
        write_trace_csv(report, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        pending = [row for row in rows if row["phase"] != "done"]
        assert pending
        assert all(row["end_to_end_s"] == "" for row in pending)


def test_report_dict_has_no_trace():
    """Per-element data leaves a run as ``elements`` or the trace CSV only."""
    report = simulate(local_topology(1), uniform_workload(proc=0.01, rate=1.0),
                      SimParams(duration=2.0))
    data = report.to_dict()
    assert "trace" not in data
    assert data["seed"] == 0
