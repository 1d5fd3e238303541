"""Event-driven pipeline simulation against hand-worked queueing oracles."""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import statistics
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tierplan.analytic import offload_viability
from tierplan.config import parse_config
from tierplan.simulator import (
    PHASES,
    SimParams,
    _generation_times,
    _serve,
    latency_summary,
    mean,
    simulate,
    stdev,
    write_trace_csv,
)
from tierplan.config import load_preset, tier_pair
from tierplan.topology import (
    DEFAULT_WORKLOAD,
    Device,
    Link,
    Topology,
    WorkloadProfile,
    build_topology,
    local_topology,
)

from serve_oracle import serve
from timeline_oracle import generation_times

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


class TestWorkersByHand:
    """Every worker is reported in sorted-id order, whatever the order of the
    devices and of the assignment's keys, an idle one with zero load."""

    # edge-c and edge-a each serve one endpoint; edge-b serves none
    TOPOLOGY = Topology(
        devices=(*(Device(f"edge-{x}", "edge", 2, 0.5, "worker") for x in "cba"),
                 Device("endpoint-0", "endpoint", 1, 0.5, "source"),
                 Device("endpoint-1", "endpoint", 1, 0.5, "source")),
        worker_link=Link(tier_pair("edge", "endpoint"), 0.0, 0.0, 8.0),
        assignment={"edge-c": ("endpoint-0",), "edge-a": ("endpoint-1",)},
    )

    def test_idle_worker_and_sorted_keys(self):
        # 4 Hz from 0 s: 36 arrivals in [1, 10), 0.1 s each on 2 x 0.5 cores
        # (3.6 core-s over 9 s: 40%), served in 0.2 s on one of 2 cores
        report = simulate(self.TOPOLOGY, uniform_workload(proc=0.1, rate=4.0), SimParams(duration=10.0))
        assert list(report.worker_load_percent) == ["edge-a", "edge-b", "edge-c"]
        assert list(report.worker_busy_fraction) == ["edge-a", "edge-b", "edge-c"]
        assert report.worker_load_percent["edge-b"] == 0.0
        assert report.worker_busy_fraction["edge-b"] == 0.0
        for worker in ("edge-a", "edge-c"):
            assert report.worker_load_percent[worker] == pytest.approx(40.0, rel=1e-12)
            assert report.worker_busy_fraction[worker] == pytest.approx(0.4, rel=1e-12)

    def test_missing_tier_is_refused_before_the_element_budget(self):
        # a run of about 2e10 elements, on workers whose tier has no time
        workload = WorkloadProfile({"cloud": 0.1}, 0.0, 1e9, 0.0)
        with pytest.raises(ValueError, match="no processing time for tier 'edge'"):
            simulate(self.TOPOLOGY, workload, SimParams(duration=10.0))


class TestPreprocessLimit:
    """The model gives an endpoint cores x quota of preprocessing capacity,
    and so must the simulator: offload is viable exactly where the backlog
    stops growing."""

    @pytest.mark.parametrize("load", [0.8, 0.95, 1.05, 1.25])
    @pytest.mark.parametrize("quota", [0.5, 1.0])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_viable_exactly_where_the_backlog_is_bounded(self, cores, quota, load):
        topo = build_topology(parse_config(
            "[infrastructure]\ndevices_per_tier = 0,2,4\n"
            f"cores_per_device = 0,2,{cores}\nquota_per_cpu = 0,1.0,{quota}\n"
            "edge_to_endpoint = 7.5,0\nedge_to_endpoint = 100\n"))
        rate = 5.0
        workload = uniform_workload(0.01, rate, pre=load * cores * quota / rate, size=0.54)
        endpoint, worker = topo.device("endpoint-0"), topo.device("edge-0")
        viable = offload_viability(workload, endpoint, worker, 2, topo.worker_link).viable
        half, full = (simulate(topo, workload, SimParams(duration=d, seed=3)) for d in (40.0, 80.0))
        growth = full.backlog - half.backlog
        assert viable == (growth <= 0.02 * (full.generated - half.generated)), (viable, growth)
        assert viable == (load <= 1.0)


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
    ``statistics.fmean``, bit for bit, on every finite input, and
    ``latency_summary`` the float of ``mean`` and of ``statistics.stdev``."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
    @example([0.0, -0.0])
    @example([5e-324, 0.0, -5e-324])
    @example([1e300, 5e-324])  # 2**k * 1e300 overflows: the statistics.stdev fallback
    @example([1.7e308, -1.7e308])  # a spread beyond the float range
    @example([(i % 97) / 7 - 3.0 for i in range(1300)])  # three chunks of integer sums
    @example([5e-324, *[0.25] * 600, 1e300])  # the scaled 1e300 overflows in the second chunk
    def test_stdev_is_bit_for_bit_statistics_stdev(self, values):
        expected = _outcome(statistics.stdev, values)
        assert _outcome(stdev, values) == expected
        assert _outcome(stdev, array("d", values)) == expected  # as simulate passes them

    def test_stdev_falls_back_where_scaled_values_overflow(self, monkeypatch):
        calls = []
        monkeypatch.setattr(statistics, "stdev", lambda values: calls.append(values) or 1.0)
        assert stdev([0.1, 0.2, 0.3]) != 1.0 and calls == []
        assert stdev([1e300, 5e-324]) == 1.0 and calls == [[1e300, 5e-324]]
        assert stdev(array("d", [1e300, 5e-324])) == 1.0 and calls[1] == array("d", [1e300, 5e-324])
        assert stdev([0.5, math.nan]) == 1.0 and len(calls) == 3  # int(nan) raises ValueError

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([1e308, 1e308])  # fsum overflows: the exact statistics.mean
    def test_mean_is_fmean_where_the_sum_is_finite(self, values):
        try:
            expected = statistics.fmean(values)
        except OverflowError:
            expected = statistics.mean(values)
        assert mean(values).hex() == expected.hex()
        assert mean(array("d", values)).hex() == expected.hex()  # as simulate passes them

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=40), min_size=4, max_size=4))
    @example([[], [], [], []])  # nothing measured: no mean
    @example([[0.5], [0.25], [0.0], [0.25]])  # one value: no sd
    @example([[0.5, 0.25], [1e308, 1e308], [0.0, 0.0], [0.25, 0.0]])  # a component's sum overflows
    def test_latency_summary_is_mean_and_stdev(self, columns):
        """The latencies' mean and sd, then each component's mean, from
        durations as ``simulate`` measures them."""
        summary = latency_summary(*map(iter, columns))  # iterators, as simulate passes them
        latencies = columns[0]
        assert repr(summary.pop("latency_sd_s")) == repr(statistics.stdev(latencies) if len(latencies) > 1 else None)
        assert list(summary) == ["latency_mean_s", "communication_mean_s", "compute_mean_s", "queueing_mean_s"]
        assert list(map(repr, summary.values())) == [repr(mean(values) if values else None) for values in columns]


def _served(function, arrivals: list[float], cores: int, s: float, duration: float, warmup: float) -> tuple:
    """What ``function``, ``_serve`` or its oracle, writes and returns for
    one worker whose elements arrive at ``arrivals`` (sorted): its elements
    have the odd ids, the first to arrive the highest, and the even ids
    belong to elements it does not serve."""
    arrivals = [a for a in arrivals if a <= duration]  # as simulate builds a worker's order
    n = 2 * len(arrivals) + 1
    order = [2 * (len(arrivals) - i) - 1 for i in range(len(arrivals))]  # odd ids, last first
    arrival = array("d", [math.inf]) * n
    for e, a in zip(order, arrivals):
        arrival[e] = a
    columns = SimpleNamespace(phase=bytearray(n), completed=array("d", [math.nan]) * n,
                              queue_wait=array("d", [0.0]) * n)
    arrived, busy = function(columns, order, arrival, cores, s, duration, warmup)
    return ([x.hex() for x in columns.queue_wait], [x.hex() for x in columns.completed], bytes(columns.phase),
            arrived, busy.hex())


class TestServe:
    """``_serve`` writes each element's wait, completion and phase and
    returns the arrivals and busy time of the per-element loop it
    replaced (``tests/serve_oracle.py``), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), max_size=60).map(sorted),
           st.integers(1, 8), st.one_of(st.just(0.0), st.floats(0.0, 10.0)), st.floats(0.01, 60.0),
           st.floats(0.0, 60.0))
    @example([], 2, 1.0, 3.0, 0.5)  # an idle worker
    @example([0.0, 0.0, 1.0, 2.0], 1, 0.0, 3.0, 0.5)  # no service time
    @example([0.1, 0.2], 8, 1.0, 10.0, 1.0)  # more cores than elements
    @example([0.0, 0.0, 0.0], 4, 10.0, 5.0, 1.0)  # every started element still in service
    @example([0.0] * 8, 2, 1.0, 2.5, 0.0)  # elements left queued
    @example([0.0, 1.0, 2.0, 3.0], 1, 2.0, 5.0, 4.0)  # warmup > duration - s
    def test_serve_matches_the_loop_it_replaced(self, arrivals, cores, s, duration, warmup):
        assume(warmup < duration)
        assert _served(_serve, arrivals, cores, s, duration, warmup) == \
            _served(serve, arrivals, cores, s, duration, warmup)


class TestParams:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(local_topology(1), DEFAULT_WORKLOAD, SimParams(duration=0.0))

    def test_warmup_must_precede_the_end(self):
        with pytest.raises(ValueError):
            simulate(local_topology(1), DEFAULT_WORKLOAD, SimParams(duration=5.0, warmup=5.0))

    # a field that is not an int or a float (a bool being neither), or a
    # count or seed that is not an int, is refused by name before anything
    # runs: a seed of None ran from an OS-random seed, and [1] raised
    # TypeError
    @pytest.mark.parametrize("fields, name", [
        ({"duration": "4"}, "duration"),
        ({"duration": None}, "duration"),
        ({"duration": True}, "duration"),
        ({"duration": 4.0, "warmup": "1"}, "warmup"),
        ({"duration": 4.0, "warmup": True}, "warmup"),
        ({"duration": 4.0, "max_elements": 2.5}, "max_elements"),
        ({"duration": 4.0, "max_elements": True}, "max_elements"),
        ({"duration": 4.0, "seed": None}, "seed"),
        ({"duration": 4.0, "seed": "x"}, "seed"),
        ({"duration": 4.0, "seed": 1.5}, "seed"),
        ({"duration": 4.0, "seed": True}, "seed"),
        ({"duration": 4.0, "seed": [1]}, "seed"),
        ({"duration": 10**5000}, "duration"),  # raised OverflowError
        ({"duration": 4.0, "warmup": 10**5000}, "warmup"),  # its repr raised ValueError
    ])
    def test_field_of_the_wrong_type_is_refused(self, fields, name):
        with pytest.raises(ValueError, match=name):
            SimParams(**fields)

    def test_int_duration_and_warmup_run(self):
        report = simulate(local_topology(1), DEFAULT_WORKLOAD, SimParams(duration=4, warmup=1, max_elements=3))
        assert report.generated == 3

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

    def test_huge_int_duration_is_refused_by_the_budget(self):
        """An int duration times an int rate was an exact int that the
        budget message could not format: OverflowError."""
        workload = WorkloadProfile(DEFAULT_WORKLOAD.proc_time, 0.001, 10, 0.54)
        with pytest.raises(ValueError, match="about inf elements"):
            simulate(build_topology(load_preset("cloud")), workload, SimParams(duration=10**308))

    def test_huge_int_processing_time_loads_inf(self):
        """The arrivals times an int processing time was an exact int too
        large to divide by the window as a float: OverflowError."""
        report = simulate(local_topology(1), WorkloadProfile({"endpoint": 10**308}, 0, 5, 0), SimParams(duration=4))
        assert report.worker_load_percent == {"endpoint-0": math.inf}

    def test_a_cap_beyond_sys_maxsize_caps_nothing(self):
        topology = build_topology(load_preset("mist"))
        capped = simulate(topology, DEFAULT_WORKLOAD, SimParams(duration=4, max_elements=10**30))
        assert capped.generated == 200
        assert capped.to_dict() == simulate(topology, DEFAULT_WORKLOAD, SimParams(duration=4)).to_dict()


class TestTimeline:
    """``_generation_times`` gives the floats of the loop it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(rate=st.one_of(st.integers(0, 1000), st.floats(0.0, 1000.0)),
           duration=st.one_of(st.integers(1, 100), st.floats(1e-3, 100.0)),
           cap=st.one_of(st.none(), st.integers(1, 50), st.just(10**30)))
    @example(rate=0, duration=5, cap=None)
    @example(rate=10, duration=1, cap=None)  # 0.1 added up ten times falls short of 1
    @example(rate=3.0, duration=1e-3, cap=10**30)
    def test_same_floats_as_the_loop(self, rate, duration, cap):
        assert list(map(repr, _generation_times(rate, duration, cap))) == \
            list(map(repr, generation_times(rate, duration, cap)))


def traced_bytes_per_element(topology, params):
    """The run's report, and the bytes ``tracemalloc`` sees its simulation
    peak at and keep, per element."""
    tracemalloc.start()
    try:
        report = simulate(topology, DEFAULT_WORKLOAD, params)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak / report.generated, retained / report.generated


def test_columns_stay_small_per_element():
    """Only propagation, queue wait, completion time and phase are kept per
    element, as typed arrays: simulating 80,040 elements peaks under 50
    bytes per element, and the report keeps under 36."""
    report, peak, retained = traced_bytes_per_element(build_topology(load_preset("cloud")),
                                                      SimParams(duration=400.0, seed=1))
    assert report.generated == 80_040
    assert peak < 50
    assert retained < 36


def test_columns_stay_small_with_many_sources():
    """Service times are kept per source and expanded without a copy: 1,000
    sources for 5 rounds peak under 86 bytes per element (an
    ``itertools.cycle`` over the per-source times peaks at about 89) and keep
    under 54."""
    config = dataclasses.replace(load_preset("edge-large"), devices_per_tier=(1, 250, 1000))
    report, peak, retained = traced_bytes_per_element(build_topology(config), SimParams(duration=1.0, seed=1))
    assert report.generated == 5_000
    assert peak < 86
    assert retained < 54


@pytest.mark.parametrize(("topology", "peak_bound", "kept_bound"), [
    (local_topology(1, quota=1.0), 134, 36),
    (local_topology(1, quota=0.5), 155, 36),
    (build_topology(parse_config(ONE_WORKER_OFFLOAD_CONFIG)), 159, 52),
], ids=["local", "local-overloaded", "offload"])
def test_columns_of_one_source(topology, peak_bound, kept_bound):
    """One source's worker holds its order, arrivals and starts as Python
    lists, one item per element: 20,001 elements peak at about 131 bytes per
    element (local), 152 (local, where every start waits, so each is a new
    float) and 155 (one offloading endpoint), and keep about 34 to 50."""
    report, peak, retained = traced_bytes_per_element(topology, SimParams(duration=4000.0, seed=1))
    assert report.generated == 20_001
    assert peak < peak_bound
    assert retained < kept_bound


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
        """An element not done shows no end-to-end latency, no completion and
        a service of 0.0, in the trace and in ``report.elements`` alike, also
        one caught in service at the end."""
        topo = build_topology(parse_config(OVERLOADED_EDGE_CONFIG))
        report = simulate(topo, DEFAULT_WORKLOAD, SimParams(duration=10.0, seed=3))
        buffer = io.StringIO()
        write_trace_csv(report, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        pending = [row for row in rows if row["phase"] != "done"]
        assert pending
        assert all(row["end_to_end_s"] == "" and row["completed_s"] == "" for row in pending)
        assert all(row["service_s"] == "0.0" for row in pending)
        records = [record for record in report.elements if record.phase != "done"]
        assert [record.phase for record in records] == [row["phase"] for row in pending]
        assert "service" in {record.phase for record in records}
        assert all(record.service == 0.0 and record.completed is None for record in records)


def test_report_dict_has_no_trace():
    """Per-element data leaves a run as ``elements`` or the trace CSV only."""
    report = simulate(local_topology(1), uniform_workload(proc=0.01, rate=1.0),
                      SimParams(duration=2.0))
    data = report.to_dict()
    assert "trace" not in data
    assert data["seed"] == 0
