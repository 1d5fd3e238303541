"""A fuzzer over hand-built inputs: ``simulate`` either refuses an input with
a ValueError or returns a report whose numbers are all finite and whose
latencies are non-negative.

Hypothesis builds ``Device``s, a ``Link``, a ``Topology`` and ``SimParams``
directly, not from a config: usable values mixed with NaN, infinities,
negatives, zero, a fractional core count, and assignments that name no
device, a device twice, a source as a worker or a worker beside other
sources.  Usable values stay in ranges where loads cannot overflow to
infinity (a quota of 5e-324, say), which ``simulate`` reports as it is and
the CLI refuses as documented.  Every example runs under a ``signal.alarm``
limit, so an input that makes the engine loop fails instead of hanging the
suite; the inputs that used to hang it are pinned as examples.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import example, given, settings, strategies as st
from test_topology import REFUSED, time_limit

from tierplan.config import TIERS, tier_pair
from tierplan.simulator import SimParams, simulate
from tierplan.topology import Device, Link, Topology, WorkloadProfile

finite = dict(allow_nan=False, allow_infinity=False)
ODD = (math.nan, math.inf, -math.inf, -1.0, -1e6, 0.0)  # refused, except 0 for a latency


def rarely(usable: st.SearchStrategy, odd: tuple) -> st.SearchStrategy:
    """A usable value, one time in ten an odd one."""
    return st.integers(0, 9).flatmap(lambda k: usable if k else st.sampled_from(odd))


def numbers(low: float, high: float, odd: tuple = ODD) -> st.SearchStrategy:
    return rarely(st.floats(min_value=low, max_value=high, **finite), odd)


quotas = numbers(0.05, 1.0, ODD + (1.5,))
core_counts = rarely(st.sampled_from([1, 2, 4]), (0, -1, 2.5))


@st.composite
def topologies(draw) -> Topology:
    n_workers = draw(st.integers(min_value=1, max_value=3))
    local = draw(st.booleans())
    tier = "endpoint" if local else draw(st.sampled_from(TIERS))
    workers = [Device(f"w{i}", tier, draw(core_counts), draw(quotas), "worker") for i in range(n_workers)]
    if local:  # every worker processes its own elements
        devices, assignment = workers, {w.id: (w.id,) for w in workers}
    else:
        shared_quota = draw(quotas)
        sources = [Device(f"s{i}", "endpoint", 1, shared_quota if draw(st.integers(0, 4)) else draw(quotas),
                          "source") for i in range(draw(st.integers(min_value=1, max_value=4)))]
        devices = workers + sources
        assignment = {w.id: tuple(s.id for s in sources[i::n_workers]) for i, w in enumerate(workers)}
    fault = draw(rarely(st.none(), ("ghost", "twice", "source key", "self and others")))
    w0 = workers[0].id
    if fault == "ghost":
        assignment[w0] += ("nowhere",)
    elif fault == "twice":
        assignment[w0] += (devices[-1].id,)
    elif fault == "source key":
        assignment[devices[-1].id] = ()
    elif fault == "self and others" and len(devices) > 1:
        assignment[w0] = (w0, devices[1].id)
    link = draw(st.none() | st.builds(Link, st.just(tier_pair(tier, "endpoint")), numbers(0.0, 300.0),
                                      numbers(0.0, 100.0), numbers(0.5, 100.0, ODD + (5e-324,))))
    if not local and draw(st.integers(0, 9)):  # an offloading topology mostly has its link
        link = link or Link(tier_pair(tier, "endpoint"), 7.5, 5.0, 8.0)
    return Topology(tuple(devices), link, assignment)


workloads = st.builds(
    lambda proc, pre, rate, size: WorkloadProfile(dict.fromkeys(TIERS, proc), pre, rate, size),
    st.floats(min_value=0.0, max_value=0.5, **finite), st.floats(min_value=0.0, max_value=0.01, **finite),
    st.floats(min_value=0.0, max_value=10.0, **finite), st.floats(min_value=0.0, max_value=1.0, **finite))
params = st.builds(SimParams, st.floats(min_value=0.01, max_value=4.0, **finite), st.none(),
                   st.integers(min_value=0, max_value=2**32), st.none() | st.integers(min_value=1, max_value=20))

USUAL = WorkloadProfile(dict.fromkeys(TIERS, 0.14), 0.001, 5.0, 0.54)
FOUR_SECONDS = SimParams(duration=4.0, seed=1)
PINNED = ("NaN latency", "-1e6 ms latency, sd 1", "-1 ms latency", "worker quota 0", "source quota 0",
          "throughput 0", "0 cores", "source assigned twice")


def pinned(test):
    """The refused topologies that used to hang, crash or mislead
    ``simulate``, as examples."""
    for name in reversed(PINNED):
        test = example(REFUSED[name][0], USUAL, FOUR_SECONDS)(test)
    return test


def report_numbers(value) -> list[float]:
    if isinstance(value, dict):
        return [n for item in value.values() for n in report_numbers(item)]
    return [] if value is None else [value]


@settings(max_examples=400, deadline=None)
@given(topologies(), workloads, params)
@pinned
def test_simulate_refuses_or_reports_finite_numbers(topology, workload, params):
    with time_limit(4):
        try:
            report = simulate(topology, workload, params)
        except ValueError:
            return
    numbers = report_numbers(report.to_dict())
    assert all(math.isfinite(n) for n in numbers), report.to_dict()
    latencies = (report.latency_mean_s, report.latency_sd_s, report.communication_mean_s,
                 report.compute_mean_s, report.queueing_mean_s)
    assert all(value >= 0 for value in latencies if value is not None), latencies
    for record in report.elements:
        parts = dataclasses.astuple(record)[4:9]
        assert all(part >= 0 for part in parts), record
