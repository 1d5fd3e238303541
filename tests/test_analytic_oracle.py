"""The verdict builder and the placement walk of ``tierplan.analytic``
against the versions they replaced (``tests/analytic_oracle.py``): every
verdict equal, compared by ``repr`` so that -0.0 and NaN count, and every
class equal."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import analytic_oracle as oracle
from test_properties import GRID_FAMILIES, cardinalities, grid_workloads, magnitudes, nonnegative, tied_cases
from tierplan.analytic import (
    PLACEMENTS,
    DeploymentFamily,
    OffloadOption,
    _linspace,
    classify,
    local_viability,
    offload_viability,
    reference_family,
)
from tierplan.config import TIERS, tier_pair
from tierplan.topology import Device, Link, WorkloadProfile

devices = st.builds(lambda tier, cores, quota: Device(f"{tier}-0", tier, cores, quota, "worker"),
                    st.sampled_from(TIERS), st.integers(min_value=1, max_value=16), nonnegative)
options = st.builds(OffloadOption, devices, cardinalities,
                    st.builds(lambda throughput: Link(tier_pair("edge", "endpoint"), 1.0, 0.0, throughput),
                              nonnegative))
# any subset of the placements, so peer "endpoint" options and missing
# placements both occur, plus a label outside PLACEMENTS that both skip
drawn_families = st.builds(
    lambda endpoint, options: DeploymentFamily(endpoint=endpoint, options=options),
    devices, st.dictionaries(st.sampled_from(PLACEMENTS + ("fog",)), options, max_size=4),
)
families = st.one_of(st.sampled_from([GRID_FAMILIES[name] for name in sorted(GRID_FAMILIES)]), drawn_families)


def assert_agrees_with_oracle(workload: WorkloadProfile, family: DeploymentFamily) -> None:
    endpoint = family.endpoint
    assert repr(local_viability(workload, endpoint)) == repr(oracle.local_viability(workload, endpoint))
    for option in family.options.values():
        args = (workload, endpoint, option.worker, option.endpoints_per_worker, option.link)
        assert repr(offload_viability(*args)) == repr(oracle.offload_viability(*args))
    assert classify(workload, family) == oracle.classify(workload, family)


class TestAnalyticMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(grid_workloads, families, magnitudes, st.one_of(nonnegative, st.just(-0.0)))
    def test_verdicts_and_classes(self, workload, family, factor, rate):
        # a large factor overflows the processing times to inf, and a rate
        # of 0 then makes the demand NaN
        assert_agrees_with_oracle(workload.scale_proc(factor).with_rate(rate), family)

    @settings(max_examples=200, deadline=None)
    @given(tied_cases())
    def test_loads_of_exactly_100_percent(self, case):
        spec, workload, family = case
        anchor = workload.proc_on("endpoint")
        for proc in _linspace(spec.proc_max, spec.proc_steps):
            for rate in _linspace(spec.rate_max, spec.rate_steps):
                assert_agrees_with_oracle(workload.scale_proc(proc / anchor).with_rate(rate), family)


def _outcome(classify_fn, workload: WorkloadProfile, family: DeploymentFamily) -> str:
    """The class, or the error raised instead."""
    try:
        return classify_fn(workload, family)
    except ValueError as exc:
        return repr(exc)


NO_CLOUD_TIME = WorkloadProfile(proc_time={"endpoint": 0.11, "edge": 0.14}, pre_time=0.001, rate=5.0,
                                element_size=0.54)
REFERENCE = reference_family()


class TestWorkloadWithoutCloudTime:
    """The reference family offers the cloud last: a class found before it
    never reads the missing time, and one that reaches it raises."""

    @pytest.mark.parametrize("rate, expected", [
        (1.0, "endpoint"), (5.0, "edge"), (10.0, "ValueError(\"workload has no processing time for tier 'cloud'\")"),
    ])
    def test_outcomes(self, rate, expected):
        workload = NO_CLOUD_TIME.with_rate(rate)
        assert _outcome(classify, workload, REFERENCE) == expected
        assert _outcome(oracle.classify, workload, REFERENCE) == expected

    @settings(max_examples=200, deadline=None)
    @given(nonnegative)
    @example(0.0)
    def test_same_outcome_at_every_rate(self, rate):
        workload = NO_CLOUD_TIME.with_rate(rate)
        assert _outcome(classify, workload, REFERENCE) == _outcome(oracle.classify, workload, REFERENCE)
