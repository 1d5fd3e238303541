"""Config parsing, validation diagnostics, rendering, and presets."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from tierplan.config import (
    BenchmarkConfig,
    ConfigError,
    DeploymentConfig,
    PRESET_NAMES,
    check_config,
    load_preset,
    parse_config,
    render_config,
    tier_pair,
    validate,
    worker_plan,
)
from tierplan.topology import build_topology


def errors_of(diags):
    return [d for d in diags if d.severity == "error"]


def warnings_of(diags):
    return [d for d in diags if d.severity == "warning"]


class TestFullConfig:
    def test_parses_with_zero_errors(self, full_config_text):
        config, diags = check_config(full_config_text)
        assert config is not None
        assert errors_of(diags) == []

    def test_emulation_keys_warn_and_are_retained(self, full_config_text):
        config, diags = check_config(full_config_text)
        assert {d.key for d in warnings_of(diags)} == {
            "hypervisor",
            "thread_pinning",
            "machine_address",
        }
        assert config.hypervisor == "qemu"
        assert config.thread_pinning is True
        assert config.machine_address == ("192.168.1.1", "192.168.1.2")

    def test_parsed_values(self, full_config_text):
        config = parse_config(full_config_text)
        assert config.devices_per_tier == (10, 0, 40)
        assert config.cores_per_device == (4, 0, 1)
        assert config.quota_per_cpu == (1.0, 0.0, 0.5)
        assert config.latency[tier_pair("cloud", "endpoint")] == (45.0, 5.0)
        assert config.latency[tier_pair("cloud", "cloud")] == (1.0, 0.0)
        assert config.throughput[tier_pair("cloud", "endpoint")] == 8.0
        assert config.throughput[tier_pair("cloud", "cloud")] == 1000.0

    def test_benchmark_section(self, full_config_text):
        config = parse_config(full_config_text)
        assert config.benchmark.use_benchmark is True
        assert config.benchmark.data_generation_frequency == 5.0
        assert config.benchmark.application == "image_classification"
        assert config.benchmark.resource_manager == "kubernetes"

    def test_tier_pair_key_disambiguated_by_arity(self, full_config_text):
        # cloud_to_endpoint appears twice: "45,5" is the latency entry,
        # "8" the throughput entry for the same pair.
        config = parse_config(full_config_text)
        pair = tier_pair("cloud", "endpoint")
        assert pair in config.latency and pair in config.throughput


class TestParseErrors:
    def test_duplicate_latency_entry(self):
        text = (
            "[infrastructure]\n"
            "devices_per_tier = 1,0,2\n"
            "cores_per_device = 1,0,1\n"
            "quota_per_cpu = 1,0,0.5\n"
            "cloud_to_endpoint = 45,5\n"
            "cloud_to_endpoint = 50,5\n"
            "cloud_to_endpoint = 8\n"
        )
        config, diags = check_config(text)
        assert config is None
        assert any("duplicate" in d.message for d in errors_of(diags))

    def test_duplicate_scalar_key(self, minimal_config_text):
        text = minimal_config_text + "devices_per_tier = 0,1,2\n"
        config, diags = check_config(text)
        assert config is None
        assert any(d.key == "devices_per_tier" and "duplicate" in d.message for d in errors_of(diags))

    def test_unknown_key_reports_line_number(self, minimal_config_text):
        text = minimal_config_text + "grault = 1\n"
        config, diags = check_config(text)
        assert config is None
        [diag] = errors_of(diags)
        assert diag.key == "grault"
        assert "line 7" in diag.message

    def test_unknown_section(self):
        config, diags = check_config("[netwrk]\nfoo = 1\n")
        assert config is None
        assert any("netwrk" in d.message for d in errors_of(diags))

    def test_missing_infrastructure_section(self):
        config, diags = check_config("[benchmark]\nuse_benchmark = False\n")
        assert config is None
        assert any("[infrastructure]" in d.message for d in errors_of(diags))

    def test_missing_required_key(self):
        config, diags = check_config("[infrastructure]\ndevices_per_tier = 1,0,2\n")
        assert config is None
        missing = {d.message for d in errors_of(diags)}
        assert any("cores_per_device" in m for m in missing)
        assert any("quota_per_cpu" in m for m in missing)

    def test_triple_arity_enforced(self):
        config, diags = check_config("[infrastructure]\ndevices_per_tier = 1,0\n")
        assert config is None
        assert any("three comma-separated values" in d.message for d in errors_of(diags))

    def test_non_numeric_value(self, minimal_config_text):
        text = minimal_config_text.replace("7.5,0", "fast,0")
        config, diags = check_config(text)
        assert config is None

    def test_non_integer_device_count(self, minimal_config_text):
        text = minimal_config_text.replace("devices_per_tier = 0,1,2", "devices_per_tier = 0,1.5,2")
        config, diags = check_config(text)
        assert config is None

    def test_malformed_line_without_equals(self, minimal_config_text):
        config, diags = check_config(minimal_config_text + "not a key value line\n")
        assert config is None

    def test_parse_config_raises_with_diagnostics(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[infrastructure]\ndevices_per_tier = 1,0\n")
        assert exc_info.value.diagnostics
        assert all(d.severity in ("error", "warning") for d in exc_info.value.diagnostics)


class TestValidate:
    def test_quota_above_one_rejected(self, minimal_config_text):
        text = minimal_config_text.replace("0,0.75,0.5", "0,1.5,0.5")
        config, diags = check_config(text)
        assert config is None
        assert any(d.key == "quota_per_cpu" for d in errors_of(diags))

    def test_quota_zero_on_populated_tier_rejected(self, minimal_config_text):
        text = minimal_config_text.replace("0,0.75,0.5", "0,0,0.5")
        config, diags = check_config(text)
        assert config is None

    def test_unpopulated_tier_ignores_quota(self, minimal_config_text):
        # cloud has no devices, so its zero quota and zero cores are fine
        config, diags = check_config(minimal_config_text)
        assert config is not None
        assert diags == []

    def test_negative_latency_rejected(self, minimal_config_text):
        text = minimal_config_text.replace("7.5,0", "-1,0")
        config, diags = check_config(text)
        assert config is None

    def test_missing_worker_link_latency(self):
        text = (
            "[infrastructure]\n"
            "devices_per_tier = 0,1,2\n"
            "cores_per_device = 0,2,1\n"
            "quota_per_cpu = 0,0.75,0.5\n"
            "edge_to_endpoint = 8\n"
        )
        config, diags = check_config(text)
        assert config is None
        assert any("latency" in d.message for d in errors_of(diags))

    def test_referenced_throughput_must_be_positive(self, minimal_config_text):
        text = minimal_config_text.replace("edge_to_endpoint = 8", "edge_to_endpoint = 0")
        config, diags = check_config(text)
        assert config is None

    def test_unreferenced_throughput_zero_is_a_warning(self, minimal_config_text):
        text = minimal_config_text + "cloud_to_cloud = 1,0\ncloud_to_cloud = 0\n"
        config, diags = check_config(text)
        assert config is not None
        assert any(d.severity == "warning" and d.key == "cloud_to_cloud" for d in diags)

    def test_indivisible_endpoints_rejected(self, minimal_config_text):
        text = minimal_config_text.replace("devices_per_tier = 0,1,2", "devices_per_tier = 0,2,3")
        config, diags = check_config(text)
        assert config is None
        assert any(d.key == "devices_per_tier" for d in errors_of(diags))

    def test_validate_accepts_all_presets_clean(self):
        for name in PRESET_NAMES:
            assert validate(load_preset(name)) == []

    def test_config_without_endpoints_is_rejected(self):
        for counts in ("0,1,0", "1,0,0"):
            text = (f"[infrastructure]\ndevices_per_tier = {counts}\ncores_per_device = 1,1,0\n"
                    "quota_per_cpu = 1,1,0\ncloud_to_endpoint = 1,0\ncloud_to_endpoint = 8\n"
                    "edge_to_endpoint = 1,0\nedge_to_endpoint = 8\n")
            config, diags = check_config(text)
            assert config is None, counts
            assert [d.key for d in errors_of(diags)] == ["devices_per_tier"], counts
            assert "no data-generating endpoints" in errors_of(diags)[0].message


def replaced(config, **changes):
    """``config`` with fields of it and of its benchmark replaced."""
    benchmark = {f.name: changes.pop(f.name) for f in dataclasses.fields(BenchmarkConfig) if f.name in changes}
    changes.setdefault("benchmark", dataclasses.replace(config.benchmark, **benchmark))
    return dataclasses.replace(config, **changes)


TEXT_BASE = load_preset("edge-small")
LINK = ("edge", "endpoint")
UNWRITABLE_TEXT = [
    {"application": " x"}, {"application": "x "}, {"application": "\tx"},
    {"application": "a\n[benchmark]"}, {"resource_manager": "a\rb"}, {"hypervisor": "kvm\u2028"},
    {"hypervisor": " "}, {"machine_address": ()}, {"machine_address": ("10.0.0.1", "")},
    {"machine_address": ("10.0.0.1,10.0.0.2",)}, {"machine_address": (" 10.0.0.1",)},
    {"machine_address": ("a\nb",)}, {"application": 5},
]
WRONG_TYPES = [
    ({"quota_per_cpu": (1.0, "x", 0.5)}, "quota_per_cpu", "quota_per_cpu must be a finite number, got 'x'"),
    ({"quota_per_cpu": (1.0, True, 0.5)}, "quota_per_cpu", "quota_per_cpu must be a finite number, got True"),
    ({"latency": {LINK: ("45", 5.0)}}, "edge_to_endpoint", "edge_to_endpoint must be a finite number, got '45'"),
    ({"throughput": {LINK: "8"}}, "edge_to_endpoint", "edge_to_endpoint must be a finite number, got '8'"),
    ({"data_generation_frequency": "5"}, "data_generation_frequency",
     "data_generation_frequency must be a finite number, got '5'"),
    ({"thread_pinning": "yes"}, "thread_pinning", "thread_pinning must be True or False, got 'yes'"),
    ({"use_benchmark": 1}, "use_benchmark", "use_benchmark must be True or False, got 1"),
    ({"devices_per_tier": (True, 10, 20)}, "devices_per_tier",
     "device count for cloud must be a non-negative integer, got True"),
    ({"devices_per_tier": (1, "10", 20)}, "devices_per_tier",
     "device count for edge must be a non-negative integer, got '10'"),
]
WRITABLE_TEXT = [
    {"application": "x"}, {"application": "a b"}, {"application": ""}, {"application": "a=b # c"},
    {"resource_manager": "[benchmark]"}, {"hypervisor": ""}, {"hypervisor": "qemu kvm"},
    {"machine_address": ("10.0.0.1",)}, {"machine_address": ("a b", "c=d")},
]


class TestTextValues:
    """Text ``render_config`` could not write back is an error, and so is a
    value of the wrong type; the accepted neighbours of such text roundtrip."""

    @pytest.mark.parametrize("changes", UNWRITABLE_TEXT)
    def test_unwritable_text_is_an_error(self, changes):
        (key,) = changes
        assert [d.key for d in errors_of(validate(replaced(TEXT_BASE, **changes)))] == [key]

    @pytest.mark.parametrize("changes, key, message", WRONG_TYPES)
    def test_a_value_of_the_wrong_type_is_an_error(self, changes, key, message):
        assert [(d.key, d.message) for d in errors_of(validate(replaced(TEXT_BASE, **changes)))] == [(key, message)]

    @pytest.mark.parametrize("changes", WRITABLE_TEXT)
    def test_writable_neighbours_roundtrip(self, changes):
        config = replaced(TEXT_BASE, **changes)
        assert errors_of(validate(config)) == []
        assert parse_config(render_config(config)) == config


# Values of the wrong shape or type for any field: no preset holds one of
# them where it is, though some are right for another field.
WRONG_VALUES = [
    None, True, 0, -1, 5, 1.5, -0.0, 10**400, 2**53 + 1, math.nan, math.inf, "", "x", "abc", " x", "a,b",
    "a\nb", "8", (), (1,), (45.0, 5.0), (45.0, 5.0, 1.0), (4, 0, 1), [4, 0, 1], [45.0, 5.0], (True, 0, 1),
    ("x", 1, 2), (1.0, 10**400, 0.5), (10**400, 5.0), (2**53 + 1, 0.0), ("10.0.0.1",), ("a", ""), {},
    {("cloud", "endpoint"): 1.0}, BenchmarkConfig(),
]
FIELDS = [f.name for f in dataclasses.fields(DeploymentConfig) + dataclasses.fields(BenchmarkConfig)]
# a field, or one entry of a link mapping: the preset's worker link or another
TARGETS = st.sampled_from(FIELDS) | st.tuples(
    st.sampled_from(["latency", "throughput"]),
    st.sampled_from([None, ("cloud", "cloud"), ("edge", "cloud"), ("foo", "bar")]))


def changed(name, changes):
    """The preset ``name`` with each (target, value) of ``changes`` set in turn."""
    config = load_preset(name)
    fields = {}
    links = {"latency": dict(config.latency), "throughput": dict(config.throughput)}
    for target, value in changes:
        if isinstance(target, tuple):
            kind, pair = target
            links[kind][pair or worker_plan(config).link] = value
            fields[kind] = links[kind]
        else:
            fields[target] = value
    return replaced(config, **fields)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PRESET_NAMES),
       st.lists(st.tuples(TARGETS, st.sampled_from(WRONG_VALUES)), min_size=1, max_size=3))
@example("cloud", [("devices_per_tier", 5)])
@example("cloud", [(("latency", None), 45.0)])
@example("cloud", [(("latency", None), (45.0, 5.0, 1.0))])
@example("cloud", [("data_generation_frequency", 10**400)])
@example("cloud", [(("throughput", ("cloud", "cloud")), 10**400)])
@example("cloud", [("quota_per_cpu", (1.0, 10**400, 0.5))])
@example("cloud", [("machine_address", "abc")])
@example("cloud", [("cores_per_device", [4, 0, 1])])
@example("cloud", [(("latency", None), [45.0, 5.0])])
@example("cloud", [(("latency", ("edge", "cloud")), (1.0, 0.0))])
@example("mist", [(("latency", None), (10**400, 1.0))])
@example("mist", [(("throughput", ("foo", "bar")), 1.0)])
@example("cloud", [("devices_per_tier", (10**5000, 0, 40))])
@example("cloud", [(("latency", None), (10**5000, 1.0))])
@example("cloud", [("devices_per_tier", (10**4300 - 1, 0, 40))])
def test_validate_is_total_and_honest(name, changes):
    """validate never raises, and a config it passes writes back as text
    that parses to it and builds a topology."""
    config = changed(name, changes)
    if not errors_of(validate(config)):
        assert parse_config(render_config(config)) == config
        build_topology(config)


def test_messages_show_an_int_too_long_for_repr_by_its_size():
    config = replaced(load_preset("cloud"), devices_per_tier=(10**5000, 0, 40))
    assert [d.message for d in validate(config)] == [
        "device count for cloud must be a non-negative integer, got <int of 16610 bits>"]
    # a 4,300-digit count, the longest int() reads from a file, makes a total of 4,301
    four_thousand_three_hundred = int("9" * 4300)
    config = replaced(load_preset("cloud"), devices_per_tier=(four_thousand_three_hundred, 0, 40))
    first = errors_of(validate(config))[0]
    assert first.message == "<int of 14285 bits> devices in all, more than the 1000000 a topology may have"


class TestWorkerPlan:
    def test_edge_hosts_when_populated(self):
        plan = worker_plan(load_preset("edge-small"))
        assert plan.worker_tier == "edge"
        assert (plan.workers, plan.controllers, plan.sources) == (10, 1, 20)
        assert plan.endpoints_per_worker == 2

    def test_cloud_divides_evenly_no_controller(self, full_config_text):
        plan = worker_plan(parse_config(full_config_text))
        assert plan.worker_tier == "cloud"
        assert (plan.workers, plan.controllers) == (10, 0)
        assert plan.endpoints_per_worker == 4

    def test_cloud_sets_one_controller_aside(self):
        plan = worker_plan(load_preset("cloud"))
        assert (plan.workers, plan.controllers) == (10, 1)
        assert plan.endpoints_per_worker == 4

    def test_peer_to_peer_splits_endpoints(self):
        plan = worker_plan(load_preset("mist"))
        assert plan.worker_tier == "endpoint"
        assert (plan.workers, plan.sources) == (10, 10)
        assert plan.endpoints_per_worker == 1


class TestRenderRoundtrip:
    def test_full_config_roundtrips(self, full_config_text):
        config = parse_config(full_config_text)
        again = parse_config(render_config(config))
        assert again == config

    def test_presets_roundtrip(self):
        for name in PRESET_NAMES:
            config = load_preset(name)
            assert parse_config(render_config(config)) == config

    def test_render_is_stable(self, full_config_text):
        config = parse_config(full_config_text)
        assert render_config(config) == render_config(parse_config(render_config(config)))


class TestPresets:
    def test_preset_names(self):
        assert PRESET_NAMES == ("cloud", "edge-large", "edge-small", "mist")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="edge-small"):
            load_preset("fog")

    def test_cloud_preset_shape(self):
        config = load_preset("cloud")
        assert config.devices_per_tier == (11, 0, 40)
        assert config.cores_per_device == (4, 0, 1)
        assert config.latency[tier_pair("cloud", "endpoint")] == (45.0, 5.0)
        assert config.throughput[tier_pair("cloud", "endpoint")] == 8.0

    def test_edge_presets_differ_in_size_only(self):
        large = load_preset("edge-large")
        small = load_preset("edge-small")
        assert large.devices_per_tier == (1, 10, 40)
        assert small.devices_per_tier == (1, 10, 20)
        assert large.cores_per_device[1] == 4 and small.cores_per_device[1] == 2
        assert large.quota_per_cpu[1] == 1.0 and small.quota_per_cpu[1] == 0.75
        assert large.latency[tier_pair("edge", "endpoint")] == (30.0, 5.0)
        assert small.latency[tier_pair("edge", "endpoint")] == (7.5, 1.0)

    def test_mist_preset_is_endpoint_only(self):
        config = load_preset("mist")
        assert config.devices_per_tier == (0, 0, 20)
        assert config.cores_per_device == (0, 0, 2)
        assert config.latency[tier_pair("endpoint", "endpoint")] == (7.5, 1.0)
        assert config.benchmark.resource_manager == "none"

    def test_presets_share_benchmark_rate(self):
        for name in PRESET_NAMES:
            bench = load_preset(name).benchmark
            assert bench.use_benchmark is True
            assert bench.data_generation_frequency == 5.0
            assert bench.application == "image_classification"


def test_boolean_parsing_is_case_insensitive(minimal_config_text):
    text = minimal_config_text + "\n[benchmark]\nuse_benchmark = true\n"
    assert parse_config(text).benchmark.use_benchmark is True


def test_benchmark_section_optional(minimal_config_text):
    config = parse_config(minimal_config_text)
    assert config.benchmark.use_benchmark is False
    assert config.benchmark.data_generation_frequency == 0.0


def test_config_error_message_counts_remaining():
    with pytest.raises(ConfigError, match=r"\+\d+ more"):
        parse_config("[infrastructure]\n")
