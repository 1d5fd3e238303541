"""The table-driven config parser, renderer and validator against the
versions they replaced (``tests/config_oracle.py``), and the documented
examples."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import config_oracle as oracle
from hypothesis import example, given, settings, strategies as st

from tierplan import config as table_config
from tierplan.config import PRESET_NAMES, check_config, load_preset, render_config, validate

from conftest import FULL_CONFIG, MINIMAL_CONFIG
from test_config import TEXT_BASE, UNWRITABLE_TEXT, WRITABLE_TEXT, WRONG_TYPES, replaced

KEYS = [key for table in table_config._KEYS.values() for key in table if isinstance(key, str)]
PAIR_KEYS = ["cloud_to_cloud", "cloud_to_edge", "edge_to_cloud", "cloud_to_endpoint", "edge_to_edge",
             "endpoint_to_cloud", "edge_to_endpoint", "endpoint_to_edge", "endpoint_to_endpoint"]

tokens = st.sampled_from([
    "0", "1", "2", "4", "10", "40", "-1", "-0", "0.5", "0.75", "1.0", "7.5", "45", "1e3", "1_0",
    "1.5", "nan", "inf", "-inf", "True", "false", "TRUE", "yes", "qemu", "abc", "", " ", "1e999",
])
values = st.lists(tokens, min_size=0, max_size=4).map(",".join) | tokens
keys = st.sampled_from(KEYS + PAIR_KEYS + ["grault", "Devices_per_tier", "cloud_to_fog", ""])
lines = st.one_of(
    st.builds(lambda k, v, pad: f"{pad}{k}{pad}={pad}{v}", keys, values, st.sampled_from(["", " "])),
    st.sampled_from([
        "[infrastructure]", "[benchmark]", "[ benchmark ]", "[netwrk]", "[]", "[infrastructure",
        "# a comment", "   # indented comment", "", "not a key value line", "=", "= 5",
    ]),
)
valid_texts = [FULL_CONFIG, MINIMAL_CONFIG] + [render_config(load_preset(name)) for name in PRESET_NAMES]
bases = st.sampled_from(valid_texts * 3 + [""])


@st.composite
def config_texts(draw):
    """A valid config with lines dropped, replaced and inserted, or lines
    from nothing: duplicates, wrong arity, bad numbers, unknown names and
    keys before any section all occur."""
    body = draw(bases).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        action = draw(st.sampled_from(["insert", "drop", "replace", "keep"]))
        at = draw(st.integers(min_value=0, max_value=len(body)))
        if action == "insert":
            body.insert(at, draw(lines))
        elif action != "keep" and at < len(body):
            if action == "drop":
                del body[at]
            else:
                body[at] = draw(lines)
    return "\n".join(body) + draw(st.sampled_from(["", "\n"]))


def _as_tuples(diags):
    return [(d.severity, d.key, d.message) for d in diags]


class TestMatchesTheOracle:
    @settings(max_examples=600, deadline=None)
    @given(config_texts())
    @example(MINIMAL_CONFIG + "machine_address = 10.0.0.1,,10.0.0.2\n")
    @example(MINIMAL_CONFIG + "machine_address =\nthread_pinning = yes\n")
    @example(MINIMAL_CONFIG + "[benchmark]\ndata_generation_frequency = 1_0\napplication =\n")
    @example("devices_per_tier = 1,0,2\n" + MINIMAL_CONFIG + MINIMAL_CONFIG)
    def test_same_diagnostics_config_and_text(self, text):
        config, diags = table_config._parse_structure(text)
        old_config, old_diags = oracle._parse_structure(text)
        assert _as_tuples(diags) == _as_tuples(old_diags)
        assert repr(config) == repr(old_config)
        valid, _ = check_config(text)
        if valid is not None:
            assert render_config(valid) == oracle.render_config(valid)

    @settings(max_examples=600, deadline=None)
    @given(config_texts())
    @example(MINIMAL_CONFIG.replace("7.5,0", "-1,0"))
    @example(MINIMAL_CONFIG.replace("7.5,0", "1,-0.5") + "cloud_to_cloud = -1,-1\ncloud_to_cloud = -2\n")
    @example(MINIMAL_CONFIG + "[benchmark]\ndata_generation_frequency = -5\n")
    @example(MINIMAL_CONFIG.replace("0,1,2", "0,0," + "2" * 400))
    @example(MINIMAL_CONFIG.replace("0,1,2", "0,1,-2").replace("0,0.75", "-1,0.75"))
    def test_same_validation(self, text):
        """Every message a config file can reach, byte for byte."""
        old_config, old_diags = oracle._parse_structure(text)
        if old_config is not None:
            old_diags = old_diags + oracle.validate(old_config)
        assert _as_tuples(check_config(text)[1]) == _as_tuples(old_diags)

    def test_same_validation_of_presets_and_text_values(self):
        configs = [load_preset(name) for name in PRESET_NAMES]
        configs += [replaced(TEXT_BASE, **changes)
                    for changes in UNWRITABLE_TEXT + WRITABLE_TEXT + [case[0] for case in WRONG_TYPES]]
        for config in configs:
            new, old = validate(config), oracle.validate(config)
            assert [(d.severity, d.key) for d in new] == [(d.severity, d.key) for d in old], config

    def test_lone_negative_zero_is_stored_as_zero(self):
        text = MINIMAL_CONFIG + "[benchmark]\ndata_generation_frequency = -0\n"
        config, _ = table_config._parse_structure(text)
        assert repr(config) == repr(oracle._parse_structure(text)[0])
        assert repr(config.benchmark.data_generation_frequency) == "0.0"

    def test_presets_render_as_before(self):
        for name in PRESET_NAMES:
            assert render_config(load_preset(name)) == oracle.render_config(load_preset(name))


def test_parser_and_renderer_name_no_key_outside_the_table():
    for function in (table_config._parse_structure, table_config.render_config, table_config._lines):
        source = inspect.getsource(function)
        assert [key for key in KEYS if key in source] == []


def _example_configs() -> list[str]:
    """The module docstring's example and README's "Deployment configs" block."""
    docstring = table_config.__doc__.split("::\n\n", 1)[1]
    example = re.match(r"((?:    .*\n|\n)+)", docstring).group(1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Deployment configs", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    return [inspect.cleandoc(example), block]


def test_documented_examples_parse_without_errors():
    for text in _example_configs():
        config, diags = check_config(text)
        assert [d for d in diags if d.severity == "error"] == []
        assert config is not None
