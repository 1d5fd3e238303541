"""CLI surface: exit codes, output schemas, reproducibility."""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import tierplan
from tierplan import cli, simulator
from tierplan.cli import EXIT_ARGUMENT, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from tierplan.schemas import (
    COMPARE_OUTPUT_SCHEMA,
    HEATMAP_OUTPUT_SCHEMA,
    PREDICT_OUTPUT_SCHEMA,
    SIMULATE_OUTPUT_SCHEMA,
    VALIDATE_OUTPUT_SCHEMA,
)
from tierplan.topology import DEFAULT_WORKLOAD, TopologyError

LATENCY_FIELDS = ("latency_mean_s", "latency_sd_s", "communication_mean_s", "compute_mean_s", "queueing_mean_s")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def run_process(argv, *, prefix=(), env=(), **kwargs):
    """Run the CLI in a new interpreter, after ``prefix`` (a shell wrapper,
    say), with ``env`` over this environment."""
    package_root = str(Path(tierplan.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env),
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([*prefix, sys.executable, "-m", "tierplan.cli", *argv], text=True, timeout=60,
                          env=env, **kwargs)


class TestValidate:
    def test_warnings_only_exits_zero(self, capsys, full_config_file):
        code, out, _ = run(capsys, "validate", str(full_config_file))
        assert code == EXIT_OK
        assert "warning" in out
        assert "0 errors" in out

    def test_errors_exit_with_config_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("[infrastructure]\ndevices_per_tier = 1,0\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == EXIT_CONFIG
        assert "error" in out

    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.conf"))
        assert code == EXIT_IO
        assert "absent.conf" in err

    def test_json_output_matches_schema(self, capsys, full_config_file):
        payload = run_json(capsys, "validate", str(full_config_file), "--json")
        jsonschema.validate(payload, VALIDATE_OUTPUT_SCHEMA)
        assert payload["ok"] is True
        assert {d["key"] for d in payload["diagnostics"]} == {
            "hypervisor", "thread_pinning", "machine_address",
        }


class TestPredict:
    def test_preset_report(self, capsys):
        code, out, _ = run(capsys, "predict", "edge-small")
        assert code == EXIT_OK
        assert "93.3" in out
        assert "NOT viable" in out  # the local check fails

    def test_json_output_matches_schema(self, capsys):
        payload = run_json(capsys, "predict", "edge-small", "--json")
        jsonschema.validate(payload, PREDICT_OUTPUT_SCHEMA)
        assert payload["local"]["viable"] is False
        assert payload["local"]["load_percent"] == pytest.approx(110.0)
        assert payload["offload"]["placement"] == "edge"
        assert payload["offload"]["load_percent"] == pytest.approx(280.0 / 3.0)

    def test_config_file_target(self, capsys, full_config_file):
        payload = run_json(capsys, "predict", str(full_config_file), "--json")
        assert payload["manifest"]["preset"] is None
        assert payload["offload"]["placement"] == "cloud"
        # the benchmark section pins the rate at 5 Hz
        assert payload["manifest"]["workload"]["rate_hz"] == 5.0

    def test_zero_rate_is_viable_everywhere(self, capsys):
        payload = run_json(capsys, "predict", "edge-small", "--json", "--rate", "0")
        assert payload["local"]["viable"] is True
        assert payload["local"]["load_percent"] == 0.0
        assert payload["offload"]["viable"] is True

    def test_workload_flags_override(self, capsys):
        payload = run_json(
            capsys, "predict", "edge-small", "--json",
            "--tproc", "endpoint=0.05", "--rate", "4",
        )
        assert payload["local"]["viable"] is True
        # 0.05 x 4 over half a core
        assert payload["local"]["load_percent"] == pytest.approx(40.0)

    def test_bad_tproc_spelling(self, capsys):
        # a bad tier and a bad number are refused alike, naming the entry
        for entry in ("fog=1", "edge=abc", "edge=", "edge"):
            code, _, err = run(capsys, "predict", "edge-small", "--tproc", entry)
            assert code == EXIT_ARGUMENT, entry
            assert f"--tproc takes TIER=SECONDS with tier one of cloud, edge, endpoint, got {entry!r}" in err

    def test_negative_rate(self, capsys):
        # exponent forms and -inf reach the range check as -2 does, not argparse
        for rate in ("-2", "-2.5e1", "-inf"):
            code, _, err = run(capsys, "predict", "edge-small", "--rate", rate)
            assert code == EXIT_ARGUMENT, rate
            assert "rate must be finite and non-negative" in err, rate

    def test_non_finite_workload_is_an_argument_error(self, capsys):
        for flags in (["--tproc", "edge=inf", "--rate", "0"], ["--tpre", "nan"],
                      ["--size", "inf"], ["--rate", "inf"]):
            code, out, _ = run(capsys, "predict", "edge-small", "--json", *flags)
            assert code == EXIT_ARGUMENT, flags
            assert out == ""

    def test_result_json_cannot_hold_is_an_argument_error(self, capsys):
        # finite inputs whose load and data rate overflow to infinity
        code, out, err = run(capsys, "predict", "edge-small", "--rate", "1e308", "--size", "1e308", "--json")
        assert code == EXIT_ARGUMENT
        assert out == "" and "not finite" in err

    def test_text_refuses_what_json_refuses(self, capsys):
        # a finite rate whose load overflows to infinity
        code, out, err = run(capsys, "predict", "edge-small", "--rate", "1e307")
        assert (code, out) == (EXIT_ARGUMENT, "")
        assert "not finite" in err

    def test_missing_target_file(self, capsys):
        code, _, _ = run(capsys, "predict", "no-such-preset")
        assert code == EXIT_IO

    def test_unparseable_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("[infrastructure]\ndevices_per_tier = 1,0\n")
        code, _, err = run(capsys, "predict", str(bad))
        assert code == EXIT_CONFIG
        assert "error" in err


class TestHeatmap:
    def test_default_csv(self, capsys):
        code, out, _ = run(capsys, "heatmap")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1].startswith("tproc_s/rate_hz,")
        assert len(lines[1].split(",")) == 22
        assert "marker,rate_hz,tproc_s,class" in out
        assert any(line.startswith("A,5,0.11,") for line in lines)

    def test_json_output_matches_schema(self, capsys):
        payload = run_json(capsys, "heatmap", "--json")
        jsonschema.validate(payload, HEATMAP_OUTPUT_SCHEMA)
        assert len(payload["grid"]["rates_hz"]) == 21
        assert len(payload["grid"]["cells"]) == 21
        labels = {cell for row in payload["grid"]["cells"] for cell in row}
        assert labels == {"endpoint", "edge", "cloud", "not-viable"}
        assert [m["class"] for m in payload["markers"]] == ["edge", "edge"]

    def test_preset_target(self, capsys):
        payload = run_json(capsys, "heatmap", "edge-small", "--json")
        # a single-deployment family classifies edge or not-viable only
        labels = {cell for row in payload["grid"]["cells"] for cell in row}
        assert labels <= {"endpoint", "edge", "not-viable"}

    def test_resolution_flag(self, capsys):
        payload = run_json(capsys, "heatmap", "--json", "--resolution", "2",
                           "--rmax", "10", "--tmax", "0.5")
        assert payload["grid"]["rates_hz"] == [0.0, 10.0]
        assert payload["grid"]["cells"][0][0] == "endpoint"
        assert payload["grid"]["cells"][1][1] == "not-viable"

    def test_zero_rmax_is_an_argument_error(self, capsys):
        for rmax in ("0", "inf"):
            code, _, err = run(capsys, "heatmap", "--rmax", rmax)
            assert code == EXIT_ARGUMENT, rmax

    def test_grid_over_the_cell_bound_is_refused(self, capsys):
        # 1001 x 1001 = 1,002,001 cells, just over MAX_CELLS
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "heatmap", "--json", "--resolution", "1001")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_ARGUMENT, "")
        assert "cells" in err
        assert peak < 1024 * 1024  # the grid would take about 40 MB

    def test_json_peak_per_cell_is_bounded(self, capsys):
        # the encoder held a string per label of all 40,401 cells at once,
        # about 108 bytes per cell at its peak; row by row it is about 42
        argv = ["heatmap", "--json", "--resolution", "201"]
        run(capsys, *argv)  # warm-up: imports and first-use caches
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["grid"]["cells"]) == 201
        assert peak / 201**2 < 60

    def test_unusable_tproc_is_an_argument_error(self, capsys):
        # inf is not a number JSON can carry; 0 leaves the grid without an anchor
        for tproc in ("edge=inf", "endpoint=0"):
            code, out, err = run(capsys, "heatmap", "--json", "--tproc", tproc)
            assert code == EXIT_ARGUMENT, tproc
            assert out == ""

    def test_cli_does_not_import_numpy(self):
        """The CLI needs only the standard library, and each command only
        the modules it runs; every needless import adds its time and memory
        to the command.  The latency sd comes from exact integer sums, so a
        run on finite values loads neither ``statistics`` nor the
        ``fractions`` and ``decimal`` it imports."""
        exact = ["statistics", "fractions", "decimal"]
        cases = [
            (["heatmap", "--json", "--resolution", "3"], ["numpy", "tierplan.simulator", "statistics"]),
            (["simulate", "cloud", "--duration", "40", "--json"], ["numpy", "tierplan.analytic", *exact]),
            (["compare", "cloud", "mist", "--repeats", "2", "--duration", "2"], ["numpy", *exact]),
            (["simulate", "cloud", "--rate", "0", "--duration", "2", "--json"],
             ["numpy", "tierplan.analytic", "statistics"]),
            (["compare", "cloud", "mist", "--rate", "0", "--repeats", "2", "--duration", "2", "--json"],
             ["numpy", "statistics"]),
        ]
        package_root = str(Path(tierplan.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        for argv, unused in cases:
            script = (
                "import contextlib, io, sys\n"
                "import tierplan.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = tierplan.cli.main({argv!r})\n"
                "assert code == 0, code\n"
                f"loaded = [name for name in {unused!r} if name in sys.modules]\n"
                "assert not loaded, f'imported {loaded}'\n"
            )
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  timeout=60, env=env)
            assert proc.returncode == 0, (argv, proc.stderr)

    def test_package_exports_the_same_names(self):
        """``tierplan`` resolves its names on first use; ``__all__``, ``import *``
        and attribute access serve the names it always exported."""
        exported = [
            "BANDWIDTH", "BenchmarkConfig", "ConfigError", "DEFAULT_WORKLOAD",
            "DeploymentConfig", "DeploymentFamily", "Device", "Diagnostic", "ElementRecord", "GridSpec",
            "HeatmapGrid", "Link", "MAX_CELLS", "MAX_ELEMENTS", "NOT_VIABLE", "OffloadOption", "PLACEMENTS",
            "PREPROCESS_CAPACITY", "PRESET_NAMES", "REFERENCE_MARKERS", "SimParams",
            "SimReport", "TIERS", "Topology", "TopologyError", "Verdict", "WORKER_CAPACITY",
            "WorkloadProfile", "analytic", "build_topology", "capacity_of", "check_config", "classify",
            "classify_at", "config", "demand_on_worker", "family_from_topology", "heatmap", "load_preset",
            "local_topology", "local_viability", "offload_viability", "parse_config", "reference_family",
            "render_config", "simulate", "simulator", "system_load", "tier_pair", "topology", "validate",
            "worker_plan", "write_trace_csv",
        ]
        assert tierplan.__all__ == exported
        namespace: dict = {}
        exec("from tierplan import *", namespace)
        assert sorted(name for name in namespace if name != "__builtins__") == exported
        assert namespace["simulate"] is simulator.simulate
        assert namespace["simulator"] is simulator
        with pytest.raises(AttributeError):
            tierplan.no_such_name

    def test_out_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "heatmap", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("# manifest: ")

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "heatmap", "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == EXIT_IO


class TestSimulate:
    def test_json_output_matches_schema(self, capsys):
        payload = run_json(capsys, "simulate", "edge-small", "--duration", "5")
        jsonschema.validate(payload, SIMULATE_OUTPUT_SCHEMA)
        assert payload["manifest"]["seed"] == 42
        assert payload["report"]["generated"] > 0

    def test_same_seed_reproduces_the_report(self, capsys):
        first = run_json(capsys, "simulate", "edge-small", "--duration", "5", "--seed", "7")
        second = run_json(capsys, "simulate", "edge-small", "--duration", "5", "--seed", "7")
        assert first["report"] == second["report"]
        a, b = first["manifest"], second["manifest"]
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_viable_preprocessing_on_two_cores_keeps_the_backlog_bounded(self, capsys):
        # mist endpoints have 2 cores at quota 0.5: 0.75 of 1.0 core-s/s
        assert run_json(capsys, "predict", "mist", "--tpre", "0.15", "--json")["offload"]["viable"] is True
        backlogs = [run_json(capsys, "simulate", "mist", "--tpre", "0.15", "--duration", duration)["report"]["backlog"]
                    for duration in ("40", "80")]
        assert backlogs[0] == backlogs[1]

    def test_duration_must_be_positive(self, capsys):
        for duration in ("-1", "0", "nan", "inf", "-1e-3", "-inf"):
            code, _, err = run(capsys, "simulate", "edge-small", "--duration", duration)
            assert code == EXIT_ARGUMENT, duration
            assert "duration must be positive and finite" in err, duration

    def test_warmup_must_precede_the_end(self, capsys):
        for warmup in ("5", "-1", "nan"):
            code, _, _ = run(capsys, "simulate", "edge-small", "--duration", "5", "--warmup", warmup)
            assert code == EXIT_ARGUMENT, warmup

    def test_max_elements_must_be_positive(self, capsys):
        for cap in ("0", "-3"):
            code, out, _ = run(capsys, "simulate", "edge-small", "--duration", "1", "--max-elements", cap)
            assert code == EXIT_ARGUMENT, cap
            assert out == ""

    def test_non_finite_rate_is_an_argument_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "edge-small", "--rate", "inf")
        assert code == EXIT_ARGUMENT

    def test_run_over_the_element_budget_is_refused(self, capsys):
        # 40 endpoints x 5 Hz x 1e9 s, refused before anything is allocated
        code, out, err = run(capsys, "simulate", "cloud", "--duration", "1e9")
        assert code == EXIT_ARGUMENT
        assert "budget" in err and out == ""

    def test_result_json_cannot_hold_is_refused_before_the_trace(self, capsys, tmp_path):
        # a finite service time whose worker load overflows to infinity
        trace = tmp_path / "trace.csv"
        code, out, err = run(capsys, "simulate", "edge-small", "--tproc", "edge=1e308", "--duration", "4",
                             "--json", "--trace", str(trace))
        assert code == EXIT_ARGUMENT
        assert out == "" and "not finite" in err
        assert not trace.exists()

    def test_nothing_measured_reports_null_latencies(self, capsys):
        payload = run_json(capsys, "simulate", "edge-small", "--tproc", "edge=1000",
                           "--duration", "5", "--json")
        jsonschema.validate(payload, SIMULATE_OUTPUT_SCHEMA)
        report = payload["report"]
        assert report["measured"] == 0
        assert [report[key] for key in LATENCY_FIELDS] == [None] * 5

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        payload = run_json(capsys, "simulate", "mist", "--duration", "3", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1].split(",")[:3] == ["source", "worker", "index"]
        assert len(lines) - 2 >= payload["report"]["generated"]


class TestCompare:
    def test_table_lists_every_preset(self, capsys):
        code, out, _ = run(capsys, "compare", "cloud", "edge-large", "edge-small", "mist",
                           "--repeats", "1", "--duration", "4")
        assert code == EXIT_OK
        for name in ("cloud", "edge-large", "edge-small", "mist"):
            assert name in out

    def test_json_output_matches_schema(self, capsys):
        payload = run_json(capsys, "compare", "cloud", "edge-small", "--json",
                           "--repeats", "2", "--duration", "4")
        jsonschema.validate(payload, COMPARE_OUTPUT_SCHEMA)
        names = [row["name"] for row in payload["presets"]]
        assert names == ["cloud", "edge-small"]
        loads = {row["name"]: row["analytic_load_percent"] for row in payload["presets"]}
        assert loads["cloud"] == pytest.approx(70.0)
        assert loads["edge-small"] == pytest.approx(280.0 / 3.0)

    def test_single_repeat_has_null_sd(self, capsys):
        argv = ("compare", "cloud", "mist", "--repeats", "1", "--duration", "4")
        payload = run_json(capsys, *argv, "--json")
        jsonschema.validate(payload, COMPARE_OUTPUT_SCHEMA)
        assert [row["latency_sd_s"] for row in payload["presets"]] == [None, None]
        assert None not in [row["latency_mean_s"] for row in payload["presets"]]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert [line.split()[3] for line in out.splitlines()[1:3]] == ["-", "-"]

    def test_preset_without_measured_elements_has_null_fields(self, capsys):
        argv = ("compare", "edge-small", "mist", "--tproc", "edge=1000", "--repeats", "2", "--duration", "5")
        payload = run_json(capsys, *argv, "--json")
        jsonschema.validate(payload, COMPARE_OUTPUT_SCHEMA)
        edge_small, mist = payload["presets"]
        assert [edge_small[key] for key in LATENCY_FIELDS] == [None] * 5
        assert None not in [mist[key] for key in LATENCY_FIELDS]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.splitlines()[1].split()[2:] == ["-"] * 5

    def test_only_measured_repeats_are_averaged(self, capsys, monkeypatch):
        simulate = simulator.simulate

        def second_repeat_measures_nothing(topology, workload, params):
            report = simulate(topology, workload, params)
            if params.seed == 43:
                report = dataclasses.replace(report, measured=0, **dict.fromkeys(LATENCY_FIELDS))
            return report

        first = run_json(capsys, "compare", "cloud", "mist", "--json", "--repeats", "1", "--duration", "4")
        monkeypatch.setattr(simulator, "simulate", second_repeat_measures_nothing)
        both = run_json(capsys, "compare", "cloud", "mist", "--json", "--repeats", "2", "--duration", "4")
        assert both["presets"] == [dict(row, repeats=2) for row in first["presets"]]

    def test_single_preset_is_an_argument_error(self, capsys):
        code, _, err = run(capsys, "compare", "cloud")
        assert code == EXIT_ARGUMENT
        assert "two" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "compare", "cloud", "fog")
        assert code == EXIT_ARGUMENT
        assert "fog" in err

    def test_duration_must_be_positive_and_finite(self, capsys):
        for duration in ("0", "nan", "inf", "-1e-3", "-inf"):
            code, _, err = run(capsys, "compare", "cloud", "mist", "--duration", duration)
            assert code == EXIT_ARGUMENT, duration
            assert "duration must be positive and finite" in err, duration

    def test_comparison_over_the_element_budget_is_refused(self, capsys):
        # refused before anything is simulated; at rate 0 each run counts as one element
        for flags in (["--duration", "0.001"], ["--rate", "0"]):
            start = time.perf_counter()
            code, out, err = run(capsys, "compare", "cloud", "mist", "--repeats", "100000000", *flags)
            assert time.perf_counter() - start < 1.0, flags
            assert (code, out) == (EXIT_ARGUMENT, ""), flags
            assert "budget" in err

    def test_repeats_beyond_the_float_range_are_refused(self, capsys):
        # repeats x the float element count overflowed: OverflowError, exit 1
        code, out, err = run(capsys, "compare", "cloud", "mist", "--repeats", "9" * 400)
        assert (code, out) == (EXIT_ARGUMENT, "")
        assert "runs, at least one element each" in err and "budget" in err

    def test_repeats_must_be_at_least_one(self, capsys):
        code, out, err = run(capsys, "compare", "cloud", "mist", "--repeats", "0")
        assert (code, out) == (EXIT_ARGUMENT, "")
        assert "--repeats must be at least 1, got 0" in err

    def test_text_refuses_what_json_refuses(self, capsys):
        code, out, err = run(capsys, "compare", "cloud", "mist", "--tproc", "cloud=1e307", "--tproc", "edge=1e307",
                             "--tproc", "endpoint=1e307", "--duration", "1", "--repeats", "1")
        assert (code, out) == (EXIT_ARGUMENT, "")
        assert "not finite" in err

    def test_latencies_beyond_the_float_range_in_ms(self, capsys):
        # one element per endpoint, measured, each taking about 1e308 s
        argv = ("compare", "cloud", "mist", "--duration", "1e308", "--rate", "5e-324", "--warmup", "0",
                "--tproc", "cloud=1e308", "--repeats", "2")
        payload = run_json(capsys, *argv, "--json")
        assert payload["presets"][0]["latency_mean_s"] == pytest.approx(1e308)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "inf" not in out
        assert out.splitlines()[1].split()[2].startswith("1000000000000000")

    def test_manifest_records_each_presets_workload(self, capsys):
        flags = ("--tproc", "edge=0.2", "--size", "1.5")
        payload = run_json(capsys, "compare", "edge-small", "mist", "--json", "--repeats", "1",
                           "--duration", "2", *flags)
        jsonschema.validate(payload, COMPARE_OUTPUT_SCHEMA)
        manifest = payload["manifest"]
        assert manifest["workload"] is None
        for name in ("edge-small", "mist"):
            predicted = run_json(capsys, "predict", name, "--json", *flags)["manifest"]["workload"]
            assert manifest["parameters"]["workloads"][name] == predicted
        assert manifest["parameters"]["workloads"]["mist"]["proc_time_s"]["edge"] == 0.2

    def test_memory_does_not_grow_with_repeats(self, capsys):
        """Each repeat's report is dropped once its means are read."""
        def peak(repeats):
            tracemalloc.start()
            try:
                run_json(capsys, "compare", "cloud", "mist", "--repeats", str(repeats), "--duration", "40", "--json")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_json(capsys, "compare", "cloud", "mist", "--repeats", "1", "--duration", "1", "--json")  # warm up
        one, eight = peak(1), peak(8)
        assert eight < 2 * one, (one, eight)

    def test_repeats_use_consecutive_seeds(self, capsys):
        payload = run_json(capsys, "compare", "cloud", "mist", "--json", "--seed", "100",
                           "--repeats", "2", "--duration", "4")
        assert payload["manifest"]["seed"] == 100
        assert payload["manifest"]["parameters"]["repeats"] == 2
        # no digest covers compare, so its statistics are pinned here, bit for bit
        for row in payload["presets"]:
            reports = [run_json(capsys, "simulate", row["name"], "--json", "--seed", seed, "--duration", "4")
                       ["report"] for seed in ("100", "101")]
            means = [report["latency_mean_s"] for report in reports]
            assert means[0] != means[1], row["name"]  # the repeats differ, so the sd is not 0
            assert row["latency_mean_s"] == statistics.fmean(means), row["name"]
            assert row["latency_sd_s"] == statistics.stdev(means), row["name"]
            for key in ("communication_mean_s", "compute_mean_s", "queueing_mean_s"):
                assert row[key] == statistics.fmean(report[key] for report in reports), (row["name"], key)


# JSON trees with str keys, non-ASCII ones included, and every float,
# non-finite ones included; lists of lists are drawn on purpose, since
# _json_body encodes those one inner list at a time
_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(st.lists(children, max_size=4), max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _JSON_TREES, max_size=4))
@example({"grid": {"cells": [["edge", "cloud"], ["edge", float("nan")]], "rates_hz": [0.0]}, "é": [[]]})
@example({"cells": [["edge"], []], "load": float("inf")})
@example({"cells": [[1.5], [-0.0]], "ö": {}, "o": [], "grid": {"cells": [[[1], [2]], [[float("-inf")]]]}})
@example({"grid": {1: [["edge"]], 0: [[]]}})  # json writes int keys as strings
def test_json_body_is_json_dumps(payload):
    try:
        expected = json.dumps(payload, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a non-finite float somewhere
        with pytest.raises(cli.CliError) as refused:
            cli._json_body(payload)
        assert refused.value.code == EXIT_ARGUMENT
    else:
        assert cli._json_body(payload) == expected


def test_topology_errors_exit_with_the_config_code(capsys, monkeypatch):
    def refuse(config):
        raise TopologyError("refused")

    monkeypatch.setattr(cli, "build_topology", refuse)
    for argv in (["predict", "edge-small"], ["heatmap", "edge-small"], ["simulate", "edge-small"],
                 ["compare", "edge-small", "mist"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, ""), argv
        assert "refused" in err


def test_config_that_is_not_utf8_is_an_io_error(capsys, tmp_path):
    path = tmp_path / "binary.conf"
    path.write_bytes(b"\xff\xfe\x00bad")
    for command in ("validate", "predict", "simulate"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (EXIT_IO, ""), command
        assert f"cannot read {path}" in err


class TestEncoding:
    """Config files are read as UTF-8, skipping a byte-order mark, and
    ``--out`` is written as UTF-8, whatever the locale."""

    BASELINE = Path(__file__).resolve().parents[1] / "demos" / "configs" / "baseline.conf"

    def test_config_with_a_byte_order_mark_is_read(self, capsys, tmp_path):
        # the mark was read as part of line 1: "expected 'key = value'", exit 3
        path = tmp_path / "bom.conf"
        path.write_bytes("\ufeff".encode() + self.BASELINE.read_bytes())
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_OK, out + err
        with_mark, without = (run_json(capsys, "predict", str(p), "--json") for p in (path, self.BASELINE))
        with_mark["manifest"].pop("timestamp"), without["manifest"].pop("timestamp")
        assert with_mark == without

    @staticmethod
    def ascii_locale_cli(*argv):
        """Run the CLI in a new interpreter whose locale codec is ascii."""
        return run_process(argv, env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                           capture_output=True)

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        # the locale's ascii codec read the file: exit 4, "'ascii' codec can't decode"
        commented = tmp_path / "commented.conf"
        commented.write_bytes("# caf\u00e9 \u2014 a comment\n".encode() + self.BASELINE.read_bytes())
        unknown = tmp_path / "unknown.conf"
        unknown.write_bytes("[caf\u00e9]\n".encode())
        listing = tmp_path / "diagnostics.txt"

        valid = self.ascii_locale_cli("validate", str(commented))
        assert valid.returncode == EXIT_OK, valid.stderr
        invalid = self.ascii_locale_cli("validate", str(unknown), "--out", str(listing))
        assert invalid.returncode == EXIT_CONFIG, invalid.stderr
        assert "unknown section [caf\u00e9]" in listing.read_text(encoding="utf-8")

    def test_stdout_escapes_under_an_ascii_locale(self, tmp_path):
        # stdout wrote in the ascii codec: "'ascii' codec can't encode character '\xe9'", exit 2
        unknown = tmp_path / "unknown.conf"
        unknown.write_bytes("[caf\u00e9]\n".encode())
        printed = self.ascii_locale_cli("validate", str(unknown))
        assert printed.returncode == EXIT_CONFIG, printed.stderr
        assert printed.stdout.splitlines() == ["error: line 1: unknown section [caf\\xe9]",
                                               "error: missing [infrastructure] section",
                                               f"{unknown}: invalid (2 errors, 0 warnings)"]


@pytest.mark.parametrize("argv", [("predict", "edge-small"), ("heatmap", "--resolution", "5")])
def test_only_simulate_and_compare_use_the_seed(capsys, argv):
    """The other commands accept ``--seed``, ignore it and record a null seed."""
    plain = run_json(capsys, *argv, "--json")
    seeded = run_json(capsys, *argv, "--json", "--seed", "7")
    for payload in (plain, seeded):
        assert payload.pop("manifest")["seed"] is None
    assert plain == seeded


def test_rate_is_the_flag_else_the_configs_frequency_else_the_default(capsys, tmp_path, full_config_text):
    # 7 Hz, since the presets' 5 Hz is also the default rate and cannot tell the two apart
    configs = {}
    for frequency in ("7", "0"):
        configs[frequency] = tmp_path / f"{frequency}-hz.conf"
        configs[frequency].write_text(full_config_text.replace("data_generation_frequency = 5",
                                                               f"data_generation_frequency = {frequency}"))

    def rate(*argv):
        return run_json(capsys, *argv, "--json")["manifest"]["workload"]["rate_hz"]

    for command, *extra in (("predict",), ("heatmap", "--resolution", "3"), ("simulate", "--duration", "2")):
        assert rate(command, str(configs["7"]), *extra) == 7.0, command
        assert rate(command, str(configs["7"]), *extra, "--rate", "3") == 3.0, command
        assert rate(command, str(configs["0"]), *extra) == DEFAULT_WORKLOAD.rate, command
    assert rate("heatmap", "--resolution", "3") == DEFAULT_WORKLOAD.rate


def test_config_without_endpoints_exits_with_the_config_code(capsys, tmp_path):
    path = tmp_path / "no-endpoints.conf"
    path.write_text("[infrastructure]\ndevices_per_tier = 0,1,0\ncores_per_device = 0,2,0\n"
                    "quota_per_cpu = 0,0.75,0\nedge_to_endpoint = 7.5,1\nedge_to_endpoint = 8\n")
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == EXIT_CONFIG
    assert [d["key"] for d in json.loads(out)["diagnostics"]] == ["devices_per_tier"]
    for command in ("predict", "heatmap", "simulate"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert "no data-generating endpoints" in err


def test_core_count_a_float_cannot_hold_exits_with_the_config_code(capsys, tmp_path):
    # validate passed it, and predict, heatmap and simulate ended in OverflowError, exit 1
    path = tmp_path / "huge-cores.conf"
    path.write_text(f"[infrastructure]\ndevices_per_tier = 11,0,40\ncores_per_device = {10**400},0,1\n"
                    "quota_per_cpu = 1,0,0.5\ncloud_to_endpoint = 45,5\ncloud_to_endpoint = 8\n")
    for command in ("validate", "predict", "heatmap", "simulate"):
        code, _, err = run(capsys, command, str(path))
        assert code == EXIT_CONFIG, (command, err)


class TestParsing:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_ARGUMENT
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_ARGUMENT
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("validate", "predict", "heatmap", "simulate", "compare"):
            assert name in out

    def test_simulate_and_compare_share_the_run_defaults(self):
        parser = cli.build_parser()
        for argv in (["simulate", "mist"], ["compare", "cloud", "mist"]):
            args = parser.parse_args(argv)
            assert (args.duration, args.warmup, args.seed) == (40.0, None, 42), argv


_EVERY_COMMAND = [
    ("validate", str(TestEncoding.BASELINE)),
    ("predict", "edge-small"),
    ("heatmap", "--resolution", "3"),
    ("simulate", "mist", "--duration", "2"),
    ("compare", "cloud", "mist", "--repeats", "2", "--duration", "2"),
]
# help goes to stdout as a command's output does, so a failing stdout fails it the same way
_STDOUT_WRITERS = [*_EVERY_COMMAND, ("--help",), ("predict", "--help")]
_STDOUT_WRITER_IDS = [argv[0] for argv in _EVERY_COMMAND] + ["help", "predict-help"]


class TestStdoutFailure:
    """A stdout that cannot be written is an I/O error, exit 4 with one
    line on stderr.  It was a traceback and exit 1: ``OSError`` from a full
    device, ``AttributeError`` on the ``None`` of a closed stdout."""

    @staticmethod
    def assert_io_error(process, argv):
        prog = " ".join(["tierplan", *argv[:1]]).removesuffix(" --help")
        assert process.returncode == EXIT_IO, process.stderr
        assert process.stderr.startswith(f"{prog}: cannot write standard output: ")
        assert process.stderr.count("\n") == 1 and "Traceback" not in process.stderr

    # Unbuffered, the write fails; buffered, the flush fails, and what stays
    # in the buffer must not fail a second time at exit (exit 120).
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", _STDOUT_WRITERS, ids=_STDOUT_WRITER_IDS)
    def test_full_device(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            process = run_process(argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=full, stderr=subprocess.PIPE)
            self.assert_io_error(process, argv)

    @pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
    @pytest.mark.parametrize("argv", _STDOUT_WRITERS, ids=_STDOUT_WRITER_IDS)
    def test_closed_stdout(self, argv):
        closed = run_process(argv, prefix=("sh", "-c", 'exec "$@" >&-', "sh"), stderr=subprocess.PIPE)
        self.assert_io_error(closed, argv)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
class TestStderrFailure:
    """A stderr that cannot be written loses the message, not the exit code.
    The failed ``print`` was exit 1 and, buffered, the failed flush at exit
    was exit 120."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(("argv", "stdout_full", "code"), [
        (("simulate", "mist", "--duration", "-1"), False, EXIT_ARGUMENT),
        (("predict", "edge-small"), True, EXIT_IO),
        (("simulate", "--no-such-option"), False, EXIT_ARGUMENT),
    ], ids=["refused-input", "failed-stdout", "usage"])
    def test_full_device(self, argv, stdout_full, code, unbuffered):
        with open("/dev/full", "w") as full:
            process = run_process(argv, env={"PYTHONUNBUFFERED": unbuffered},
                                  stdout=full if stdout_full else subprocess.DEVNULL, stderr=full)
        assert process.returncode == code
