"""Tests of the benchmark itself: every check rejects a doctored output, and
a reduced-size run of each workload prints every metric.

    python3 -m pytest bench

The reduced sizes below are for these tests only; reported numbers come
from the sizes in ``workloads.WORKLOADS``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from traced import self_times
from workloads import WORKLOADS, check_grid, check_simulation

REDUCED = {
    "sim-long": replace(WORKLOADS["sim-long"], duration=20.0),
    "sim-wide": replace(WORKLOADS["sim-wide"], endpoints=400),
    "sim-overload-trace": replace(WORKLOADS["sim-overload-trace"], duration=40.0),
    "plan-grid": replace(WORKLOADS["plan-grid"], resolution=21),
}


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def produce(name: str, tmp_path: Path, launcher, kind: str = "full"):
    """A plan for the reduced workload and the payload its command prints."""
    plan = REDUCED[name].prepare(tmp_path, seed=7)
    stdout = tmp_path / "out.json"
    _, _, code = launcher.run(run.cli(plan.full if kind == "full" else plan.setup), stdout)
    assert code == 0
    return plan, json.loads(stdout.read_text())


def test_untouched_outputs_pass(tmp_path, launcher):
    for name in REDUCED:
        plan, payload = produce(name, tmp_path, launcher)
        stdout = json.dumps(payload).encode()
        digest, failures = plan.check("full", 0, stdout)
        assert failures == [], name
        assert digest is not None


def test_load_off_by_two_points_fails(tmp_path, launcher):
    plan, payload = produce("sim-long", tmp_path, launcher)
    worker = next(iter(payload["report"]["worker_load_percent"]))
    payload["report"]["worker_load_percent"][worker] += 2.0
    failures = check_simulation(payload, plan.expected["full"])
    assert any("worker loads off the analytic" in f for f in failures), failures


def test_missing_element_fails(tmp_path, launcher):
    plan, payload = produce("sim-wide", tmp_path, launcher)
    lost = copy.deepcopy(payload)
    lost["report"]["completed"] -= 1
    assert any("completed" in f for f in check_simulation(lost, plan.expected["full"]))
    dropped = copy.deepcopy(payload)
    report = dropped["report"]
    report["generated"] -= 1
    report["completed"] -= 1
    report["phase_counts"]["done"] -= 1
    assert any("expected" in f for f in check_simulation(dropped, plan.expected["full"]))


def test_missing_trace_row_fails(tmp_path, launcher):
    plan, payload = produce("sim-overload-trace", tmp_path, launcher)
    trace = plan.traces["full"]
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]))
    _, failures = plan.check("full", 0, json.dumps(payload).encode())
    assert any("trace has" in f for f in failures), failures


def test_backlog_growth_off_the_model_fails(tmp_path, launcher):
    plan, payload = produce("sim-overload-trace", tmp_path, launcher)
    expected = plan.expected["full"]
    assert check_simulation(payload, expected) == []
    assert any("backlog grew" in f
               for f in check_simulation(payload, replace(expected, backlog_growth=expected.backlog_growth * 1.1)))


def test_invalid_schema_fails(tmp_path, launcher):
    plan, payload = produce("sim-long", tmp_path, launcher)
    del payload["report"]["backlog"]
    assert any(f.startswith("schema") for f in check_simulation(payload, plan.expected["full"]))
    plan, payload = produce("plan-grid", tmp_path, launcher)
    payload["grid"]["cells"][0][0] = "fog"
    assert any(f.startswith("schema") for f in check_grid(payload, 21, plan.seed))


def test_grid_checks_against_classify_at(tmp_path, launcher):
    plan, payload = produce("plan-grid", tmp_path, launcher)
    wrong = copy.deepcopy(payload)
    wrong["grid"]["cells"] = [["cloud"] * 21 for _ in range(21)]
    assert any("classify_at" in f for f in check_grid(wrong, 21, plan.seed))
    payload["markers"] = [m for m in payload["markers"] if m["label"] != "B"]
    assert "marker B missing" in check_grid(payload, 21, plan.seed)
    assert any("shape" in f for f in check_grid(payload, 22, plan.seed))


def test_setup_commands_do_no_work(tmp_path, launcher):
    plan, payload = produce("sim-long", tmp_path, launcher, kind="setup")
    assert payload["report"]["generated"] == 0
    assert check_simulation(payload, plan.expected["setup"]) == []
    assert any("expected" in f for f in check_simulation(payload, plan.expected["full"]))


def test_a_changed_result_fails(tmp_path, launcher):
    plan = REDUCED["sim-long"].prepare(tmp_path, seed=7)
    bench_run = run.Run(plan, tmp_path, launcher)
    assert bench_run.command("full").failures == ()
    payload = json.loads((tmp_path / "sim-long-full.json").read_text())
    payload["report"]["latency_mean_s"] += 1e-9
    stdout = tmp_path / "changed.json"
    stdout.write_text(json.dumps(payload))
    op = bench_run.checked("full", "full", 0.0, 0.0, 0, stdout)
    assert any("differs from the first" in f for f in op.failures)


def test_expected_counts_match_the_stated_sizes():
    assert workloads.arrivals_per_source(5.0, 400.0) * 40 == 80_040
    assert workloads.arrivals_per_source(5.0, 2.0) * 8000 == 88_000
    assert workloads.arrivals_per_source(5.0, 800.0) * 20 == 80_000
    assert workloads.arrivals_per_source(0.0, 800.0) == 0


def test_self_time_excludes_children():
    spans = [["outer", 0.0, 10.0, None], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert self_times(spans) == {"outer": 6.0, "inner": 4.0}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(REDUCED))
def test_smoke_run_prints_every_metric(name, trace, tmp_path, launcher, capsys):
    result = run.benchmark(REDUCED[name], seed=3, seconds=0, trace=trace, out_dir=tmp_path,
                           launcher=launcher)
    printed = capsys.readouterr().out
    names = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"], printed
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(names)
    for metric, unit in names.items():
        assert f"{metric} = " in printed and printed.count(f" {unit}\n") >= 1
    assert "environment: python=" in printed and f"digest {name} seed=3 full=" in printed
    assert (tmp_path / f"result-{name}-seed3-trace{int(trace)}.json").is_file()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sim-long", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
