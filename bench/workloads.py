"""The benchmark's workloads, the inputs they generate and the checks that
hold each output to the analytic model.

Every workload is one ``tierplan`` CLI command at a fixed input size, run
full and with its work set to zero (the set-up command).  ``prepare`` turns
a workload into a ``Plan``: the two command lines for one seed, the
results the analytic model predicts for them, and ``check``, which returns
the failures found in one command's output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import jsonschema  # noqa: E402

from tierplan import (  # noqa: E402
    DEFAULT_WORKLOAD,
    NOT_VIABLE,
    PLACEMENTS,
    REFERENCE_MARKERS,
    WORKER_CAPACITY,
    SimParams,
    WorkloadProfile,
    build_topology,
    classify_at,
    family_from_topology,
    load_preset,
    offload_viability,
    reference_family,
    render_config,
)
from tierplan.schemas import HEATMAP_OUTPUT_SCHEMA, SIMULATE_OUTPUT_SCHEMA  # noqa: E402

from traced import scaled_edge_large  # noqa: E402

LOAD_TOLERANCE_PP = 1.0     # acceptance criterion 4
GROWTH_TOLERANCE = 0.05     # TestOverload
SAMPLED_CELLS = 64          # heatmap cells re-classified one by one per output


@dataclass(frozen=True)
class Expected:
    """What the analytic model predicts for one command."""

    generated: int
    workers: int
    load_percent: float
    backlog_growth: float   # elements over the measured window; 0 when stable


@dataclass
class Plan:
    """A workload's commands for one seed, with what each should print."""

    workload: Simulation | Grid
    seed: int
    full: list[str]
    setup: list[str]
    items: int                  # elements or cells the full command produces
    expected: dict[str, object]  # per command kind: an Expected, or a grid resolution
    traces: dict[str, Path] = field(default_factory=dict)  # per kind, the --trace CSV
    validate: list[str] | None = None
    _checked: dict = field(default_factory=dict, repr=False)

    def check(self, kind: str, exit_code: int, stdout: bytes) -> tuple[str | None, list[str]]:
        """(digest, failures) of one run of the ``kind`` command.  Outputs
        with a digest already checked reuse that verdict."""
        if exit_code != 0:
            return None, [f"exit code {exit_code}"]
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return None, [f"stdout is not JSON: {exc}"]
        trace_body = None
        if kind in self.traces:
            try:
                trace_body = self.traces[kind].read_text().partition("\n")[2]
            except OSError as exc:
                return None, [f"trace not readable: {exc}"]
        key = (kind, digest(payload, trace_body))
        if key not in self._checked:
            self._checked[key] = self.workload.check(self, kind, payload, trace_body)
        return key[1], self._checked[key]


def check_validate(exit_code: int, stdout: bytes) -> list[str]:
    """``tierplan validate --json`` accepted the generated config."""
    if exit_code != 0:
        return [f"validate exit code {exit_code}"]
    try:
        ok = json.loads(stdout).get("ok")
    except ValueError as exc:
        return [f"validate stdout is not JSON: {exc}"]
    return [] if ok is True else ["validate did not report ok"]


def _schema_failures(payload, schema) -> list[str]:
    validator = jsonschema.validators.validator_for(schema)(schema)
    return [f"schema: {error.message[:200]}" for error in validator.iter_errors(payload)][:5]


def digest(payload: dict, trace_body: str | None = None) -> str:
    """sha256 of the result: the payload without its manifest, and the trace
    CSV without its manifest line.  The manifest records the inputs, which
    the command line fixes, and the time of the run."""
    body = {k: v for k, v in payload.items() if k != "manifest"}
    h = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    if trace_body is not None:
        h.update(trace_body.encode())
    return h.hexdigest()


def arrivals_per_source(rate: float, duration: float) -> int:
    """Elements one source generates: at 0, then every 1/rate seconds while
    before ``duration``, the interval added up as the simulator adds it."""
    if rate == 0:
        return 0
    count, t, interval = 0, 0.0, 1.0 / rate
    while t < duration:
        count += 1
        t += interval
    return count


def check_simulation(payload: dict, expected: Expected) -> list[str]:
    failures = _schema_failures(payload, SIMULATE_OUTPUT_SCHEMA)
    if failures:
        return failures
    report = payload["report"]
    generated = report["generated"]
    if generated != expected.generated:
        failures.append(f"generated {generated}, expected {expected.generated}")
    if generated != report["completed"] + report["backlog"]:
        failures.append(f"generated {generated} != completed {report['completed']} + backlog {report['backlog']}")
    if generated != sum(report["phase_counts"].values()):
        failures.append(f"generated {generated} != sum of phase_counts {sum(report['phase_counts'].values())}")
    loads = report["worker_load_percent"]
    if len(loads) != expected.workers:
        failures.append(f"{len(loads)} workers reported, expected {expected.workers}")
    off = {w: v for w, v in loads.items() if not abs(v - expected.load_percent) <= LOAD_TOLERANCE_PP}
    if off:
        worker, load = next(iter(off.items()))
        failures.append(f"{len(off)} worker loads off the analytic {expected.load_percent:.4f}%, "
                        f"e.g. {worker} at {load:.4f}%")
    if expected.backlog_growth > 0:
        growth = report["backlog"] - report["backlog_at_warmup"]
        if not abs(growth - expected.backlog_growth) <= GROWTH_TOLERANCE * expected.backlog_growth:
            failures.append(f"backlog grew by {growth}, the model predicts {expected.backlog_growth:.1f}")
    return failures


def trace_rows(body: str) -> int:
    """Data rows of a trace CSV without its manifest line."""
    return sum(1 for _ in csv.reader(io.StringIO(body))) - 1


def check_grid(payload: dict, resolution: int, seed: int) -> list[str]:
    failures = _schema_failures(payload, HEATMAP_OUTPUT_SCHEMA)
    if failures:
        return failures
    grid = payload["grid"]
    rates, procs, cells = grid["rates_hz"], grid["proc_times_s"], grid["cells"]
    shape = (len(procs), len(rates), len(cells), {len(row) for row in cells})
    if shape != (resolution, resolution, resolution, {resolution}):
        return [f"grid shape {shape}, expected {resolution}x{resolution}"]
    labels = {label for row in cells for label in row}
    if not labels <= {*PLACEMENTS, NOT_VIABLE}:
        failures.append(f"unknown labels {sorted(labels - {*PLACEMENTS, NOT_VIABLE})}")
    family = reference_family()
    markers = {m["label"]: m for m in payload["markers"]}
    for label, rate, proc in REFERENCE_MARKERS:
        marker = markers.get(label)
        if marker is None:
            failures.append(f"marker {label} missing")
        elif marker["class"] != classify_at(DEFAULT_WORKLOAD, family, rate, proc):
            failures.append(f"marker {label} is {marker['class']}")
    pick = random.Random(seed)
    for _ in range(SAMPLED_CELLS):
        i, j = pick.randrange(resolution), pick.randrange(resolution)
        want = classify_at(DEFAULT_WORKLOAD, family, rates[j], procs[i])
        if cells[i][j] != want:
            failures.append(f"cell ({procs[i]}, {rates[j]}) is {cells[i][j]}, classify_at says {want}")
            break
    return failures


@dataclass(frozen=True)
class Simulation:
    """``simulate TARGET --duration D --json`` with the default profile.

    TARGET is ``preset``, or, when ``endpoints`` is given, a config file
    generated with edge-large's specs at that many endpoints.  The set-up
    command adds ``--rate 0``.
    """

    name: str
    why: str
    duration: float
    preset: str | None = None
    endpoints: int | None = None
    tproc: tuple[str, ...] = ()
    trace: bool = False

    def prepare(self, out_dir: Path, seed: int) -> Plan:
        if self.endpoints is not None:
            config = scaled_edge_large(self.endpoints)
            target = str(out_dir / f"{self.name}.conf")
            Path(target).write_text(render_config(config))
            validate = ["validate", "--json", target]
        else:
            config, target, validate = load_preset(self.preset), self.preset, None
        topology = build_topology(config)
        proc = dict(DEFAULT_WORKLOAD.proc_time)
        proc.update((t, float(v)) for t, v in (entry.split("=") for entry in self.tproc))
        workload = WorkloadProfile(proc, DEFAULT_WORKLOAD.pre_time,
                                   config.benchmark.data_generation_frequency or DEFAULT_WORKLOAD.rate,
                                   DEFAULT_WORKLOAD.element_size)
        family = family_from_topology(topology)
        option = next(iter(family.options.values()))
        window = self.duration - SimParams(self.duration).warmup_s

        def expect(profile: WorkloadProfile) -> Expected:
            verdict = offload_viability(profile, family.endpoint, option.worker,
                                        option.endpoints_per_worker, option.link)
            check = next(c for c in verdict.checks if c.name == WORKER_CAPACITY)
            slope = max(0.0, check.demand - check.capacity) / profile.proc_on(option.worker.tier)
            return Expected(
                generated=len(topology.sources) * arrivals_per_source(profile.rate, self.duration),
                workers=len(topology.workers),
                load_percent=verdict.load_percent,
                backlog_growth=slope * len(topology.workers) * window,
            )

        def argv(kind: str) -> list[str]:
            args = ["simulate", target, "--duration", repr(self.duration), "--json", "--seed", str(seed)]
            for entry in self.tproc:
                args += ["--tproc", entry]
            if self.trace:
                args += ["--trace", str(traces[kind])]
            return args + (["--rate", "0"] if kind == "setup" else [])

        traces = {kind: out_dir / f"{self.name}-{kind}.csv" for kind in ("full", "setup")} if self.trace else {}
        full = expect(workload)
        return Plan(self, seed, argv("full"), argv("setup"), full.generated,
                    {"full": full, "setup": expect(workload.with_rate(0.0))}, traces, validate)

    def check(self, plan: Plan, kind: str, payload: dict, trace_body: str | None) -> list[str]:
        failures = check_simulation(payload, plan.expected[kind])
        if trace_body is not None and not failures:
            rows = trace_rows(trace_body)
            if rows != payload["report"]["generated"]:
                failures.append(f"trace has {rows} rows for {payload['report']['generated']} elements")
        return failures


@dataclass(frozen=True)
class Grid:
    """``heatmap --resolution N --json`` on the reference family; the set-up
    command uses the smallest grid, 2x2."""

    name: str
    why: str
    resolution: int

    def prepare(self, out_dir: Path, seed: int) -> Plan:
        def argv(resolution: int) -> list[str]:
            return ["heatmap", "--resolution", str(resolution), "--json", "--seed", str(seed)]

        return Plan(self, seed, argv(self.resolution), argv(2), self.resolution ** 2,
                    {"full": self.resolution, "setup": 2})

    def check(self, plan: Plan, kind: str, payload: dict, trace_body: str | None) -> list[str]:
        return check_grid(payload, plan.expected[kind], plan.seed)


WORKLOADS = {
    w.name: w
    for w in (
        Simulation(
            "sim-long",
            "cloud preset for 400 s, 80,040 elements at 70% load: the event loop dominates",
            duration=400.0, preset="cloud"),
        Simulation(
            "sim-wide",
            "8,000 endpoints on 2,000 edge workers for 2 s: set-up, including the per-source "
            "device lookup, dominates",
            duration=2.0, endpoints=8000),
        Simulation(
            "sim-overload-trace",
            "edge-small at 106.7% load for 800 s: queues grow and all 80,000 elements are "
            "written as a CSV trace",
            duration=800.0, preset="edge-small", tproc=("edge=0.16",), trace=True),
        Grid(
            "plan-grid",
            "reference family heatmap at 201x201, 40,401 cells: the analytic grid and JSON "
            "serialisation, no simulation",
            resolution=201),
    )
}

