"""Traced run of one tierplan command, in a fresh interpreter.

    python3 bench/traced.py pipeline RESULT.json OUT.json -- CLI-ARGS...
    python3 bench/traced.py probes RESULT.json -- CLI-ARGS...

``pipeline`` repeats what ``python -m tierplan.cli CLI-ARGS`` does, calling
the package's public functions in the CLI's order, and records a span around
each call.  It writes the JSON payload the CLI would print to OUT.json, so
the caller can check that the traced path computed the same result.  numpy
is imported first, so ``import.tierplan`` excludes it.

``probes`` times what the CLI does not call on its own: ``Topology.device``
for every source, the same simulation at rate 0, and the endpoint sweep of
``build_topology`` and the lookups.

Spans stay in memory and go to RESULT.json when the run ends, with the
counts taken at the same boundaries.  Only the standard library is imported
before the timed imports.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

SWEEP_ENDPOINTS = (40, 400, 4000, 8000)


class Tracer:
    """Spans as [name, start_s, end_s, parent index], relative to creation."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter() - self.t0


def self_times(spans: list[list]) -> dict[str, float]:
    """Each span name's duration minus the part its child spans cover,
    summed over the spans of that name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def scaled_edge_large(endpoints: int):
    """edge-large's devices and links with ``endpoints`` endpoints, one edge
    worker per four of them and the cloud controller, so the load stays 70%."""
    from dataclasses import replace

    from tierplan import load_preset

    return replace(load_preset("edge-large"), devices_per_tier=(1, endpoints // 4, endpoints))


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _load_target(target: str):
    from tierplan import PRESET_NAMES, load_preset, parse_config

    if target in PRESET_NAMES:
        return load_preset(target), target
    return parse_config(Path(target).read_text()), None


def _workload(args, config):
    """The CLI's workload resolution: the built-in profile, the config's
    generation rate, then the flags."""
    from tierplan import DEFAULT_WORKLOAD, WorkloadProfile

    proc = dict(DEFAULT_WORKLOAD.proc_time)
    for entry in args.tproc:
        tier, _, value = entry.partition("=")
        proc[tier] = float(value)
    rate = args.rate
    if rate is None:
        if config is not None and config.benchmark.data_generation_frequency > 0:
            rate = config.benchmark.data_generation_frequency
        else:
            rate = DEFAULT_WORKLOAD.rate
    return WorkloadProfile(
        proc_time=proc,
        pre_time=DEFAULT_WORKLOAD.pre_time if args.tpre is None else args.tpre,
        rate=rate,
        element_size=DEFAULT_WORKLOAD.element_size if args.size is None else args.size,
    )


def _manifest(command, *, seed, preset, config_text, workload, parameters) -> dict:
    from tierplan import __version__

    return {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "preset": preset,
        "config_text": config_text,
        "workload": {
            "proc_time_s": dict(workload.proc_time),
            "pre_time_s": workload.pre_time,
            "rate_hz": workload.rate,
            "element_size_mbit": workload.element_size,
        },
        "parameters": parameters,
    }


def _lookup_every_source(topology) -> None:
    for ids in topology.assignment.values():
        for source_id in ids:
            topology.device(source_id)


def _simulate(args, tracer: Tracer, counts: dict) -> dict:
    from tierplan import SimParams, build_topology, render_config, simulate, write_trace_csv

    with tracer.span("config.load"):
        config, preset = _load_target(args.target)
    with tracer.span("topology.build"):
        topology = build_topology(config)
    workload = _workload(args, config)
    params = SimParams(duration=args.duration, warmup=args.warmup, seed=args.seed,
                       max_elements=args.max_elements)
    rss_before = _max_rss_mib()
    with tracer.span("simulator.simulate"):
        report = simulate(topology, workload, params)
    counts["simulator.rss_growth_mb"] = _max_rss_mib() - rss_before
    counts["simulator.elements"] = report.generated
    counts["simulator.completed"] = report.completed
    counts["simulator.backlog"] = report.backlog
    with tracer.span("config.render"):
        manifest = _manifest(
            "simulate", seed=args.seed, preset=preset, config_text=render_config(config),
            workload=workload,
            parameters={"duration": args.duration, "warmup": params.warmup_s,
                        "max_elements": args.max_elements},
        )
    if args.trace:
        with tracer.span("simulator.trace_csv"):
            buffer = io.StringIO()
            write_trace_csv(report, buffer)
            text = f"# manifest: {json.dumps(manifest, sort_keys=True)}\n" + buffer.getvalue()
            Path(args.trace).write_text(text)
        counts["simulator.trace_bytes"] = Path(args.trace).stat().st_size
    with tracer.span("simulator.to_dict"):
        return {"manifest": manifest, "report": report.to_dict()}


def _heatmap(args, tracer: Tracer, counts: dict) -> dict:
    from tierplan import REFERENCE_MARKERS, GridSpec, classify_at, heatmap, reference_family

    if args.target is not None:
        raise SystemExit("traced heatmap covers the reference family only")
    spec = GridSpec(rate_max=args.rmax, proc_max=args.tmax,
                    rate_steps=args.resolution, proc_steps=args.resolution)
    with tracer.span("analytic.reference_family"):
        family = reference_family()
    workload = _workload(args, None)
    with tracer.span("analytic.heatmap"):
        grid = heatmap(spec, workload, family)
    counts["analytic.cells"] = len(grid.rates) * len(grid.proc_times)
    with tracer.span("analytic.markers"):
        markers = [
            {"label": label, "rate_hz": rate, "proc_s": proc,
             "class": classify_at(workload, family, rate, proc)}
            for label, rate, proc in REFERENCE_MARKERS
        ]
    manifest = _manifest(
        "heatmap", seed=None, preset=None, config_text="reference family", workload=workload,
        parameters={"rate_max": args.rmax, "proc_max": args.tmax, "resolution": args.resolution},
    )
    with tracer.span("analytic.to_dict"):
        return {"manifest": manifest, "grid": grid.to_dict(), "markers": markers}


def pipeline(cli_args: list[str], out_path: Path, tracer: Tracer, counts: dict) -> None:
    with tracer.span("import.numpy"):
        import numpy  # noqa: F401
    with tracer.span("import.tierplan"):
        import tierplan.cli
    with tracer.span("cli.parse"):
        args = tierplan.cli.build_parser().parse_args(cli_args)
    if args.command == "simulate":
        payload = _simulate(args, tracer, counts)
    elif args.command == "heatmap":
        payload = _heatmap(args, tracer, counts)
    else:
        raise SystemExit(f"no traced pipeline for {args.command!r}")
    with tracer.span("cli.json"):
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    counts["cli.output_bytes"] = len(body.encode())
    with tracer.span("cli.write"):
        out_path.write_text(body)


def probes(cli_args: list[str], tracer: Tracer, counts: dict) -> None:
    import tierplan.cli
    from tierplan import SimParams, build_topology, simulate

    args = tierplan.cli.build_parser().parse_args(cli_args)
    if args.command == "simulate":
        config, _ = _load_target(args.target)
        topology = build_topology(config)
        with tracer.span("topology.lookup"):
            _lookup_every_source(topology)
        params = SimParams(duration=args.duration, warmup=args.warmup, seed=args.seed,
                           max_elements=args.max_elements)
        with tracer.span("simulator.simulate.rate0"):
            simulate(topology, _workload(args, config).with_rate(0.0), params)
    for endpoints in SWEEP_ENDPOINTS:
        config = scaled_edge_large(endpoints)
        with tracer.span(f"topology.build.n{endpoints}"):
            topology = build_topology(config)
        with tracer.span(f"topology.lookup.n{endpoints}"):
            _lookup_every_source(topology)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    mode, result_path, rest = argv[0], Path(argv[1]), argv[2:]
    split = rest.index("--")
    counts: dict = {}
    if mode == "pipeline":
        pipeline(rest[split + 1:], Path(rest[0]), tracer, counts)
    elif mode == "probes":
        probes(rest[split + 1:], tracer, counts)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result_path.write_text(json.dumps({"spans": tracer.spans, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
