"""Command-line interface.

Subcommands: validate, predict, heatmap, simulate, compare.  Exit codes:
0 success, 2 argument errors, 3 configuration errors, 4 I/O errors.  Every
machine-readable output embeds a run manifest (command, resolved config,
workload, seed, tool version, timestamp); re-running with the manifest's
inputs reproduces the numbers exactly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .config import (
    ConfigError,
    DeploymentConfig,
    PRESET_NAMES,
    TIERS,
    _shown,
    check_config,
    load_preset,
    parse_config,
    render_config,
)
from .topology import DEFAULT_WORKLOAD, Topology, TopologyError, WorkloadProfile, build_topology

# Each command imports the analytic model or the simulator where it runs
# them, so heatmap never loads the simulator and simulate never loads the
# analytic model.
if TYPE_CHECKING:
    from .analytic import DeploymentFamily, OffloadOption, Verdict
    from .simulator import SimParams

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_CONFIG = 3
EXIT_IO = 4

DEFAULT_SEED = 42


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# shared plumbing


def _read_text(path: str) -> str:
    """The file as UTF-8 whatever the locale, without a byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from None


def _load_target(target: str) -> tuple[DeploymentConfig, str | None, Topology]:
    """Resolve a preset name or config file path to (config, preset_name,
    topology)."""
    try:
        if target in PRESET_NAMES:
            config, preset = load_preset(target), target
        else:
            config, preset = parse_config(_read_text(target)), None
        return config, preset, build_topology(config)
    except ConfigError as exc:
        listing = "\n".join(str(d) for d in exc.diagnostics if d.severity == "error")
        raise CliError(EXIT_CONFIG, f"{target} is not a usable config:\n{listing}") from None
    except TopologyError as exc:
        raise CliError(EXIT_CONFIG, str(exc)) from None


def _resolve_workload(args, config: DeploymentConfig | None) -> WorkloadProfile:
    """Built-in profile, rate from the config's benchmark section when
    present, both overridable by flags."""
    proc = dict(DEFAULT_WORKLOAD.proc_time)
    for entry in args.tproc:
        tier, _, value = entry.partition("=")
        try:
            seconds = float(value)  # without "=", value is "" and refused here
        except ValueError:
            seconds = None
        if tier not in TIERS or seconds is None:
            raise CliError(EXIT_ARGUMENT, f"--tproc takes TIER=SECONDS with tier one of {', '.join(TIERS)}, got {entry!r}")
        proc[tier] = seconds
    rate = args.rate
    if rate is None:
        if config is not None and config.benchmark.data_generation_frequency > 0:
            rate = config.benchmark.data_generation_frequency
        else:
            rate = DEFAULT_WORKLOAD.rate
    workload = WorkloadProfile(
        proc_time=proc,
        pre_time=args.tpre if args.tpre is not None else DEFAULT_WORKLOAD.pre_time,
        rate=rate,
        element_size=args.size if args.size is not None else DEFAULT_WORKLOAD.element_size,
    )
    workload.check()
    return workload


def _workload_dict(workload: WorkloadProfile) -> dict:
    return {
        "proc_time_s": dict(workload.proc_time),
        "pre_time_s": workload.pre_time,
        "rate_hz": workload.rate,
        "element_size_mbit": workload.element_size,
    }


def _manifest(command: str, *, seed: int | None = None, preset: str | None = None,
              config_text: str | None = None, workload: WorkloadProfile | None = None,
              parameters: dict | None = None) -> dict:
    data = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "preset": preset,
        "config_text": config_text,
        "workload": _workload_dict(workload) if workload is not None else None,
    }
    if parameters:
        data["parameters"] = parameters
    return data


def _drop_buffer(stream) -> None:
    """After a failed write to the interpreter's own stdout or stderr, point
    its descriptor at ``os.devnull``: its buffer keeps what failed, which
    the flush at exit would retry and fail (exit 120)."""
    if stream is not None and stream in (sys.__stdout__, sys.__stderr__):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _complain(text: str) -> None:
    """Write ``text`` to stderr and flush it.  A stderr that is closed
    (``None``) or fails loses the text, not the exit code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):
        _drop_buffer(sys.stderr)


def _emit(args, body: str) -> int:
    """Write the body to ``--out`` as UTF-8, else to stdout in the locale's
    codec, escaping what it cannot encode as stderr does.  A stdout that is
    closed (``None``) or fails, such as ``/dev/full``, is an I/O error, as
    an unwritable ``--out`` is."""
    try:
        if args.out:
            Path(args.out).write_text(body, encoding="utf-8")
        elif sys.stdout is None:
            raise OSError("it is closed")
        else:
            if isinstance(sys.stdout, io.TextIOWrapper):
                sys.stdout.reconfigure(errors="backslashreplace")
            sys.stdout.write(body)
            sys.stdout.flush()  # here, not at exit, so a failed write has an exit code
    except OSError as exc:
        if not args.out:
            _drop_buffer(sys.stdout)
        raise CliError(EXIT_IO, f"cannot write {args.out or 'standard output'}: {exc}") from None
    return EXIT_OK


_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False).encode


def _holds_rows(value) -> bool:
    """A non-empty list of lists, or a str-keyed dict with one below it."""
    if isinstance(value, dict):
        return any(map(_holds_rows, value.values())) and all(isinstance(key, str) for key in value)
    return isinstance(value, list) and bool(value) and all(isinstance(row, list) for row in value)


def _pieces(value) -> Iterator[str]:
    """``_encode(value)`` in pieces: a list of lists one inner list at a
    time, a dict above one key by key, anything else whole."""
    if not _holds_rows(value):
        yield _encode(value)
    elif isinstance(value, dict):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _encode(key) + ":"
            yield from _pieces(value[key])
        yield "}"
    else:
        for i, row in enumerate(value):
            yield "," if i else "["
            yield from _pieces(row)
        yield "]"


def _json_body(payload: dict) -> str:
    """The payload as compact JSON, then a newline, from ``json``'s C
    encoder (an indent would switch it to the pure-Python one).  That
    encoder holds a string per list item until it joins them, so a
    heatmap's rows are encoded one at a time and the pieces joined once.
    JSON has no infinity or NaN, so a result that holds one is refused with
    exit 2 instead of written as ``Infinity``."""
    try:
        return "".join([*_pieces(payload), "\n"])
    except ValueError:
        raise CliError(EXIT_ARGUMENT, "the inputs give a result that is not finite, "
                                      "which JSON cannot hold; use smaller values") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    text = _read_text(args.config)
    config, diagnostics = check_config(text)
    ok = config is not None
    if args.json:
        payload = {
            "manifest": _manifest("validate", config_text=render_config(config) if ok else text),
            "ok": ok,
            "diagnostics": list(map(asdict, diagnostics)),
        }
        _emit(args, _json_body(payload))
    else:
        lines = [str(d) for d in diagnostics]
        lines.append(f"{args.config}: {'ok' if ok else 'invalid'} "
                     f"({sum(d.severity == 'error' for d in diagnostics)} errors, "
                     f"{sum(d.severity == 'warning' for d in diagnostics)} warnings)")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_CONFIG


def _describe_verdict(verdict) -> str:
    state = "viable" if verdict.viable else "NOT viable [" + ", ".join(verdict.failed_conditions) + "]"
    return (f"{state}; load {verdict.load_percent:.1f}%, "
            f"data rate {verdict.required_bandwidth:.3g} Mbit/s per endpoint")


def _first_offload(workload: WorkloadProfile,
                   family: DeploymentFamily) -> tuple[str, OffloadOption, Verdict]:
    """The placement of the family's first offload option, the option and
    its verdict: the offload answer of ``predict`` and ``compare``."""
    from .analytic import offload_viability

    placement, option = next(iter(family.options.items()))
    verdict = offload_viability(workload, family.endpoint, option.worker,
                                option.endpoints_per_worker, option.link)
    return placement, option, verdict


def cmd_predict(args) -> int:
    from .analytic import family_from_topology, local_viability

    config, preset, topology = _load_target(args.target)
    family = family_from_topology(topology)
    workload = _resolve_workload(args, config)

    local = local_viability(workload, family.endpoint)
    placement, option, offload = _first_offload(workload, family)

    # the JSON body on both paths, so the text refuses what JSON cannot hold
    body = _json_body({
        "manifest": _manifest("predict", preset=preset, config_text=render_config(config), workload=workload),
        "local": local.to_dict(),
        "offload": {"placement": placement, **offload.to_dict()},
    })
    if args.json:
        return _emit(args, body)
    endpoint = family.endpoint
    worker = option.worker
    lines = [
        f"local on {endpoint.tier} ({endpoint.cores} cores x quota {endpoint.quota:g}): "
        + _describe_verdict(local),
        f"offload to {placement} ({worker.cores} cores x quota {worker.quota:g}, "
        f"{option.endpoints_per_worker} endpoints/worker, "
        f"{option.link.latency_avg_ms:g} ms, {option.link.throughput_mbit:g} Mbit/s): "
        + _describe_verdict(offload),
    ]
    return _emit(args, "\n".join(lines) + "\n")


def cmd_heatmap(args) -> int:
    from .analytic import REFERENCE_MARKERS, GridSpec, classify_at, family_from_topology, heatmap, reference_family

    spec = GridSpec(rate_max=args.rmax, proc_max=args.tmax,
                    rate_steps=args.resolution, proc_steps=args.resolution)
    if args.target is None:
        config, preset, config_text = None, None, "reference family"
        family = reference_family()
    else:
        config, preset, topology = _load_target(args.target)
        config_text = render_config(config)
        family = family_from_topology(topology)
    workload = _resolve_workload(args, config)

    grid = heatmap(spec, workload, family)
    markers = [
        {"label": label, "rate_hz": rate, "proc_s": proc,
         "class": classify_at(workload, family, rate, proc)}
        for label, rate, proc in REFERENCE_MARKERS
    ]
    manifest = _manifest(
        "heatmap", preset=preset, config_text=config_text, workload=workload,
        parameters={"rate_max": args.rmax, "proc_max": args.tmax, "resolution": args.resolution},
    )
    if args.json:
        payload = {"manifest": manifest, "grid": grid.to_dict(), "markers": markers}
        return _emit(args, _json_body(payload))
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}"]
    lines.append(grid.to_csv_text().rstrip("\n"))
    lines.append("")
    lines.append("marker,rate_hz,tproc_s,class")
    for marker in markers:
        lines.append(f"{marker['label']},{marker['rate_hz']:g},{marker['proc_s']:g},{marker['class']}")
    return _emit(args, "\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    from .simulator import SimParams, simulate, write_trace_csv

    config, preset, topology = _load_target(args.target)
    workload = _resolve_workload(args, config)
    params = SimParams(duration=args.duration, warmup=args.warmup, seed=args.seed,
                       max_elements=args.max_elements)
    report = simulate(topology, workload, params)

    manifest = _manifest(
        "simulate", seed=args.seed, preset=preset, config_text=render_config(config), workload=workload,
        parameters={"duration": args.duration, "warmup": params.warmup_s,
                    "max_elements": args.max_elements},
    )
    # the body first, so a result that JSON cannot hold leaves no trace file
    body = _json_body({"manifest": manifest, "report": report.to_dict()})
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as stream:
                stream.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
                write_trace_csv(report, stream)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {args.trace}: {exc}") from None
    return _emit(args, body)


def _preset_summary(name: str, topology: Topology, workload: WorkloadProfile,
                    params: SimParams, repeats: int) -> dict:
    """One row of the comparison: ``repeats`` runs from ``params.seed`` on,
    summarised by ``latency_summary`` over the means of the repeats that
    measured an element.  Only those means are kept, so memory does not
    grow with repeats."""
    from .analytic import family_from_topology
    from .simulator import latency_summary, simulate

    _, _, verdict = _first_offload(workload, family_from_topology(topology))
    means = []  # (latency, communication, compute, queueing) means per repeat that measured an element
    for i in range(repeats):
        report = simulate(topology, workload, replace(params, seed=params.seed + i))
        if report.measured:
            means.append((report.latency_mean_s, report.communication_mean_s, report.compute_mean_s,
                          report.queueing_mean_s))
        del report  # free it before the next repeat is simulated
    return {"name": name, "analytic_load_percent": verdict.load_percent, "repeats": repeats,
            **latency_summary(*(zip(*means) if means else [()] * 4))}


def cmd_compare(args) -> int:
    from .simulator import MAX_ELEMENTS, SimParams, estimated_elements

    if len(args.presets) < 2:
        raise CliError(EXIT_ARGUMENT, "compare needs at least two presets")
    if args.repeats < 1:
        raise CliError(EXIT_ARGUMENT, f"--repeats must be at least 1, got {args.repeats}")
    params = SimParams(duration=args.duration, warmup=args.warmup, seed=args.seed)
    runs = []  # (topology, workload) per preset
    for name in args.presets:
        config, _, topology = _load_target(name)
        runs.append((topology, _resolve_workload(args, config)))
    # bounded before anything is simulated; a run that generates nothing
    # counts as one element, so many empty runs are bounded too, and the run
    # count is bounded first, in ints, so a huge --repeats overflows no float
    run_count = args.repeats * len(runs)
    if run_count > MAX_ELEMENTS:
        raise CliError(EXIT_ARGUMENT, f"the comparison would make {_shown(run_count)} runs, at least one "
                                      f"element each, more than the budget of {MAX_ELEMENTS} elements")
    total = args.repeats * sum(max(1, estimated_elements(len(topology.sources), workload.rate, params))
                               for topology, workload in runs)
    if total > MAX_ELEMENTS:
        raise CliError(EXIT_ARGUMENT, f"the comparison would simulate about {total:.3g} elements in all "
                                      f"(at least one per run), more than the budget of {MAX_ELEMENTS}")

    rows = [_preset_summary(name, topology, workload, params, args.repeats)
            for name, (topology, workload) in zip(args.presets, runs)]
    manifest = _manifest(
        "compare", seed=args.seed,
        parameters={"presets": list(args.presets), "repeats": args.repeats,
                    "duration": args.duration, "warmup": args.warmup,
                    "workloads": {name: _workload_dict(w) for name, (_, w) in zip(args.presets, runs)}},
    )
    body = _json_body({"manifest": manifest, "presets": rows})  # refused on both paths, as in predict
    if args.json:
        return _emit(args, body)

    def ms(seconds: float | None, width: int = 8, digits: int = 1) -> str:
        if seconds is None:
            return f"{'-':>{width}}"
        value = seconds * 1000
        if value == float("inf"):  # finite seconds beyond the float range in ms
            from decimal import Decimal
            value = Decimal(seconds).scaleb(3)
        return f"{value:>{width}.{digits}f}"

    lines = [f"{'preset':<12}{'load %':>8}  {'total ms':>8} {'sd':>6}  "
             f"{'comm ms':>8}  {'compute ms':>10}  {'queue ms':>8}"]
    for row in rows:
        lines.append(
            f"{row['name']:<12}{row['analytic_load_percent']:>8.1f}  "
            f"{ms(row['latency_mean_s'])} {ms(row['latency_sd_s'], 6, 2)}  "
            f"{ms(row['communication_mean_s'])}  {ms(row['compute_mean_s'], 10)}  "
            f"{ms(row['queueing_mean_s'])}"
        )
    lines.append(f"({args.repeats} runs per preset, seeds {args.seed}..{args.seed + args.repeats - 1}, "
                 f"{args.duration:g} s each)")
    return _emit(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parser


# a negative value in any form float() reads.  argparse's own pattern (as of
# Python 3.11) takes only -2 and -2.5 for numbers and reads -1e-3 or -inf as
# an option, which ends in "expected one argument" before the library's
# range check can name the range.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every negative number as a value and
    writes its help as a command writes its output.  Its subcommand parsers
    are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def print_help(self, file=None) -> None:
        """``--help`` writes through ``_emit``: a stdout that is closed or
        fails exits 4, where argparse lost the help and exited 0."""
        if file is not None:
            return super().print_help(file)
        try:
            _emit(argparse.Namespace(out=None), self.format_help())
        except CliError as exc:
            _complain(f"{self.prog}: {exc}\n")
            self.exit(exc.code)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tierplan",
        description="Plan where stream processing fits across cloud, edge, and endpoints.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed of simulate and compare (default {DEFAULT_SEED}); "
                             "the other commands draw nothing, ignore it and record a null seed")
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--tproc", action="append", default=[], metavar="TIER=SECONDS",
                          help="per-element processing time on a tier (repeatable)")
    workload.add_argument("--tpre", type=float, metavar="SECONDS",
                          help="per-element preprocessing time on the endpoint")
    workload.add_argument("--rate", type=float, metavar="HZ",
                          help="elements generated per second per endpoint")
    workload.add_argument("--size", type=float, metavar="MBIT", help="element size in Mbit")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--duration", type=float, default=40.0, help="simulated seconds per run")
    run.add_argument("--warmup", type=float, help="seconds excluded from metrics (default 10%%)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a config file, print diagnostics")
    p.add_argument("config", metavar="CONFIG", help="config file path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("predict", parents=[common, workload],
                       help="analytic local and offload viability for a deployment")
    p.add_argument("target", metavar="TARGET", help="preset name or config file path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("heatmap", parents=[common, workload],
                       help="classify the rate x processing-time design space")
    p.add_argument("target", nargs="?", metavar="TARGET",
                   help="preset name or config path (default: built-in reference family)")
    p.add_argument("--rmax", type=float, default=10.0, help="largest rate sample (Hz)")
    p.add_argument("--tmax", type=float, default=0.5, help="largest processing-time sample (s)")
    p.add_argument("--resolution", type=int, default=21, help="samples per axis")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("simulate", parents=[common, workload, run],
                       help="discrete-event simulation of one deployment")
    p.add_argument("target", metavar="TARGET", help="preset name or config file path")
    p.add_argument("--max-elements", type=int, help="per-endpoint cap on generated elements")
    p.add_argument("--trace", metavar="PATH", help="also write a per-element CSV trace")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[common, workload, run],
                       help="repeated simulations across presets, side by side")
    p.add_argument("presets", nargs="+", metavar="PRESET", choices=PRESET_NAMES,
                   help=f"presets to compare ({', '.join(PRESET_NAMES)})")
    p.add_argument("--repeats", type=int, default=3, help="seeded repetitions per preset")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        _complain("")  # argparse ignores a usage message it failed to write, but the flush at exit would not
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # a ValueError is an input the library refused
        _complain(f"tierplan {args.command}: {exc}\n")
        return exc.code if isinstance(exc, CliError) else EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
