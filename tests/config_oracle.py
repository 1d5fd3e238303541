"""The config parser and renderer before they were driven by one key table.

``_parse_structure`` and ``render_config`` are kept verbatim, with the
helpers they call, as the oracle of the differential test in
``tests/test_config_table.py``: the table-driven versions in
``tierplan.config`` must produce the same diagnostics, the same configs and
the same text.
"""

from __future__ import annotations

import math

from tierplan.config import (
    _PAIR_KEYS,
    _TIER_RANK,
    BenchmarkConfig,
    DeploymentConfig,
    Diagnostic,
    TierPair,
    pair_key,
)


def _split(value: str) -> list[str]:
    return [part.strip() for part in value.split(",")]


def _parse_structure(text: str) -> tuple[DeploymentConfig | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    raw: dict = {
        "devices_per_tier": None,
        "cores_per_device": None,
        "quota_per_cpu": None,
        "latency": {},
        "throughput": {},
        "hypervisor": None,
        "thread_pinning": None,
        "machine_address": None,
        "use_benchmark": None,
        "data_generation_frequency": None,
        "application": None,
        "resource_manager": None,
    }
    seen: set = set()
    section: str | None = None
    section_known = False

    def error(key: str, msg: str) -> None:
        diags.append(Diagnostic("error", key, msg))

    def number(token: str, key: str, where: str) -> float | None:
        try:
            value = float(token)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            error(key, f"{where}: value for '{key}' must be a finite number, got {token!r}")
            return None
        return value

    def integer(token: str, key: str, where: str) -> int | None:
        try:
            return int(token)
        except ValueError:
            error(key, f"{where}: value for '{key}' must be an integer, got {token!r}")
            return None

    def boolean(token: str, key: str, where: str) -> bool | None:
        if token.lower() == "true":
            return True
        if token.lower() == "false":
            return False
        error(key, f"{where}: value for '{key}' must be True or False, got {token!r}")
        return None

    def once(mark: tuple, key: str, where: str, what: str) -> bool:
        if mark in seen:
            error(key, f"{where}: duplicate {what}")
            return False
        seen.add(mark)
        return True

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        where = f"line {lineno}"
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                error("", f"{where}: malformed section header {stripped!r}")
                section, section_known = None, False
                continue
            name = stripped[1:-1].strip()
            section, section_known = name, name in ("infrastructure", "benchmark")
            if not section_known:
                error(name, f"{where}: unknown section [{name}]")
            else:
                once(("section", name), name, where, f"section [{name}]")
            continue
        if "=" not in stripped:
            error("", f"{where}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            error(key, f"{where}: '{key}' appears before any [section] header")
            continue
        if not section_known:
            continue  # the unknown-section error already covers its keys

        if section == "infrastructure":
            if key in _PAIR_KEYS:
                pair = _PAIR_KEYS[key]
                parts = _split(value)
                if len(parts) == 2:
                    kind = "latency"
                elif len(parts) == 1:
                    kind = "throughput"
                else:
                    error(key, f"{where}: '{key}' takes 'average,variability' (latency) "
                               f"or one number (throughput), got {len(parts)} values")
                    continue
                if not once(("infrastructure", kind, pair), key, where,
                            f"{kind} entry for the {pair_key(pair)} link"):
                    continue
                nums = [number(part, key, where) for part in parts]
                if any(n is None for n in nums):
                    continue
                if kind == "latency":
                    raw["latency"][pair] = (nums[0], nums[1])
                else:
                    raw["throughput"][pair] = nums[0]
            elif key in ("devices_per_tier", "cores_per_device", "quota_per_cpu"):
                if not once(("infrastructure", key), key, where, f"key '{key}'"):
                    continue
                parts = _split(value)
                if len(parts) != 3:
                    error(key, f"{where}: '{key}' takes three comma-separated values "
                               f"in cloud,edge,endpoint order, got {len(parts)}")
                    continue
                if key == "quota_per_cpu":
                    vals = [number(part, key, where) for part in parts]
                else:
                    vals = [integer(part, key, where) for part in parts]
                if any(v is None for v in vals):
                    continue
                raw[key] = tuple(vals)
            elif key == "hypervisor":
                if once(("infrastructure", key), key, where, f"key '{key}'"):
                    raw[key] = value
            elif key == "thread_pinning":
                if once(("infrastructure", key), key, where, f"key '{key}'"):
                    parsed = boolean(value, key, where)
                    if parsed is not None:
                        raw[key] = parsed
            elif key == "machine_address":
                if once(("infrastructure", key), key, where, f"key '{key}'"):
                    parts = _split(value)
                    if any(not part for part in parts):
                        error(key, f"{where}: '{key}' has an empty address entry")
                    else:
                        raw[key] = tuple(parts)
            else:
                error(key, f"{where}: unknown key '{key}' in [infrastructure]")
        else:  # benchmark
            if key == "use_benchmark":
                if once(("benchmark", key), key, where, f"key '{key}'"):
                    parsed = boolean(value, key, where)
                    if parsed is not None:
                        raw[key] = parsed
            elif key == "data_generation_frequency":
                if once(("benchmark", key), key, where, f"key '{key}'"):
                    parsed = number(value, key, where)
                    if parsed is not None:
                        raw[key] = parsed
            elif key in ("application", "resource_manager"):
                if once(("benchmark", key), key, where, f"key '{key}'"):
                    raw[key] = value
            else:
                error(key, f"{where}: unknown key '{key}' in [benchmark]")

    if ("section", "infrastructure") not in seen:
        error("infrastructure", "missing [infrastructure] section")
    for required in ("devices_per_tier", "cores_per_device", "quota_per_cpu"):
        if ("infrastructure", required) in seen:
            continue
        if ("section", "infrastructure") in seen:
            error(required, f"missing required key '{required}' in [infrastructure]")

    if raw["devices_per_tier"] is None or raw["cores_per_device"] is None or raw["quota_per_cpu"] is None:
        return None, diags

    config = DeploymentConfig(
        devices_per_tier=raw["devices_per_tier"],
        cores_per_device=raw["cores_per_device"],
        quota_per_cpu=tuple(float(q) for q in raw["quota_per_cpu"]),
        latency=raw["latency"],
        throughput=raw["throughput"],
        benchmark=BenchmarkConfig(
            use_benchmark=bool(raw["use_benchmark"]) if raw["use_benchmark"] is not None else False,
            data_generation_frequency=raw["data_generation_frequency"] or 0.0,
            application=raw["application"] or "",
            resource_manager=raw["resource_manager"] or "",
        ),
        hypervisor=raw["hypervisor"],
        thread_pinning=raw["thread_pinning"],
        machine_address=raw["machine_address"],
    )
    return config, diags


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and math.isfinite(value):
        return str(int(value))
    return repr(value)


def _fmt_seq(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _pair_rank(pair: TierPair) -> tuple[int, int]:
    return (_TIER_RANK[pair[0]], _TIER_RANK[pair[1]])


def render_config(config: DeploymentConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c for valid c.

    Canonical means: [infrastructure] first, fixed key order, tier pairs
    sorted cloud < edge < endpoint, latency entries before throughput
    entries, numbers in their shortest round-tripping form.
    """
    lines = ["[infrastructure]"]
    if config.hypervisor is not None:
        lines.append(f"hypervisor = {config.hypervisor}")
    if config.thread_pinning is not None:
        lines.append(f"thread_pinning = {config.thread_pinning}")
    lines.append(f"devices_per_tier = {_fmt_seq(config.devices_per_tier)}")
    lines.append(f"cores_per_device = {_fmt_seq(config.cores_per_device)}")
    lines.append(f"quota_per_cpu = {_fmt_seq(config.quota_per_cpu)}")
    for pair in sorted(config.latency, key=_pair_rank):
        avg, sd = config.latency[pair]
        lines.append(f"{pair_key(pair)} = {_fmt(avg)},{_fmt(sd)}")
    for pair in sorted(config.throughput, key=_pair_rank):
        lines.append(f"{pair_key(pair)} = {_fmt(config.throughput[pair])}")
    if config.machine_address is not None:
        lines.append(f"machine_address = {','.join(config.machine_address)}")
    bench = config.benchmark
    lines += [
        "",
        "[benchmark]",
        f"use_benchmark = {bench.use_benchmark}",
        f"data_generation_frequency = {_fmt(bench.data_generation_frequency)}",
        f"application = {bench.application}",
        f"resource_manager = {bench.resource_manager}",
    ]
    return "\n".join(lines) + "\n"
