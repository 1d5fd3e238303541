"""The config parser, renderer and validator as they were before each was
driven by one walk of the key table.

``_parse_structure`` and ``render_config`` (before the key table), and
``validate`` (before one walk of the table checked each value's shape and
type) are kept verbatim, with the helpers they call, as the oracle of the
differential test in ``tests/test_config_table.py``: the table-driven
versions in ``tierplan.config`` must produce the same diagnostics, the same
configs and the same text.
"""

from __future__ import annotations

import math

from tierplan.config import (
    _BOOLEAN,
    _INTEGER,
    _KEYS,
    _LIST,
    _NUMBER,
    _ONE,
    _PAIR,
    _PAIR_KEYS,
    _PER_TIER,
    _TEXT,
    _TIER_RANK,
    EMULATION_KEYS,
    MAX_DEVICES,
    TIERS,
    BenchmarkConfig,
    DeploymentConfig,
    Diagnostic,
    PlanError,
    TierPair,
    WorkerPlan,
    pair_key,
    worker_plan,
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


def _is_a(value, kind: tuple) -> bool:
    """Whether ``value`` has a Python type of the value type ``kind``.  A
    bool is not an integer or a number: it renders as text no number
    parser reads."""
    return isinstance(value, kind[2]) and (kind is _BOOLEAN or not isinstance(value, bool))


def _unwritable_text(key: str, arity: str, value) -> str | None:
    """Why ``render_config`` cannot write a text value back, or None.  The
    parser strips the text around a value, reads one value per line and
    splits a list at commas."""
    listed = arity is _LIST
    entries = value if listed else (value,)
    if listed and not entries:
        return f"{key} must list at least one entry"
    for entry in entries:
        if not _is_a(entry, _TEXT):
            return f"{key} must be {_TEXT[1]}, got {entry!r}"
        if listed and (not entry or "," in entry):
            return f"{key} entries must be non-empty and contain no comma, got {entry!r}"
        if entry != entry.strip() or len(entry.splitlines()) > 1:
            return f"{key} must not begin or end with whitespace or contain a line break, got {entry!r}"
    return None


def validate(config: DeploymentConfig) -> list[Diagnostic]:
    """All invariant violations in ``config``.

    No error-severity entry means the config can be turned into a topology
    and that ``render_config`` writes it back as text that parses to it.
    Emulation-only keys that are present each contribute one warning.
    """
    diags: list[Diagnostic] = []

    def error(key: str, msg: str) -> None:
        diags.append(Diagnostic("error", key, msg))

    for name, (arity, _) in _KEYS["infrastructure"].items():
        if arity is _PER_TIER and len(getattr(config, name)) != len(TIERS):
            error(name, f"{name} must have one entry per tier (cloud,edge,endpoint)")
            return diags

    # A number or boolean of another type would make the checks below raise
    # or write a value the parser refuses: report each in the words of the
    # key table, and stop.  Counts and text are checked below.
    for section, table in _KEYS.items():
        record = config if section == "infrastructure" else config.benchmark
        for key, (arity, kind) in table.items():
            if kind is not _NUMBER and kind is not _BOOLEAN:
                continue
            if arity is _PAIR:
                named = [(pair_key(pair), v) for pair, values in config.latency.items() for v in values]
                named += [(pair_key(pair), v) for pair, v in config.throughput.items()]
            elif (value := getattr(record, key)) is None:
                continue
            else:
                named = [(key, v) for v in ((value,) if arity is _ONE else value)]
            for name, v in named:
                if not _is_a(v, kind):
                    error(name, f"{name} must be {kind[1]}, got {v!r}")
    if diags:
        return diags

    total = 0
    for i, tier in enumerate(TIERS):
        count = config.devices_per_tier[i]
        if not _is_a(count, _INTEGER) or count < 0:
            error("devices_per_tier", f"device count for {tier} must be a non-negative integer, got {count!r}")
            continue
        total += count
        cores = config.cores_per_device[i]
        if not _is_a(cores, _INTEGER) or cores < 0:
            error("cores_per_device", f"core count for {tier} must be a non-negative integer, got {cores!r}")
            continue
        quota = config.quota_per_cpu[i]
        if count > 0:
            if cores < 1:
                error("cores_per_device", f"{tier} tier has {count} devices but no cores per device")
            if not 0 < quota <= 1:
                error("quota_per_cpu", f"quota for populated tier {tier} must lie in (0, 1], got {quota!r}")
        elif not math.isfinite(quota):
            error("quota_per_cpu", f"quota for {tier} must be finite, got {quota!r}")
    if total > MAX_DEVICES:
        error("devices_per_tier", f"{total} devices in all, more than the {MAX_DEVICES} a topology may have")

    for pair, (avg, sd) in config.latency.items():
        if not (0 <= avg < math.inf and 0 <= sd < math.inf):
            error(pair_key(pair), f"latency for {pair_key(pair)} must be finite and non-negative, "
                                  f"got {avg!r},{sd!r}")

    freq = config.benchmark.data_generation_frequency
    if not (freq >= 0 and math.isfinite(freq)):
        error("data_generation_frequency", f"data_generation_frequency must be finite and non-negative, got {freq!r}")

    plan: WorkerPlan | None = None
    if all(_is_a(count, _NUMBER) for count in config.devices_per_tier):  # else reported above
        try:
            plan = worker_plan(config)
        except PlanError as exc:
            error("devices_per_tier", str(exc))

    if plan is not None:
        link_name = pair_key(plan.link)
        if plan.link not in config.latency:
            error(link_name, f"pipeline crosses the {link_name} link but no latency entry is given")
        if plan.link not in config.throughput:
            error(link_name, f"pipeline crosses the {link_name} link but no throughput entry is given")

    for pair, value in config.throughput.items():
        if not math.isfinite(value):
            error(pair_key(pair), f"throughput for {pair_key(pair)} must be finite, got {value!r}")
            continue
        if value > 0:
            continue
        msg = f"throughput for {pair_key(pair)} must be positive, got {value!r}"
        if plan is not None and pair == plan.link:
            error(pair_key(pair), msg)
        else:
            diags.append(Diagnostic("warning", pair_key(pair), msg + " (link unused by this deployment)"))

    for section, table in _KEYS.items():
        record = config if section == "infrastructure" else config.benchmark
        for key, (arity, kind) in table.items():
            if kind is _TEXT and (value := getattr(record, key)) is not None:
                if message := _unwritable_text(key, arity, value):
                    error(key, message)

    for key in EMULATION_KEYS:
        if getattr(config, key) is not None:
            diags.append(Diagnostic(
                "warning", key,
                f"{key} only matters when emulating the deployment; retained but ignored by the planner",
            ))
    return diags
