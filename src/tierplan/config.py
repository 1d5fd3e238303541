"""Deployment configuration: parsing, validation, rendering, presets.

Deployment files are INI-style text::

    [infrastructure]
    # cloud,edge,endpoint order
    devices_per_tier = 10,0,40
    cores_per_device = 4,0,1
    quota_per_cpu = 1.0,0,0.5
    # latency: average,variability in ms
    cloud_to_endpoint = 45,5
    # throughput: Mbit/s
    cloud_to_endpoint = 8

    [benchmark]
    use_benchmark = True
    data_generation_frequency = 5
    application = image_classification
    resource_manager = kubernetes

One table, ``_KEYS``, lists every section and key with its arity and value
type; parsing, duplicate detection, required keys, rendering and
validate's check of each value's shape and type all read it.  Tier-pair
keys may legally appear twice in [infrastructure]: an entry with two
values is a latency (average, variability), an entry with one value is a
throughput.  Links are symmetric, so ``a_to_b`` and ``b_to_a`` name the
same link and may not both be given for the same kind.  ``#`` starts a
comment line; a ``#`` after a value is part of the value.  Keys are
case-sensitive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Mapping

TIERS = ("cloud", "edge", "endpoint")

_TIER_RANK = {tier: i for i, tier in enumerate(TIERS)}

# Accepted and retained so emulator-oriented deployment files keep working,
# but nothing in the planner consumes them.
EMULATION_KEYS = ("hypervisor", "thread_pinning", "machine_address")

TierPair = tuple[str, str]

# Largest device total a valid config may have: build_topology materializes
# every device, about 250 bytes each at the peak (see README, "Deployment
# configs").
MAX_DEVICES = 1_000_000


def tier_pair(a: str, b: str) -> TierPair:
    """Canonical unordered link key: lower-ranked tier first."""
    if a not in _TIER_RANK or b not in _TIER_RANK:
        raise ValueError(f"unknown tier in pair {a!r}, {b!r}")
    return (a, b) if _TIER_RANK[a] <= _TIER_RANK[b] else (b, a)


def pair_key(pair: TierPair) -> str:
    """Config-file key for a canonical tier pair, e.g. ``cloud_to_endpoint``."""
    return f"{pair[0]}_to_{pair[1]}"


_PAIR_KEYS = {f"{a}_to_{b}": tier_pair(a, b) for a in TIERS for b in TIERS}


@dataclass(frozen=True)
class Diagnostic:
    """One validation or parse finding.  Errors block topology construction,
    warnings do not."""

    severity: str  # "error" | "warning"
    key: str       # offending key or section name ("" for line-level issues)
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class ConfigError(ValueError):
    """Raised by parse_config; carries every diagnostic in ``diagnostics``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        head = errors[0].message if errors else "invalid configuration"
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(head + more)


@dataclass(frozen=True)
class BenchmarkConfig:
    use_benchmark: bool = False
    data_generation_frequency: float = 0.0  # elements per second per endpoint
    application: str = ""
    resource_manager: str = ""  # recorded in reports, otherwise ignored


@dataclass(frozen=True)
class DeploymentConfig:
    """A parsed deployment description.

    Per-tier triples are in (cloud, edge, endpoint) order.  ``latency`` maps
    canonical tier pairs to (average_ms, variability_ms); ``throughput`` maps
    them to Mbit/s.  The three emulation-only fields are retained verbatim.
    """

    devices_per_tier: tuple[int, int, int]
    cores_per_device: tuple[int, int, int]
    quota_per_cpu: tuple[float, float, float]
    latency: Mapping[TierPair, tuple[float, float]] = field(default_factory=dict)
    throughput: Mapping[TierPair, float] = field(default_factory=dict)
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    hypervisor: str | None = None
    thread_pinning: bool | None = None
    machine_address: tuple[str, ...] | None = None


# ---------------------------------------------------------------------------
# the key table

# Arities: the whole text after '=' as one value, one comma-separated value
# per tier in cloud,edge,endpoint order, a comma-separated list of non-empty
# values, or a tier-pair entry (two values for a latency, one for a
# throughput).
_ONE, _PER_TIER, _LIST, _PAIR = "one", "per tier", "list", "pair"


def _boolean(token: str) -> bool:
    if token.lower() not in ("true", "false"):
        raise ValueError(token)
    return token.lower() == "true"


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


# Value types: (parser raising ValueError, what a value must be, the Python
# types a value of a config may have).
_INTEGER = (int, "an integer", int)
_NUMBER = (_finite, "a finite number", (int, float))
_BOOLEAN = (_boolean, "True or False", bool)
_TEXT = (str, "text", str)


def _is_a(value, kind: tuple) -> bool:
    """Whether ``value`` is of the value type ``kind``: it has one of its
    Python types, and the text render_config writes for it parses back to
    it.  So a bool is not an integer or a number, and a number is finite
    as ``_finite`` says and held exactly by a float."""
    try:
        return (isinstance(value, kind[2]) and (kind is _BOOLEAN or not isinstance(value, bool))
                and kind[0](_fmt(value)) == value)
    except ValueError:
        return False


_TIER_PAIRS = object()  # the table row of every ``<tier>_to_<tier>`` key

# Every key of a config file: section -> key -> (arity, value type), in the
# order render_config writes them.  A key is the name of a field of the
# section's dataclass (DeploymentConfig for [infrastructure], BenchmarkConfig
# for [benchmark]), and a field without a default is a required key.
_KEYS = {
    "infrastructure": {
        "hypervisor": (_ONE, _TEXT),
        "thread_pinning": (_ONE, _BOOLEAN),
        "devices_per_tier": (_PER_TIER, _INTEGER),
        "cores_per_device": (_PER_TIER, _INTEGER),
        "quota_per_cpu": (_PER_TIER, _NUMBER),
        _TIER_PAIRS: (_PAIR, _NUMBER),
        "machine_address": (_LIST, _TEXT),
    },
    "benchmark": {
        "use_benchmark": (_ONE, _BOOLEAN),
        "data_generation_frequency": (_ONE, _NUMBER),
        "application": (_ONE, _TEXT),
        "resource_manager": (_ONE, _TEXT),
    },
}

_REQUIRED = tuple(f.name for f in fields(DeploymentConfig)
                  if f.default is MISSING and f.default_factory is MISSING)


def _lines(config: DeploymentConfig):
    """Each line render_config writes, in its order: (section, key as
    written, value type, how many values it lists, the values as the config
    holds them, whatever their shape).  A list may have any length, given
    as 0.  An emulation-only key that is None has no line.  Tier-pair
    mappings must be keyed by canonical pairs."""
    for section, table in _KEYS.items():
        record = config if section == "infrastructure" else config.benchmark
        for key, (arity, kind) in table.items():
            if arity is _PAIR:
                for pair in sorted(config.latency, key=_pair_rank):
                    yield section, pair_key(pair), kind, 2, config.latency[pair]
                for pair in sorted(config.throughput, key=_pair_rank):
                    yield section, pair_key(pair), kind, 1, (config.throughput[pair],)
            elif (value := getattr(record, key)) is not None or key not in EMULATION_KEYS:
                count = {_ONE: 1, _PER_TIER: len(TIERS), _LIST: 0}[arity]
                yield section, key, kind, count, (value,) if arity is _ONE else value


def _shown(value: object) -> str:
    """``repr(value)`` for a message.  An int too long for ``repr`` (more
    digits than ``sys.get_int_max_str_digits()``) shows as its bit length,
    also inside a tuple, list or mapping, so a message never raises."""
    try:
        return repr(value)
    except ValueError:
        pass
    if isinstance(value, int):
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (tuple, list)):
        items = ", ".join(map(_shown, value))
        return f"[{items}]" if isinstance(value, list) else f"({items}{',' if len(value) == 1 else ''})"
    return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class WorkerPlan:
    """How a config maps onto compute roles, before devices are materialized.

    The counts give every device its role: in cloud, edge, endpoint order
    the devices are ``controllers`` controllers, then ``workers`` workers,
    then ``sources`` sources.
    """

    worker_tier: str
    workers: int
    controllers: int          # devices set aside for coordination, no capacity
    sources: int              # data-generating endpoints
    endpoints_per_worker: int
    link: TierPair            # the link every offloaded element crosses


class PlanError(ValueError):
    pass


def worker_plan(config: DeploymentConfig) -> WorkerPlan:
    """Derive worker placement from device counts.

    The edge tier hosts workers when populated, else the cloud tier, else the
    endpoints themselves (peer-to-peer: the first half of the endpoints serve
    the rest).  When the cloud tier hosts workers and the endpoint count only
    divides evenly after setting one device aside, that device is taken to be
    a dedicated controller provisioned on top of the worker pool.
    """
    cloud, edge, endpoint = config.devices_per_tier
    if edge > 0:
        worker_tier, workers, controllers, sources = "edge", edge, cloud, endpoint
    elif cloud > 0:
        worker_tier, sources = "cloud", endpoint
        if endpoint % cloud == 0:
            workers, controllers = cloud, 0
        elif cloud >= 2 and endpoint % (cloud - 1) == 0:
            workers, controllers = cloud - 1, 1
        else:
            raise PlanError(
                f"{_shown(endpoint)} endpoints cannot be spread evenly over "
                f"{_shown(cloud)} cloud devices (or {_shown(cloud)} minus a controller)"
            )
    elif endpoint > 0:
        workers = endpoint // 2
        if workers == 0:
            raise PlanError("peer-to-peer processing needs at least 2 endpoints")
        worker_tier, controllers, sources = "endpoint", 0, endpoint - workers
    else:
        raise PlanError("no devices in any tier; nothing can host processing")
    if sources == 0:
        raise PlanError(f"no data-generating endpoints for the {worker_tier} workers to serve")
    if sources % workers:
        raise PlanError(
            f"{_shown(sources)} endpoints cannot be spread evenly over "
            f"{_shown(workers)} {worker_tier} workers"
        )
    return WorkerPlan(
        worker_tier=worker_tier,
        workers=workers,
        controllers=controllers,
        sources=sources,
        endpoints_per_worker=sources // workers,
        link=tier_pair(worker_tier, "endpoint"),
    )


def validate(config: DeploymentConfig) -> list[Diagnostic]:
    """All invariant violations in ``config``.

    No error-severity entry means the config can be turned into a topology
    and that ``render_config`` writes it back as text that parses to it.
    Emulation-only keys that are present each contribute one warning.
    """
    diags: list[Diagnostic] = []
    unwritable: list[Diagnostic] = []  # reported after the other checks

    def error(key: str, msg: str, to: list = diags) -> None:
        to.append(Diagnostic("error", key, msg))

    # A value of the wrong shape or type would make the checks below raise
    # or misread it: report each by its key, in the words of the key table,
    # and stop.  Counts, and text render_config could not write back, come later.
    if not isinstance(config.benchmark, BenchmarkConfig):
        error("benchmark", f"benchmark must be a BenchmarkConfig, got {_shown(config.benchmark)}")
    for name in ("latency", "throughput"):
        links = getattr(config, name)
        if not isinstance(links, Mapping) or any(pair not in _PAIR_KEYS.values() for pair in links):
            error(name, f"{name} must be a mapping keyed by canonical tier pairs, got {_shown(links)}")
    if diags:
        return diags
    for _, key, kind, need, values in _lines(config):
        if not isinstance(values, tuple) or need and len(values) != need:
            shape = f"a tuple of {need} values" if need else "a tuple"
            error(key, f"{key} must be {shape}, got {_shown(values)}")
            continue
        if not values:  # written as one empty entry
            error(key, f"{key} must list at least one entry", unwritable)
        for value in values:  # the parser splits a list at commas and reads one stripped line
            if kind is not _INTEGER and not _is_a(value, kind):
                error(key, f"{key} must be {kind[1]}, got {_shown(value)}")
            elif kind is _TEXT and not need and (not value or "," in value):
                error(key, f"{key} entries must be non-empty and contain no comma, got {_shown(value)}",
                      unwritable)
            elif kind is _TEXT and (value != value.strip() or len(value.splitlines()) > 1):
                error(key, f"{key} must not begin or end with whitespace or contain a line break, "
                           f"got {_shown(value)}", unwritable)
    if diags:
        return diags

    total = 0
    for i, tier in enumerate(TIERS):
        count = config.devices_per_tier[i]
        if not _is_a(count, _INTEGER) or count < 0:
            error("devices_per_tier",
                  f"device count for {tier} must be a non-negative integer, got {_shown(count)}")
            continue
        total += count
        cores = config.cores_per_device[i]
        if not _is_a(cores, _INTEGER) or cores < 0:
            error("cores_per_device", f"core count for {tier} must be a non-negative integer, got {_shown(cores)}")
            continue
        if cores > sys.float_info.max:  # the model multiplies it by floats
            error("cores_per_device", f"core count for {tier} must be one a float can hold, got {_shown(cores)}")
            continue
        quota = config.quota_per_cpu[i]
        if count > 0:
            if cores < 1:
                error("cores_per_device", f"{tier} tier has {_shown(count)} devices but no cores per device")
            if not 0 < quota <= 1:
                error("quota_per_cpu", f"quota for populated tier {tier} must lie in (0, 1], got {_shown(quota)}")
    if total > MAX_DEVICES:
        error("devices_per_tier",
              f"{_shown(total)} devices in all, more than the {MAX_DEVICES} a topology may have")

    for pair, (avg, sd) in config.latency.items():
        if min(avg, sd) < 0:
            error(pair_key(pair), f"latency for {pair_key(pair)} must be finite and non-negative, "
                                  f"got {_shown(avg)},{_shown(sd)}")

    freq = config.benchmark.data_generation_frequency
    if freq < 0:
        error("data_generation_frequency",
              f"data_generation_frequency must be finite and non-negative, got {_shown(freq)}")

    plan: WorkerPlan | None = None
    if all(_is_a(count, _INTEGER) for count in config.devices_per_tier):  # else reported above
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
        if value > 0:
            continue
        msg = f"throughput for {pair_key(pair)} must be positive, got {_shown(value)}"
        if plan is not None and pair == plan.link:
            error(pair_key(pair), msg)
        else:
            diags.append(Diagnostic("warning", pair_key(pair), msg + " (link unused by this deployment)"))

    diags += unwritable
    for key in EMULATION_KEYS:
        if getattr(config, key) is not None:
            diags.append(Diagnostic(
                "warning", key,
                f"{key} only matters when emulating the deployment; retained but ignored by the planner",
            ))
    return diags


# ---------------------------------------------------------------------------
# parsing


def check_config(text: str) -> tuple[DeploymentConfig | None, list[Diagnostic]]:
    """Parse and validate; total over all inputs.

    Returns the config and every diagnostic found.  The config is None
    iff at least one diagnostic is an error.
    """
    config, diags = _parse_structure(text)
    if config is not None:
        diags = diags + validate(config)
    if any(d.severity == "error" for d in diags):
        config = None
    return config, diags


def parse_config(text: str) -> DeploymentConfig:
    """Parse ``text``, raising ConfigError listing every error found."""
    config, diags = check_config(text)
    if config is None:
        raise ConfigError(diags)
    return config


def _parse_structure(text: str) -> tuple[DeploymentConfig | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    values: dict[str, dict] = {section: {} for section in _KEYS}
    latency: dict[TierPair, tuple[float, float]] = {}
    throughput: dict[TierPair, float] = {}
    seen: set = set()
    section: str | None = None

    def error(key: str, msg: str) -> None:
        diags.append(Diagnostic("error", key, msg))

    def once(mark: tuple, key: str, where: str, what: str) -> bool:
        if mark in seen:
            error(key, f"{where}: duplicate {what}")
            return False
        seen.add(mark)
        return True

    def parse(kind: tuple, tokens: list[str], key: str, where: str) -> list | None:
        """Every token parsed, or None after one error per bad token."""
        parser, wording, _ = kind
        parsed = []
        for token in tokens:
            try:
                parsed.append(parser(token))
            except ValueError:
                error(key, f"{where}: value for '{key}' must be {wording}, got {token!r}")
        return parsed if len(parsed) == len(tokens) else None

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        where = f"line {lineno}"
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                error("", f"{where}: malformed section header {stripped!r}")
                section = None
                continue
            name = stripped[1:-1].strip()
            section = name
            if name not in _KEYS:
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
        if section not in _KEYS:
            continue  # the unknown-section error already covers its keys

        spec = _KEYS[section].get(_TIER_PAIRS if key in _PAIR_KEYS else key)
        if spec is None:
            error(key, f"{where}: unknown key '{key}' in [{section}]")
            continue
        arity, kind = spec
        tokens = [value] if arity is _ONE else [part.strip() for part in value.split(",")]
        if arity is _PAIR:
            pair = _PAIR_KEYS[key]
            if len(tokens) not in (1, 2):
                error(key, f"{where}: '{key}' takes 'average,variability' (latency) "
                           f"or one number (throughput), got {len(tokens)} values")
                continue
            link_kind = "latency" if len(tokens) == 2 else "throughput"
            if not once((section, link_kind, pair), key, where,
                        f"{link_kind} entry for the {pair_key(pair)} link"):
                continue
            nums = parse(kind, tokens, key, where)
            if nums is not None and link_kind == "latency":
                latency[pair] = (nums[0], nums[1])
            elif nums is not None:
                throughput[pair] = nums[0]
            continue
        if not once((section, key), key, where, f"key '{key}'"):
            continue
        if arity is _PER_TIER and len(tokens) != len(TIERS):
            error(key, f"{where}: '{key}' takes three comma-separated values "
                       f"in cloud,edge,endpoint order, got {len(tokens)}")
            continue
        if arity is _LIST and not all(tokens):
            error(key, f"{where}: '{key}' has an empty address entry")
            continue
        parsed = parse(kind, tokens, key, where)
        if parsed is None:
            continue
        if arity is _ONE:
            # "+ 0.0" stores a lone number "-0" as 0.0 and leaves others as read
            values[section][key] = parsed[0] + 0.0 if kind is _NUMBER else parsed[0]
        else:
            values[section][key] = tuple(parsed)

    if ("section", "infrastructure") not in seen:
        error("infrastructure", "missing [infrastructure] section")
    else:
        for required in _REQUIRED:
            if ("infrastructure", required) not in seen:
                error(required, f"missing required key '{required}' in [infrastructure]")

    infrastructure = values["infrastructure"]
    if any(required not in infrastructure for required in _REQUIRED):
        return None, diags
    config = DeploymentConfig(**infrastructure, latency=latency, throughput=throughput,
                              benchmark=BenchmarkConfig(**values["benchmark"]))
    return config, diags


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    """Shortest text that parses back to ``value``."""
    if isinstance(value, (bool, int, str)):
        return str(value)
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def _pair_rank(pair: TierPair) -> tuple[int, int]:
    return (_TIER_RANK[pair[0]], _TIER_RANK[pair[1]])


def render_config(config: DeploymentConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c for valid c.

    Canonical means: sections and keys in the order of the key table,
    emulation-only keys that are None left out, tier pairs sorted cloud <
    edge < endpoint, latency entries before throughput entries, numbers in
    their shortest round-tripping form.
    """
    blocks = {section: [f"[{section}]"] for section in _KEYS}
    for section, key, _, _, values in _lines(config):
        blocks[section].append(f"{key} = {','.join(map(_fmt, values))}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


# ---------------------------------------------------------------------------
# presets

# name: devices, cores and quota per tier, the link to the workers, its
# latency (average, sd in ms) and the resource manager
_PRESETS = {
    "cloud": ((11, 0, 40), (4, 0, 1), (1.0, 0.0, 0.5), ("cloud", "endpoint"), (45.0, 5.0), "kubernetes"),
    "edge-large": ((1, 10, 40), (4, 4, 1), (1.0, 1.0, 0.5), ("edge", "endpoint"), (30.0, 5.0), "kubeedge"),
    "edge-small": ((1, 10, 20), (4, 2, 1), (1.0, 0.75, 0.5), ("edge", "endpoint"), (7.5, 1.0), "kubeedge"),
    "mist": ((0, 0, 20), (0, 0, 2), (0.0, 0.0, 0.5), ("endpoint", "endpoint"), (7.5, 1.0), "none"),
}
PRESET_NAMES = tuple(_PRESETS)


def load_preset(name: str) -> DeploymentConfig:
    """One of the four benchmark deployments.

    cloud       10 workers (4 cores, quota 1.0) plus a controller in the
                cloud, 40 endpoints, 45 ms to the endpoints
    edge-large  10 edge workers (4 cores, quota 1.0), cloud controller,
                40 endpoints, 30 ms
    edge-small  10 edge workers (2 cores, quota 0.75), cloud controller,
                20 endpoints, 7.5 ms
    mist        20 endpoints (2 cores, quota 0.5), half of them acting as
                workers for the other half, 7.5 ms

    All presets use 8 Mbit/s endpoint-to-worker throughput and generate
    5 elements per second per endpoint.
    """
    if name not in PRESET_NAMES:  # a tuple, so an unhashable name is refused too
        raise ValueError(f"unknown preset {name!r}; choose from: {', '.join(PRESET_NAMES)}")
    devices, cores, quota, link, latency, resource_manager = _PRESETS[name]
    return DeploymentConfig(
        devices_per_tier=devices,
        cores_per_device=cores,
        quota_per_cpu=quota,
        latency={link: latency},
        throughput={link: 8.0},
        benchmark=BenchmarkConfig(use_benchmark=True, data_generation_frequency=5.0,
                                  application="image_classification", resource_manager=resource_manager),
    )
