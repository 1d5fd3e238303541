"""JSON Schemas for every machine-readable output.

Each --json CLI payload validates against the schema named after it; the
test suite enforces this.  Every number is finite: JSON has no infinity or
NaN, so the CLI refuses a result that holds one, such as a load that
overflows, with exit 2 instead of writing it.
"""

from __future__ import annotations


def _record(properties: dict, optional: tuple[str, ...] = ()) -> dict:
    """An object with exactly ``properties``, each required unless listed in
    ``optional``."""
    return {
        "type": "object",
        "properties": properties,
        "required": [key for key in properties if key not in optional],
        "additionalProperties": False,
    }


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


def _mapping(values: dict) -> dict:
    return {"type": "object", "additionalProperties": values}


_STRING, _NUMBER, _INTEGER = {"type": "string"}, {"type": "number"}, {"type": "integer"}

# latency statistics are null when no measured element gives them a value
_NUMBER_OR_NULL = {"type": ["number", "null"]}

DIAGNOSTIC_SCHEMA = _record({
    "severity": {"type": "string", "enum": ["error", "warning"]},
    "key": _STRING,
    "message": _STRING,
})

_WORKLOAD = _record({
    "proc_time_s": _mapping(_NUMBER),
    "pre_time_s": _NUMBER,
    "rate_hz": _NUMBER,
    "element_size_mbit": _NUMBER,
})

MANIFEST_SCHEMA = _record({
    "command": _STRING,
    "version": _STRING,
    "timestamp": _STRING,
    "seed": {"type": ["integer", "null"]},
    "preset": {"type": ["string", "null"]},
    "config_text": {"type": ["string", "null"]},
    "workload": {"oneOf": [_WORKLOAD, {"type": "null"}]},
    "parameters": {"type": "object"},
}, optional=("parameters",))

_CHECK = _record({
    "name": {"type": "string", "enum": ["worker-capacity", "preprocess-capacity", "bandwidth"]},
    "demand": _NUMBER,
    "capacity": _NUMBER,
    "passed": {"type": "boolean"},
})

VERDICT_SCHEMA = _record({
    "viable": {"type": "boolean"},
    "failed_conditions": _array(_STRING),
    "load_percent": _NUMBER,
    "required_bandwidth_mbit": _NUMBER,
    "checks": _array(_CHECK),
})

VALIDATE_OUTPUT_SCHEMA = _record({
    "manifest": MANIFEST_SCHEMA,
    "ok": {"type": "boolean"},
    "diagnostics": _array(DIAGNOSTIC_SCHEMA),
})

PREDICT_OUTPUT_SCHEMA = _record({
    "manifest": MANIFEST_SCHEMA,
    "local": VERDICT_SCHEMA,
    # a verdict plus the placement it applies to
    "offload": _record({**VERDICT_SCHEMA["properties"], "placement": _STRING}),
})

HEATMAP_OUTPUT_SCHEMA = _record({
    "manifest": MANIFEST_SCHEMA,
    "grid": _record({
        "rates_hz": _array(_NUMBER),
        "proc_times_s": _array(_NUMBER),
        "cells": _array(_array({"type": "string", "enum": ["endpoint", "edge", "cloud", "not-viable"]})),
    }),
    "markers": _array(_record({"label": _STRING, "rate_hz": _NUMBER, "proc_s": _NUMBER, "class": _STRING})),
})

_LATENCIES = dict.fromkeys(
    ("latency_mean_s", "latency_sd_s", "communication_mean_s", "compute_mean_s", "queueing_mean_s"),
    _NUMBER_OR_NULL)

SIM_REPORT_SCHEMA = _record({
    "duration_s": _NUMBER,
    "warmup_s": _NUMBER,
    "seed": _INTEGER,
    "generated": _INTEGER,
    "completed": _INTEGER,
    "measured": _INTEGER,
    **_LATENCIES,
    "worker_load_percent": _mapping(_NUMBER),
    "worker_busy_fraction": _mapping(_NUMBER),
    "throughput_eps": _NUMBER,
    "backlog": _INTEGER,
    "backlog_at_warmup": _INTEGER,
    "phase_counts": _mapping(_INTEGER),
})

SIMULATE_OUTPUT_SCHEMA = _record({"manifest": MANIFEST_SCHEMA, "report": SIM_REPORT_SCHEMA})

COMPARE_OUTPUT_SCHEMA = _record({
    "manifest": MANIFEST_SCHEMA,
    "presets": _array(_record({
        "name": _STRING,
        "analytic_load_percent": _NUMBER,
        "repeats": _INTEGER,
        **_LATENCIES,
    })),
})
