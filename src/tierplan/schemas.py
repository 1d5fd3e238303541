"""JSON Schemas for every machine-readable output.

Each --json CLI payload and the topology export validate against the schema
named after them; the test suite enforces this.  Load values can be the
IEEE infinity the planner uses as its unbounded-load sentinel, which JSON
emitters render as ``Infinity``.
"""

from __future__ import annotations

_SEVERITY = {"type": "string", "enum": ["error", "warning"]}

# latency statistics are null when no element was measured
_NUMBER_OR_NULL = {"type": ["number", "null"]}

DIAGNOSTIC_SCHEMA = {
    "type": "object",
    "properties": {
        "severity": _SEVERITY,
        "key": {"type": "string"},
        "message": {"type": "string"},
    },
    "required": ["severity", "key", "message"],
    "additionalProperties": False,
}

_WORKLOAD = {
    "type": "object",
    "properties": {
        "proc_time_s": {"type": "object", "additionalProperties": {"type": "number"}},
        "pre_time_s": {"type": "number"},
        "rate_hz": {"type": "number"},
        "element_size_mbit": {"type": "number"},
    },
    "required": ["proc_time_s", "pre_time_s", "rate_hz", "element_size_mbit"],
    "additionalProperties": False,
}

MANIFEST_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "preset": {"type": ["string", "null"]},
        "config_text": {"type": ["string", "null"]},
        "workload": {"oneOf": [_WORKLOAD, {"type": "null"}]},
        "parameters": {"type": "object"},
    },
    "required": ["command", "version", "timestamp", "seed", "preset", "config_text", "workload"],
    "additionalProperties": False,
}

_CHECK = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "enum": ["worker-capacity", "preprocess-capacity", "bandwidth"]},
        "demand": {"type": "number"},
        "capacity": {"type": "number"},
        "passed": {"type": "boolean"},
    },
    "required": ["name", "demand", "capacity", "passed"],
    "additionalProperties": False,
}

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "viable": {"type": "boolean"},
        "failed_conditions": {"type": "array", "items": {"type": "string"}},
        "load_percent": {"type": "number"},
        "required_bandwidth_mbit": {"type": "number"},
        "checks": {"type": "array", "items": _CHECK},
    },
    "required": ["viable", "failed_conditions", "load_percent", "required_bandwidth_mbit", "checks"],
    "additionalProperties": False,
}

VALIDATE_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "ok": {"type": "boolean"},
        "diagnostics": {"type": "array", "items": DIAGNOSTIC_SCHEMA},
    },
    "required": ["manifest", "ok", "diagnostics"],
    "additionalProperties": False,
}

# a verdict plus the placement it applies to
_PLACED_VERDICT = {
    "type": "object",
    "properties": {**VERDICT_SCHEMA["properties"], "placement": {"type": "string"}},
    "required": [*VERDICT_SCHEMA["required"], "placement"],
    "additionalProperties": False,
}

PREDICT_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "local": VERDICT_SCHEMA,
        "offload": _PLACED_VERDICT,
    },
    "required": ["manifest", "local", "offload"],
    "additionalProperties": False,
}

_MARKER = {
    "type": "object",
    "properties": {
        "label": {"type": "string"},
        "rate_hz": {"type": "number"},
        "proc_s": {"type": "number"},
        "class": {"type": "string"},
    },
    "required": ["label", "rate_hz", "proc_s", "class"],
    "additionalProperties": False,
}

HEATMAP_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "grid": {
            "type": "object",
            "properties": {
                "rates_hz": {"type": "array", "items": {"type": "number"}},
                "proc_times_s": {"type": "array", "items": {"type": "number"}},
                "cells": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "string", "enum": ["endpoint", "edge", "cloud", "not-viable"]},
                    },
                },
            },
            "required": ["rates_hz", "proc_times_s", "cells"],
            "additionalProperties": False,
        },
        "markers": {"type": "array", "items": _MARKER},
    },
    "required": ["manifest", "grid", "markers"],
    "additionalProperties": False,
}

_TRACE_ROW = {
    "type": "object",
    "properties": {
        "source": {"type": "string"},
        "worker": {"type": "string"},
        "index": {"type": "integer"},
        "generated_s": {"type": "number"},
        "preprocess_s": {"type": "number"},
        "transfer_s": {"type": "number"},
        "propagation_s": {"type": "number"},
        "queue_wait_s": {"type": "number"},
        "service_s": {"type": "number"},
        "end_to_end_s": {"type": ["number", "null"]},
        "completed_s": {"type": ["number", "null"]},
        "phase": {"type": "string"},
    },
    "required": ["source", "worker", "index", "generated_s", "phase"],
    "additionalProperties": False,
}

SIM_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "duration_s": {"type": "number"},
        "warmup_s": {"type": "number"},
        "seed": {"type": "integer"},
        "generated": {"type": "integer"},
        "completed": {"type": "integer"},
        "measured": {"type": "integer"},
        "latency_mean_s": _NUMBER_OR_NULL,
        "latency_sd_s": _NUMBER_OR_NULL,
        "communication_mean_s": _NUMBER_OR_NULL,
        "compute_mean_s": _NUMBER_OR_NULL,
        "queueing_mean_s": _NUMBER_OR_NULL,
        "worker_load_percent": {"type": "object", "additionalProperties": {"type": "number"}},
        "worker_busy_fraction": {"type": "object", "additionalProperties": {"type": "number"}},
        "throughput_eps": {"type": "number"},
        "backlog": {"type": "integer"},
        "backlog_at_warmup": {"type": "integer"},
        "phase_counts": {"type": "object", "additionalProperties": {"type": "integer"}},
        "trace": {"type": "array", "items": _TRACE_ROW},
    },
    "required": [
        "duration_s", "warmup_s", "seed", "generated", "completed", "measured",
        "latency_mean_s", "latency_sd_s", "communication_mean_s", "compute_mean_s",
        "queueing_mean_s", "worker_load_percent", "worker_busy_fraction",
        "throughput_eps", "backlog", "backlog_at_warmup", "phase_counts",
    ],
    "additionalProperties": False,
}

SIMULATE_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "report": SIM_REPORT_SCHEMA,
    },
    "required": ["manifest", "report"],
    "additionalProperties": False,
}

COMPARE_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "presets": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "analytic_load_percent": {"type": "number"},
                    "repeats": {"type": "integer"},
                    "latency_mean_s": _NUMBER_OR_NULL,
                    "latency_sd_s": _NUMBER_OR_NULL,
                    "communication_mean_s": _NUMBER_OR_NULL,
                    "compute_mean_s": _NUMBER_OR_NULL,
                    "queueing_mean_s": _NUMBER_OR_NULL,
                },
                "required": [
                    "name", "analytic_load_percent", "repeats", "latency_mean_s",
                    "latency_sd_s", "communication_mean_s", "compute_mean_s", "queueing_mean_s",
                ],
                "additionalProperties": False,
            },
        },
    },
    "required": ["manifest", "presets"],
    "additionalProperties": False,
}

TOPOLOGY_SCHEMA = {
    "type": "object",
    "properties": {
        "devices": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "string"},
                    "tier": {"type": "string", "enum": ["cloud", "edge", "endpoint"]},
                    "cores": {"type": "integer"},
                    "quota": {"type": "number"},
                    "role": {"type": "string", "enum": ["worker", "controller", "source"]},
                },
                "required": ["id", "tier", "cores", "quota", "role"],
                "additionalProperties": False,
            },
        },
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "tiers": {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2},
                    "latency_avg_ms": {"type": "number"},
                    "latency_sd_ms": {"type": "number"},
                    "throughput_mbit": {"type": "number"},
                },
                "required": ["tiers", "latency_avg_ms", "latency_sd_ms", "throughput_mbit"],
                "additionalProperties": False,
            },
        },
        "assignment": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "string"}},
        },
        "endpoints_per_worker": {"type": "integer"},
    },
    "required": ["devices", "links", "assignment", "endpoints_per_worker"],
    "additionalProperties": False,
}
