"""Deployment planning for cloud-edge-endpoint stream processing.

Parse deployment configs, check analytically where a workload can run
(locally on the endpoints or offloaded to edge/cloud workers), map the
design space as a heatmap, and cross-validate the model with a seeded
discrete-event simulation of the full pipeline.

The public names are imported from their submodule on first use
(PEP 562), so ``import tierplan`` and each CLI command load only the
modules they run.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "config": (
        "BenchmarkConfig", "ConfigError", "DeploymentConfig", "Diagnostic", "PRESET_NAMES", "TIERS",
        "check_config", "load_preset", "parse_config", "render_config", "tier_pair", "validate",
        "worker_plan",
    ),
    "topology": (
        "DEFAULT_WORKLOAD", "Device", "Link", "Topology", "TopologyError", "WorkloadProfile",
        "build_topology", "capacity_of", "demand_on_worker", "local_topology",
    ),
    "analytic": (
        "BANDWIDTH", "DeploymentFamily", "GridSpec", "HeatmapGrid", "MAX_CELLS", "NOT_VIABLE",
        "OffloadOption", "PLACEMENTS", "PREPROCESS_CAPACITY", "REFERENCE_MARKERS", "Verdict",
        "WORKER_CAPACITY", "classify", "classify_at", "family_from_topology", "heatmap",
        "local_viability", "offload_viability", "reference_family", "system_load",
    ),
    "simulator": ("MAX_ELEMENTS", "ElementRecord", "SimParams", "SimReport", "simulate", "write_trace_csv"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_SUBMODULE[name]}")
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
