"""Deployment planning for cloud-edge-endpoint stream processing.

Parse deployment configs, check analytically where a workload can run
(locally on the endpoints or offloaded to edge/cloud workers), map the
design space as a heatmap, and cross-validate the model with a seeded
discrete-event simulation of the full pipeline.
"""

__version__ = "0.1.0"

from .config import (
    BenchmarkConfig,
    ConfigError,
    DeploymentConfig,
    Diagnostic,
    PRESET_NAMES,
    TIERS,
    check_config,
    load_preset,
    parse_config,
    render_config,
    tier_pair,
    validate,
    worker_plan,
)
from .topology import (
    DEFAULT_WORKLOAD,
    Device,
    Link,
    Topology,
    TopologyError,
    WorkloadProfile,
    build_topology,
    capacity_of,
    demand_on_worker,
    local_topology,
)
from .analytic import (
    BANDWIDTH,
    DEFAULT_POLICY,
    DeploymentFamily,
    GridSpec,
    HeatmapGrid,
    MAX_CELLS,
    NOT_VIABLE,
    OffloadOption,
    PLACEMENTS,
    PREPROCESS_CAPACITY,
    PlacementPolicy,
    REFERENCE_MARKERS,
    Verdict,
    WORKER_CAPACITY,
    classify,
    classify_at,
    family_from_topology,
    heatmap,
    local_viability,
    offload_viability,
    reference_family,
    system_load,
)
from .simulator import (
    MAX_ELEMENTS,
    ElementRecord,
    SimParams,
    SimReport,
    simulate,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
