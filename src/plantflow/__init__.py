"""Throughput and reliability analysis of multi-stage process plant networks.

The capacity of a plant is what its stations can actually push from intake
to delivery, not the sum of its parts.  This package models a plant as a
staged flow network, computes the maximum processable flow for any failure
scenario (LP or max-flow backends), estimates failure probabilities by
Monte Carlo, ranks components by Birnbaum importance, and carries a
classical fault-tree baseline for comparison.
"""

from .datasets import (
    BUILTINS,
    AnalysisDefaults,
    NetworkDocument,
    builtin,
    didactic,
    gas,
    load_network,
    parse_text,
    pressure,
    save_network,
    to_text,
)
from .errors import DataFormatError, MappingError, PlantDataError, PlantflowError
from .faulttree import (
    BasicEvent,
    Gate,
    and_gate,
    didactic_fault_tree,
    evaluate_failure,
    failure_probability,
    k_of_n,
    or_gate,
)
from .flow import (
    BACKENDS,
    LP_BACKEND,
    MAXFLOW_BACKEND,
    EffectiveCapacities,
    FlowSolution,
    SystemFunction,
    apply_scenario,
    build_flow_lp,
    build_layered_graph,
    compile_system,
    max_processable_flow,
)
from .model import (
    EDGE_MAX,
    EDGE_MIN,
    MODES,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
)
from .reliability import (
    ImportanceEntry,
    ImportanceReport,
    RankedComponents,
    ReliabilityQuery,
    ReliabilityReport,
    birnbaum_importance,
    estimate_failure_probability,
    rank_components,
    sample_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisDefaults",
    "BACKENDS",
    "BUILTINS",
    "BasicEvent",
    "ComponentModel",
    "DataFormatError",
    "EDGE_MAX",
    "EDGE_MIN",
    "Edge",
    "EffectiveCapacities",
    "FlowSolution",
    "Gate",
    "ImportanceEntry",
    "ImportanceReport",
    "LP_BACKEND",
    "MAXFLOW_BACKEND",
    "MODES",
    "MappingError",
    "NetworkDocument",
    "PlantDataError",
    "PlantNetwork",
    "PlantflowError",
    "RandomVariable",
    "RankedComponents",
    "ReliabilityQuery",
    "ReliabilityReport",
    "STATION_THROUGHPUT",
    "SystemFunction",
    "and_gate",
    "apply_scenario",
    "birnbaum_importance",
    "build_flow_lp",
    "build_layered_graph",
    "builtin",
    "compile_system",
    "didactic",
    "didactic_fault_tree",
    "estimate_failure_probability",
    "evaluate_failure",
    "failure_probability",
    "gas",
    "k_of_n",
    "load_network",
    "max_processable_flow",
    "or_gate",
    "parse_text",
    "pressure",
    "rank_components",
    "sample_assignment",
    "save_network",
    "to_text",
    "__version__",
]
