"""Fleet-dispatch simulation with exact batch assignment.

The package simulates a mobility-on-demand operator that re-optimizes
request-vehicle assignments in fixed intervals, for single-rider
(hailing) and shared-ride (pooling) operation, and ships a twin-run
harness comparing early operator rejection against silent user
walk-away on otherwise identical scenarios.
"""

from .engine import (
    EngineConfig,
    EngineError,
    Event,
    EventKind,
    Mode,
    ObjectiveReport,
    Reassignment,
    RejectionPolicy,
    accumulate_objective,
    step,
)
from .matching import (
    AssignmentSolution,
    MatchingError,
    build_rv_graph,
    feasible_vehicles,
    solve_hailing,
)
from .model import (
    CostWeights,
    LeaveReason,
    Request,
    RequestStatus,
    Route,
    RouteStructureError,
    StatusError,
    Stop,
    SystemState,
    Vehicle,
    route_cost,
    validate_state,
)
from .network import Network, NetworkError, PathResult, grid_node
from .pooling import (
    Bundle,
    RTVGraph,
    VBEdge,
    best_route,
    build_rtv_graph,
    divertable_vehicles,
    solve_pooling,
)
from .scenario import (
    ConfigError,
    Metrics,
    RunResult,
    ScenarioConfig,
    TheoremReport,
    TwinOutcome,
    emit_metrics,
    generate_demand,
    parse_config,
    run_scenario,
    twin_run,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentSolution",
    "Bundle",
    "ConfigError",
    "CostWeights",
    "EngineConfig",
    "EngineError",
    "Event",
    "EventKind",
    "LeaveReason",
    "MatchingError",
    "Metrics",
    "Mode",
    "Network",
    "NetworkError",
    "ObjectiveReport",
    "PathResult",
    "RTVGraph",
    "Reassignment",
    "RejectionPolicy",
    "Request",
    "RequestStatus",
    "Route",
    "RouteStructureError",
    "RunResult",
    "ScenarioConfig",
    "StatusError",
    "Stop",
    "SystemState",
    "TheoremReport",
    "TwinOutcome",
    "VBEdge",
    "Vehicle",
    "accumulate_objective",
    "best_route",
    "build_rtv_graph",
    "build_rv_graph",
    "divertable_vehicles",
    "emit_metrics",
    "feasible_vehicles",
    "generate_demand",
    "grid_node",
    "parse_config",
    "route_cost",
    "run_scenario",
    "solve_hailing",
    "solve_pooling",
    "step",
    "twin_run",
    "validate_state",
    "__version__",
]
