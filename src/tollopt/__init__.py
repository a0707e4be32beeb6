"""Optimal tolls for routing games whose latency functions sit behind a
query oracle: equilibrium computation, toll enforcement by dual ascent
with the paper's ellipsoid search as fallback, and zero-order
minimization of total latency."""

from .ellipsoid import Ellipsoid, NumericBreakdown
from .enforcement import (
    EnforcementConfig,
    EnforcementResult,
    EnforcementStatus,
    TargetCyclic,
    TargetInfeasible,
    enforce_flow,
)
from .equilibrium import (
    EqConfig,
    EquilibriumResult,
    NoConvergence,
    beckmann_potential,
    solve_equilibrium,
    wardrop_violation,
)
from .exact import marginal_cost_tolls, marginal_game, optimal_flow
from .game import (
    Commodity,
    Edge,
    FlowVector,
    GameConstants,
    GameSkeleton,
    Infeasible,
    InvalidGame,
    PolyLatency,
    RoutingGame,
    TollOutOfRange,
    TollVector,
    acyclic_reduce,
    derive_constants,
    has_positive_cycle,
    is_feasible,
    total_latency,
    validate_game,
)
from .instances import BadSpec, InstanceSpec, generate
from .oracle import (
    EquilibriumOracle,
    OracleBudgetExceeded,
    OracleMode,
    OracleResponse,
)
from .paths import Unreachable, shortest_path
from .zeroorder import (
    CostOracleSample,
    OptConfig,
    OptimizationReport,
    OracleSampleFailed,
    compute_optimal_tolls,
    project_to_polytope,
)

__all__ = [
    "Commodity",
    "Edge",
    "FlowVector",
    "GameConstants",
    "GameSkeleton",
    "Infeasible",
    "InvalidGame",
    "PolyLatency",
    "RoutingGame",
    "TollVector",
    "acyclic_reduce",
    "derive_constants",
    "has_positive_cycle",
    "is_feasible",
    "total_latency",
    "validate_game",
    "EqConfig",
    "EquilibriumResult",
    "NoConvergence",
    "beckmann_potential",
    "solve_equilibrium",
    "wardrop_violation",
    "Unreachable",
    "shortest_path",
    "OracleMode",
    "OracleResponse",
    "EquilibriumOracle",
    "TollOutOfRange",
    "OracleBudgetExceeded",
    "Ellipsoid",
    "NumericBreakdown",
    "TargetInfeasible",
    "TargetCyclic",
    "EnforcementConfig",
    "EnforcementResult",
    "EnforcementStatus",
    "enforce_flow",
    "OptConfig",
    "CostOracleSample",
    "OptimizationReport",
    "OracleSampleFailed",
    "project_to_polytope",
    "compute_optimal_tolls",
    "marginal_game",
    "marginal_cost_tolls",
    "optimal_flow",
    "BadSpec",
    "InstanceSpec",
    "generate",
]

__version__ = "0.1.0"
