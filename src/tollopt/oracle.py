"""The query boundary: tolls in, induced equilibrium flow out.

An oracle wraps a routing game whose latency functions callers must not
see.  Each query submits a toll vector and receives the aggregate
equilibrium flow (and, in FLOW_AND_COST mode, its total latency), with a
strictly increasing query counter.  The public interface never reveals
the hidden game.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import EqConfig, solve_equilibrium
from .game import (
    GameSkeleton,
    RoutingGame,
    TollOutOfRange,
    TollVector,
    _is_int_at_least,
    total_latency,
    validate_game,
)

__all__ = [
    "OracleMode",
    "OracleResponse",
    "EquilibriumOracle",
    "TollOutOfRange",
    "OracleBudgetExceeded",
]

#: Flow accuracies below this are not honestly deliverable in double
#: precision; callers demanding less get this floor instead.
ACCURACY_FLOOR = 1e-11


def _gap_floor(skeleton: GameSkeleton) -> float:
    """Smallest duality gap a solve on the game can certify in double
    precision, 1e-12 (1 + K max(1, sum_d) sqrt(m)).  It is not finite when
    the game's costs lie past the double range."""
    const = skeleton.constants
    return 1e-12 * (1.0 + const.K * max(1.0, const.total_demand) * skeleton.m**0.5)


def _refuse_overflowing(skeleton: GameSkeleton) -> None:
    """Raise ``ValueError`` when no solve on the game can be certified."""
    if not _gap_floor(skeleton) < math.inf:
        raise ValueError(
            "the game's costs overflow a double: its solver gap target "
            "1e-12 (1 + K max(1, sum_d) sqrt(m)) is not finite"
        )


class OracleBudgetExceeded(RuntimeError):
    """The optional query budget is exhausted."""


class OracleMode(enum.Enum):
    FLOW_ONLY = "flow_only"
    FLOW_AND_COST = "flow_and_cost"


@dataclass(frozen=True)
class OracleResponse:
    aggregate_flow: np.ndarray
    total_cost: float | None
    query_index: int


class EquilibriumOracle:
    """Equilibrium oracle over a hidden routing game.

    ``eps_query`` is the accuracy promise on the returned aggregate flow
    (infinity norm against the exact deterministic equilibrium).  Queries
    mutate only the counter and log; responses are a pure function of the
    toll vector; the logged toll vectors and the answers' flows are
    read-only arrays.  ``max_queries``, when given, is an int >= 0 (not a
    bool) capping the queries answered.  On a game whose costs overflow a
    double, so that no solve can be certified, every query raises
    ``ValueError`` before any solve.
    """

    def __init__(
        self,
        game: RoutingGame,
        mode: OracleMode = OracleMode.FLOW_AND_COST,
        eps_query: float = 1e-9,
        max_queries: int | None = None,
    ):
        validate_game(game)
        if not eps_query >= ACCURACY_FLOOR:  # True for NaN
            raise ValueError(
                f"eps_query must be at least the precision floor {ACCURACY_FLOOR}"
            )
        if max_queries is not None and not _is_int_at_least(max_queries, 0):
            raise ValueError(
                f"max_queries must be None or an int >= 0, got {max_queries!r}"
            )
        self.__game = game
        self.mode = mode
        self.eps_query = float(eps_query)
        self.max_queries = max_queries
        self.skeleton: GameSkeleton = game.skeleton()
        self._count = 0
        self._log: list[tuple[np.ndarray, OracleResponse]] = []
        # The duality-gap certificate scales with the potential's magnitude;
        # targets below the representable floor would only trip spurious
        # NoConvergence.  Flow accuracy itself comes from the Newton
        # refinement, which the test suite checks against closed forms.
        self._eq_cfg = EqConfig(
            accuracy=max(min(1e-8, self.eps_query / 4.0), _gap_floor(self.skeleton))
        )

    @property
    def query_count(self) -> int:
        return self._count

    @property
    def query_log(self) -> list[tuple[np.ndarray, OracleResponse]]:
        return list(self._log)

    def query(self, tolls: TollVector) -> OracleResponse:
        tau = np.asarray(tolls.values, dtype=float)
        m = self.skeleton.m
        if tau.shape != (m,):
            raise TollOutOfRange(f"expected {m} tolls, got shape {tau.shape}")
        t_max = self.skeleton.constants.T_max
        lo, hi = tau.min(initial=0.0), tau.max(initial=0.0)
        if not (lo >= -1e-12 and hi <= t_max * (1 + 1e-12)):  # False for NaN
            raise TollOutOfRange(f"tolls must be finite and lie in [0, {t_max}]")
        if self.max_queries is not None and self._count >= self.max_queries:
            raise OracleBudgetExceeded(f"budget of {self.max_queries} queries spent")
        if self._eq_cfg.accuracy == math.inf:
            _refuse_overflowing(self.skeleton)
        tau = np.clip(tau, 0.0, t_max)
        result = solve_equilibrium(self.__game, TollVector(tau), self._eq_cfg)
        cost = None
        if self.mode is OracleMode.FLOW_AND_COST:
            cost = total_latency(self.__game, result.flow)
        self._count += 1
        # the log is the determinism record, and samples hold its answers:
        # neither the logged tolls nor the flow may change in place
        flow = result.flow.aggregate
        tau.flags.writeable = flow.flags.writeable = False
        resp = OracleResponse(aggregate_flow=flow, total_cost=cost, query_index=self._count)
        self._log.append((tau, resp))
        return resp

    def __repr__(self) -> str:  # never leak the game
        return (
            f"EquilibriumOracle(m={self.skeleton.m}, k={self.skeleton.k}, "
            f"mode={self.mode.value}, eps_query={self.eps_query}, "
            f"queries={self._count})"
        )
