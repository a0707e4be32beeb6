"""Full-knowledge reference computations, used for evaluation and tests.

Minimizing total latency sum_e F_e l_e(F_e) over feasible flows is the same
convex program as finding the untolled equilibrium of the derived game with
marginal-cost latencies d/dx [x l_e(x)] = l_e(x) + x l_e'(x): the Beckmann
potential of the derived game IS the total latency of the original one.  So
the equilibrium engine doubles as an exact optimal-flow solver, with its
duality gap certifying the optimality gap.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .equilibrium import EqConfig, solve_equilibrium
from .game import (
    Edge,
    FlowVector,
    RoutingGame,
    TollVector,
    total_latency,
)

__all__ = ["marginal_game", "optimal_flow", "marginal_cost_tolls"]


def marginal_game(game: RoutingGame) -> RoutingGame:
    edges = tuple(
        Edge(e.id, e.tail, e.head, e.latency.marginal()) for e in game.edges
    )
    return replace(game, edges=edges)


def optimal_flow(game: RoutingGame, gap: float = 1e-9) -> tuple[FlowVector, float]:
    """Minimum-total-latency feasible flow and its cost.

    The reported flow's cost is within ``gap`` of the true optimum (the
    duality gap of the derived equilibrium problem certifies it).
    """
    derived = marginal_game(game)
    result = solve_equilibrium(derived, None, EqConfig(accuracy=gap))
    return result.flow, total_latency(game, result.flow)


def marginal_cost_tolls(game: RoutingGame, f: FlowVector) -> TollVector:
    """Tolls tau_e = F_e * l_e'(F_e) at the aggregate loads of ``f``.

    At an optimal flow these tolls make that flow an equilibrium; they are
    the classical certificate that enforcing tolls exist.
    """
    agg = f.aggregate
    values = np.array(
        [max(0.0, x * e.latency.slope(float(x))) for x, e in zip(agg, game.edges)]
    )
    return TollVector(values)
