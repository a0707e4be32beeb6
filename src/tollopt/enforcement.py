"""Toll search: find tolls whose induced equilibrium matches a target flow.

The search runs a central-cut ellipsoid method over toll space.  The cut
comes from monotonicity of the latency functions: if the oracle answers a
query tau with equilibrium flow f, then every toll vector tau' that induces
the target f* exactly satisfies

    (f - f*) . tau'  >=  (f - f*) . tau.

(The equilibrium variational inequality at tau gives (l(f)+tau).(f*-f) >= 0;
the one at tau' gives (l(f*)+tau').(f-f*) >= 0; adding and using
(l(f)-l(f*)).(f-f*) >= 0 cancels the latency terms.)  So g = f - f* is a
valid separating normal and the half-space {tau': g.tau' >= g.tau} keeps
every exactly-enforcing toll vector.  Centers that leave the toll box are
pushed back by coordinate feasibility cuts before any query is spent.

Success is declared when the observed deviation is at most 2*delta minus
the oracle's accuracy promise, so the true deviation is at most 2*delta.
Without knowledge of the latencies there is no certified infeasibility
test; the search reports NOT_FOUND once the ellipsoid volume falls below
a floor or the iteration cap is reached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ellipsoid import Ellipsoid, NumericBreakdown, unit_ball_log_volume
from .game import FlowVector, TollVector, has_positive_cycle, is_feasible
from .oracle import ACCURACY_FLOOR, EquilibriumOracle

__all__ = [
    "DegenerateCut",
    "TargetInfeasible",
    "TargetCyclic",
    "EnforcementStatus",
    "EnforcementConfig",
    "EnforcementResult",
    "EnforcementTraceRecord",
    "required_accuracy",
    "separation_cut",
    "enforce_flow",
]


class DegenerateCut(ValueError):
    """Observed and target flows coincide; no separating direction exists."""


class TargetInfeasible(ValueError):
    """The target flow violates conservation or demand constraints."""


class TargetCyclic(ValueError):
    """The target flow routes some commodity around a directed cycle."""


class EnforcementStatus(enum.Enum):
    SUCCESS = "success"
    NOT_FOUND = "not_found"


@dataclass(frozen=True)
class EnforcementConfig:
    """Tolerance delta and an optional iteration cap.

    ``enforce_flow`` derives the rest from delta and the game's constants:
    the oracle accuracy it needs (``required_accuracy``); the iteration
    cap, ceil(16 m^2 ln(T_max m K / delta)) and at least 64, unless
    ``max_iterations`` is set; and the volume floor, the volume of an
    m-ball of radius delta / (4 m K).
    """

    delta: float
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class EnforcementResult:
    tolls: TollVector
    achieved_deviation: float
    queries_used: int
    status: EnforcementStatus
    iterations: int


@dataclass(frozen=True)
class EnforcementTraceRecord:
    iteration: int
    cut_type: str  # "box" or "separation"
    center: np.ndarray
    tolls_queried: np.ndarray | None
    deviation: float | None
    log_volume: float
    ellipsoid: Ellipsoid


def required_accuracy(skeleton, delta: float) -> float:
    """Oracle accuracy ``enforce_flow`` needs at tolerance delta on a game
    (or skeleton): delta^2 / (K m k sum_d), raised to ``ACCURACY_FLOOR``."""
    const = skeleton.constants
    sum_d = max(const.total_demand, 1e-30)
    return max(
        delta**2 / (const.K * skeleton.m * max(skeleton.k, 1) * sum_d),
        ACCURACY_FLOOR,
    )


def separation_cut(
    tau_queried: TollVector,
    f_observed: np.ndarray,
    f_target: np.ndarray,
) -> np.ndarray:
    """Cut normal g = f_observed - f_target.

    The half-space {tau': g . tau' >= g . tau_queried} contains every toll
    vector inducing f_target exactly (monotonicity argument in the module
    docstring).  Raises ``DegenerateCut`` when no entry of g reaches 1e-12.
    """
    g = np.asarray(f_observed, dtype=float) - np.asarray(f_target, dtype=float)
    if float(np.abs(g).max()) < 1e-12:
        raise DegenerateCut("observed flow already matches the target")
    return g


def enforce_flow(
    oracle: EquilibriumOracle,
    f_star: FlowVector,
    cfg: EnforcementConfig,
    on_iteration: Callable[[EnforcementTraceRecord], None] | None = None,
    initial: Ellipsoid | None = None,
) -> EnforcementResult:
    """Search for tolls inducing the target flow within 2*delta.

    The target must be feasible and per-commodity acyclic.  ``initial``
    overrides the starting ellipsoid (the default is the ball around the
    toll box); a smaller start is a pure accelerator, since success is
    always verified against the oracle.
    """
    skel = oracle.skeleton
    if not is_feasible(skel, f_star):
        raise TargetInfeasible("target flow is not feasible for this game")
    if has_positive_cycle(skel, f_star):
        raise TargetCyclic("target flow routes flow around a directed cycle")
    const = skel.constants
    m, delta = skel.m, cfg.delta
    eps_acc = required_accuracy(skel, delta)
    if oracle.eps_query > eps_acc * (1 + 1e-9):
        raise ValueError(
            f"oracle accuracy {oracle.eps_query} is coarser than the "
            f"required {eps_acc}"
        )
    max_iterations = cfg.max_iterations
    if max_iterations is None:
        max_iterations = max(
            64, math.ceil(16 * m * m * math.log(const.T_max * m * const.K / delta))
        )
    floor_radius = delta / (4.0 * m * const.K)
    log_volume_floor = unit_ball_log_volume(m) + m * math.log(floor_radius)
    margin = oracle.eps_query
    t_max = const.T_max
    target = f_star.aggregate
    box_tol = 1e-12 * max(1.0, t_max)

    E = initial
    if E is None:
        E = Ellipsoid.circumscribing_box(np.zeros(m), np.full(m, t_max))
    full_radius = 0.5 * t_max * math.sqrt(m)
    queries_before = oracle.query_count
    best_tau: np.ndarray | None = None
    best_dev = float("inf")
    status = EnforcementStatus.NOT_FOUND
    # The shape matrix cannot represent extreme anisotropy (the enforcing
    # set may be unbounded along toll directions no cut ever shrinks, e.g.
    # a constant added to every toll of a parallel-link game).  When it
    # degenerates numerically, restart from a small ball around the best
    # tolls seen; success remains oracle-verified, so restarts only speed
    # things up or honestly fail.
    restarts_left = 6
    restart_scale = 8.0 * m * const.K
    it = 0
    while it < max_iterations:
        it += 1
        c = E.center
        if c.min() < -box_tol or c.max() > t_max + box_tol:
            low = c < -box_tol
            high = c > t_max + box_tol
            j = int(np.argmax(low)) if low.any() else int(np.argmax(high))
            g = np.zeros(m)
            g[j] = 1.0 if low[j] else -1.0
            cut_type = "box"
            tau_q = None
            dev = None
        else:
            tau_q = np.clip(c, 0.0, t_max)
            tolls = TollVector(tau_q)
            resp = oracle.query(tolls)
            dev = float(np.abs(resp.aggregate_flow - target).max())
            if dev < best_dev:
                best_dev = dev
                best_tau = tau_q
            if dev <= 2.0 * delta - margin:
                status = EnforcementStatus.SUCCESS
                break
            g = separation_cut(tolls, resp.aggregate_flow, target)
            cut_type = "separation"
        try:
            E = E.update(g)
            log_vol = E.log_volume()
        except NumericBreakdown:
            if restarts_left <= 0 or best_tau is None:
                break
            radius = min(
                max(restart_scale * best_dev, 1e3 * delta),
                full_radius,
            ) * 16.0 ** (6 - restarts_left)
            restarts_left -= 1
            E = Ellipsoid.ball(best_tau, min(radius, full_radius))
            continue
        if on_iteration is not None:
            on_iteration(
                EnforcementTraceRecord(
                    iteration=it,
                    cut_type=cut_type,
                    center=c,
                    tolls_queried=tau_q,
                    deviation=dev,
                    log_volume=log_vol,
                    ellipsoid=E,
                )
            )
        if log_vol < log_volume_floor:
            break
    queries_used = oracle.query_count - queries_before
    if best_tau is None:
        best_tau = np.clip(E.center, 0.0, t_max)
        best_dev = float("inf")
    return EnforcementResult(
        tolls=TollVector(best_tau),
        achieved_deviation=best_dev,
        queries_used=queries_used,
        status=status,
        iterations=it,
    )
