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
    """Tolerance delta plus derived search limits.

    Fields left as None are resolved against the oracle's public constants:
    eps_query defaults to delta^2 / (K m k sum_d); max_iterations to
    ceil(16 m^2 ln(T_max m K / delta)); the volume floor to the volume of
    an m-ball of radius delta / (4 m K).
    """

    delta: float
    eps_query: float | None = None
    max_iterations: int | None = None
    log_volume_floor: float | None = None

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def resolved(self, oracle: EquilibriumOracle) -> "_Resolved":
        const = oracle.skeleton.constants
        m, k = oracle.skeleton.m, oracle.skeleton.k
        sum_d = max(const.total_demand, 1e-30)
        eps = self.eps_query
        if eps is None:
            eps = self.delta**2 / (const.K * m * max(k, 1) * sum_d)
        max_iter = self.max_iterations
        if max_iter is None:
            max_iter = max(
                64,
                math.ceil(
                    16 * m * m * math.log(const.T_max * m * const.K / self.delta)
                ),
            )
        floor = self.log_volume_floor
        if floor is None:
            radius = self.delta / (4.0 * m * const.K)
            floor = unit_ball_log_volume(m) + m * math.log(radius)
        return _Resolved(self.delta, eps, max_iter, floor)


@dataclass(frozen=True)
class _Resolved:
    delta: float
    eps_query: float
    max_iterations: int
    log_volume_floor: float


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


def separation_cut(
    tau_queried: TollVector,
    f_observed: np.ndarray,
    f_target: np.ndarray,
    floor: float = 1e-12,
) -> np.ndarray:
    """Cut normal g = f_observed - f_target.

    The half-space {tau': g . tau' >= g . tau_queried} contains every toll
    vector inducing f_target exactly (monotonicity argument in the module
    docstring).
    """
    g = np.asarray(f_observed, dtype=float) - np.asarray(f_target, dtype=float)
    if float(np.max(np.abs(g))) < floor:
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
    res = cfg.resolved(oracle)
    eps_acc = max(res.eps_query, ACCURACY_FLOOR)
    if oracle.eps_query > eps_acc * (1 + 1e-9):
        raise ValueError(
            f"oracle accuracy {oracle.eps_query} is coarser than the "
            f"required {eps_acc}"
        )
    margin = oracle.eps_query
    t_max = skel.constants.T_max
    m = skel.m
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
    restart_scale = 8.0 * m * skel.constants.K
    it = 0
    while it < res.max_iterations:
        it += 1
        c = E.center
        low = c < -box_tol
        high = c > t_max + box_tol
        if low.any() or high.any():
            j = int(np.argmax(low)) if low.any() else int(np.argmax(high))
            g = np.zeros(m)
            g[j] = 1.0 if low[j] else -1.0
            cut_type = "box"
            tau_q = None
            dev = None
        else:
            tau_q = np.clip(c, 0.0, t_max)
            resp = oracle.query(TollVector(tau_q))
            dev = float(np.max(np.abs(resp.aggregate_flow - target)))
            if dev < best_dev:
                best_dev = dev
                best_tau = tau_q
            if dev <= 2.0 * res.delta - margin:
                status = EnforcementStatus.SUCCESS
                break
            g = separation_cut(TollVector(tau_q), resp.aggregate_flow, target)
            cut_type = "separation"
        try:
            E = E.update(g)
            log_vol = E.log_volume()
        except NumericBreakdown:
            if restarts_left <= 0 or best_tau is None:
                break
            radius = min(
                max(restart_scale * best_dev, 1e3 * res.delta),
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
        if log_vol < res.log_volume_floor:
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
