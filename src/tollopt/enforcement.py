"""Toll search: find tolls whose induced equilibrium matches a target flow.

``enforce_flow`` and ``ellipsoid_search`` run one search loop: first
``DUAL_QUERIES_PER_EDGE * m`` dual-ascent steps from the caller's start
tolls (or zero tolls), then the paper's central cuts from the ball around
the toll box.  ``ellipsoid_search`` is that loop with no dual steps.  Both
phases step along g = F(tau) - f*, the answer to one query.

Dual ascent.  Let Phi be the Beckmann potential and
V(tau) = min_f Phi(f) + tau . f over feasible flows.  V is a minimum of
functions affine in tau, so it is concave, and by Danskin's theorem its
gradient is the aggregate equilibrium flow F(tau).  Enforcing f* is
therefore maximizing the concave dual V(tau) - tau . f*, whose gradient
g = F(tau) - f* costs one oracle query.  Each step moves
tau <- clip(tau + H g, 0, T_max), with H the limited-memory BFGS inverse
Hessian of -V (L-BFGS; Liu & Nocedal, 1989): it keeps the last
``LBFGS_MEMORY`` secant pairs s = tau - tau_prev, y = g_prev - g with
s.y > 0 (concavity makes s.y >= 0) and takes H0 = (s.y / y.y) I from
the newest.  With no pair, as at the first step, H = 1/K.  An answer whose
deviation is worse than the best so far clears the memory before its own
pair enters, and a toll that its gradient holds at a bound (at 0 with
g < 0, at T_max with g > 0) is left out of the step, so stale curvature
cannot push the tolls against the box again and again.  After
``DUAL_RESTART_PER_EDGE * m`` steps without success the ascent restarts
once: it goes back to the best tolls so far, reuses their stored answer
and empties its memory, so its next step is g/K from there.  It does not
restart while the best tolls are still the start, since it would then
replay its own steps.

Ellipsoid search.  The cut comes from monotonicity of the latency
functions: if the oracle answers a query tau with equilibrium flow f,
then every toll vector tau' that induces the target f* exactly satisfies

    (f - f*) . tau'  >=  (f - f*) . tau.

(The equilibrium variational inequality at tau gives (l(f)+tau).(f*-f) >= 0;
the one at tau' gives (l(f*)+tau').(f-f*) >= 0; adding and using
(l(f)-l(f*)).(f-f*) >= 0 cancels the latency terms.  This is the
concavity of V above.)  So g = f - f* is a valid separating normal and
the half-space {tau': g.tau' >= g.tau} keeps every exactly-enforcing toll
vector.  Centers that leave the toll box are pushed back by coordinate
feasibility cuts before any query is spent.

The loop declares success once an observed deviation is at most 2*delta
minus the oracle's accuracy promise, so the true deviation is at most
2*delta.  Without knowledge of the latencies there is no certified
infeasibility test; the search reports NOT_FOUND once the ellipsoid's
volume falls below a floor or the iteration cap is reached.  The worst case of
``enforce_flow`` is therefore 25m dual queries plus the paper's bound.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ellipsoid import Ellipsoid, NumericBreakdown, unit_ball_log_volume
from .game import FlowVector, TollVector, _is_int_at_least, has_positive_cycle, is_feasible
from .oracle import (
    ACCURACY_FLOOR,
    EquilibriumOracle,
    OracleResponse,
    _refuse_overflowing,
)

__all__ = [
    "TargetInfeasible",
    "TargetCyclic",
    "EnforcementStatus",
    "EnforcementConfig",
    "EnforcementResult",
    "EnforcementTraceRecord",
    "required_accuracy",
    "ellipsoid_search",
    "enforce_flow",
    "DUAL_QUERIES_PER_EDGE",
]

#: Dual-ascent steps per edge before ``enforce_flow`` falls back to the
#: ellipsoid search.
DUAL_QUERIES_PER_EDGE = 25

#: Dual steps per edge after which a search that has not succeeded
#: restarts from its best tolls with an empty L-BFGS memory.
DUAL_RESTART_PER_EDGE = 5

#: Secant pairs the dual phase's L-BFGS step keeps.
LBFGS_MEMORY = 5


class TargetInfeasible(ValueError):
    """The target flow violates conservation or demand constraints."""


class TargetCyclic(ValueError):
    """The target flow routes some commodity around a directed cycle."""


class EnforcementStatus(enum.Enum):
    SUCCESS = "success"
    NOT_FOUND = "not_found"


@dataclass(frozen=True)
class EnforcementConfig:
    """Tolerance delta and an optional iteration cap, an int >= 1.

    The searches derive the rest from delta and the game's constants: the
    oracle accuracy they need (``required_accuracy``); unless
    ``max_iterations`` caps dual steps and cuts together, a limit of
    ceil(16 m^2 ln(T_max m K / delta)) cuts, at least 64, after the dual
    steps; and the volume floor, that of an m-ball of radius delta / (4 m K).
    """

    delta: float
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:  # False for NaN
            raise ValueError("delta must be positive and finite")
        cap = self.max_iterations
        if cap is not None and not _is_int_at_least(cap, 1):
            raise ValueError("max_iterations must be None or an int >= 1")


@dataclass(frozen=True)
class EnforcementResult:
    tolls: TollVector
    achieved_deviation: float
    queries_used: int
    status: EnforcementStatus
    iterations: int
    response: OracleResponse | None  # answer accepted at tolls (SUCCESS only)


@dataclass(frozen=True)
class EnforcementTraceRecord:
    iteration: int
    cut_type: str  # "dual", "box" or "separation"
    center: np.ndarray
    deviation: float | None
    log_volume: float | None  # None on a dual step
    ellipsoid: Ellipsoid | None  # None on a dual step


def required_accuracy(skeleton, delta: float) -> float:
    """Oracle accuracy ``enforce_flow`` needs at tolerance delta on a game
    (or skeleton): delta^2 / (K m k sum_d), raised to ``ACCURACY_FLOOR``."""
    const = skeleton.constants
    sum_d = max(const.total_demand, 1e-30)
    return max(
        delta**2 / (const.K * skeleton.m * max(skeleton.k, 1) * sum_d),
        ACCURACY_FLOOR,
    )


def _accuracy_shortfall(skeleton, eps_query: float, delta: float) -> str | None:
    """Why an oracle of accuracy ``eps_query`` cannot serve a search at
    tolerance delta on a game (or skeleton), or None when it can.

    It must be no coarser than ``required_accuracy``, and the success
    threshold 2*delta - eps_query must reach 1e-12: below that, success
    would need a deviation F(tau) - f* at the rounding level of the flows.
    """
    eps_acc = required_accuracy(skeleton, delta)
    if eps_query > eps_acc * (1 + 1e-9):
        reason = f"it is coarser than the required {eps_acc}"
    elif 2.0 * delta - eps_query < 1e-12:
        reason = "2*delta - eps_query is below 1e-12"
    else:
        return None
    return f"oracle accuracy {eps_query} cannot serve delta {delta:.3g}: {reason}"


def _check_inputs(oracle: EquilibriumOracle, f_star: FlowVector, delta: float) -> None:
    """Reject a game whose costs or search constants overflow a double, an
    infeasible or cyclic target, and an oracle that cannot serve tolerance
    delta (``_accuracy_shortfall``).

    The search constants are ln(T_max m K / delta), from which the cut
    limit is taken, and (T_max sqrt(m) / 2)^2, the squared radius of the
    starting ball around the toll box.
    """
    skel = oracle.skeleton
    _refuse_overflowing(skel)
    const = skel.constants
    log_arg = const.T_max * skel.m * const.K / delta
    radius = 0.5 * const.T_max * math.sqrt(skel.m)
    if not max(log_arg, radius * radius) < math.inf:  # a float product overflows to inf
        raise ValueError(
            "the search's constants overflow a double: ln(T_max m K / delta) "
            "and (T_max sqrt(m) / 2)^2 must be finite"
        )
    if not is_feasible(skel, f_star):
        raise TargetInfeasible("target flow is not feasible for this game")
    if has_positive_cycle(skel, f_star):
        raise TargetCyclic("target flow routes flow around a directed cycle")
    shortfall = _accuracy_shortfall(skel, oracle.eps_query, delta)
    if shortfall is not None:
        raise ValueError(shortfall)


def enforce_flow(
    oracle: EquilibriumOracle,
    f_star: FlowVector,
    cfg: EnforcementConfig,
    on_iteration: Callable[[EnforcementTraceRecord], None] | None = None,
    initial: TollVector | None = None,
) -> EnforcementResult:
    """Search for tolls inducing the target flow within 2*delta.

    Runs L-BFGS dual ascent on V(tau) - tau . f* (concave; its gradient
    F(tau) - f* is one query, by Danskin's theorem; see the module
    docstring) from the start tolls ``initial`` clipped to the toll box,
    or from zero tolls.  After ``DUAL_RESTART_PER_EDGE * m`` steps without
    success the ascent restarts once from its best tolls, unless those are
    still the start.  After ``DUAL_QUERIES_PER_EDGE * m`` steps without
    success it runs ``ellipsoid_search`` from the ball around the whole
    toll box, whatever the start, so the worst case is 25m queries plus
    the paper's bound.  Success is always verified against the oracle.
    ``cfg.max_iterations`` caps dual steps and ellipsoid iterations
    together; ``queries_used``, ``iterations`` and the returned tolls (the
    best seen) cover both phases.  Each dual step that does not succeed is
    reported to ``on_iteration`` with ``cut_type="dual"`` and no ellipsoid.

    The target must be feasible and per-commodity acyclic.
    """
    dual_steps = DUAL_QUERIES_PER_EDGE * oracle.skeleton.m
    return _search(oracle, f_star, cfg, on_iteration, dual_steps, initial, None)


def ellipsoid_search(
    oracle: EquilibriumOracle,
    f_star: FlowVector,
    cfg: EnforcementConfig,
    on_iteration: Callable[[EnforcementTraceRecord], None] | None = None,
    initial: Ellipsoid | None = None,
) -> EnforcementResult:
    """The paper's central-cut ellipsoid search for tolls inducing the
    target flow within 2*delta.

    The target must be feasible and per-commodity acyclic.  ``initial``
    overrides the starting ellipsoid (the default is the ball around the
    toll box); a smaller start is a pure accelerator, since success is
    always verified against the oracle.
    """
    return _search(oracle, f_star, cfg, on_iteration, 0, None, initial)


def _search(
    oracle: EquilibriumOracle,
    f_star: FlowVector,
    cfg: EnforcementConfig,
    on_iteration: Callable[[EnforcementTraceRecord], None] | None,
    dual_steps: int,
    start: TollVector | None,
    initial: Ellipsoid | None,
) -> EnforcementResult:
    """``dual_steps`` dual-ascent steps from ``start`` (default zero tolls),
    then central cuts from ``initial`` (default the ball around the box).
    Each iteration queries its point, the dual tolls or the ellipsoid's
    center (a center outside the toll box gets a box cut and no query; the
    best tolls of a dual restart and the center of a restart ball reuse
    their stored answer), keeps the strictly best deviation, stops on
    success, reports one record and takes its phase's step.
    """
    _check_inputs(oracle, f_star, cfg.delta)
    const = oracle.skeleton.constants
    m, delta, t_max = oracle.skeleton.m, cfg.delta, const.T_max
    limit = cfg.max_iterations
    if limit is None:
        bound = math.ceil(16 * m * m * math.log(t_max * m * const.K / delta))
        limit = dual_steps + max(64, bound)
    threshold = 2.0 * delta - oracle.eps_query
    target = f_star.aggregate
    box_tol = 1e-12 * max(1.0, t_max)
    log_vol_floor = unit_ball_log_volume(m) + m * math.log(delta / (4.0 * m * const.K))
    queries_before = oracle.query_count
    best_tau, best_dev, best_resp = None, float("inf"), None
    status = EnforcementStatus.NOT_FOUND

    tau = first = np.zeros(m) if start is None else np.clip(start.values, 0.0, t_max)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    prev_tau = prev_g = None
    E = initial
    # The shape matrix cannot represent extreme anisotropy (the enforcing
    # set may be unbounded along toll directions no cut ever shrinks, e.g.
    # a constant added to every toll of a parallel-link game).  When it
    # degenerates numerically, restart from a small ball around the best
    # tolls of the ellipsoid phase; success remains oracle-verified, so
    # restarts only speed things up or honestly fail.  A restart ball is
    # centred on those tolls, so its first cut reuses their stored answer
    # instead of querying them again.
    restarts_left = 6
    cut_tau, cut_dev, cut_resp = None, float("inf"), None
    reuse = None
    full_radius = 0.5 * t_max * math.sqrt(m)
    for it in range(1, limit + 1):
        dual = it <= dual_steps
        if dual and it == DUAL_RESTART_PER_EDGE * m + 1 and best_tau is not first:
            tau, reuse = best_tau, best_resp
            pairs.clear()
            prev_tau = prev_g = None
        if E is None and not dual:  # built only when the search reaches its cuts
            E = Ellipsoid.circumscribing_box(np.zeros(m), np.full(m, t_max))
        c = tau if dual else E.center  # dual tolls never leave the box
        if not dual and (c.min() < -box_tol or c.max() > t_max + box_tol):
            low = c < -box_tol
            j = int(np.argmax(low if low.any() else c > t_max + box_tol))
            g = np.zeros(m)
            g[j] = 1.0 if low[j] else -1.0
            cut_type, dev = "box", None
        else:
            point = tau if dual else np.clip(c, 0.0, t_max)
            if reuse is None:
                resp = oracle.query(TollVector(point))
            else:
                resp, reuse = reuse, None
            g = resp.aggregate_flow - target
            dev = float(np.abs(g).max())
            if dev < best_dev:
                best_tau, best_dev, best_resp = point, dev, resp
            if dev <= threshold:
                status = EnforcementStatus.SUCCESS
                break
            cut_type = "dual" if dual else "separation"
        if dual:  # an L-BFGS step on the concave dual
            if dev > best_dev:  # worse than the best: forget the old curvature
                pairs.clear()
            if prev_tau is not None:
                s, y = tau - prev_tau, prev_g - g
                sy = float(s @ y)
                if sy > 0.0:
                    pairs.append((s, y, 1.0 / sy))
            prev_tau, prev_g = tau, g
            if pairs:  # a toll held at a bound by its gradient stays there
                held = ((tau <= 0.0) & (g < 0.0)) | ((tau >= t_max) & (g > 0.0))
                step = _lbfgs_direction(pairs, np.where(held, 0.0, g))
                step[held] = 0.0
            else:
                step = g / const.K
            tau = np.clip(tau + step, 0.0, t_max)
            ellipsoid = log_vol = None
        else:
            if dev is not None and dev < cut_dev:
                cut_tau, cut_dev, cut_resp = point, dev, resp
            try:
                ellipsoid = E = E.update(g)
                log_vol = E.log_volume()
            except NumericBreakdown:
                if restarts_left <= 0 or cut_tau is None:
                    break
                radius = min(max(8.0 * m * const.K * cut_dev, 1e3 * delta), full_radius)
                radius *= 16.0 ** (6 - restarts_left)
                restarts_left -= 1
                E = Ellipsoid.ball(cut_tau, min(radius, full_radius))
                reuse = cut_resp
                continue
        if on_iteration is not None:
            record = EnforcementTraceRecord(it, cut_type, c, dev, log_vol, ellipsoid)
            on_iteration(record)
        if log_vol is not None and log_vol < log_vol_floor:
            break
    if best_tau is None:
        best_tau = np.clip(E.center, 0.0, t_max)
    return EnforcementResult(
        tolls=TollVector(best_tau),
        achieved_deviation=best_dev,
        queries_used=oracle.query_count - queries_before,
        status=status,
        iterations=it,
        response=resp if status is EnforcementStatus.SUCCESS else None,
    )


def _lbfgs_direction(pairs, g: np.ndarray) -> np.ndarray:
    """H g, with H the L-BFGS inverse Hessian of the negated dual built from
    the secant pairs (s, y, 1 / s.y), oldest first, by the two-loop
    recursion (Liu & Nocedal, 1989), scaled by H0 = (s.y / y.y) I of the
    newest pair.  Here y = g_prev - g, so s.y > 0 on the concave dual."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    _, y, rho = pairs[-1]
    r = q / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return r
