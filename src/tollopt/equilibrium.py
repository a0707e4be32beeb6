"""Wardrop equilibria with tolls, via Beckmann-potential minimization.

The equilibrium of a tolled game is the minimizer of

    Phi(f) = sum_e [ integral_0^{F_e} l_e(t) dt + tau_e * F_e ]

over feasible multicommodity flows, where F is the aggregate.  The solver
works in path space with column generation:

1. a conditional-gradient warmup (per-commodity shortest paths as the
   linear oracle, exact line search on the one-dimensional polynomial
   potential) discovers the relevant paths and gets near the minimizer;
2. Newton iterations on the working paths then solve the equilibrium
   conditions (all used paths of a commodity equally cheap, demands met)
   to near machine precision, with ratio tests keeping path flows
   nonnegative and stalled systems handed back to conditional-gradient
   steps (this happens when constant-latency edges tie).

Parallel links with strictly increasing latencies skip the path machinery:
one level solve (a threshold sweep on chord models, then bracketed Newton
when some link is not affine) finds the common tolled cost of the links.

The duality gap  sum_e c_e F_e - sum_i d_i * dist_i  certifies the result:
it upper-bounds the Beckmann suboptimality and is reported as
``beckmann_gap``.  Everything is deterministic: adjacency lists are in
edge-id order and ties are broken by the first (lowest edge id) route
found, so the solver output is a well-defined function of (game, tolls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (
    FlowVector,
    Infeasible,
    RoutingGame,
    TollVector,
    _horner,
    is_feasible,
)
from .paths import Unreachable, decompose_paths, dijkstra, shortest_path

__all__ = [
    "EqConfig",
    "EquilibriumResult",
    "NoConvergence",
    "beckmann_potential",
    "solve_equilibrium",
    "wardrop_violation",
    "shortest_path",
]


class NoConvergence(RuntimeError):
    """The iteration budget ran out before the requested accuracy."""


#: Cap on the total conditional-gradient and Newton steps of one solve.
MAX_ITERATIONS = 6000


@dataclass(frozen=True)
class EqConfig:
    accuracy: float = 1e-8  # Beckmann duality-gap target, absolute

    def __post_init__(self) -> None:
        if not self.accuracy > 0:
            raise ValueError("accuracy must be positive")


@dataclass(frozen=True)
class EquilibriumResult:
    flow: FlowVector
    beckmann_gap: float
    wardrop_violation: float
    iterations: int


def _eval_poly_rows(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for j in range(A.shape[1] - 1, -1, -1):
        acc = acc * x + A[:, j]
    return acc


def _eval_slope_rows(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for j in range(A.shape[1] - 1, 0, -1):
        acc = acc * x + j * A[:, j]
    return acc


def beckmann_potential(game: RoutingGame, tolls: TollVector, f: FlowVector) -> float:
    """Potential whose minimizers over feasible flows are the equilibria."""
    if not is_feasible(game, f):
        raise Infeasible("flow is not feasible for this game")
    agg = f.aggregate
    total = float(np.dot(tolls.values, agg))
    for x, e in zip(agg, game.edges):
        if x > 0.0:
            total += e.latency.integral(float(x))
    return total


def _line_search(A: np.ndarray, F: np.ndarray, D: np.ndarray, tau: np.ndarray) -> float:
    """Exact step for the potential along F + gamma*D, gamma in [0, 1].

    The directional derivative phi'(gamma) = sum_e D_e (l_e(F_e + gamma D_e)
    + tau_e) is a polynomial in gamma; its coefficients are assembled by
    binomial expansion and the root located by bisection (phi' is
    nondecreasing because the potential is convex).
    """
    rmax = A.shape[1] - 1
    c = np.zeros(rmax + 1)
    for i in range(rmax + 1):
        inner = np.zeros(len(F))
        for j in range(i, rmax + 1):
            inner += A[:, j] * (math.comb(j, i) * F ** (j - i))
        c[i] = float(np.dot(D ** (i + 1), inner))
    c[0] += float(np.dot(D, tau))
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]

    def dphi(g: float) -> float:
        acc = 0.0
        for ci in c[::-1]:
            acc = acc * g + ci
        return acc

    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(1.0) <= 0.0:
        return 1.0
    if len(c) == 2:  # linear derivative: closed-form root
        return float(-c[0] / c[1])
    if len(c) == 3:  # quadratic derivative, increasing on [0, 1]
        disc = c[1] * c[1] - 4.0 * c[2] * c[0]
        if disc >= 0.0 and c[2] != 0.0:
            root = (-c[1] + math.sqrt(disc)) / (2.0 * c[2])
            if 0.0 <= root <= 1.0:
                return float(root)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dphi(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _PathState:
    """Working per-commodity path sets with flows, shared aggregate views."""

    def __init__(self, game: RoutingGame):
        self.game = game
        self.paths: list[list[tuple[int, ...]]] = [[] for _ in game.commodities]
        self.flows: list[list[float]] = [[] for _ in game.commodities]
        self.index: list[dict[tuple[int, ...], int]] = [{} for _ in game.commodities]

    def add_path(self, i: int, path: tuple[int, ...], flow: float = 0.0) -> int:
        pos = self.index[i].get(path)
        if pos is None:
            pos = len(self.paths[i])
            self.paths[i].append(path)
            self.flows[i].append(flow)
            self.index[i][path] = pos
        else:
            self.flows[i][pos] += flow
        return pos

    def aggregate(self) -> np.ndarray:
        F = np.zeros(self.game.m)
        for plist, hlist in zip(self.paths, self.flows):
            for path, h in zip(plist, hlist):
                if h != 0.0:
                    for e in path:
                        F[e] += h
        return F

    def per_commodity(self) -> np.ndarray:
        X = np.zeros((self.game.k, self.game.m))
        for i, (plist, hlist) in enumerate(zip(self.paths, self.flows)):
            for path, h in zip(plist, hlist):
                if h != 0.0:
                    for e in path:
                        X[i, e] += h
        return X

    def prune(self, cut: float = 0.0) -> None:
        for i in range(len(self.paths)):
            keep = [
                (p, h)
                for p, h in zip(self.paths[i], self.flows[i])
                if h > cut
            ]
            if len(keep) == len(self.paths[i]):
                continue
            dropped = self.game.commodities[i].demand - sum(h for _, h in keep)
            self.paths[i] = [p for p, _ in keep]
            self.flows[i] = [h for _, h in keep]
            self.index[i] = {p: j for j, (p, _) in enumerate(keep)}
            if keep and dropped != 0.0:
                # fold the pruned mass into the largest path to keep demand exact
                jmax = max(range(len(keep)), key=lambda j: self.flows[i][j])
                self.flows[i][jmax] += dropped


def _newton_round(
    state: _PathState,
    A: np.ndarray,
    tau: np.ndarray,
    demands: np.ndarray,
    tol: float,
) -> tuple[bool, int]:
    """Equilibrate the working paths: equal cost per commodity, demands met.

    Runs at most 40 Newton iterations and returns (converged,
    inner_iterations).  ``converged`` is False when the linearized system
    cannot make progress (ties between constant-latency routes); the
    caller then falls back to conditional-gradient steps.
    """
    game = state.game
    rows: list[tuple[int, tuple[int, ...]]] = []
    for i, plist in enumerate(state.paths):
        for p in plist:
            rows.append((i, p))
    P = len(rows)
    if P == 0:
        return True, 0
    k = game.k
    N = np.zeros((P, game.m))
    for r_i, (_, p) in enumerate(rows):
        for e in p:
            N[r_i, e] += 1.0
    E = np.zeros((P, k))
    for r_i, (i, _) in enumerate(rows):
        E[r_i, i] = 1.0
    h = np.array(
        [state.flows[i][state.index[i][p]] for i, p in rows], dtype=float
    )
    c = N @ (_eval_poly_rows(A, h @ N) + tau)
    lam = np.zeros(k)
    for i in range(k):
        mask = E[:, i] > 0
        w = h[mask]
        lam[i] = float(np.dot(w, c[mask]) / w.sum()) if w.sum() > 0 else float(c[mask].min())

    def residual(hv: np.ndarray, lamv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cv = N @ (_eval_poly_rows(A, hv @ N) + tau)
        r = np.concatenate([cv - E @ lamv, E.T @ hv - demands])
        return r, cv

    r, c = residual(h, lam)
    best_norm = float(np.max(np.abs(r)))
    it = 0
    while best_norm > tol and it < 40:
        it += 1
        F = h @ N
        W = _eval_slope_rows(A, F)
        J_hh = (N * W) @ N.T
        J = np.block([[J_hh, -E], [E.T, np.zeros((k, k))]])
        try:
            step = np.linalg.solve(J, -r)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        dh, dlam = step[:P], step[P:]
        alpha = 1.0
        for j in range(P):
            if dh[j] < 0 and h[j] + dh[j] < 0:
                alpha = min(alpha, h[j] / -dh[j])
        h_new = np.maximum(h + alpha * dh, 0.0)
        lam_new = lam + alpha * dlam
        r_new, c_new = residual(h_new, lam_new)
        norm_new = float(np.max(np.abs(r_new)))
        if norm_new > 0.9 * best_norm and alpha == 1.0:
            # damped retry before declaring a stall
            h_half = np.maximum(h + 0.5 * dh, 0.0)
            lam_half = lam + 0.5 * dlam
            r_half, c_half = residual(h_half, lam_half)
            if float(np.max(np.abs(r_half))) < norm_new:
                h_new, lam_new, r_new, c_new = h_half, lam_half, r_half, c_half
                norm_new = float(np.max(np.abs(r_new)))
        h, lam, r, c = h_new, lam_new, r_new, c_new
        if norm_new >= best_norm * 0.999999 and alpha < 1e-12:
            break
        progress = norm_new < best_norm * 0.9
        best_norm = min(best_norm, norm_new)
        # paths pinned at zero that are strictly too expensive leave the set
        drop = [
            j
            for j in range(P)
            if h[j] == 0.0 and c[j] - lam[rows[j][0]] > 10 * tol
        ]
        if drop:
            keep = [j for j in range(P) if j not in set(drop)]
            rows = [rows[j] for j in keep]
            N = N[keep]
            E = E[keep]
            h = h[keep]
            r, c = residual(h, lam)
            best_norm = float(np.max(np.abs(r)))
            P = len(rows)
            if P == 0:
                break
            continue
        if not progress and norm_new > tol and it >= 3:
            # three iterations without real progress: hand back to CG
            _writeback(state, rows, h)
            return False, it
    _writeback(state, rows, h)
    return best_norm <= tol, it


def _writeback(state: _PathState, rows, h: np.ndarray) -> None:
    for i in range(len(state.paths)):
        state.paths[i] = []
        state.flows[i] = []
        state.index[i] = {}
    for (i, p), hv in zip(rows, h):
        state.add_path(i, p, float(hv))


def _is_strict_parallel(game: RoutingGame) -> bool:
    return game.latency_table.strict_parallel


def _solve_parallel_strict(
    game: RoutingGame, tau: np.ndarray
) -> EquilibriumResult:
    """Fast path for parallel links with strictly increasing latencies.

    The aggregate equilibrium is unique there: the common tolled cost
    level lambda satisfies sum_e x_e(lambda) = d with x_e the inverse of
    l_e + tau_e, clamped at 0.  A sorted threshold sweep on each link's
    chord model l_e(0) + s_e x, with s_e = (l_e(d) - l_e(0)) / d, gives the
    level exactly for affine links and a seed otherwise.  Bracketed Newton
    on the level then runs to its floating-point fixed point, inverting
    each link by Newton from its last value; a step that leaves the
    bracket [min_e l_e(0) + tau_e, max_e l_e(d) + tau_e] is replaced by
    bisection.  Output coincides with the general path solver; this branch
    only saves time.
    """
    d = game.commodities[0].demand
    table = game.latency_table
    horner, slope_horner = table.horner, table.slope_horner
    m = game.m
    tau = tau.tolist()
    base = [a + t for a, t in zip(table.at_zero, tau)]
    slopes = table.chord

    order = sorted(range(m), key=lambda e: (base[e], e))
    inv_sum = 0.0
    weighted = 0.0
    lam = None
    for pos, e in enumerate(order):
        inv_sum += 1.0 / slopes[e]
        weighted += base[e] / slopes[e]
        cand = (d + weighted) / inv_sum
        nxt = base[order[pos + 1]] if pos + 1 < m else float("inf")
        if cand >= base[e] and cand <= nxt:
            lam = cand
            break
    if lam is None:
        lam = (d + weighted) / inv_sum
    x = [max(0.0, (lam - base[e]) / slopes[e]) for e in range(m)]

    if table.max_degree > 1:
        lo = min(base)
        hi = max(_horner(horner[e], d) + tau[e] for e in range(m))
        for _ in range(100):
            total = 0.0
            inv_slope = 0.0
            for e in range(m):
                if lam <= base[e]:
                    x[e] = 0.0
                    continue
                target = lam - tau[e]
                xe = x[e] if x[e] > 0.0 else (lam - base[e]) / slopes[e]
                for _ in range(40):
                    sl = _horner(slope_horner[e], xe)
                    if sl <= 0.0:
                        break
                    step = (_horner(horner[e], xe) - target) / sl
                    xe = max(xe - step, 0.0)
                    if abs(step) <= 1e-14 * d:
                        break
                x[e] = xe
                total += xe
                if sl > 0.0:
                    inv_slope += 1.0 / sl
            if total < d:
                lo = lam
            else:
                hi = lam
            # with no link active the level is below every base: bisect
            nxt = lam - (total - d) / inv_slope if inv_slope > 0.0 else hi
            if nxt != lam and not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt == lam:
                break
            lam = nxt

    arr = np.array(x)
    total = float(arr.sum())
    if total > 0:
        arr *= d / total
    flows = arr.tolist()
    cost_list = [_horner(h, xe) + t for h, xe, t in zip(horner, flows, tau)]
    costs = np.array(cost_list)
    dist = float(costs.min())
    gap = max(0.0, float(np.dot(costs, arr)) - d * dist)
    viol = max(
        (c - dist for c, xe in zip(cost_list, flows) if xe > 0), default=0.0
    )
    return EquilibriumResult(
        flow=FlowVector(arr.reshape(1, -1)),
        beckmann_gap=gap,
        wardrop_violation=max(0.0, viol),
        iterations=1,
    )


def solve_equilibrium(
    game: RoutingGame,
    tolls: TollVector | None = None,
    cfg: EqConfig | None = None,
) -> EquilibriumResult:
    """Deterministic tolled Wardrop equilibrium of a validated game.

    Raises ``NoConvergence`` if the duality gap cannot be pushed below
    ``cfg.accuracy`` within the iteration budget.
    """
    cfg = cfg or EqConfig()
    tau = tolls.values if tolls is not None else np.zeros(game.m)
    if len(tau) != game.m:
        raise ValueError("toll vector length does not match the game")
    k = game.k
    if k == 0:
        return EquilibriumResult(FlowVector.zeros(0, game.m), 0.0, 0.0, 0)
    if _is_strict_parallel(game):
        return _solve_parallel_strict(game, tau)
    A = game.latency_table.coeffs
    demands = np.array([c.demand for c in game.commodities])
    skel = game.skeleton()
    vi = skel.vertex_index
    adj = skel.adjacency_out
    tails = skel.tails
    state = _PathState(game)

    def sp_all(costs: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
        best: list[tuple[int, ...]] = []
        dist = np.zeros(k)
        by_source: dict[str, tuple[list[float], list[int]]] = {}
        for i, com in enumerate(game.commodities):
            if com.source not in by_source:
                by_source[com.source] = dijkstra(adj, costs, vi[com.source])
            d, pred = by_source[com.source]
            ti = vi[com.sink]
            if d[ti] == float("inf"):
                raise Unreachable(f"{com.sink!r} unreachable from {com.source!r}")
            path: list[int] = []
            v = ti
            while v != vi[com.source]:
                e = pred[v]
                path.append(e)
                v = tails[e]
            path.reverse()
            best.append(tuple(path))
            dist[i] = d[ti]
        return best, dist

    # all-or-nothing start at zero load
    zero_costs = _eval_poly_rows(A, np.zeros(game.m)) + tau
    init_paths, _ = sp_all(zero_costs)
    for i, p in enumerate(init_paths):
        state.add_path(i, p, float(demands[i]))

    iterations = 0
    gap = float("inf")
    dist = np.zeros(k)
    scale = 1.0

    def measure() -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
        nonlocal gap, dist, scale
        F = state.aggregate()
        costs = _eval_poly_rows(A, F) + tau
        best, dist = sp_all(costs)
        total = float(np.dot(costs, F))
        scale = max(1.0, abs(total))
        gap = max(0.0, total - float(np.dot(demands, dist)))
        return F, costs, best

    def cg_step(F: np.ndarray, best: list[tuple[int, ...]]) -> bool:
        """Conditional-gradient step toward the all-or-nothing assignment
        on ``best``; False, changing nothing, when the line search gives 0."""
        S = np.zeros(game.m)
        for i, p in enumerate(best):
            for e in p:
                S[e] += demands[i]
        gamma = _line_search(A, F, S - F, tau)
        if gamma <= 0.0:
            return False
        for i in range(k):
            state.flows[i] = [h * (1.0 - gamma) for h in state.flows[i]]
            state.add_path(i, best[i], gamma * float(demands[i]))
        state.prune(1e-16 * float(demands.max()))
        return True

    newton_tol_floor = 1e-13
    warmup = 0
    while iterations < MAX_ITERATIONS:
        F, costs, best = measure()
        if gap <= max(cfg.accuracy * 0.5, 1e-3 * scale) or warmup >= 25:
            break
        iterations += 1
        warmup += 1
        if not cg_step(F, best):
            break

    newton_tol = max(newton_tol_floor * scale, 1e-15)
    add_tol = 20 * newton_tol
    rounds = 0
    while rounds < 60 and iterations < MAX_ITERATIONS:
        rounds += 1
        ok, inner = _newton_round(state, A, tau, demands, newton_tol)
        iterations += max(inner, 1)
        F, costs, best = measure()
        if not ok and gap > cfg.accuracy and cg_step(F, best):
            # constant-latency ties: shift flow by conditional gradient
            iterations += 1
            continue
        added = False
        for i in range(k):
            plist = state.paths[i]
            harr = state.flows[i]
            used_costs = [
                float(sum(costs[e] for e in p))
                for p, h in zip(plist, harr)
                if h > 0
            ]
            lam_i = min(used_costs) if used_costs else float("inf")
            if lam_i - dist[i] > add_tol and best[i] not in state.index[i]:
                state.add_path(i, best[i], 0.0)
                added = True
        if not added and gap <= cfg.accuracy:
            break
        if not added and ok:
            # equilibrated and no better path exists; gap is numerical noise
            break
    state.prune(0.0)
    F, costs, _ = measure()
    X = state.per_commodity()
    violation = 0.0
    for i in range(k):
        for p, h in zip(state.paths[i], state.flows[i]):
            if h > 0:
                violation = max(
                    violation, float(sum(costs[e] for e in p)) - float(dist[i])
                )
    if gap > cfg.accuracy:
        raise NoConvergence(
            f"duality gap {gap:.3e} above target {cfg.accuracy:.3e} "
            f"after {iterations} iterations"
        )
    return EquilibriumResult(
        flow=FlowVector(X),
        beckmann_gap=gap,
        wardrop_violation=max(0.0, violation),
        iterations=iterations,
    )


def wardrop_violation(game: RoutingGame, tolls: TollVector, f: FlowVector) -> float:
    """Worst excess of a flow-carrying path over its commodity's shortest
    tolled distance, at the loads induced by ``f``."""
    if not is_feasible(game, f):
        raise Infeasible("flow is not feasible for this game")
    costs = _eval_poly_rows(game.latency_table.coeffs, f.aggregate) + tolls.values
    worst = 0.0
    for i, com in enumerate(game.commodities):
        pieces = decompose_paths(game, f.per_commodity[i], com.source, com.sink)
        if not pieces:
            continue
        _, dist = shortest_path(game, costs, com.source, com.sink)
        for path, _ in pieces:
            worst = max(worst, float(sum(costs[e] for e in path)) - dist)
    return max(0.0, worst)
