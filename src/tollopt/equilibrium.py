"""Wardrop equilibria with tolls, via Beckmann-potential minimization.

The equilibrium of a tolled game is the minimizer of

    Phi(f) = sum_e [ integral_0^{F_e} l_e(t) dt + tau_e * F_e ]

over feasible multicommodity flows, where F is the aggregate.  The solver
works in path space with column generation:

1. every solve starts from the game's seed: the paths that its untolled
   equilibrium uses, with their flows, plus each commodity's
   all-or-nothing path at zero load where the seed does not span it
   already.  One cold solve per game computes the seed, on the game's
   first general-graph solve (``zero_toll_paths``); it is a function of
   the game alone, so every answer stays a function of (game, tolls).
   The cold solve is the same solver started from the all-or-nothing
   assignment at zero load;
2. Newton iterations on the working paths then solve the equilibrium
   conditions (all used paths of a commodity equally cheap, demands met)
   to near machine precision, with ratio tests keeping path flows
   nonnegative.  A stalled Newton round hands the flow to
   conditional-gradient steps.  Newton stalls where its linearized system
   is singular, on ties between constant-latency routes, and, more often,
   where its residual stops falling at its rounding floor, just above its
   tolerance, on games with no constant-latency edge.  Between rounds,
   any shortest path cheaper than the used ones joins the working set,
   so paths the seed lacks are still generated.  The working set is one
   table, built once per solve and changed in place: a row per path, its
   edge and commodity incidence, and the path flows.

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
from collections.abc import Iterable
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
from .paths import _trace, decompose_paths, dijkstra, shortest_path

__all__ = [
    "EqConfig",
    "EquilibriumResult",
    "NoConvergence",
    "beckmann_potential",
    "solve_equilibrium",
    "wardrop_violation",
]


class NoConvergence(RuntimeError):
    """The iteration budget ran out before the requested accuracy."""


#: Cap on the total conditional-gradient and Newton steps of one solve.
MAX_ITERATIONS = 6000

#: Duality-gap target of the untolled solve that seeds a game's path set.
SEED_ACCURACY = 1e-10

#: One working path: (commodity, edge ids).
_Row = tuple[int, tuple[int, ...]]

#: Rows and their flows: where every general-graph solve starts.
SeedPaths = tuple[tuple[_Row, ...], np.ndarray]


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
    binomial expansion.  phi' is nondecreasing because the potential is
    convex, so its root is bracketed: a linear phi' is solved in closed
    form, anything else by Newton from the secant point, keeping the
    bracket and bisecting whenever a step leaves it.  That takes about six
    evaluations, the two end points included, where bisection to the same
    accuracy takes sixty-two.
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

    def dphi(g: float) -> tuple[float, float]:
        """phi'(g) and phi''(g), by one Horner pass."""
        acc = slope = 0.0
        for ci in c[::-1]:
            slope = slope * g + acc
            acc = acc * g + ci
        return acc, slope

    v0, v1 = dphi(0.0)[0], dphi(1.0)[0]
    if v0 >= 0.0:
        return 0.0
    if v1 <= 0.0:
        return 1.0
    if len(c) == 2:  # linear derivative: closed-form root
        return float(-c[0] / c[1])
    lo, hi = 0.0, 1.0
    g = v0 / (v0 - v1)
    for _ in range(60):
        v, slope = dphi(g)
        if v == 0.0:
            return float(g)
        if v < 0.0:
            lo = g
        else:
            hi = g
        nxt = g - v / slope if slope > 0.0 else -1.0  # flat: bisect
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - g) <= 1e-15 * nxt or hi - lo <= 1e-15 * hi:
            return float(nxt)
        g = nxt
    return float(g)


def _path_rows(rows: list[_Row], m: int, k: int) -> np.ndarray:
    """One row per (commodity, path): its edge incidence, then a commodity
    indicator.  Paths are linearly dependent exactly when these rows are."""
    M = np.zeros((len(rows), m + k))
    for r_i, (i, p) in enumerate(rows):
        M[r_i, m + i] = 1.0
        for e in p:
            M[r_i, e] += 1.0
    return M


class _PathState:
    """The working set of one solve: one row per (commodity, path), their
    ``_path_rows`` matrix ``M`` with halves ``N`` (edges) and ``E``
    (commodities), and the path flows ``h``.  Built once per solve, then
    changed in place."""

    def __init__(self, game: RoutingGame, rows: Iterable[_Row], h: np.ndarray) -> None:
        self.m, self.k = game.m, game.k
        self.rows = list(rows)
        self.M = _path_rows(self.rows, self.m, self.k)
        self.h = np.array(h, dtype=float)

    @property
    def N(self) -> np.ndarray:
        return self.M[:, : self.m]

    @property
    def E(self) -> np.ndarray:
        return self.M[:, self.m :]

    def narrow(self, keep: np.ndarray) -> None:
        self.rows = [row for row, kept in zip(self.rows, keep) if kept]
        self.M, self.h = self.M[keep], self.h[keep]

    def append(self, rows: list[_Row], h: np.ndarray) -> None:
        self.rows += rows
        self.M = np.vstack([self.M, _path_rows(rows, self.m, self.k)])
        self.h = np.concatenate([self.h, h])

    def spans(self, r: int, basis: np.ndarray) -> bool:
        """Whether the rows in the mask ``basis`` span row ``r``.  Adding a
        spanned path would make the Newton system singular, and at an
        equilibrium of the working paths it costs exactly its commodity's
        level; two paths that each pass this test alone can fail it
        together.  One LU solve of a small Gram matrix, as in the Newton
        rounds: the first SVD in a process pages in about 1 MB more of
        LAPACK, and a process that only enforces runs no SVD."""
        B, row = self.M[basis], self.M[r]
        try:
            y = np.linalg.solve(B @ B.T, B @ row)
        except np.linalg.LinAlgError:  # a tie step brought in a spanned path
            return False
        return float(np.max(np.abs(row - y @ B))) <= 1e-9

    def admit(self, first: int) -> bool:
        """Keep each row from ``first`` on only if the rows kept before it
        neither hold nor span it; True if any of them is kept."""
        keep = np.arange(len(self.rows)) < first
        for r in range(first, len(self.rows)):
            keep[r] = self.rows[r] not in self.rows[:r] and not self.spans(r, keep)
        self.narrow(keep)
        return len(self.rows) > first

    def prune(self, cut: float, demands: np.ndarray) -> bool:
        """Drop paths with flow at most ``cut``; True if any was dropped.
        A commodity that loses a path gets the dropped mass back on its
        largest path, so its demand stays exact."""
        keep = self.h > cut
        if keep.all():
            return False
        lost = self.E[~keep].any(axis=0)
        self.narrow(keep)
        for i in np.flatnonzero(lost):
            mine = np.flatnonzero(self.E[:, i])
            if mine.size:
                self.h[mine[np.argmax(self.h[mine])]] += demands[i] - self.h[mine].sum()
        return True


def _newton_round(
    state: _PathState,
    A: np.ndarray,
    tau: np.ndarray,
    demands: np.ndarray,
    tol: float,
) -> tuple[bool, int]:
    """Equilibrate the working paths: equal cost per commodity, demands met.

    Runs at most 40 Newton iterations on ``state`` in place and returns
    (converged, inner_iterations).  A ratio test keeps path flows
    nonnegative, and a path at zero flow that is strictly dearer than its
    commodity's level leaves the set, on entry and after every step.  From
    the third iteration on, a step that cuts the residual by less than 10%
    ends the round with ``converged`` False, and the caller hands the flow
    to conditional-gradient steps.  The residual stalls in two ways: the
    linearized system is singular on ties between constant-latency routes,
    and on games without such routes the residual can stall at its
    rounding floor, just above ``tol``.
    """
    k = len(demands)
    N, E, h = state.N, state.E, state.h
    P = len(h)
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
    progress = True
    pinned = np.zeros(P, dtype=bool)
    while True:
        # paths at zero flow that are strictly too expensive (r[:P] is
        # c - lam per path), or that the last step would have pushed
        # negative, leave the set
        drop = pinned if pinned.any() else (h == 0.0) & (r[:P] > 10 * tol)
        if drop.any():
            state.narrow(~drop)
            N, E, h = state.N, state.E, state.h
            P = len(h)
            r, c = residual(h, lam)
            best_norm = float(np.max(np.abs(r)))
            pinned = np.zeros(P, dtype=bool)
            progress = True
        elif not progress and best_norm > tol and it >= 3:
            # three iterations without real progress: hand back to CG
            return False, it
        if best_norm <= tol or it >= 40:
            break
        it += 1
        J = np.zeros((P + k, P + k))
        J[:P, :P] = (N * _eval_slope_rows(A, h @ N)) @ N.T
        J[:P, P:] = -E
        J[P:, :P] = E.T
        try:
            step = np.linalg.solve(J, -r)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        dh, dlam = step[:P], step[P:]
        pinned = (h == 0.0) & (dh < 0.0)
        if pinned.any():
            continue
        # ratio test: the first path to empty bounds the step, and is
        # emptied exactly
        shrink = np.flatnonzero((dh < 0.0) & (h + dh < 0.0))
        alpha = 1.0
        if shrink.size:
            ratios = h[shrink] / -dh[shrink]
            block = shrink[np.argmin(ratios)]
            alpha = float(ratios.min())
        state.h = h = np.maximum(h + alpha * dh, 0.0)
        if shrink.size:
            h[block] = 0.0
        lam = lam + alpha * dlam
        r, c = residual(h, lam)
        norm_new = float(np.max(np.abs(r)))
        if norm_new >= best_norm * 0.999999 and alpha < 1e-12:
            break
        progress = norm_new < best_norm * 0.9
        best_norm = min(best_norm, norm_new)
    return best_norm <= tol, it


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
    for pos, e in enumerate(order):
        inv_sum += 1.0 / slopes[e]
        weighted += base[e] / slopes[e]
        lam = (d + weighted) / inv_sum
        if pos + 1 == m or base[e] <= lam <= base[order[pos + 1]]:
            break
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


def _shortest_paths(
    game: RoutingGame, costs: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Per commodity, the shortest path under ``costs`` and its length:
    one Dijkstra run per distinct source."""
    skel = game.skeleton()
    vi = skel.vertex_index
    best: list[tuple[int, ...]] = []
    dist = np.zeros(game.k)
    by_source: dict[int, tuple[list[float], list[int]]] = {}
    for i, com in enumerate(game.commodities):
        si, ti = vi[com.source], vi[com.sink]
        if si not in by_source:
            by_source[si] = dijkstra(skel.adjacency_out, costs, si)
        d, pred = by_source[si]
        best.append(_trace(pred, skel.tails, si, ti))
        dist[i] = d[ti]
    return best, dist


def _solve_paths(
    game: RoutingGame, tau: np.ndarray, accuracy: float, start: SeedPaths | None
) -> tuple[_PathState, np.ndarray, np.ndarray, float, int]:
    """The general path solver; returns (state, costs, dist, gap, iterations).

    With ``start`` None the working set starts as the all-or-nothing
    assignment at zero load.  Otherwise it starts as the ``start`` paths
    with their flows, plus each commodity's all-or-nothing path at zero
    flow where the working paths do not span it.  It does not raise when
    the gap stays above ``accuracy``.
    """
    A = game.latency_table.coeffs
    k = game.k
    demands = np.array([c.demand for c in game.commodities])
    init_paths, _ = _shortest_paths(game, _eval_poly_rows(A, np.zeros(game.m)) + tau)
    if start is None:
        state = _PathState(game, enumerate(init_paths), demands)
    else:
        rows, h = start
        state = _PathState(
            game, [*rows, *enumerate(init_paths)], np.concatenate([h, np.zeros(k)])
        )
        state.admit(len(rows))

    def measure() -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]], np.ndarray, float]:
        F = state.h @ state.N
        costs = _eval_poly_rows(A, F) + tau
        best, dist = _shortest_paths(game, costs)
        gap = max(0.0, float(np.dot(costs, F)) - float(np.dot(demands, dist)))
        return F, costs, best, dist, gap

    def cg_step(F: np.ndarray, best: list[tuple[int, ...]]) -> bool:
        """Conditional-gradient step toward the all-or-nothing assignment
        on ``best``; False, changing nothing, when the line search gives 0."""
        S = np.zeros(game.m)
        for i, p in enumerate(best):
            S[list(p)] += demands[i]
        gamma = _line_search(A, F, S - F, tau)
        if gamma <= 0.0:
            return False
        state.h *= 1.0 - gamma
        new = []
        for row in enumerate(best):
            if row in state.rows:
                state.h[state.rows.index(row)] += gamma * demands[row[0]]
            else:
                new.append(row)
        state.append(new, gamma * demands[[i for i, _ in new]])
        state.prune(1e-16 * float(demands.max()), demands)
        return True

    F = state.h @ state.N
    scale = max(1.0, abs(float(np.dot(_eval_poly_rows(A, F) + tau, F))))
    newton_tol = max(1e-13 * scale, 1e-15)
    # a path cheaper by add_tol moves the gap by up to add_tol per unit of
    # demand, so past 0.5 * accuracy / sum(d) the solve would settle above
    # the target
    add_tol = min(20 * newton_tol, 0.5 * accuracy / demands.sum())
    iterations = 0
    rounds = 0
    settled = False  # the loop ended on a measured state
    while rounds < 60 and iterations < MAX_ITERATIONS:
        rounds += 1
        ok, inner = _newton_round(state, A, tau, demands, newton_tol)
        iterations += max(inner, 1)
        F, costs, best, dist, gap = measure()
        if not ok and gap > accuracy and cg_step(F, best):
            # Newton stalled: shift flow by conditional gradient
            iterations += 1
            continue
        # each commodity's cheapest used path against its shortest one
        lam = [math.inf] * k
        path_costs = (state.N @ costs).tolist()
        for (i, _), c, hv in zip(state.rows, path_costs, state.h.tolist()):
            if hv > 0.0:
                lam[i] = min(lam[i], c)
        fresh = [(i, best[i]) for i in range(k) if lam[i] - dist[i] > add_tol]
        added = False
        if fresh:
            state.append(fresh, np.zeros(len(fresh)))
            added = state.admit(len(state.rows) - len(fresh))
        if not added and (gap <= accuracy or ok):
            # at the target, or equilibrated with no better path left
            # (the gap is then numerical noise)
            settled = True
            break
    if state.prune(0.0, demands) or not settled:
        F, costs, _, dist, gap = measure()
    return state, costs, dist, gap, iterations


def zero_toll_paths(game: RoutingGame) -> SeedPaths:
    """The paths the untolled equilibrium uses, as (commodity, path) rows,
    with their flows.

    One cold solve at the fixed ``SEED_ACCURACY`` computes them, so they
    are a function of the game alone; ``RoutingGame.zero_toll_paths``
    holds them.  Path generation admits only paths that the working set
    does not span, so they are linearly independent unless a
    conditional-gradient step (a tie) brought in a spanned one.
    """
    state, _, _, _, _ = _solve_paths(game, np.zeros(game.m), SEED_ACCURACY, None)
    state.h.setflags(write=False)
    return tuple(state.rows), state.h


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
    state, costs, dist, gap, iterations = _solve_paths(
        game, tau, cfg.accuracy, game.zero_toll_paths
    )
    excess = (state.N @ costs - state.E @ dist).tolist()
    violation = max([0.0] + [x for x, hv in zip(excess, state.h.tolist()) if hv > 0.0])
    if gap > cfg.accuracy:
        raise NoConvergence(
            f"duality gap {gap:.3e} above target {cfg.accuracy:.3e} "
            f"after {iterations} iterations"
        )
    return EquilibriumResult(
        flow=FlowVector((state.E.T * state.h) @ state.N),
        beckmann_gap=gap,
        wardrop_violation=violation,
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
