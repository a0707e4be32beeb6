"""Zero-order minimization of total latency over the feasible-flow polytope.

The only access to the hidden cost function is a value oracle assembled
from toll enforcement: to price a flow, cancel its cycles, search for
tolls enforcing it to within delta/(2mK^2), and read the total latency
from the answer the search accepted.  The Lipschitz constant 2mK^2 of
the cost in the aggregate infinity norm turns that flow accuracy into a
cost error of at most delta.  With one commodity the answer is itself an
exact sample: the engine keeps its flow in place of the target.

On top of that delta-accurate value oracle the minimizer runs projected
descent in the affine hull of the polytope, whose directions are an
orthonormal basis of the per-commodity conservation null spaces.  Every
flow it samples is mixed toward a strictly positive reference flow, so
every enforced sample is interior.  Each iteration runs one probe round,
``JacobianModel.probe(oracle, sample, basis)``: it queries the oracle at
tau0 + r e_j around the current sample's enforcing tolls tau0, for the d
toll coordinates j whose rows of the aggregate hull span are independent
(regression-model derivative-free optimization on a determined sample
set; Conn, Scheinberg & Vicente, 2009, ch. 4).  Every answer is a
(flow, cost) pair near the current sample, accurate to the oracle's
promise and needing no enforcement.  The model fits the round's answers:
the gradient along every hull direction, J = dF/dtau, the Newton step
and decrement, and the tolls from which the next sample's enforcement
starts.  The gradient's error is O(K'' r) from curvature plus
O(2mK^2 eps_query / (r sigma)) from the answers, with sigma the smallest
singular value of the probed columns of J on the hull span.
``compute_optimal_tolls`` says how the descent steps and stops.
The equilibrium engine performs the Euclidean projections: one solve per
commodity of a game whose Beckmann potential is the squared distance.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    _accuracy_shortfall,
    enforce_flow,
)
from .equilibrium import EqConfig, solve_equilibrium
from .game import (
    Edge,
    FlowVector,
    GameSkeleton,
    PolyLatency,
    RoutingGame,
    TollVector,
    _is_int_at_least,
    acyclic_reduce,
    is_feasible,
)
from .oracle import EquilibriumOracle, OracleBudgetExceeded, OracleMode, OracleResponse
from .paths import _trace, dag_distances, dag_shortest_path, dijkstra, reachable

__all__ = [
    "OracleSampleFailed",
    "OptConfig",
    "CostOracleSample",
    "OptimizationReport",
    "require_acyclic",
    "project_to_polytope",
    "affine_hull_basis",
    "reference_flow",
    "compute_optimal_tolls",
    "SampleEngine",
    "JacobianModel",
]


#: Weight of the reference flow in every Newton candidate's mix.
MIX_WEIGHT = 1e-3

#: With one commodity the reference sample is enforced to the larger of
#: ``SampleEngine.delta_enforce`` and this fraction of the smallest positive
#: reference edge flow, so its answer keeps every usable edge at 3/4 or more
#: of its reference share.
REFERENCE_TOLERANCE = 1.0 / 8.0


class OracleSampleFailed(RuntimeError):
    """Toll enforcement could not realize a requested flow."""


@dataclass(frozen=True)
class OptConfig:
    """Target and the descent-iteration cap (an int >= 1) of the
    zero-order minimizer.

    The value-oracle error delta is epsilon / (8 N^2) where N = mk, a
    fixed polynomial factor below the optimality target.  It sets the
    enforcement tolerance.  Newton candidates mix in the reference flow
    with weight ``MIX_WEIGHT``.  The query budget is the oracle's
    ``max_queries``.
    """

    epsilon: float
    max_iterations: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:  # False for NaN
            raise ValueError("epsilon must be positive and finite")
        if not _is_int_at_least(self.max_iterations, 1):
            raise ValueError("max_iterations must be an int >= 1")

    def resolved_delta(self, skeleton: GameSkeleton) -> float:
        """The value-oracle error delta = epsilon / (8 N^2) on a skeleton."""
        N = max(1, skeleton.constants.N)
        return self.epsilon / (8.0 * N * N)


@dataclass(frozen=True)
class CostOracleSample:
    # one commodity: the accepted answer's aggregate flow, shape (1, m);
    # more: the cycle-free target enforced to within 2 delta_enforce
    flow: FlowVector
    enforcing_tolls: TollVector
    observed_cost: float
    queries_spent: int
    response: OracleResponse  # the answer accepted at enforcing_tolls


@dataclass(frozen=True)
class OptimizationReport:
    best_flow: FlowVector
    best_cost: float
    final_tolls: TollVector
    total_oracle_queries: int
    iteration_trace: tuple[dict, ...]
    # CONVERGED when a certificate ends the descent: the Newton decrement
    # (gap_bound) or estimated_gap <= epsilon / 2, before the candidate;
    # STALLED when a candidate is not accepted or cannot be enforced;
    # ITERATION_LIMIT when cfg.max_iterations ends the descent;
    # BUDGET_EXHAUSTED when the oracle's max_queries does.
    status: str
    # the Newton decrement beta <= epsilon / 2 that stopped the run, else None
    gap_bound: float | None = None


class SampleEngine:
    """Zero-order value oracle built from toll enforcement.

    ``sample(f)`` prices a flow: it enforces the cycle-free ``f`` to within
    ``delta_enforce`` = delta/(4mK^2) and reads the cost from the answer
    the enforcement accepted, spending no other query; that cost is within
    delta of the cost of ``f``.  Given a ``JacobianModel``, the search
    starts from the model's predicted tolls (``JacobianModel.start_tolls``);
    without one, from zero tolls.  ``reference()`` is the minimizer's first
    sample, of the reference flow ``f_ref`` from zero tolls.  The engine
    keeps no state between requests.  A search that has not succeeded
    after 5m steps restarts once from its best tolls, and when ascent
    fails, it falls back to the paper's ellipsoid search over the whole
    toll box.  Start tolls only save queries, never change what success
    means: every success is verified against the oracle.

    With one commodity the accepted answer is an exact (flow, cost) pair,
    so a sample's ``flow`` is the answer's aggregate.  The reference sample
    is then enforced only to max(``delta_enforce``, ``REFERENCE_TOLERANCE``
    x the smallest positive edge flow of ``f_ref``): a deviation of at most
    twice that leaves every usable edge at 3/4 or more of its reference
    share, which is all the probes around it need, and its cost is exact
    for its own flow, not delta-close to that of ``f_ref``.  With more
    commodities the answer shows only the aggregate and the descent steps
    from the per-commodity target, so every request, the reference too, is
    enforced to ``delta_enforce`` and the sample's ``flow`` is the
    cycle-free target.

    The warm starts pay: starting every enforcement at zero tolls instead
    raised the queries of a whole optimize run from 150 to 1,473 on 64
    affine parallel links (seed 5, epsilon 0.25) and from 82 to 455 on
    a degree-3, two-commodity 6-vertex DAG (seed 2, epsilon 0.05).  The
    ``parallel-opt`` and ``grid-opt`` benchmark runs stop on the Newton
    decrement before any sample needs a start.
    """

    def __init__(self, oracle: EquilibriumOracle, delta: float):
        if oracle.mode is not OracleMode.FLOW_AND_COST:
            raise ValueError("the cost oracle needs FLOW_AND_COST mode")
        self.oracle = oracle
        skel = oracle.skeleton
        const = skel.constants
        self.skeleton = skel
        self.f_ref = reference_flow(skel)
        try:
            self.delta_enforce = delta / (4.0 * skel.m * const.K**2)
        except OverflowError:  # K**2 past the double range: no tolerance is left
            self.delta_enforce = 0.0

    def sample(
        self, f: FlowVector, model: JacobianModel | None = None
    ) -> CostOracleSample:
        """Price ``f`` to within delta, from ``model``'s predicted tolls
        when given, else from zero tolls."""
        reduced = acyclic_reduce(self.skeleton, f)
        start = None
        if model is not None:
            start = model.start_tolls(self.skeleton, reduced.aggregate)
        return self._enforced(reduced, self.delta_enforce, start)

    def reference(self) -> CostOracleSample:
        """Sample ``f_ref`` from zero tolls; with one commodity only to
        max(``delta_enforce``, ``REFERENCE_TOLERANCE`` x its smallest
        positive edge flow)."""
        skel = self.skeleton
        reduced = acyclic_reduce(skel, self.f_ref)
        delta = self.delta_enforce
        if skel.k == 1:  # a feasible flow carries its positive demand
            agg = reduced.aggregate
            delta = max(delta, REFERENCE_TOLERANCE * agg[agg > 0.0].min())
        return self._enforced(reduced, delta, None)

    def _enforced(
        self, target: FlowVector, delta: float, start: TollVector | None
    ) -> CostOracleSample:
        cfg = EnforcementConfig(delta=delta)
        result = enforce_flow(self.oracle, target, cfg, initial=start)
        if result.status is not EnforcementStatus.SUCCESS:
            raise OracleSampleFailed(
                f"no tolls found for the requested flow "
                f"(best deviation {result.achieved_deviation:.3e})"
            )
        answer = result.response.aggregate_flow
        return CostOracleSample(
            flow=FlowVector.single(answer) if self.skeleton.k == 1 else target,
            enforcing_tolls=result.tolls,
            observed_cost=float(result.response.total_cost),
            queries_spent=result.queries_used,
            response=result.response,
        )


def _gauge_shift(skel: GameSkeleton, tau: np.ndarray) -> np.ndarray:
    """tau + pi(tail) - pi(head), with pi(v) = min(0, min over the edges e
    into v of pi(tail_e) + tau_e) taken in topological order.

    The shifted tolls are nonnegative, and every path of a commodity gains
    the same pi(source) - pi(sink), so they induce the same flow as tau
    (Johnson's reweighting).  A nonnegative tau has pi = 0 and is returned
    unchanged, so only a prediction with negative tolls moves.
    """
    pi = np.array(dag_distances(skel, tau, None)[0])
    return tau + pi[list(skel.tails)] - pi[list(skel.heads)]


# ---------------------------------------------------------------------------
# polytope geometry: usable edges, affine-hull basis, reference flow,
# Euclidean projection
# ---------------------------------------------------------------------------


def require_acyclic(skel: GameSkeleton) -> None:
    """Raise ``ValueError`` if the graph has a directed cycle.

    The projection and the gap estimate take shortest paths by dynamic
    programming over a topological order, so the minimizer cannot run on
    a cyclic graph; checking first spends no query on one.
    """
    if skel.topological_order is None:
        raise ValueError("the zero-order minimizer needs an acyclic graph")


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
        A = skel.incidence[:, usable]
        # null space by SVD; singular values up to eps * max(A.shape) * max(s) are zero
        _, s, vh = np.linalg.svd(A, full_matrices=True)
        tol = np.amax(s, initial=0.0) * (np.finfo(float).eps * max(A.shape))
        Z = vh[int(np.sum(s > tol)):].T
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


#: The games ``project_to_polytope`` solves, per skeleton.  An entry lives
#: only as long as its skeleton; equal skeletons share it, and the games
#: are a function of the skeleton alone, so sharing changes no answer.
_PROJECTION_GAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _projection_games(skel: GameSkeleton) -> tuple[RoutingGame, ...]:
    """Per commodity, the one-commodity game on the skeleton's graph with
    latency 2x on every edge.  Built once per skeleton, so the seed solve
    of each game (``RoutingGame.zero_toll_paths``) runs once."""
    games = _PROJECTION_GAMES.get(skel)
    if games is None:
        edges = tuple(
            Edge(e, t, h, PolyLatency((0.0, 2.0)))
            for e, t, h in zip(skel.edge_ids, skel.edge_tails, skel.edge_heads)
        )
        games = tuple(RoutingGame(skel.vertices, edges, (c,)) for c in skel.commodities)
        _PROJECTION_GAMES[skel] = games
    return games


def project_to_polytope(skel: GameSkeleton, x) -> FlowVector:
    """Euclidean projection onto the feasible-flow polytope.

    Commodity i's part is the equilibrium of a one-commodity game on the
    same graph with latency 2x on every edge (built once per skeleton) and
    tolls tau_e = max(0, c_e + pi(tail_e) - pi(head_e)), where c = -2 x_i and
    pi holds the DAG shortest distances from the source under c
    (Johnson's reweighting; an edge the source cannot reach gets 0).  The
    tolls add the same constant to every source-sink path, so the game's
    Beckmann potential is ||f_i - x_i||^2 plus a constant, and its duality
    gap, solved to 1e-10, is the Frank-Wolfe gap of the projection.
    Deterministic; already-feasible points are returned unchanged.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    candidate = FlowVector(pts)
    if pts.shape == (skel.k, skel.m) and is_feasible(skel, candidate, tol=1e-12):
        return candidate
    require_acyclic(skel)
    tails, heads = np.array(skel.tails), np.array(skel.heads)
    games = _projection_games(skel)
    out = np.zeros((skel.k, skel.m))
    for i, com in enumerate(skel.commodities):
        c = -2.0 * pts[i]
        pi = np.array(dag_distances(skel, c, skel.vertex_index[com.source])[0])
        seen = np.isfinite(pi[tails])
        tau = np.zeros(skel.m)
        tau[seen] = np.maximum(0.0, c[seen] + pi[tails[seen]] - pi[heads[seen]])
        result = solve_equilibrium(games[i], TollVector(tau), EqConfig(accuracy=1e-10))
        out[i] = result.flow.per_commodity[0]
    return FlowVector(out)


# ---------------------------------------------------------------------------
# gradients: toll probes around an enforced sample
# ---------------------------------------------------------------------------


def _hull_span(basis: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the aggregates of the hull directions,
    shape (m, d); the cost depends on the aggregate flow only.  The
    aggregates of two commodities' directions may be dependent, so the
    rank is cut at 1e-10 of the largest singular value."""
    _, s, vh = np.linalg.svd(basis.sum(axis=1), full_matrices=False)
    return vh[: int(np.sum(s > 1e-10 * np.amax(s, initial=0.0)))].T


def _probe_coordinates(span: np.ndarray) -> np.ndarray:
    """The d toll coordinates whose rows of ``span`` are independent.

    Greedy pivoting: take the row of largest norm (an exact tie goes to
    the lowest index), project it out of the other rows, and repeat d
    times.  The chosen rows form a nonsingular d x d block span[S].
    """
    rows = span.copy()
    chosen: list[int] = []
    for _ in range(span.shape[1]):
        norms = np.linalg.norm(rows, axis=1)
        j = int(np.argmax(norms))
        chosen.append(j)
        pivot = rows[j] / norms[j]
        rows -= np.outer(rows @ pivot, pivot)
    return np.array(chosen, dtype=int)


def _probe(
    oracle: EquilibriumOracle, sample: CostOracleSample, r: float, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query tau0 + s_j e_j for each toll coordinate j in ``coords`` around
    the sample's enforcing tolls tau0, with s_j = r, or -r where +r would
    leave the toll box.

    Returns the steps s, the flow changes (column i is F_j - F0 for
    j = coords[i]) and the cost changes C_j - C0 against the sample's
    accepted answer (F0, C0).
    """
    tau0 = sample.enforcing_tolls.values
    flow0 = sample.response.aggregate_flow
    cost0 = sample.response.total_cost
    steps = np.where(tau0[coords] + r <= oracle.skeleton.constants.T_max, r, -r)
    d_flow = np.empty((tau0.size, len(coords)))
    d_cost = np.empty(len(coords))
    for i, j in enumerate(coords):
        tau = tau0.copy()
        tau[j] += steps[i]
        resp = oracle.query(TollVector(tau))
        d_flow[:, i] = resp.aggregate_flow - flow0
        d_cost[i] = resp.total_cost - cost0
    return steps, d_flow, d_cost


def _fit_gradient(
    d_flow: np.ndarray, d_cost: np.ndarray, span: np.ndarray, A: np.ndarray
) -> np.ndarray:
    """Hull-basis gradient from the probes: fit d_cost ~ g . d_flow by
    min-norm least squares (rcond 1e-10) in the coordinates of ``span``,
    then take direction j's component A_j . g, A = ``basis.sum(axis=1)``.
    """
    coords = d_flow.T @ span
    gamma = np.linalg.lstsq(coords, d_cost, rcond=1e-10)[0]
    return A @ (span @ gamma)


@dataclass(frozen=True)
class JacobianModel:
    """One probe round's local model around an enforced sample: its tolls
    tau0 and answer F0, J+, the gradients g_hat and g_c on the hull basis,
    the Newton step lifted to flow space, the Newton decrement beta and
    the number d of probe queries.

    J = dF/dtau is the Hessian of the concave dual V(tau) (see
    ``enforcement``), so it is symmetric with range in the aggregate hull
    span: J = span M span^T.  Its probed columns J_S, column i =
    (F_j - F0) / s_j for j = S[i] (``_probe`` at the coordinates S of
    ``_probe_coordinates``), fix M = (span^T J_S) span[S]^-T, and the
    other m - d toll directions only shift the gauge.
    J+ = span span[S]^T pinv(span^T J_S) span^T, which is
    span M^-1 span^T = pinv(span^T J) span^T.

    g_hat fits the raw cost changes, a forward difference biased by each
    probe's curvature.  g_c fits the cost changes minus the model's
    curvature term 1/2 dF_j^T (-2 J+) dF_j, so it estimates the gradient
    at F0 itself; it feeds only the Newton decrement, because the descent
    steps along g_hat.

    With A = ``basis.sum(axis=1)`` the hull-basis Hessian is
    H = A (-2 J+) A^T, the Newton step is -pinv(H) g_hat on the hull
    basis, and the Newton decrement
    beta = 1/2 g_c^T pinv(H) g_c + 2mK^2 eps_query bounds the probed
    sample's cost minus OPT from the answers alone; the second term covers
    the answers' error.  For affine latencies -2 J+ is the cost Hessian on
    the hull span and the cost is quadratic, so beta bounds the gap.  For
    degree > 1 the true Hessian is -2 J+ plus diag(F l''), which the model
    misses: beta is then a local bound that holds only while that part
    stays small over the region between the sample and the optimum.
    """

    tau0: np.ndarray
    flow0: np.ndarray
    j_plus: np.ndarray
    g_hat: np.ndarray
    g_c: np.ndarray
    newton_step: np.ndarray  # shape (k, m)
    decrement: float
    queries: int

    @classmethod
    def probe(
        cls, oracle: EquilibriumOracle, sample: CostOracleSample, basis: np.ndarray
    ) -> JacobianModel:
        """Query the d probes around ``sample`` and fit the model.

        ``basis`` is the ``affine_hull_basis`` of the oracle's skeleton.
        The probes step r = sqrt(2mK^2 eps_query) at the coordinates of
        ``_probe_coordinates``; r balances the gradient's two error terms,
        K'' r and 2mK^2 eps_query / (r sigma), with K'' and sigma at 1.
        With no hull direction (d = 0) nothing is queried, the step is
        zero and beta is 2mK^2 eps_query.
        """
        skel = oracle.skeleton
        A = basis.sum(axis=1)  # the hull directions' aggregates
        span = _hull_span(basis)
        coords = _probe_coordinates(span)
        slack = 2.0 * skel.m * skel.constants.K**2 * oracle.eps_query
        steps, d_flow, d_cost = _probe(oracle, sample, math.sqrt(slack), coords)
        jac_span = span.T @ (d_flow / steps)
        j_plus = span @ span[coords].T @ np.linalg.pinv(jac_span) @ span.T
        curvature = -np.einsum("ij,ik,kj->j", d_flow, j_plus, d_flow)
        g_hat = _fit_gradient(d_flow, d_cost, span, A)
        g_c = _fit_gradient(d_flow, d_cost - curvature, span, A)
        h_pinv = np.linalg.pinv(A @ (-2.0 * j_plus) @ A.T, rcond=1e-10)
        tau0, flow0 = sample.enforcing_tolls.values, sample.response.aggregate_flow
        newton_step = np.tensordot(-h_pinv @ g_hat, basis, axes=1)
        decrement = slack + 0.5 * float(g_c @ h_pinv @ g_c)
        return cls(tau0, flow0, j_plus, g_hat, g_c, newton_step, decrement, len(coords))

    def start_tolls(self, skel: GameSkeleton, aggregate: np.ndarray) -> TollVector:
        """clip(``_gauge_shift``(tau0 + J+ (aggregate - F0)), 0, T_max)."""
        predicted = _gauge_shift(skel, self.tau0 + self.j_plus @ (aggregate - self.flow0))
        return TollVector(np.clip(predicted, 0.0, skel.constants.T_max))


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------


def _estimated_fw_gap(skel: GameSkeleton, G: np.ndarray, f: FlowVector) -> float:
    gap = 0.0
    for i, com in enumerate(skel.commodities):
        _, dist = dag_shortest_path(skel, G[i], com.source, com.sink)
        gap += float(np.dot(G[i], f.per_commodity[i])) - com.demand * dist
    return gap


def compute_optimal_tolls(
    oracle: EquilibriumOracle,
    skeleton: GameSkeleton,
    cfg: OptConfig,
) -> tuple[TollVector, OptimizationReport]:
    """Minimize total latency; return the best sample's enforcing tolls.

    Each descent iteration probes around the current sample, the last one
    accepted (the reference sample at first), with ``JacobianModel.probe``
    and samples one candidate from the model's predicted tolls: the
    projection of f plus the Newton step, mixed toward the reference flow
    with weight ``MIX_WEIGHT``.  The candidate becomes the current flow
    only if its cost is more than delta/2 below the current cost; the
    globally best sample is tracked either way.  A candidate
    that is not accepted ends the run, so every probe round surrounds the
    best sample so far.  Before the candidate, the model's Newton
    decrement beta bounds the probed sample's cost minus OPT, and so the
    gap of the sample whose tolls a decrement stop returns.  The estimated
    Frank-Wolfe gap, which needs only convexity, remains the global
    certificate.

    Each ``iteration_trace`` entry records whether its candidate was
    ``accepted``, its ``decrement`` beta, and the d queries of its probe
    round (``gradient_queries``).  Descent stops CONVERGED, without
    sampling the candidate, on beta <= epsilon / 2, with beta as the
    report's ``gap_bound``, or else on an ``estimated_gap`` of at most
    epsilon / 2; BUDGET_EXHAUSTED on the oracle's
    ``max_queries`` (a query past it ends the descent; reaching it does
    not); STALLED on a candidate that is not accepted or whose
    enforcement fails (a repeat of that iteration would replay it
    bitwise); ITERATION_LIMIT at the iteration cap.  A cyclic graph, a
    skeleton not equal to the oracle's (every field, so also the
    commodities and constants) and an epsilon finer than the oracle's
    accuracy can serve raise ``ValueError`` before any query.

    The best sample's ``observed_cost`` is the total latency of the
    equilibrium its tolls induce.  With one commodity its flow is that
    equilibrium's aggregate, as answered; with more, its tolls hold its
    flow to within twice the tolerance delta / (4mK^2), with
    delta = epsilon / (8 N^2), tighter than epsilon / (4mK^2).  So those
    tolls need no further enforcement, and they induce an equilibrium
    costing at most OPT + 2 epsilon whenever the best sampled flow is
    epsilon-optimal.
    """
    if skeleton != oracle.skeleton:
        raise ValueError("skeleton does not match the oracle's game")
    require_acyclic(skeleton)
    delta = cfg.resolved_delta(skeleton)
    engine = SampleEngine(oracle, delta)
    shortfall = _accuracy_shortfall(skeleton, oracle.eps_query, engine.delta_enforce)
    if shortfall is not None:
        raise ValueError(f"epsilon {cfg.epsilon} is too small: {shortfall}")
    basis = affine_hull_basis(skeleton)
    f_ref = engine.f_ref
    queries_start = oracle.query_count
    trace: list[dict] = []

    def spent() -> int:
        return oracle.query_count - queries_start

    best = engine.reference()
    current = best
    status = "ITERATION_LIMIT"
    gap_bound = None
    for it in range(1, cfg.max_iterations + 1):
        f = current.flow
        try:
            model = JacobianModel.probe(oracle, current, basis)
        except OracleBudgetExceeded:
            status = "BUDGET_EXHAUSTED"
            break
        est_gap = _estimated_fw_gap(skeleton, np.tensordot(model.g_hat, basis, axes=1), f)
        accepted = False
        # STALLED unless the candidate is accepted: a repeat would replay
        # this iteration bitwise (same current, the same d probes answered
        # bitwise-equal, the same candidate enforced from the same start)
        stop = "STALLED"
        if model.decrement <= cfg.epsilon / 2.0:
            stop, gap_bound = "CONVERGED", model.decrement
        elif est_gap <= cfg.epsilon / 2.0:
            stop = "CONVERGED"
        else:
            target = project_to_polytope(skeleton, f.per_commodity + model.newton_step)
            # the reference mix keeps every usable edge loaded, so the probes
            # around this sample identify the gradient on all of them
            w = MIX_WEIGHT
            mixed = (1.0 - w) * target.per_commodity + w * f_ref.per_commodity
            try:
                cand = engine.sample(FlowVector(mixed), model)
            except OracleSampleFailed:
                pass
            except OracleBudgetExceeded:
                stop = "BUDGET_EXHAUSTED"
            else:
                if cand.observed_cost < best.observed_cost:
                    best = cand
                accepted = cand.observed_cost < current.observed_cost - 0.5 * delta
                if accepted:
                    current, stop = cand, None
        trace.append(
            {
                "iteration": it,
                "cost": current.observed_cost,
                "best_cost": best.observed_cost,
                "accepted": accepted,
                "estimated_gap": est_gap,
                "decrement": model.decrement,
                "grad_norm": float(np.linalg.norm(model.g_hat)),
                "gradient_queries": model.queries,
                "queries": spent(),
            }
        )
        if stop is not None:
            status = stop
            break
    return best.enforcing_tolls, OptimizationReport(
        best_flow=best.flow,
        best_cost=best.observed_cost,
        final_tolls=best.enforcing_tolls,
        total_oracle_queries=spent(),
        iteration_trace=tuple(trace),
        status=status,
        gap_bound=gap_bound,
    )
