"""Core data model for nonatomic routing games.

A game is a directed graph with polynomial edge latencies and a list of
commodities (source, sink, demand).  Flows are per-commodity edge vectors;
tolls are nonnegative per-edge surcharges measured in latency units.  This
module also derives the bound constants that the search algorithms rely on:
a latency ceiling K and the toll cap T_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .paths import reachable

__all__ = [
    "InvalidGame",
    "Infeasible",
    "PolyLatency",
    "Commodity",
    "Edge",
    "RoutingGame",
    "GameSkeleton",
    "FlowVector",
    "TollVector",
    "GameConstants",
    "validate_game",
    "eval_latency",
    "total_latency",
    "is_feasible",
    "has_positive_cycle",
    "acyclic_reduce",
    "derive_constants",
    "FEASIBILITY_TOL",
]

FEASIBILITY_TOL = 1e-8


class InvalidGame(ValueError):
    """A routing game violates a structural invariant."""


class Infeasible(ValueError):
    """A flow does not satisfy conservation or nonnegativity."""


@dataclass(frozen=True)
class PolyLatency:
    """Polynomial latency l(x) = a_0 + a_1 x + ... + a_r x^r, all a_j >= 0.

    ``constant`` marks edges whose latency intentionally does not grow with
    flow (needed to model fixed-delay links).  Non-constant latencies must
    have at least one positive coefficient of degree >= 1 so they are
    strictly increasing on the feasible range.
    """

    coeffs: tuple[float, ...]
    constant: bool = False

    def __post_init__(self) -> None:
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0.0,))
        coeffs = tuple(float(a) for a in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if any(a < 0 for a in coeffs):
            raise InvalidGame(f"negative latency coefficient in {coeffs}")
        growing = any(a > 0 for a in coeffs[1:])
        if self.constant and growing:
            raise InvalidGame("constant-flagged latency has a growing term")
        if not self.constant and not growing:
            raise InvalidGame(
                "latency must have a positive coefficient of degree >= 1 "
                "(or be flagged constant)"
            )

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0.0:
            d -= 1
        return d

    def value(self, x):
        return eval_latency(self, x)

    def slope(self, x: float) -> float:
        """Derivative l'(x), evaluated by Horner."""
        acc = 0.0
        for j in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * x + j * self.coeffs[j]
        return acc

    def integral(self, x: float) -> float:
        """Closed-form integral of l from 0 to x."""
        acc = 0.0
        for j in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * x + self.coeffs[j] / (j + 1)
        return acc * x

    def marginal(self) -> "PolyLatency":
        """Latency of the marginal total cost d/dx [x l(x)] = l(x) + x l'(x)."""
        coeffs = tuple((j + 1) * a for j, a in enumerate(self.coeffs))
        return PolyLatency(coeffs, constant=self.constant)


def eval_latency(lat: PolyLatency, x):
    """Evaluate a latency polynomial at x >= 0.

    Accepts floats or ``fractions.Fraction``; with a Fraction argument the
    evaluation is exact over the stored binary coefficients.
    """
    if x < 0:
        raise ValueError(f"latency evaluated at negative flow {x}")
    if isinstance(x, Fraction):
        acc = Fraction(0)
        for a in reversed(lat.coeffs):
            acc = acc * x + Fraction(a)
        return acc
    acc = 0.0
    for a in reversed(lat.coeffs):
        acc = acc * x + a
    return acc


@dataclass(frozen=True)
class Commodity:
    source: str
    sink: str
    demand: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand", float(self.demand))


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    latency: PolyLatency


@dataclass(frozen=True)
class GameConstants:
    """Derived bounds: K dominates l_e(x) and x*l_e'(x) on the feasible range."""

    K: float
    T_max: float
    total_demand: float
    N: int


@dataclass(frozen=True)
class RoutingGame:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]
    coeff_bound: float | None = None  # U; defaults to the max coefficient
    max_degree: int | None = None  # r cap; defaults to the max edge degree

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def k(self) -> int:
        return len(self.commodities)

    @cached_property
    def constants(self) -> GameConstants:
        return derive_constants(self)

    @cached_property
    def _skeleton(self) -> "GameSkeleton":
        return GameSkeleton(
            vertices=self.vertices,
            edge_ids=tuple(e.id for e in self.edges),
            edge_tails=tuple(e.tail for e in self.edges),
            edge_heads=tuple(e.head for e in self.edges),
            commodities=self.commodities,
            constants=self.constants,
        )

    def skeleton(self) -> "GameSkeleton":
        """The game's public structure; one instance, built on first use."""
        return self._skeleton


@dataclass(frozen=True)
class GameSkeleton:
    """Public structure of a game: everything except the latency functions.

    The skeleton owns every graph index; each is built once, on first use.
    Adjacency lists are in edge-id order, which fixes the tie-breaking of
    every traversal and shortest-path search.
    """

    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    edge_tails: tuple[str, ...]
    edge_heads: tuple[str, ...]
    commodities: tuple[Commodity, ...]
    constants: GameConstants

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    @property
    def k(self) -> int:
        return len(self.commodities)

    def skeleton(self) -> "GameSkeleton":
        return self

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def tails(self) -> tuple[int, ...]:
        """Tail vertex index of each edge."""
        vi = self.vertex_index
        return tuple(vi[t] for t in self.edge_tails)

    @cached_property
    def heads(self) -> tuple[int, ...]:
        """Head vertex index of each edge."""
        vi = self.vertex_index
        return tuple(vi[h] for h in self.edge_heads)

    @cached_property
    def adjacency_out(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex outgoing (edge_index, head_index), in edge-id order."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e_idx, (tail, head) in enumerate(zip(self.tails, self.heads)):
            out[tail].append((e_idx, head))
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def adjacency_in(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex incoming (edge_index, tail_index), in edge-id order."""
        inc: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e_idx, (tail, head) in enumerate(zip(self.tails, self.heads)):
            inc[head].append((e_idx, tail))
        return tuple(tuple(lst) for lst in inc)

    @cached_property
    def topological_order(self) -> tuple[int, ...] | None:
        """Topological vertex order (Kahn), or None if there is a cycle."""
        n = len(self.vertices)
        indeg = [0] * n
        adj = self.adjacency_out
        for v in range(n):
            for _, head in adj[v]:
                indeg[head] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for _, head in adj[v]:
                indeg[head] -= 1
                if indeg[head] == 0:
                    queue.append(head)
        return tuple(queue) if len(queue) == n else None


@dataclass(frozen=True)
class FlowVector:
    """Per-commodity edge flows; the aggregate is always the column sum."""

    per_commodity: np.ndarray  # shape (k, m)

    def __post_init__(self) -> None:
        arr = np.asarray(self.per_commodity, dtype=float)
        if arr.ndim != 2:
            raise ValueError("per_commodity must be a k x m matrix")
        object.__setattr__(self, "per_commodity", arr)

    @property
    def aggregate(self) -> np.ndarray:
        return self.per_commodity.sum(axis=0)

    @property
    def k(self) -> int:
        return self.per_commodity.shape[0]

    @property
    def m(self) -> int:
        return self.per_commodity.shape[1]

    @classmethod
    def zeros(cls, k: int, m: int) -> "FlowVector":
        return cls(np.zeros((max(k, 0), m)))

    @classmethod
    def single(cls, values) -> "FlowVector":
        """Single-commodity flow from a flat edge vector."""
        return cls(np.asarray(values, dtype=float).reshape(1, -1))


@dataclass(frozen=True)
class TollVector:
    values: np.ndarray  # shape (m,)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).reshape(-1)
        if np.any(arr < 0):
            raise ValueError("tolls must be nonnegative")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, m: int) -> "TollVector":
        return cls(np.zeros(m))


def validate_game(game: RoutingGame) -> RoutingGame:
    """Check every structural invariant; return the game unchanged.

    Raises InvalidGame naming the first violated invariant.  Also forces
    computation of the derived constants so later stages cannot fail there.
    """
    vset = set(game.vertices)
    if len(vset) != len(game.vertices):
        raise InvalidGame("duplicate vertex ids")
    seen_edges: set[str] = set()
    for e in game.edges:
        if e.id in seen_edges:
            raise InvalidGame(f"duplicate edge id {e.id!r}")
        seen_edges.add(e.id)
        if e.tail not in vset or e.head not in vset:
            raise InvalidGame(f"edge {e.id!r} references unknown vertex")
        if e.tail == e.head:
            raise InvalidGame(f"edge {e.id!r} is a self-loop")
        if game.max_degree is not None and e.latency.degree > game.max_degree:
            raise InvalidGame(
                f"edge {e.id!r} has degree {e.latency.degree} > cap {game.max_degree}"
            )
        if game.coeff_bound is not None and max(e.latency.coeffs) > game.coeff_bound:
            raise InvalidGame(f"edge {e.id!r} exceeds the coefficient bound")
    skel = game.skeleton()
    reach_cache: dict[str, set[int]] = {}
    for c in game.commodities:
        if c.source not in vset or c.sink not in vset:
            raise InvalidGame("commodity references unknown vertex")
        if c.source == c.sink:
            raise InvalidGame("commodity source equals sink")
        if not c.demand > 0:
            raise InvalidGame(f"commodity demand must be positive, got {c.demand}")
        if c.source not in reach_cache:
            reach_cache[c.source] = reachable(
                skel.adjacency_out, skel.vertex_index[c.source]
            )
        if skel.vertex_index[c.sink] not in reach_cache[c.source]:
            raise InvalidGame(f"sink {c.sink!r} unreachable from {c.source!r}")
    game.constants  # force derivation
    return game


def derive_constants(game: RoutingGame) -> GameConstants:
    """Compute the latency ceiling K, toll cap T_max = 2mK, and N = mk.

    K = (r+1) * max(1, r/2) * U * max(1, sum_d)^r dominates both l_e(x) and
    x*l_e'(x) for all x in [0, sum_d]: each of the r+1 terms of l is at most
    U*max(1, sum_d)^r, and the derivative terms j*a_j*x^j sum to at most
    r(r+1)/2 times that bound.  The extra max(1, r/2) factor is what makes
    the derivative side hold for degrees above two.
    """
    total_demand = float(sum(c.demand for c in game.commodities))
    r = max((e.latency.degree for e in game.edges), default=0)
    if game.max_degree is not None:
        r = max(r, 0)
    max_coeff = max((max(e.latency.coeffs) for e in game.edges), default=0.0)
    U = max(max_coeff, game.coeff_bound or 0.0)
    base = max(1.0, total_demand) ** r
    K = max(1.0, (r + 1) * max(1.0, r / 2.0) * U * base)
    m = game.m
    return GameConstants(
        K=K,
        T_max=2.0 * m * K,
        total_demand=total_demand,
        N=m * game.k,
    )


def is_feasible(game, f: FlowVector, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff every commodity conserves flow and routes its full demand.

    Accepts a RoutingGame or a GameSkeleton (feasibility needs no latencies).
    """
    if f.per_commodity.shape != (game.k, game.m):
        return False
    if np.any(f.per_commodity < -tol):
        return False
    skel = game.skeleton()
    vi = skel.vertex_index
    tails, heads = skel.tails, skel.heads
    n = len(skel.vertices)
    for i, c in enumerate(skel.commodities):
        net = np.zeros(n)
        row = f.per_commodity[i]
        for e_idx in range(game.m):
            net[tails[e_idx]] += row[e_idx]
            net[heads[e_idx]] -= row[e_idx]
        net[vi[c.source]] -= c.demand
        net[vi[c.sink]] += c.demand
        if np.max(np.abs(net)) > tol:
            return False
    return True


def total_latency(game: RoutingGame, f: FlowVector, tol: float = FEASIBILITY_TOL) -> float:
    """Total latency sum_e F_e * l_e(F_e) over the aggregate flow."""
    if not is_feasible(game, f, tol):
        raise Infeasible("flow is not feasible for this game")
    agg = f.aggregate
    return float(
        sum(x * e.latency.value(x) for x, e in zip(agg, game.edges) if x > 0.0)
    )


def _find_positive_cycle(game, row: np.ndarray, tol: float) -> list[int] | None:
    """Deterministic DFS for a directed cycle among edges with flow > tol.

    Returns the cycle as a list of edge indices, or None.
    """
    adj = [
        [(e_idx, head) for e_idx, head in out if row[e_idx] > tol]
        for out in game.skeleton().adjacency_out
    ]
    n = len(adj)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if color[start] != 0:
            continue
        # Iterative DFS keeping the edge path to the current vertex.
        stack: list[tuple[int, int]] = [(start, 0)]
        path_edges: list[int] = []
        path_vertices: list[int] = [start]
        color[start] = 1
        while stack:
            v, ptr = stack[-1]
            if ptr < len(adj[v]):
                stack[-1] = (v, ptr + 1)
                e_idx, head = adj[v][ptr]
                if color[head] == 1:
                    pos = path_vertices.index(head)
                    return path_edges[pos:] + [e_idx]
                if color[head] == 0:
                    color[head] = 1
                    stack.append((head, 0))
                    path_edges.append(e_idx)
                    path_vertices.append(head)
            else:
                color[v] = 2
                stack.pop()
                if path_edges:
                    path_edges.pop()
                    path_vertices.pop()
    return None


def has_positive_cycle(game, f: FlowVector, tol: float = FEASIBILITY_TOL) -> bool:
    """True if some commodity routes flow around a directed cycle."""
    scale = max(1.0, float(f.per_commodity.max(initial=0.0)))
    cycle_tol = 1e-12 * scale
    return any(
        _find_positive_cycle(game, f.per_commodity[i], cycle_tol) is not None
        for i in range(f.k)
    )


def acyclic_reduce(game, f: FlowVector, tol: float = FEASIBILITY_TOL) -> FlowVector:
    """Cancel per-commodity positive-flow cycles.

    The result is feasible for the same demands, is edgewise <= f in every
    commodity, and (latencies being nondecreasing) never costs more.
    """
    if not is_feasible(game, f, tol):
        raise Infeasible("flow is not feasible for this game")
    out = np.array(f.per_commodity, dtype=float, copy=True)
    cycle_tol = 1e-12 * max(1.0, float(out.max(initial=0.0)))
    for i in range(out.shape[0]):
        row = out[i]
        while True:
            cycle = _find_positive_cycle(game, row, cycle_tol)
            if cycle is None:
                break
            slack = min(row[e] for e in cycle)
            for e in cycle:
                row[e] -= slack
                if row[e] <= cycle_tol:
                    row[e] = 0.0
    return FlowVector(out)
