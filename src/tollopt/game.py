"""Core data model for nonatomic routing games.

A game is a directed graph with polynomial edge latencies and a list of
commodities (source, sink, demand).  Flows are per-commodity edge vectors;
tolls are nonnegative per-edge surcharges measured in latency units.  This
module also derives the bound constants that the search algorithms rely on:
a latency ceiling K and the toll cap T_max.  Graph traversals, the
acyclicity tests of the graph and of each commodity's flow support
included, go through the primitives of ``paths``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .paths import _trace, dijkstra, reachable, topological_order

if TYPE_CHECKING:
    from .equilibrium import SeedPaths

__all__ = [
    "InvalidGame",
    "Infeasible",
    "TollOutOfRange",
    "PolyLatency",
    "Commodity",
    "Edge",
    "RoutingGame",
    "GameSkeleton",
    "LatencyTable",
    "FlowVector",
    "TollVector",
    "GameConstants",
    "validate_game",
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


class TollOutOfRange(ValueError):
    """Tolls are negative or not finite, or a queried toll exceeds T_max."""


@dataclass(frozen=True)
class PolyLatency:
    """Polynomial latency l(x) = a_0 + a_1 x + ... + a_r x^r, all a_j >= 0.

    A latency with no positive coefficient of degree >= 1 is ``constant``:
    it models a fixed-delay link whose latency does not grow with flow.
    Every other latency is strictly increasing on the feasible range.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coeffs) or (0.0,)
        object.__setattr__(self, "coeffs", coeffs)
        if not all(0.0 <= a < math.inf for a in coeffs):  # False for NaN
            raise InvalidGame(
                f"latency coefficients must be finite and nonnegative: {coeffs}"
            )

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0.0:
            d -= 1
        return d

    @property
    def constant(self) -> bool:
        return self.degree == 0

    def value(self, x):
        """l(x) at a flow x >= 0, evaluated by Horner."""
        if x < 0:
            raise ValueError(f"latency evaluated at negative flow {x}")
        return _horner(reversed(self.coeffs), x)

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
        return PolyLatency(tuple((j + 1) * a for j, a in enumerate(self.coeffs)))


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

    @cached_property
    def latency_table(self) -> "LatencyTable":
        """The latency functions in the forms the solvers evaluate."""
        return LatencyTable.of(self)

    @cached_property
    def zero_toll_paths(self) -> "SeedPaths":
        """The paths of the untolled equilibrium with their flows, where
        every general-graph solve starts; built on the first such solve."""
        from .equilibrium import zero_toll_paths  # equilibrium imports game

        return zero_toll_paths(self)

    @cached_property
    def _zero_toll_starts(self) -> dict:
        """The general-graph solves' admitted start working sets, keyed by
        the all-or-nothing rows offered to the seed; filled as they run."""
        return {}


@dataclass(frozen=True, eq=False)
class LatencyTable:
    """A game's latency functions, laid out once for the solvers.

    Every entry is computed with the arithmetic of ``PolyLatency`` (Horner
    from ``acc = 0.0``), so a solver that evaluates through the table gets
    the same bits as one that calls ``value`` and ``slope``.  The table is
    part of the hidden game: nothing in ``GameSkeleton`` refers to it.
    """

    coeffs: np.ndarray  # (m, max len) coefficient matrix, zero-padded, read-only
    horner: tuple[tuple[float, ...], ...]  # per edge: a_r, ..., a_1, a_0
    slope_horner: tuple[tuple[float, ...], ...]  # per edge: r a_r, ..., 1 a_1
    at_zero: tuple[float, ...]  # l_e(0)
    chord: tuple[float, ...]  # (l_e(d) - l_e(0)) / d at the total demand d
    max_degree: int
    strict_parallel: bool  # one commodity, every edge source -> sink, none constant

    @classmethod
    def of(cls, game: "RoutingGame") -> "LatencyTable":
        lats = [e.latency for e in game.edges]
        width = max((len(lat.coeffs) for lat in lats), default=1)
        A = np.zeros((len(lats), width))
        for i, lat in enumerate(lats):
            A[i, : len(lat.coeffs)] = lat.coeffs
        A.flags.writeable = False
        d = float(sum(c.demand for c in game.commodities))
        ends = {(c.source, c.sink) for c in game.commodities}
        strict_parallel = game.k == 1 and all(
            (e.tail, e.head) in ends and not e.latency.constant for e in game.edges
        )
        return cls(
            coeffs=A,
            horner=tuple(tuple(reversed(lat.coeffs)) for lat in lats),
            slope_horner=tuple(
                tuple(j * lat.coeffs[j] for j in range(len(lat.coeffs) - 1, 0, -1))
                for lat in lats
            ),
            at_zero=tuple(lat.value(0.0) for lat in lats),
            chord=tuple(_horner(reversed(lat.coeffs[1:]), d) for lat in lats),
            max_degree=max((lat.degree for lat in lats), default=0),
            strict_parallel=strict_parallel,
        )


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
        return topological_order(self.adjacency_out)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Node-arc incidence matrix (n x m): +1 at each edge's tail, -1 at
        its head.  Read-only."""
        B = np.zeros((len(self.vertices), self.m))
        cols = np.arange(self.m)
        B[list(self.tails), cols] = 1.0
        B[list(self.heads), cols] = -1.0
        B.flags.writeable = False
        return B

    @cached_property
    def supply(self) -> np.ndarray:
        """Net outflow each commodity must have at each vertex (k x n):
        its demand at its source, minus its demand at its sink.  Read-only."""
        vi = self.vertex_index
        S = np.zeros((self.k, len(self.vertices)))
        for i, c in enumerate(self.commodities):
            S[i, vi[c.source]] += c.demand
            S[i, vi[c.sink]] -= c.demand
        S.flags.writeable = False
        return S


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
        # comparisons in this direction are False for NaN
        if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
            raise TollOutOfRange("tolls must be finite and nonnegative")
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
    skel = game.skeleton()
    reach_cache: dict[str, set[int]] = {}
    for c in game.commodities:
        if c.source not in vset or c.sink not in vset:
            raise InvalidGame("commodity references unknown vertex")
        if c.source == c.sink:
            raise InvalidGame("commodity source equals sink")
        if not 0.0 < c.demand < math.inf:  # False for NaN
            raise InvalidGame(f"commodity demand {c.demand} is not positive and finite")
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
    the derivative side hold for degrees above two.  Raises InvalidGame when
    the total demand, K or T_max is not a finite double.
    """
    total_demand = float(sum(c.demand for c in game.commodities))
    r = max((e.latency.degree for e in game.edges), default=0)
    U = max((max(e.latency.coeffs) for e in game.edges), default=0.0)
    try:
        base = max(1.0, total_demand) ** r
    except OverflowError:  # a float power past the double range raises
        base = math.inf
    K = max(1.0, (r + 1) * max(1.0, r / 2.0) * U * base)
    T_max = 2.0 * game.m * K
    if not max(total_demand, K, T_max) < math.inf:  # False for NaN
        raise InvalidGame(
            f"total demand {total_demand}, K = {K} and T_max = {T_max} must be finite"
        )
    return GameConstants(
        K=K,
        T_max=T_max,
        total_demand=total_demand,
        N=game.m * game.k,
    )


def is_feasible(game, f: FlowVector, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff every commodity conserves flow and routes its full demand.

    Accepts a RoutingGame or a GameSkeleton (feasibility needs no latencies).
    A NaN entry makes the flow infeasible.
    """
    X = f.per_commodity
    if X.shape != (game.k, game.m):
        return False
    skel = game.skeleton()
    excess = X @ skel.incidence.T - skel.supply
    # comparisons in this direction are False for NaN
    return bool(
        X.min(initial=0.0) >= -tol and np.abs(excess).max(initial=0.0) <= tol
    )


def total_latency(game: RoutingGame, f: FlowVector) -> float:
    """Total latency sum_e F_e * l_e(F_e) over the aggregate flow."""
    if not is_feasible(game, f):
        raise Infeasible("flow is not feasible for this game")
    return float(
        sum(
            x * _horner(h, x)
            for x, h in zip(f.aggregate.tolist(), game.latency_table.horner)
            if x > 0.0
        )
    )


def _is_int_at_least(value, low: int) -> bool:
    """Whether ``value`` is an int of at least ``low``; a bool is not an int
    here, and neither is a float such as NaN or 1.5."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return is_int and value >= low


def _horner(coeffs: Iterable[float], x: float) -> float:
    """Polynomial with coefficients highest degree first, at x."""
    acc = 0.0
    for a in coeffs:
        acc = acc * x + a
    return acc


def _positive_cycle(game, row: np.ndarray, tol: float) -> tuple[int, ...] | None:
    """A directed cycle among edges with flow > tol, as edge indices, or None.

    Kahn's order decides acyclicity.  Only a support it cannot order is
    searched: the first support edge, by id, whose head reaches its tail
    closes the fewest-hop cycle through it.
    """
    skel = game.skeleton()
    carries = (row > tol).tolist()
    support = [
        [(e_idx, head) for e_idx, head in out if carries[e_idx]]
        for out in skel.adjacency_out
    ]
    if topological_order(support) is not None:
        return None
    hops = [1.0] * skel.m
    for e_idx in np.flatnonzero(carries).tolist():
        head, tail = skel.heads[e_idx], skel.tails[e_idx]
        dist, pred = dijkstra(support, hops, head)
        if dist[tail] < math.inf:
            return _trace(pred, skel.tails, head, tail) + (e_idx,)
    return None


def has_positive_cycle(game, f: FlowVector) -> bool:
    """True if some commodity routes flow around a directed cycle."""
    cycle_tol = 1e-12 * max(1.0, float(f.per_commodity.max(initial=0.0)))
    return any(
        _positive_cycle(game, f.per_commodity[i], cycle_tol) is not None
        for i in range(f.k)
    )


def acyclic_reduce(game, f: FlowVector) -> FlowVector:
    """Cancel per-commodity positive-flow cycles.

    The result is feasible for the same demands, is edgewise <= f in every
    commodity, and (latencies being nondecreasing) never costs more.
    """
    if not is_feasible(game, f):
        raise Infeasible("flow is not feasible for this game")
    out = np.array(f.per_commodity, dtype=float, copy=True)
    cycle_tol = 1e-12 * max(1.0, float(out.max(initial=0.0)))
    for i in range(out.shape[0]):
        row = out[i]
        while True:
            cycle = _positive_cycle(game, row, cycle_tol)
            if cycle is None:
                break
            slack = min(row[e] for e in cycle)
            for e in cycle:
                row[e] -= slack
                if row[e] <= cycle_tol:
                    row[e] = 0.0
    return FlowVector(out)
