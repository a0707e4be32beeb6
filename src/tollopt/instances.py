"""Deterministic instance generation for experiments and benchmarks.

Fixed topologies: the two-link pair used by the impossibility demo
(fig1_l1 with latencies {x, 0}, fig1_l2 with {1, x}), the Pigou pair
{x, 1}, and the classic Braess diamond with a free shortcut.  Parameterized
families: parallel links, w-by-h grid DAGs, and random DAGs, all with
random polynomial latencies drawn from a seeded generator so the same spec
always yields the same game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import Commodity, Edge, PolyLatency, RoutingGame, validate_game

__all__ = ["BadSpec", "InstanceSpec", "generate", "TOPOLOGIES"]

TOPOLOGIES = (
    "parallel",
    "pigou",
    "braess",
    "fig1_l1",
    "fig1_l2",
    "grid",
    "random_dag",
)


class BadSpec(ValueError):
    """The instance specification cannot be generated."""


@dataclass(frozen=True)
class InstanceSpec:
    topology: str
    links: int = 3  # parallel: number of links
    width: int = 2  # grid
    height: int = 2  # grid
    n_vertices: int = 6  # random_dag
    density: float = 0.4  # random_dag: extra-edge probability
    degree: int = 1  # max latency degree for random families
    coeff_bound: float = 1.0  # U
    demand: float = 1.0
    commodities: int = 1  # random_dag only
    seed: int = 0

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise BadSpec(f"unknown topology {self.topology!r}")
        if not 0.0 < self.demand < math.inf:  # False for NaN
            raise BadSpec(f"demand must be positive and finite, got {self.demand}")
        if self.degree < 1:
            raise BadSpec("degree must be at least 1")
        if not 0.0 <= self.density <= 1.0:  # True for NaN
            raise BadSpec(f"density must lie in [0, 1], got {self.density}")
        if not 0.0 < self.coeff_bound < math.inf:  # False for NaN
            raise BadSpec(
                f"coefficient bound must be positive and finite, got {self.coeff_bound}"
            )
        if self.topology == "parallel" and self.links < 2:
            raise BadSpec("parallel needs at least 2 links")
        if self.topology == "grid" and (self.width < 2 or self.height < 2):
            raise BadSpec("grid needs width and height at least 2")
        if self.topology == "random_dag" and self.n_vertices < 3:
            raise BadSpec("random_dag needs at least 3 vertices")
        if self.commodities not in (1, 2):
            raise BadSpec("only 1 or 2 commodities are supported")


def _random_latency(rng: np.random.Generator, degree: int, bound: float) -> PolyLatency:
    # strictly increasing: positive linear term, optional higher terms
    deg = int(rng.integers(1, degree + 1))
    coeffs = [round(float(rng.uniform(0.0, bound / 2)), 6)]
    coeffs.append(round(float(rng.uniform(0.3 * bound, bound)), 6))
    for _ in range(2, deg + 1):
        coeffs.append(round(float(rng.uniform(0.0, bound / 2)), 6))
    return PolyLatency(tuple(coeffs))


def generate(spec: InstanceSpec) -> RoutingGame:
    rng = np.random.default_rng(spec.seed)
    d = float(spec.demand)
    if spec.topology == "pigou":
        edges = (
            Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
            Edge("e1", "s", "t", PolyLatency((1.0,))),
        )
        game = RoutingGame(("s", "t"), edges, (Commodity("s", "t", d),))
    elif spec.topology == "fig1_l1":
        edges = (
            Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
            Edge("e1", "s", "t", PolyLatency((0.0,))),
        )
        game = RoutingGame(("s", "t"), edges, (Commodity("s", "t", d),))
    elif spec.topology == "fig1_l2":
        edges = (
            Edge("e0", "s", "t", PolyLatency((1.0,))),
            Edge("e1", "s", "t", PolyLatency((0.0, 1.0))),
        )
        game = RoutingGame(("s", "t"), edges, (Commodity("s", "t", d),))
    elif spec.topology == "braess":
        edges = (
            Edge("e0", "s", "v", PolyLatency((0.0, 1.0))),
            Edge("e1", "s", "w", PolyLatency((1.0,))),
            Edge("e2", "v", "t", PolyLatency((1.0,))),
            Edge("e3", "w", "t", PolyLatency((0.0, 1.0))),
            Edge("e4", "v", "w", PolyLatency((0.0,))),
        )
        game = RoutingGame(
            ("s", "v", "w", "t"), edges, (Commodity("s", "t", d),)
        )
    elif spec.topology == "parallel":
        edges = tuple(
            Edge(f"e{i}", "s", "t", _random_latency(rng, spec.degree, spec.coeff_bound))
            for i in range(spec.links)
        )
        game = RoutingGame(("s", "t"), edges, (Commodity("s", "t", d),))
    elif spec.topology == "grid":
        w, h = spec.width, spec.height
        verts = tuple(f"v{i}_{j}" for i in range(w) for j in range(h))
        edges = []
        for i in range(w):
            for j in range(h):
                if i + 1 < w:
                    edges.append((f"v{i}_{j}", f"v{i+1}_{j}"))
                if j + 1 < h:
                    edges.append((f"v{i}_{j}", f"v{i}_{j+1}"))
        edge_objs = tuple(
            Edge(f"e{idx}", tail, head, _random_latency(rng, spec.degree, spec.coeff_bound))
            for idx, (tail, head) in enumerate(edges)
        )
        game = RoutingGame(
            verts, edge_objs, (Commodity("v0_0", f"v{w-1}_{h-1}", d),)
        )
    elif spec.topology == "random_dag":
        n = spec.n_vertices
        pairs = {(i, i + 1) for i in range(n - 1)}  # chain keeps t reachable
        for i in range(n - 1):
            for j in range(i + 1, n):
                if (i, j) not in pairs and rng.random() < spec.density:
                    pairs.add((i, j))
        ordered = sorted(pairs)
        edge_objs = tuple(
            Edge(
                f"e{idx}",
                f"v{i}",
                f"v{j}",
                _random_latency(rng, spec.degree, spec.coeff_bound),
            )
            for idx, (i, j) in enumerate(ordered)
        )
        coms = [Commodity("v0", f"v{n-1}", d)]
        if spec.commodities == 2:
            coms.append(Commodity("v0", f"v{n-2}", round(0.7 * d, 9)))
        game = RoutingGame(
            tuple(f"v{i}" for i in range(n)), edge_objs, tuple(coms)
        )
    else:  # pragma: no cover - guarded by InstanceSpec
        raise BadSpec(f"unknown topology {spec.topology!r}")
    return validate_game(game)
