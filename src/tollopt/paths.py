"""Shortest paths, reachability and path decompositions on routing-game
graphs.

The helpers that take a game accept a ``RoutingGame`` or a
``GameSkeleton`` and read every index from ``game.skeleton()``.  Paths are
tuples of edge indices.  Tie-breaking is deterministic: adjacency lists
are in edge-id order and a relaxation only replaces a label on strict
improvement, so among equal-cost routes the one reached through earlier
edge ids wins.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "Unreachable",
    "dijkstra",
    "reachable",
    "shortest_path",
    "dag_order",
    "dag_shortest_path",
    "decompose_paths",
]


class Unreachable(ValueError):
    """No directed path exists between the requested endpoints."""


def dijkstra(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    costs,
    source: int,
) -> tuple[list[float], list[int]]:
    """Single-source distances under nonnegative edge costs.

    Returns (dist, pred_edge); pred_edge[v] is the edge index used to reach
    v, or -1.
    """
    n = len(adjacency)
    dist = [float("inf")] * n
    pred = [-1] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e_idx, head in adjacency[v]:
            nd = d + costs[e_idx]
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = e_idx
                heapq.heappush(heap, (nd, head))
    return dist, pred


def reachable(
    adjacency: tuple[tuple[tuple[int, int], ...], ...], start: int
) -> set[int]:
    """Vertices reachable from ``start`` along (edge_index, vertex) lists.

    With a skeleton's ``adjacency_in`` this gives the vertices that reach
    ``start``.
    """
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for _, w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _trace(
    pred: list[int], tails: tuple[int, ...], source: int, target: int
) -> tuple[int, ...]:
    path: list[int] = []
    v = target
    while v != source:
        e = pred[v]
        if e < 0:
            raise Unreachable(f"no path to vertex index {target}")
        path.append(e)
        v = tails[e]
    path.reverse()
    return tuple(path)


def shortest_path(game, edge_costs, s: str, t: str) -> tuple[tuple[int, ...], float]:
    """Min-cost s-t path under the given nonnegative edge costs.

    Works on ``RoutingGame`` and ``GameSkeleton`` alike.  Returns the path
    as edge indices plus its cost.  Raises ``Unreachable``.
    """
    costs = np.asarray(edge_costs, dtype=float)
    if np.any(costs < 0):
        raise ValueError("edge costs must be nonnegative for Dijkstra")
    skel = game.skeleton()
    vi = skel.vertex_index
    dist, pred = dijkstra(skel.adjacency_out, costs, vi[s])
    ti = vi[t]
    if dist[ti] == float("inf"):
        raise Unreachable(f"{t!r} unreachable from {s!r}")
    return _trace(pred, skel.tails, vi[s], ti), dist[ti]


def dag_order(game) -> tuple[int, ...] | None:
    """Topological vertex order, or None if the graph has a directed cycle."""
    return game.skeleton().topological_order


def dag_shortest_path(
    game, edge_costs, s: str, t: str
) -> tuple[tuple[int, ...], float]:
    """Min-cost s-t path on a DAG; edge costs may be negative."""
    skel = game.skeleton()
    order = skel.topological_order
    if order is None:
        raise ValueError("graph is not acyclic")
    vi = skel.vertex_index
    adj = skel.adjacency_out
    n = len(skel.vertices)
    dist = [float("inf")] * n
    pred = [-1] * n
    dist[vi[s]] = 0.0
    for v in order:
        if dist[v] == float("inf"):
            continue
        for e_idx, head in adj[v]:
            nd = dist[v] + edge_costs[e_idx]
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = e_idx
    ti = vi[t]
    if dist[ti] == float("inf"):
        raise Unreachable(f"{t!r} unreachable from {s!r}")
    return _trace(pred, skel.tails, vi[s], ti), dist[ti]


def decompose_paths(
    game, flow_row: np.ndarray, s: str, t: str, tol: float = 1e-12
) -> list[tuple[tuple[int, ...], float]]:
    """Greedy path decomposition of one commodity's edge flow.

    Repeatedly extracts an s-t path through positive-flow edges (earliest
    edge id first) and routes the bottleneck amount along it.  Leftover
    circulation, if any, is not reported.
    """
    residual = np.array(flow_row, dtype=float, copy=True)
    scale = max(1.0, float(residual.max(initial=0.0)))
    cut = tol * scale
    skel = game.skeleton()
    vi = skel.vertex_index
    adj = skel.adjacency_out
    n = len(skel.vertices)
    si, ti = vi[s], vi[t]
    out: list[tuple[tuple[int, ...], float]] = []
    while True:
        # DFS from s following positive residual edges.
        pred = [-1] * n
        seen = [False] * n
        seen[si] = True
        stack = [si]
        while stack and not seen[ti]:
            v = stack.pop()
            for e_idx, head in adj[v]:
                if residual[e_idx] > cut and not seen[head]:
                    seen[head] = True
                    pred[head] = e_idx
                    stack.append(head)
        if not seen[ti]:
            break
        path = _trace(pred, skel.tails, si, ti)
        amount = min(residual[e] for e in path)
        for e in path:
            residual[e] -= amount
        out.append((path, float(amount)))
    return out
