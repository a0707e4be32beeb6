"""Shortest paths, reachability, topological order and path
decompositions on routing-game graphs.

Every graph traversal in the package goes through the primitives here:
``dijkstra``, ``dag_distances``, ``reachable``, ``topological_order`` and
the predecessor tracer ``_trace``.  They take per-vertex adjacency lists of
(edge_index, vertex) pairs, so a caller can run them on a subgraph (one
commodity's flow support, say) by filtering the lists.

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
    "topological_order",
    "shortest_path",
    "dag_distances",
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


def topological_order(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
) -> tuple[int, ...] | None:
    """Topological vertex order by Kahn's algorithm, or None if the graph
    given by (edge_index, head) lists has a directed cycle."""
    n = len(adjacency)
    indeg = [0] * n
    for out in adjacency:
        for _, head in out:
            indeg[head] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for _, head in adjacency[v]:
            indeg[head] -= 1
            if indeg[head] == 0:
                queue.append(head)
    return tuple(queue) if len(queue) == n else None


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


def dag_distances(skel, costs, source: int | None) -> tuple[list[float], list[int]]:
    """Single-source distances on an acyclic graph; costs may be negative.

    Relaxes the edges in the skeleton's topological order and returns
    (dist, pred_edge) as ``dijkstra`` does.  With ``source`` None every
    vertex starts at distance 0, as if a free edge joined a virtual source
    to each.  Raises ``ValueError`` on a graph with a directed cycle.
    """
    order = skel.topological_order
    if order is None:
        raise ValueError("graph is not acyclic")
    adj = skel.adjacency_out
    costs = np.asarray(costs, dtype=float).tolist()
    dist = [float("inf") if source is not None else 0.0] * len(adj)
    pred = [-1] * len(adj)
    if source is not None:
        dist[source] = 0.0
    for v in order:
        if dist[v] == float("inf"):
            continue
        for e_idx, head in adj[v]:
            nd = dist[v] + costs[e_idx]
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = e_idx
    return dist, pred


def dag_shortest_path(
    game, edge_costs, s: str, t: str
) -> tuple[tuple[int, ...], float]:
    """Min-cost s-t path on a DAG; edge costs may be negative."""
    skel = game.skeleton()
    vi = skel.vertex_index
    dist, pred = dag_distances(skel, edge_costs, vi[s])
    ti = vi[t]
    if dist[ti] == float("inf"):
        raise Unreachable(f"{t!r} unreachable from {s!r}")
    return _trace(pred, skel.tails, vi[s], ti), dist[ti]


def decompose_paths(
    game, flow_row: np.ndarray, s: str, t: str
) -> list[tuple[tuple[int, ...], float]]:
    """Greedy path decomposition of one commodity's edge flow.

    Repeatedly takes a fewest-hop s-t path through edges whose residual
    flow exceeds 1e-12 * max(1, largest flow), ties going to earlier edge
    ids, and routes along it the bottleneck amount, capped by the net
    outflow of s not yet routed.  The paths therefore carry the s-t flow
    and no more; leftover circulation, if any, is not reported.
    """
    residual = np.array(flow_row, dtype=float, copy=True)
    cut = 1e-12 * max(1.0, float(residual.max(initial=0.0)))
    skel = game.skeleton()
    vi = skel.vertex_index
    si, ti = vi[s], vi[t]
    left = float(skel.incidence[si] @ residual)
    out: list[tuple[tuple[int, ...], float]] = []
    while left > cut:
        hops = np.where(residual > cut, 1.0, np.inf).tolist()
        dist, pred = dijkstra(skel.adjacency_out, hops, si)
        if dist[ti] == float("inf"):
            break
        path = _trace(pred, skel.tails, si, ti)
        amount = min(left, min(residual[e] for e in path))
        for e in path:
            residual[e] -= amount
        left -= amount
        out.append((path, float(amount)))
    return out
