"""JSON formats for games, flows, and tolls.

Numeric values are written as decimal strings (repr of the float) so files
round-trip without drift.  Flows are edge-id-keyed maps; multicommodity
flows wrap one map per commodity under "commodities".
"""

from __future__ import annotations

import json

import numpy as np

from .game import (
    Commodity,
    Edge,
    FlowVector,
    PolyLatency,
    RoutingGame,
    TollVector,
    validate_game,
)

__all__ = [
    "game_to_json",
    "game_from_json",
    "flow_to_json",
    "flow_from_json",
    "tolls_to_json",
    "tolls_from_json",
]


def _num(x) -> str:
    return repr(float(x))


def game_to_json(game: RoutingGame) -> str:
    payload = {
        "vertices": list(game.vertices),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "coeffs": [_num(a) for a in e.latency.coeffs],
            }
            for e in game.edges
        ],
        "commodities": [
            {"source": c.source, "sink": c.sink, "demand": _num(c.demand)}
            for c in game.commodities
        ],
    }
    return json.dumps(payload, indent=2)


def game_from_json(text: str) -> RoutingGame:
    payload = json.loads(text)
    edges = []
    for e in payload["edges"]:
        coeffs = tuple(float(a) for a in e["coeffs"])
        constant = not any(a > 0 for a in coeffs[1:])
        edges.append(
            Edge(
                str(e["id"]),
                str(e["tail"]),
                str(e["head"]),
                PolyLatency(coeffs, constant=constant),
            )
        )
    commodities = tuple(
        Commodity(str(c["source"]), str(c["sink"]), float(c["demand"]))
        for c in payload["commodities"]
    )
    game = RoutingGame(
        tuple(str(v) for v in payload["vertices"]), tuple(edges), commodities
    )
    return validate_game(game)


def flow_to_json(game, f: FlowVector) -> str:
    ids = game.skeleton().edge_ids
    if f.k == 1:
        payload = {eid: _num(v) for eid, v in zip(ids, f.per_commodity[0])}
    else:
        payload = {
            "commodities": [
                {eid: _num(v) for eid, v in zip(ids, row)}
                for row in f.per_commodity
            ]
        }
    return json.dumps(payload, indent=2)


def flow_from_json(game, text: str) -> FlowVector:
    ids = game.skeleton().edge_ids
    payload = json.loads(text)
    if isinstance(payload, dict) and "commodities" in payload:
        rows = [
            [float(row.get(eid, 0.0)) for eid in ids]
            for row in payload["commodities"]
        ]
        return FlowVector(np.array(rows))
    return FlowVector(np.array([[float(payload.get(eid, 0.0)) for eid in ids]]))


def tolls_to_json(game, tolls: TollVector) -> str:
    ids = game.skeleton().edge_ids
    return json.dumps(
        {eid: _num(v) for eid, v in zip(ids, tolls.values)}, indent=2
    )


def tolls_from_json(game, text: str) -> TollVector:
    ids = game.skeleton().edge_ids
    payload = json.loads(text)
    return TollVector(np.array([float(payload.get(eid, 0.0)) for eid in ids]))
