"""JSON formats for games, flows, and tolls.

Numeric values are written as decimal strings (repr of the float) so files
round-trip without drift.  Flows are edge-id-keyed maps; multicommodity
flows wrap one map per commodity under "commodities".  Readers raise
``ValueError`` on a payload of the wrong JSON type, a vertex, edge id or
commodity endpoint that is not a JSON string, an unknown edge id or a
value that is neither a number nor a decimal string; an edge missing from
a flow or toll map reads as 0.
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


def _value(x) -> float:
    """A JSON number or decimal string as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _name(x) -> str:
    """A vertex or edge name, which must be a JSON string."""
    if not isinstance(x, str):
        raise ValueError(f"names must be JSON strings, got {x!r}")
    return x


def _expect(x, kind: type, what: str):
    """``x``, if it is a JSON object (dict) or list as ``kind`` says."""
    if not isinstance(x, kind):
        name = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {name}")
    return x


def _edge_values(ids, payload, what: str) -> list[float]:
    """Values of an edge-id-keyed map in edge order; missing ids read as 0."""
    _expect(payload, dict, what)
    unknown = sorted(set(payload) - set(ids))
    if unknown:
        raise ValueError(f"{what} names unknown edge ids {unknown}")
    return [_value(payload.get(eid, 0.0)) for eid in ids]


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
    payload = _expect(json.loads(text), dict, "an instance")
    edges = []
    for e in _expect(payload["edges"], list, "edges"):
        _expect(e, dict, "an edge")
        coeffs = tuple(_value(a) for a in _expect(e["coeffs"], list, "coeffs"))
        edges.append(
            Edge(
                _name(e["id"]),
                _name(e["tail"]),
                _name(e["head"]),
                PolyLatency(coeffs),
            )
        )
    commodities = []
    for c in _expect(payload["commodities"], list, "commodities"):
        _expect(c, dict, "a commodity")
        commodities.append(
            Commodity(_name(c["source"]), _name(c["sink"]), _value(c["demand"]))
        )
    vertices = _expect(payload["vertices"], list, "vertices")
    game = RoutingGame(
        tuple(_name(v) for v in vertices), tuple(edges), tuple(commodities)
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
        rows = _expect(payload["commodities"], list, "commodities")
        return FlowVector(np.array([_edge_values(ids, row, "a flow") for row in rows]))
    return FlowVector(np.array([_edge_values(ids, payload, "a flow")]))


def tolls_to_json(game, tolls: TollVector) -> str:
    ids = game.skeleton().edge_ids
    return json.dumps(
        {eid: _num(v) for eid, v in zip(ids, tolls.values)}, indent=2
    )


def tolls_from_json(game, text: str) -> TollVector:
    ids = game.skeleton().edge_ids
    return TollVector(np.array(_edge_values(ids, json.loads(text), "a toll map")))
