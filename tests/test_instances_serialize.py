"""Instance generation determinism and JSON round-trips."""

import json

import numpy as np
import pytest

from tollopt import FlowVector, TollVector, validate_game
from tollopt.instances import BadSpec, InstanceSpec, generate
from tollopt.serialize import (
    flow_from_json,
    flow_to_json,
    game_from_json,
    game_to_json,
    tolls_from_json,
    tolls_to_json,
)


class TestGenerate:
    def test_fig1_l1_edges(self):
        g = generate(InstanceSpec(topology="fig1_l1"))
        assert [e.latency.coeffs for e in g.edges] == [(0.0, 1.0), (0.0,)]
        assert g.commodities[0].demand == 1.0

    def test_fig1_l2_edges(self):
        g = generate(InstanceSpec(topology="fig1_l2"))
        assert [e.latency.coeffs for e in g.edges] == [(1.0,), (0.0, 1.0)]

    def test_pigou_edges(self):
        g = generate(InstanceSpec(topology="pigou"))
        assert [e.latency.coeffs for e in g.edges] == [(0.0, 1.0), (1.0,)]

    def test_braess_shape(self):
        g = generate(InstanceSpec(topology="braess"))
        assert g.m == 5 and g.n == 4

    def test_parallel_deterministic(self):
        a = generate(InstanceSpec(topology="parallel", links=3, seed=7))
        b = generate(InstanceSpec(topology="parallel", links=3, seed=7))
        assert [e.latency.coeffs for e in a.edges] == [
            e.latency.coeffs for e in b.edges
        ]

    def test_parallel_seed_changes_game(self):
        a = generate(InstanceSpec(topology="parallel", links=3, seed=7))
        b = generate(InstanceSpec(topology="parallel", links=3, seed=8))
        assert [e.latency.coeffs for e in a.edges] != [
            e.latency.coeffs for e in b.edges
        ]

    def test_grid_is_valid_dag(self):
        g = generate(InstanceSpec(topology="grid", width=3, height=2, seed=1))
        assert g.skeleton().topological_order is not None
        assert g.m == 7  # 2*3*2 - 3 - 2

    def test_random_dag_two_commodities(self):
        g = generate(
            InstanceSpec(topology="random_dag", n_vertices=6, commodities=2, seed=3)
        )
        assert g.k == 2
        validate_game(g)

    def test_all_topologies_validate(self):
        for topo in ("parallel", "pigou", "braess", "fig1_l1", "fig1_l2", "grid", "random_dag"):
            validate_game(generate(InstanceSpec(topology=topo, seed=5)))

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            InstanceSpec(topology="mystery")
        with pytest.raises(BadSpec):
            InstanceSpec(topology="parallel", links=1)
        for demand in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(BadSpec, match="demand"):
                InstanceSpec(topology="pigou", demand=demand)
        with pytest.raises(BadSpec):
            InstanceSpec(topology="grid", width=1)
        for density in (float("nan"), -1.0, 2.0, float("inf")):
            with pytest.raises(BadSpec, match="density"):
                InstanceSpec(topology="random_dag", density=density)
        for bound in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(BadSpec, match="coefficient bound"):
                InstanceSpec(topology="parallel", coeff_bound=bound)


class TestSerialize:
    def test_game_round_trip(self):
        g = generate(InstanceSpec(topology="random_dag", n_vertices=5, seed=11))
        text = game_to_json(g)
        g2 = game_from_json(text)
        assert g2.vertices == g.vertices
        assert [e.id for e in g2.edges] == [e.id for e in g.edges]
        assert [e.latency.coeffs for e in g2.edges] == [
            e.latency.coeffs for e in g.edges
        ]
        assert g2.commodities == g.commodities

    def test_numbers_written_as_strings(self):
        g = generate(InstanceSpec(topology="pigou"))
        payload = json.loads(game_to_json(g))
        assert payload["edges"][0]["coeffs"] == ["0.0", "1.0"]
        assert payload["commodities"][0]["demand"] == "1.0"

    def test_constant_flag_recovered(self):
        g = generate(InstanceSpec(topology="fig1_l2"))
        g2 = game_from_json(game_to_json(g))
        assert g2.edges[0].latency.constant
        assert not g2.edges[1].latency.constant

    def test_flow_round_trip_single(self):
        g = generate(InstanceSpec(topology="pigou"))
        f = FlowVector.single([0.25, 0.75])
        f2 = flow_from_json(g, flow_to_json(g, f))
        assert np.array_equal(f2.per_commodity, f.per_commodity)

    def test_flow_round_trip_multicommodity(self):
        g = generate(
            InstanceSpec(topology="random_dag", n_vertices=5, commodities=2, seed=2)
        )
        f = FlowVector(np.full((2, g.m), 0.125))
        f2 = flow_from_json(g, flow_to_json(g, f))
        assert np.array_equal(f2.per_commodity, f.per_commodity)

    def test_tolls_round_trip_exact(self):
        g = generate(InstanceSpec(topology="parallel", links=4, seed=9))
        tau = TollVector(np.array([0.1, 0.2, 1.0 / 3.0, 0.0]))
        tau2 = tolls_from_json(g, tolls_to_json(g, tau))
        assert np.array_equal(tau2.values, tau.values)

    def test_missing_edge_ids_read_as_zero(self):
        g = generate(InstanceSpec(topology="pigou"))
        assert np.array_equal(tolls_from_json(g, '{"e1": 0.5}').values, [0.0, 0.5])
        f = flow_from_json(g, '{"commodities": [{"e0": "1.0"}]}')
        assert np.array_equal(f.per_commodity, [[1.0, 0.0]])

    def test_flow_json_keys_are_edge_ids(self):
        g = generate(InstanceSpec(topology="pigou"))
        payload = json.loads(flow_to_json(g, FlowVector.single([1.0, 0.0])))
        assert set(payload) == {"e0", "e1"}
