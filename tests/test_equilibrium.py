"""Equilibrium engine: Beckmann potential, solver accuracy against
independent closed forms, Wardrop violation, shortest paths."""

import numpy as np
import pytest

from closedforms import parallel_equilibrium
from conftest import (
    make_parallel,
    random_cubic_parallel,
    random_dag_game,
    random_parallel,
)
from tollopt import (
    EqConfig,
    FlowVector,
    Infeasible,
    TollVector,
    beckmann_potential,
    derive_constants,
    equilibrium,
    is_feasible,
    solve_equilibrium,
    total_latency,
    wardrop_violation,
)
from tollopt.paths import Unreachable, shortest_path


class TestBeckmannPotential:
    def test_pigou_all_linear(self, pigou):
        val = beckmann_potential(pigou, TollVector.zeros(2), FlowVector.single([1.0, 0.0]))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_pigou_all_constant(self, pigou):
        val = beckmann_potential(pigou, TollVector.zeros(2), FlowVector.single([0.0, 1.0]))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_fig1_l1_with_tolls(self, fig1_l1):
        val = beckmann_potential(
            fig1_l1, TollVector(np.array([0.0, 0.4])), FlowVector.single([0.4, 0.6])
        )
        assert val == pytest.approx(0.32, abs=1e-12)

    def test_infeasible_rejected(self, pigou):
        with pytest.raises(Infeasible):
            beckmann_potential(pigou, TollVector.zeros(2), FlowVector.single([0.2, 0.2]))


class TestSolveEquilibrium:
    def test_pigou_untolled(self, pigou):
        res = solve_equilibrium(pigou)
        assert np.allclose(res.flow.aggregate, [1.0, 0.0], atol=1e-9)
        assert res.wardrop_violation <= 1e-9

    def test_fig1_l1_untolled(self, fig1_l1):
        res = solve_equilibrium(fig1_l1)
        assert np.allclose(res.flow.aggregate, [0.0, 1.0], atol=1e-9)

    def test_fig1_l1_interior_tolls(self, fig1_l1):
        res = solve_equilibrium(fig1_l1, TollVector(np.array([0.0, 0.4])))
        assert np.allclose(res.flow.aggregate, [0.4, 0.6], atol=1e-9)

    def test_braess_untolled(self, braess):
        res = solve_equilibrium(braess)
        assert np.allclose(res.flow.aggregate, [1.0, 0.0, 0.0, 1.0, 1.0], atol=1e-9)
        assert total_latency(braess, res.flow) == pytest.approx(2.0, abs=1e-9)

    def test_matches_closed_form_on_random_parallel(self, rng):
        cases = []
        for _ in range(30):
            m = int(rng.integers(2, 5))
            cases.append(
                (random_parallel(m, rng, quadratic=True), rng.uniform(0.0, 2.0, m))
            )
        for _ in range(15):
            m = int(rng.integers(2, 6))
            game = random_cubic_parallel(m, rng)
            tau = rng.uniform(0.0, 2.0, m)
            # tolls near T_max price the first half of the links out
            priced = tau.copy()
            t_max = derive_constants(game).T_max
            priced[: m // 2] = t_max * (1.0 - 0.01 * rng.random(m // 2))
            cases += [(game, tau), (game, priced)]
        for game, tau in cases:
            coeffs = [e.latency.coeffs for e in game.edges]
            ref = parallel_equilibrium(coeffs, tau)
            res = solve_equilibrium(game, TollVector(tau))
            assert is_feasible(game, res.flow)
            assert res.beckmann_gap <= 1e-12
            # on a link flat at zero the reference's flow error can reach
            # the cube root of its level error, near 1e-5
            flat = any(len(c) > 2 and c[1] == 0.0 for c in coeffs)
            tol = 1e-4 if flat else 1e-6
            assert np.max(np.abs(res.flow.aggregate - ref)) < tol

    def test_parallel_links_flat_at_zero(self):
        # l'(0) = 0 on both links: the level solve must still leave zero flow
        game = make_parallel([(0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)])
        res = solve_equilibrium(game)
        assert is_feasible(game, res.flow)
        assert res.beckmann_gap <= 1e-12
        assert np.allclose(
            res.flow.aggregate, [0.43015971, 0.56984029], rtol=0.0, atol=1e-8
        )

    def test_parallel_fast_path_matches_general_solver(self, rng, monkeypatch):
        cases = []
        for _ in range(10):
            game = random_cubic_parallel(int(rng.integers(2, 6)), rng)
            tau = TollVector(rng.uniform(0.0, 2.0, game.m))
            cases.append((game, tau, solve_equilibrium(game, tau)))
        monkeypatch.setattr(equilibrium, "_is_strict_parallel", lambda game: False)
        for game, tau, fast in cases:
            general = solve_equilibrium(game, tau)
            assert np.max(np.abs(fast.flow.aggregate - general.flow.aggregate)) <= 1e-9

    def test_deterministic_bitwise(self, rng):
        game = random_dag_game(6, 12, 2, rng)
        tau = TollVector(rng.uniform(0.0, 1.0, game.m))
        a = solve_equilibrium(game, tau)
        b = solve_equilibrium(game, tau)
        assert np.array_equal(a.flow.per_commodity, b.flow.per_commodity)

    def test_violation_within_twice_accuracy(self, rng):
        cfg = EqConfig(accuracy=1e-9)
        for _ in range(10):
            game = random_dag_game(5, 9, 2, rng)
            tau = TollVector(rng.uniform(0.0, 1.5, game.m))
            res = solve_equilibrium(game, tau, cfg)
            assert res.beckmann_gap <= cfg.accuracy
            assert res.wardrop_violation <= 2 * cfg.accuracy

    def test_potential_below_random_feasible_flows(self, rng, pigou):
        tau = TollVector(np.array([0.3, 0.1]))
        res = solve_equilibrium(pigou, tau)
        best = beckmann_potential(pigou, tau, res.flow)
        for _ in range(100):
            split = rng.dirichlet(np.ones(2))
            assert best <= beckmann_potential(pigou, tau, FlowVector.single(split)) + 1e-10

    def test_uniform_toll_shift_invariance(self, rng):
        game = random_parallel(2, rng)
        tau = rng.uniform(0.0, 1.0, 2)
        base = solve_equilibrium(game, TollVector(tau)).flow.aggregate
        shifted = solve_equilibrium(game, TollVector(tau + 0.7)).flow.aggregate
        assert np.max(np.abs(base - shifted)) < 1e-6

    def test_feasible_multicommodity_output(self, rng):
        game = random_dag_game(6, 11, 2, rng)
        res = solve_equilibrium(game, TollVector(rng.uniform(0, 1, game.m)))
        assert is_feasible(game, res.flow)

    def test_empty_commodities(self):
        from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game

        game = validate_game(
            RoutingGame(
                ("s", "t"),
                (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),),
                (),
            )
        )
        res = solve_equilibrium(game)
        assert res.flow.per_commodity.shape == (0, 1)
        assert res.beckmann_gap == 0.0


class TestWardropViolation:
    def test_pigou_equilibrium_flow(self, pigou):
        v = wardrop_violation(pigou, TollVector.zeros(2), FlowVector.single([1.0, 0.0]))
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_pigou_anti_equilibrium(self, pigou):
        v = wardrop_violation(pigou, TollVector.zeros(2), FlowVector.single([0.0, 1.0]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_solver_output_has_zero_violation(self, rng):
        game = random_dag_game(5, 8, 1, rng)
        tau = TollVector(rng.uniform(0, 1, game.m))
        res = solve_equilibrium(game, tau)
        assert wardrop_violation(game, tau, res.flow) <= 1e-9


class TestShortestPath:
    def test_two_parallel_edges(self, pigou):
        path, dist = shortest_path(pigou, [0.3, 0.7], "s", "t")
        assert path == (0,) and dist == 0.3

    def test_tie_breaks_to_lower_edge_id(self, pigou):
        path, dist = shortest_path(pigou, [0.5, 0.5], "s", "t")
        assert path == (0,) and dist == 0.5

    def test_braess_zero_load(self, braess):
        path, dist = shortest_path(braess, [0.0, 1.0, 1.0, 0.0, 0.0], "s", "t")
        assert path == (0, 4, 3)
        assert dist == 0.0

    def test_unreachable(self):
        from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game

        game = validate_game(
            RoutingGame(
                ("s", "t", "u"),
                (
                    Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
                    Edge("e1", "u", "t", PolyLatency((0.0, 1.0))),
                ),
                (Commodity("s", "t", 1.0),),
            )
        )
        with pytest.raises(Unreachable):
            shortest_path(game, [1.0, 1.0], "s", "u")

    def test_negative_costs_rejected(self, pigou):
        with pytest.raises(ValueError):
            shortest_path(pigou, [-0.1, 0.5], "s", "t")
