"""Zero-order value oracle, projection, gradients, and the minimizer."""

import numpy as np
import pytest

from conftest import make_parallel, random_dag_game, random_parallel
from tollopt import FlowVector, solve_equilibrium, total_latency, zeroorder
from tollopt.game import has_positive_cycle, is_feasible
from tollopt.oracle import EquilibriumOracle, OracleMode, reveal_hidden_game
from tollopt.zeroorder import (
    OptConfig,
    SampleEngine,
    _fd_gradient,
    affine_hull_basis,
    compute_optimal_tolls,
    minimize_total_latency,
    project_to_polytope,
    reference_flow,
)


class TestZeroOrderCostOracle:
    def test_pigou_half_half(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        s = SampleEngine(oracle, 0.01).sample(FlowVector.single([0.5, 0.5]))
        assert 0.74 <= s.observed_cost <= 0.76
        assert s.queries_spent >= 2

    def test_fig1_l1_free_flow(self, fig1_l1):
        oracle = EquilibriumOracle(fig1_l1, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        s = SampleEngine(oracle, 0.01).sample(FlowVector.single([0.0, 1.0]))
        assert abs(s.observed_cost) <= 0.01

    def test_fig1_l2_half_half(self, fig1_l2):
        oracle = EquilibriumOracle(fig1_l2, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        s = SampleEngine(oracle, 0.01).sample(FlowVector.single([0.5, 0.5]))
        assert 0.74 <= s.observed_cost <= 0.76

    def test_flow_only_oracle_rejected(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY)
        with pytest.raises(ValueError):
            SampleEngine(oracle, 0.01).sample(FlowVector.single([0.5, 0.5]))

    def test_accuracy_against_hidden_cost(self, rng):
        delta = 0.01
        for _ in range(5):
            game = random_parallel(3, rng)
            oracle = EquilibriumOracle(
                game, OracleMode.FLOW_AND_COST, eps_query=1e-11,
                allow_test_backdoor=True,
            )
            engine = SampleEngine(oracle, delta)
            split = rng.dirichlet(np.ones(3))
            s = engine.sample(FlowVector.single(split))
            exact = total_latency(reveal_hidden_game(oracle), s.requested_flow)
            assert abs(s.observed_cost - exact) <= delta

    def test_cache_reuses_samples(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        f = FlowVector.single([0.5, 0.5])
        first = engine.sample(f)
        count = oracle.query_count
        second = engine.sample(f)
        assert oracle.query_count == count
        assert second.queries_spent == 0
        assert second.observed_cost == first.observed_cost

    def test_misses_start_from_last_tolls(self):
        # each cache miss after the first queries the previous sample's
        # enforcing tolls first, however far apart the two flows lie: the
        # last two jumps move a link by 0.65 and 0.7, so a warm ball of
        # radius 4 m K |d_flow| would hold the whole box [0, 2 m K]^m
        game = make_parallel([(0.2, 1.0), (0.5, 0.6), (0.1, 1.2)])
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        splits = [[0.2, 0.3, 0.5], [0.25, 0.3, 0.45], [0.2, 0.3, 0.5],
                  [0.9, 0.05, 0.05], [0.1, 0.8, 0.1]]
        last = None
        misses = 0
        for split in splits:
            before = oracle.query_count
            s = engine.sample(FlowVector.single(split))
            if s.queries_spent == 0:
                continue
            if last is not None:
                first_tolls, _ = oracle.query_log[before]
                assert np.array_equal(first_tolls, last.enforcing_tolls.values)
                misses += 1
            last = s
        assert misses == 3

    def test_requested_flow_is_cycle_free(self, rng):
        # a flow with a circulation gets reduced before enforcement
        from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game

        edges = (
            Edge("e0", "s", "v", PolyLatency((0.0, 1.0))),
            Edge("e1", "v", "t", PolyLatency((0.0, 1.0))),
            Edge("e2", "v", "w", PolyLatency((0.0, 1.0))),
            Edge("e3", "w", "v", PolyLatency((0.0, 1.0))),
        )
        game = validate_game(
            RoutingGame(("s", "v", "w", "t"), edges, (Commodity("s", "t", 1.0),))
        )
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        f = FlowVector.single([1.0, 1.0, 0.2, 0.2])
        s = SampleEngine(oracle, 0.02).sample(f)
        assert not has_positive_cycle(game, s.requested_flow)
        assert np.allclose(s.requested_flow.per_commodity[0], [1, 1, 0, 0])


class TestProjection:
    def test_identity_on_feasible(self, pigou):
        out = project_to_polytope(pigou.skeleton(), [[0.3, 0.7]])
        assert np.array_equal(out.per_commodity, [[0.3, 0.7]])

    def test_pigou_interior_projection(self, pigou):
        out = project_to_polytope(pigou.skeleton(), [[0.8, 0.8]])
        assert np.allclose(out.per_commodity, [[0.5, 0.5]], atol=1e-9)

    def test_pigou_vertex_projection(self, pigou):
        out = project_to_polytope(pigou.skeleton(), [[1.6, -0.2]])
        assert np.allclose(out.per_commodity, [[1.0, 0.0]], atol=1e-9)

    def test_projection_is_feasible_on_dags(self, rng):
        game = random_dag_game(6, 10, 2, rng)
        skel = game.skeleton()
        for _ in range(5):
            raw = rng.normal(0.4, 0.5, size=(2, game.m))
            out = project_to_polytope(skel, raw)
            assert is_feasible(skel, out)

    def test_projection_beats_random_feasible_points(self, rng, braess):
        skel = braess.skeleton()
        raw = rng.normal(0.5, 0.4, size=(1, 5))
        proj = project_to_polytope(skel, raw)
        d_proj = float(np.sum((proj.per_commodity - raw) ** 2))
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            paths = [(0, 2), (1, 3), (0, 4, 3)]
            f = np.zeros(5)
            for weight, path in zip(w, paths):
                for e in path:
                    f[e] += weight
            d_other = float(np.sum((f - raw) ** 2))
            assert d_proj <= d_other + 1e-8


class TestGradient:
    def test_pigou_zero_gradient_at_optimum(self, pigou):
        basis = affine_hull_basis(pigou.skeleton())
        g = _fd_gradient(
            lambda f: total_latency(pigou, f),
            pigou.skeleton(),
            basis,
            FlowVector.single([0.5, 0.5]),
            1e-5,
        )
        assert abs(g[0]) < 1e-9

    def test_pigou_interior_gradient(self, pigou):
        basis = affine_hull_basis(pigou.skeleton())
        g = _fd_gradient(
            lambda f: total_latency(pigou, f),
            pigou.skeleton(),
            basis,
            FlowVector.single([0.75, 0.25]),
            1e-6,
        )
        assert abs(abs(g[0]) - 0.5 / np.sqrt(2)) < 1e-6

    def test_constant_game_linear_gradient(self):
        game = make_parallel([(0.7,), (0.3,)])
        basis = affine_hull_basis(game.skeleton())
        g = _fd_gradient(
            lambda f: total_latency(game, f),
            game.skeleton(),
            basis,
            FlowVector.single([0.5, 0.5]),
            1e-4,
        )
        assert abs(abs(g[0]) - 0.4 / np.sqrt(2)) < 1e-9

    def test_oracle_based_estimate(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        delta = 1e-4
        h = float(np.sqrt(delta))
        engine = SampleEngine(oracle, delta)
        g = _fd_gradient(
            lambda x: engine.sample(x).observed_cost,
            oracle.skeleton,
            affine_hull_basis(oracle.skeleton),
            FlowVector.single([0.75, 0.25]),
            h,
        )
        K2 = 2.0  # curvature of f1^2 + f2 along the hull
        tol = max(1e-4, delta / h + K2 * h)
        assert abs(abs(g[0]) - 0.5 / np.sqrt(2)) <= tol

    def test_gradient_matches_analytic_on_random_games(self, rng):
        for _ in range(5):
            game = random_parallel(4, rng, quadratic=True)
            skel = game.skeleton()
            basis = affine_hull_basis(skel)
            split = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
            f = FlowVector.single(split / split.sum())
            h = 1e-6
            g = _fd_gradient(
                lambda x: total_latency(game, x), skel, basis, f, h
            )
            marginal = np.array(
                [
                    e.latency.value(x) + x * e.latency.slope(x)
                    for x, e in zip(f.aggregate, game.edges)
                ]
            )
            expected = basis.reshape(len(basis), -1) @ marginal
            assert np.max(np.abs(g - expected)) < 1e-4


class TestReferenceFlow:
    def test_interior_on_usable_edges(self, braess):
        f = reference_flow(braess.skeleton())
        assert is_feasible(braess.skeleton(), f)
        assert np.all(f.per_commodity[0] > 0)

    def test_multicommodity(self, rng):
        game = random_dag_game(6, 10, 2, rng)
        f = reference_flow(game.skeleton())
        assert is_feasible(game.skeleton(), f)


class TestMinimize:
    def test_pigou(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        assert rep.best_cost <= 0.77
        assert rep.total_oracle_queries == oracle.query_count

    def test_fig1_l2_flow_near_optimum(self, fig1_l2):
        oracle = EquilibriumOracle(fig1_l2, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, fig1_l2.skeleton(), OptConfig(epsilon=0.02))
        assert np.max(np.abs(rep.best_flow.aggregate - [0.5, 0.5])) <= 0.05

    def test_braess(self, braess):
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, braess.skeleton(), OptConfig(epsilon=0.02))
        assert rep.best_cost <= 1.5 + 0.02

    def test_best_cost_monotone_in_trace(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        bests = [r["best_cost"] for r in rep.iteration_trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_best_flow_feasible_and_acyclic(self, rng):
        game = random_parallel(3, rng)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, game.skeleton(), OptConfig(epsilon=0.05))
        assert is_feasible(game, rep.best_flow)
        assert not has_positive_cycle(game, rep.best_flow)

    def test_query_budget_flags_report(self, pigou):
        oracle = EquilibriumOracle(
            pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11, max_queries=5
        )
        rep = minimize_total_latency(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        assert rep.status == "BUDGET_EXHAUSTED"
        assert rep.best_cost < float("inf")
        assert rep.total_oracle_queries <= 5

    def test_stall_stops_descent(self, fig1_l1, monkeypatch):
        # uphill gradients and no gap certificate: every iteration fails to
        # improve, the step shrinks 4x each time, and the third stall stops
        fd_gradient = zeroorder._fd_gradient
        monkeypatch.setattr(
            zeroorder, "_fd_gradient", lambda *args: -fd_gradient(*args)
        )
        monkeypatch.setattr(
            zeroorder, "_estimated_fw_gap", lambda *args: float("inf")
        )
        oracle = EquilibriumOracle(fig1_l1, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        rep = minimize_total_latency(oracle, fig1_l1.skeleton(), OptConfig(epsilon=0.1))
        assert rep.status == "CONVERGED"
        assert [r["iteration"] for r in rep.iteration_trace] == [1, 2, 3]
        steps = [r["step"] for r in rep.iteration_trace]
        assert steps == [0.0625, 0.015625, 0.00390625]
        assert rep.total_oracle_queries == 34

    def test_mismatched_skeleton_rejected(self, pigou, braess):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with pytest.raises(ValueError):
            minimize_total_latency(oracle, braess.skeleton(), OptConfig(epsilon=0.02))


class TestOptConfig:
    def test_delta_cap_enforced(self, pigou):
        cfg = OptConfig(epsilon=0.02, delta=0.01)  # way above eps/(8 N^2)
        with pytest.raises(ValueError):
            cfg.resolved_delta(pigou.skeleton())

    def test_defaults(self, pigou):
        delta = OptConfig(epsilon=0.02).resolved_delta(pigou.skeleton())
        N = pigou.skeleton().constants.N
        assert delta == pytest.approx(0.02 / (8 * N * N))


class TestComputeOptimalTolls:
    def test_pigou(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, rep = compute_optimal_tolls(
            oracle, pigou.skeleton(), OptConfig(epsilon=0.02)
        )
        assert tolls.values[0] - tolls.values[1] == pytest.approx(0.5, abs=0.1)
        induced = solve_equilibrium(pigou, tolls).flow
        assert total_latency(pigou, induced) <= 0.79
        assert rep.total_oracle_queries == oracle.query_count

    def test_fig1_l1(self, fig1_l1):
        oracle = EquilibriumOracle(fig1_l1, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, _ = compute_optimal_tolls(
            oracle, fig1_l1.skeleton(), OptConfig(epsilon=0.02)
        )
        induced = solve_equilibrium(fig1_l1, tolls).flow
        assert total_latency(fig1_l1, induced) <= 0.02

    def test_braess(self, braess):
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, _ = compute_optimal_tolls(
            oracle, braess.skeleton(), OptConfig(epsilon=0.02)
        )
        induced = solve_equilibrium(braess, tolls).flow
        assert total_latency(braess, induced) <= 1.52

    def test_final_enforcement_starts_from_best_sample_tolls(self, braess):
        cfg = OptConfig(epsilon=0.02)
        probe = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        descent = minimize_total_latency(probe, braess.skeleton(), cfg)
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, braess.skeleton(), cfg)
        first_final, _ = oracle.query_log[descent.total_oracle_queries]
        assert np.array_equal(first_final, descent.final_tolls.values)
        assert rep.total_oracle_queries == oracle.query_count

    def test_budget_spent_in_final_enforcement_keeps_best_sample(
        self, pigou, monkeypatch
    ):
        # the descent converges, then the budget runs out on the final
        # enforcement's first query: the best sample's tolls come back
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        descents = []

        def minimize(*args):
            rep = minimize_total_latency(*args)
            oracle.max_queries = oracle.query_count
            descents.append(rep)
            return rep

        monkeypatch.setattr(zeroorder, "minimize_total_latency", minimize)
        tolls, rep = compute_optimal_tolls(
            oracle, pigou.skeleton(), OptConfig(epsilon=0.02)
        )
        (descent,) = descents
        assert descent.status == "CONVERGED"
        assert rep.status == "BUDGET_EXHAUSTED"
        assert tolls is rep.final_tolls is descent.final_tolls
        assert rep.total_oracle_queries == oracle.query_count == oracle.max_queries
