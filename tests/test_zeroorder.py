"""Zero-order value oracle, projection, gradients, and the minimizer."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    criterion_5_cases,
    criterion_8_cases,
    make_braess,
    make_cyclic,
    make_parallel,
    random_dag_game,
    random_parallel,
)
from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game
from tollopt import FlowVector, enforcement, equilibrium, solve_equilibrium, total_latency
from tollopt import zeroorder
from tollopt.ellipsoid import Ellipsoid
from tollopt.enforcement import EnforcementResult, EnforcementStatus
from tollopt.equilibrium import EqConfig
from tollopt.exact import optimal_flow
from tollopt.game import TollVector
from tollopt.game import has_positive_cycle, is_feasible
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import EquilibriumOracle, OracleMode
from tollopt.paths import dag_shortest_path
from tollopt.zeroorder import (
    OptConfig,
    OracleSampleFailed,
    SampleEngine,
    affine_hull_basis,
    compute_optimal_tolls,
    project_to_polytope,
    reference_flow,
)


#: Degree-3 two-commodity DAG whose iteration-1 Newton decrement at
#: epsilon 0.05 (about 2.9) is far above epsilon / 2.
_UNCERTIFIED_DAG = InstanceSpec(
    topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=1
)


def _not_found(oracle, target, cfg, initial=None):
    """A stand-in for ``enforce_flow`` whose search always fails."""
    return EnforcementResult(
        TollVector.zeros(oracle.skeleton.m), 1.0, 0, EnforcementStatus.NOT_FOUND, 1, None
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
            oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
            engine = SampleEngine(oracle, delta)
            split = rng.dirichlet(np.ones(3))
            s = engine.sample(FlowVector.single(split))
            exact = total_latency(game, s.requested_flow)
            assert abs(s.observed_cost - exact) <= delta

    def test_misses_without_model_start_from_zero_tolls(self):
        # without a Jacobian model every sample starts its enforcement at zero
        # tolls, wherever the previous sample's tolls lie, also right after a
        # sample that started from a model's prediction: the engine keeps no
        # state between samples
        game = make_parallel([(0.2, 1.0), (0.5, 0.6), (0.1, 1.2)])
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        skel = oracle.skeleton
        basis = affine_hull_basis(skel)
        span = zeroorder._hull_span(basis)
        coords = zeroorder._probe_coordinates(span)
        r = zeroorder._probe_step(skel, oracle.eps_query)
        for split in ([0.2, 0.3, 0.5], [0.9, 0.05, 0.05], [0.1, 0.8, 0.1]):
            before = oracle.query_count
            s = engine.sample(FlowVector.single(split))
            assert s.queries_spent > 0
            first_tolls, _ = oracle.query_log[before]
            assert np.array_equal(first_tolls, np.zeros(game.m))
            # a sample from the prediction of a model probed around s
            model = zeroorder.JacobianModel.probe(
                oracle, s, span, basis.sum(axis=1), r, coords
            )
            target = FlowVector.single([0.3, 0.4, 0.3])
            before = oracle.query_count
            engine.sample(target, model)
            first_tolls, _ = oracle.query_log[before]
            start = model.start_tolls(skel, target.aggregate).values
            assert start.any() and np.array_equal(first_tolls, start)

    def test_misses_spend_only_enforcement_queries(self, monkeypatch):
        # the cost comes from the answer enforcement accepted, not from a
        # query of its own
        enforce = zeroorder.enforce_flow
        results = []

        def spy(*args, **kwargs):
            results.append(enforce(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(zeroorder, "enforce_flow", spy)
        game = make_parallel([(0.2, 1.0), (0.5, 0.6), (0.1, 1.2)])
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        samples = []
        for split in ([0.2, 0.3, 0.5], [0.25, 0.3, 0.45], [0.9, 0.05, 0.05]):
            before = oracle.query_count
            samples.append(engine.sample(FlowVector.single(split)))
            assert samples[-1].queries_spent == oracle.query_count - before
        assert len(results) == len(samples) == 3
        for sample, result in zip(samples, results):
            assert sample.queries_spent == result.queries_used

    def test_failed_enforcement_raises_and_caches_nothing(self, pigou, monkeypatch):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        f = FlowVector.single([0.5, 0.5])
        with monkeypatch.context() as patch:
            patch.setattr(zeroorder, "enforce_flow", _not_found)
            with pytest.raises(OracleSampleFailed, match="best deviation 1.000e"):
                engine.sample(f)
        assert engine.sample(f).queries_spent > 0  # nothing failed was kept

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


def _usable(skel, i):
    """Mask of the edges on some source-sink path of commodity i."""
    vi, com = skel.vertex_index, skel.commodities[i]
    edges = list(zip(skel.tails, skel.heads))

    def closure(start, arcs):
        seen, new = set(), {start}
        while new:
            seen |= new
            new = {b for a, b in arcs if a in seen} - seen
        return seen

    fwd = closure(vi[com.source], edges)
    bwd = closure(vi[com.sink], [(h, t) for t, h in edges])
    return np.array([t in fwd and h in bwd for t, h in edges])


def _chain():
    edges = (
        Edge("e0", "s", "a", PolyLatency((0.0, 1.0))),
        Edge("e1", "a", "t", PolyLatency((0.5, 1.0))),
    )
    return validate_game(
        RoutingGame(("s", "a", "t"), edges, (Commodity("s", "t", 1.0),))
    )


class TestHullBasis:
    @pytest.fixture(
        params=[
            lambda: make_parallel([(0.0, 1.0), (1.0,)]),
            make_braess,
            lambda: generate(InstanceSpec(topology="grid", width=3, height=3, seed=5)),
            lambda: random_dag_game(6, 10, 2, np.random.default_rng(20240817)),
            _chain,
        ],
        ids=["pigou", "braess", "grid3x3", "dag2", "chain"],
    )
    def skel(self, request):
        return request.param().skeleton()

    def test_orthonormal(self, skel):
        B = affine_hull_basis(skel)
        flat = B.reshape(B.shape[0], skel.k * skel.m)
        assert np.allclose(flat @ flat.T, np.eye(B.shape[0]), atol=1e-12)

    def test_conserves_flow_at_every_vertex(self, skel):
        for v in affine_hull_basis(skel):
            assert np.allclose(skel.incidence @ v.T, 0.0, atol=1e-12)

    def test_each_direction_lives_on_its_commodity_usable_edges(self, skel):
        B = affine_hull_basis(skel)
        usable = np.array([_usable(skel, i) for i in range(skel.k)])
        counts = [0] * skel.k
        for v in B:
            owners = [i for i in range(skel.k) if np.any(v[i] != 0.0)]
            assert len(owners) == 1
            i = owners[0]
            assert np.all(v[i, ~usable[i]] == 0.0)
            counts[i] += 1
        for i in range(skel.k):
            A = skel.incidence[:, usable[i]]
            assert counts[i] == usable[i].sum() - np.linalg.matrix_rank(A)

    def test_chain_has_no_direction(self):
        assert affine_hull_basis(_chain().skeleton()).shape == (0, 1, 2)


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

    def test_games_built_once_per_skeleton(self, monkeypatch):
        # a demand no other test uses, so no equal skeleton shares the games
        game = generate(
            InstanceSpec(
                topology="random_dag", n_vertices=6, degree=3, commodities=2,
                demand=1.375, seed=2,
            )
        )
        skel = game.skeleton()
        seeds = []
        solve_seed = equilibrium.zero_toll_paths
        monkeypatch.setattr(
            equilibrium, "zero_toll_paths", lambda g: seeds.append(g) or solve_seed(g)
        )
        rng = np.random.default_rng(3)
        for _ in range(4):
            out = project_to_polytope(skel, rng.uniform(-0.5, 1.5, (skel.k, skel.m)))
            assert is_feasible(skel, out)
        assert len(seeds) == skel.k

    def test_games_die_with_their_skeleton(self):
        spec = InstanceSpec(topology="grid", width=2, height=3, demand=1.625, seed=9)
        skel = generate(spec).skeleton()
        project_to_polytope(skel, np.full((1, skel.m), 0.5))
        gc.collect()
        before = len(zeroorder._PROJECTION_GAMES)
        ref = weakref.ref(skel)
        del skel
        gc.collect()
        assert ref() is None
        assert len(zeroorder._PROJECTION_GAMES) == before - 1

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

    def test_full_step_leaves_other_links_usable(self):
        # a first step onto one link must not strand the descent there
        game = make_parallel([(0.0, 1.0)] * 3)
        out = project_to_polytope(game.skeleton(), [[-0.5, 0.2, 1.0]])
        assert np.allclose(out.per_commodity, [[0.0, 0.1, 0.9]], atol=1e-12)

    def test_frank_wolfe_gap_certified(self, rng):
        games = [random_parallel(m, rng) for m in (2, 3, 5, 8)]
        games += [
            generate(InstanceSpec(topology="grid", width=w, height=h, seed=1))
            for w, h in ((2, 2), (3, 3))
        ]
        games += [random_dag_game(n, 2 * n, 2, rng) for n in (5, 6, 7)]
        for game in games:
            skel = game.skeleton()
            for scale in (0.5, 3.0, 30.0):
                x = rng.normal(0.3, scale, size=(skel.k, skel.m))
                out = project_to_polytope(skel, x)
                assert is_feasible(skel, out)
                for i, com in enumerate(skel.commodities):
                    f = out.per_commodity[i]
                    grad = 2.0 * (f - x[i])
                    _, dist = dag_shortest_path(skel, grad, com.source, com.sink)
                    assert float(grad @ f) - com.demand * dist <= 1e-9


_PROBE_GAMES = [
    InstanceSpec(topology="parallel", links=8, seed=5),
    InstanceSpec(topology="grid", width=3, height=3, seed=5),
    InstanceSpec(topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=2),
]


def _curvature(game) -> float:
    """K'': the largest 2 l'(x) + x l''(x) over the edges and the feasible
    range [0, sum_d], reached at x = sum_d for nonnegative coefficients."""
    x = game.skeleton().constants.total_demand
    return max(
        sum(j * (j + 1) * a * x ** (j - 1) for j, a in enumerate(e.latency.coeffs) if j)
        for e in game.edges
    )


def _probe_setup(spec, epsilon):
    """A fresh oracle, its engine, and the enforced reference sample."""
    game = generate(spec)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    skel = oracle.skeleton
    engine = SampleEngine(oracle, OptConfig(epsilon=epsilon).resolved_delta(skel))
    return game, oracle, engine, engine.sample(reference_flow(skel))


class TestProbeGradient:
    @pytest.mark.parametrize("spec", _PROBE_GAMES, ids=lambda s: s.topology)
    def test_within_stated_bound_of_true_hull_gradient(self, spec):
        # ||g_hat - g||_2 <= sqrt(k m) (K'' max_j ||dF_j||^2 / 2
        #                    + 4 m K^2 eps_query) / (r sigma)
        game, oracle, _, at = _probe_setup(spec, 0.05)
        skel = oracle.skeleton
        basis = affine_hull_basis(skel)
        span = zeroorder._hull_span(basis)
        r = zeroorder._probe_step(skel, oracle.eps_query)
        coords = zeroorder._probe_coordinates(span)
        steps, d_flow, d_cost = zeroorder._probe(oracle, at, r, coords)
        g_hat = zeroorder._fit_gradient(d_flow, d_cost, span, basis.sum(axis=1))
        sigma = np.linalg.svd(span.T @ (d_flow / steps), compute_uv=False).min()
        # the true gradient at the answer the probes surround
        F0 = at.response.aggregate_flow
        grad = np.array(
            [e.latency.value(x) + x * e.latency.slope(x) for e, x in zip(game.edges, F0)]
        )
        g_true = basis.sum(axis=1) @ grad
        K = skel.constants.K
        answer = _curvature(game) * np.max(np.sum(d_flow**2, axis=0)) / 2.0
        bound = np.sqrt(skel.k * skel.m) * (
            answer + 4.0 * skel.m * K**2 * oracle.eps_query
        ) / (r * sigma)
        err = np.linalg.norm(g_hat - g_true)
        assert err <= bound

    @pytest.mark.parametrize(
        "spec", [*_PROBE_GAMES, InstanceSpec(topology="braess")], ids=lambda s: s.topology
    )
    def test_probe_coordinates_span_the_hull(self, spec):
        # d coordinates whose rows of span are independent (0.26-0.42 here)
        span = zeroorder._hull_span(affine_hull_basis(generate(spec).skeleton()))
        coords = zeroorder._probe_coordinates(span)
        assert len(set(coords.tolist())) == len(coords) == span.shape[1] > 0
        assert np.linalg.svd(span[coords], compute_uv=False).min() > 0.1

    @pytest.mark.parametrize("spec", _PROBE_GAMES[1:], ids=lambda s: s.topology)
    def test_d_probes_give_the_m_probe_jacobian_model(self, spec):
        # J = dF/dtau is symmetric with range in the hull span, so its d
        # probed columns fix the J+ = pinv(span^T J) span^T of all m columns
        game, oracle, engine, at = _probe_setup(spec, 0.05)
        skel = oracle.skeleton
        basis = affine_hull_basis(skel)
        span = zeroorder._hull_span(basis)
        r = zeroorder._probe_step(skel, oracle.eps_query)
        coords = zeroorder._probe_coordinates(span)
        before = oracle.query_count
        A = basis.sum(axis=1)
        j_plus = zeroorder.JacobianModel.probe(oracle, at, span, A, r, coords).j_plus
        assert oracle.query_count - before == span.shape[1] < skel.m
        steps, d_flow, _ = zeroorder._probe(oracle, at, r, np.arange(skel.m))
        full = np.linalg.pinv(span.T @ (d_flow / steps)) @ span.T
        assert np.abs(j_plus - full).max() <= r * np.abs(full).max()

    def test_grid_probes_d_coordinates_per_iteration(self):
        # the 3x3 grid: m = 12 tolls, d = 4 hull dimensions
        game = generate(InstanceSpec(topology="grid", width=3, height=3, seed=5))
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, oracle.skeleton, OptConfig(epsilon=0.1))
        assert rep.status == "CONVERGED"
        assert [r["gradient_queries"] for r in rep.iteration_trace] == [4] * len(
            rep.iteration_trace
        )

    def test_ill_conditioned_probes_still_converge_cheaply(self):
        # m = 64 parallel links: iteration 2's probed columns of J have
        # sigma 0.0188, and their gradient still serves the descent
        game = generate(InstanceSpec(topology="parallel", links=64, seed=5))
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        cfg = OptConfig(epsilon=0.25, max_iterations=5)
        tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        assert rep.status == "CONVERGED"
        assert rep.total_oracle_queries <= 400
        induced = solve_equilibrium(game, tolls, EqConfig(accuracy=1e-10)).flow
        opt = optimal_flow(game, gap=1e-10)[1]
        assert total_latency(game, induced) <= opt + 2 * cfg.epsilon

    @pytest.mark.parametrize("spec", _PROBE_GAMES, ids=lambda s: s.topology)
    def test_predicted_start_sample_rechecked_by_independent_solve(
        self, spec, monkeypatch
    ):
        game, oracle, engine, at = _probe_setup(spec, 0.05)
        skel = oracle.skeleton
        basis = affine_hull_basis(skel)
        span = zeroorder._hull_span(basis)
        r = zeroorder._probe_step(skel, oracle.eps_query)
        coords = zeroorder._probe_coordinates(span)
        model = zeroorder.JacobianModel.probe(oracle, at, span, basis.sum(axis=1), r, coords)
        calls = []
        enforce = zeroorder.enforce_flow

        def spy(*args, **kwargs):
            calls.append((args[2].max_iterations, kwargs["initial"]))
            return enforce(*args, **kwargs)

        monkeypatch.setattr(zeroorder, "enforce_flow", spy)
        # a step along the first hull direction, projected back
        f = at.requested_flow.per_commodity
        target = project_to_polytope(skel, f + 0.05 * basis[0])
        s = engine.sample(target, model)
        tau0, flow0, j_plus = model.tau0, model.flow0, model.j_plus
        shifted = zeroorder._gauge_shift(
            skel, tau0 + j_plus @ (s.requested_flow.aggregate - flow0)
        )
        predicted = np.clip(shifted, 0.0, skel.constants.T_max)
        assert len(calls) == 1  # one uncapped search from the prediction
        assert calls[0][0] is None
        assert np.array_equal(calls[0][1].values, predicted)
        induced = solve_equilibrium(game, s.enforcing_tolls, EqConfig(accuracy=1e-12))
        dev = np.max(np.abs(induced.flow.aggregate - s.requested_flow.aggregate))
        assert dev <= 2.0 * engine.delta_enforce

    def test_failed_predicted_start_hands_over_its_best_tolls(self, monkeypatch):
        # one search from the prediction; with a restart after m dual steps it
        # goes on from the best of those m tolls, not from the prediction
        monkeypatch.setattr(enforcement, "DUAL_RESTART_PER_EDGE", 1)
        game, oracle, engine, at = _probe_setup(_PROBE_GAMES[0], 0.05)
        skel = oracle.skeleton
        m, t_max = skel.m, skel.constants.T_max
        model = zeroorder.JacobianModel(
            np.full(m, 0.5), at.response.aggregate_flow, np.zeros((m, m)), None, None
        )
        calls, records = [], []
        enforce = zeroorder.enforce_flow

        def spy(oracle_, target, cfg, on_iteration=None, initial=None):
            calls.append((cfg.max_iterations, initial.values.copy()))
            return enforce(oracle_, target, cfg, records.append, initial=initial)

        monkeypatch.setattr(zeroorder, "enforce_flow", spy)
        f = at.requested_flow.per_commodity
        s = engine.sample(
            project_to_polytope(skel, f + 0.05 * affine_hull_basis(skel)[0]), model
        )
        assert len(calls) == 1 and calls[0][0] is None
        assert np.array_equal(calls[0][1], np.clip(np.full(m, 0.5), 0.0, t_max))
        best = int(np.argmin([r.deviation for r in records[:m]]))
        assert best > 0
        resumed = records[m]
        assert resumed.iteration == m + 1
        assert np.array_equal(resumed.center, records[best].center)
        assert resumed.deviation == records[best].deviation
        induced = solve_equilibrium(game, s.enforcing_tolls, EqConfig(accuracy=1e-12))
        dev = np.max(np.abs(induced.flow.aggregate - s.requested_flow.aggregate))
        assert dev <= 2.0 * engine.delta_enforce

    def test_failed_predicted_start_hands_over_its_answer(self, pigou, monkeypatch):
        # two dual steps fail from zero tolls; the search goes on from their
        # best tolls with the stored answer, so no tolls are queried twice
        monkeypatch.setattr(enforcement, "DUAL_RESTART_PER_EDGE", 1)
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engine = SampleEngine(oracle, 0.01)
        model = zeroorder.JacobianModel(
            np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 2)), None, None
        )
        records = []
        enforce = zeroorder.enforce_flow

        def spy(oracle_, target, cfg, on_iteration=None, initial=None):
            return enforce(oracle_, target, cfg, records.append, initial=initial)

        monkeypatch.setattr(zeroorder, "enforce_flow", spy)
        s = engine.sample(FlowVector.single([0.5, 0.5]), model)
        first, second, resumed = records[:3]
        assert second.deviation < first.deviation
        assert resumed.iteration == 3
        assert np.array_equal(resumed.center, second.center)
        assert resumed.deviation == second.deviation
        logged = [tolls.tobytes() for tolls, _ in oracle.query_log]
        assert len(set(logged)) == len(logged) == s.queries_spent
        induced = solve_equilibrium(pigou, s.enforcing_tolls, EqConfig(accuracy=1e-12))
        dev = np.max(np.abs(induced.flow.aggregate - s.requested_flow.aggregate))
        assert dev <= 2.0 * engine.delta_enforce

    def test_probe_steps_back_from_the_toll_cap(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        t_max = oracle.skeleton.constants.T_max
        tau0 = TollVector(np.array([t_max, 0.0]))
        resp = oracle.query(tau0)
        at = zeroorder.CostOracleSample(
            FlowVector.single(resp.aggregate_flow), tau0, resp.total_cost, 1, resp
        )
        r = zeroorder._probe_step(oracle.skeleton, oracle.eps_query)
        steps, _, _ = zeroorder._probe(oracle, at, r, np.array([0, 1]))
        assert list(steps) == [-r, r]
        probed = [tau for tau, _ in oracle.query_log[1:]]
        assert np.array_equal(probed[0], [t_max - r, 0.0])
        assert np.array_equal(probed[1], [t_max, r])

    def test_no_hull_direction_needs_no_gradient_query(self):
        # a single path: nothing to estimate, and nothing is probed
        game = _chain()
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=0.02))
        assert rep.status == "CONVERGED"
        assert [r["gradient_queries"] for r in rep.iteration_trace] == [0]
        assert rep.total_oracle_queries == oracle.query_count

    def test_budget_spent_during_probes_keeps_best_sample(self, monkeypatch):
        game = generate(InstanceSpec(topology="parallel", links=8, seed=5))
        cfg = OptConfig(epsilon=0.25, max_iterations=5)
        probe = zeroorder._probe
        starts = []

        def spy(oracle, *args):
            starts.append(oracle.query_count)
            return probe(oracle, *args)

        monkeypatch.setattr(zeroorder, "_probe", spy)
        free = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        compute_optimal_tolls(free, free.skeleton, cfg)
        budget = starts[0] + 3  # three of the first iteration's 8 probes
        first = SampleEngine(
            EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11),
            cfg.resolved_delta(free.skeleton),
        ).sample(reference_flow(free.skeleton))
        oracle = EquilibriumOracle(
            game, OracleMode.FLOW_AND_COST, eps_query=1e-11, max_queries=budget
        )
        tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        assert rep.status == "BUDGET_EXHAUSTED"
        assert rep.iteration_trace == ()
        assert oracle.query_count == rep.total_oracle_queries == budget
        assert rep.best_cost == first.observed_cost
        assert np.array_equal(tolls.values, first.enforcing_tolls.values)


_GAUGE_GAMES = [
    InstanceSpec(topology="parallel", links=8, seed=5),
    InstanceSpec(topology="grid", width=3, height=3, seed=5),
    InstanceSpec(topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=6),
]


class TestGaugeShift:
    @pytest.mark.parametrize("spec", _GAUGE_GAMES, ids=lambda s: s.topology)
    def test_shift_is_a_nonnegative_potential_difference(self, spec):
        skel = generate(spec).skeleton()
        tau = np.random.default_rng(3).uniform(-1.0, 1.0, skel.m)
        shifted = zeroorder._gauge_shift(skel, tau)
        assert shifted.min() >= 0.0
        # pi(v) = min(0, min over edges into v of pi(tail) + tau), by hand
        pi = np.zeros(len(skel.vertices))
        for v in skel.topological_order:
            for e in range(skel.m):
                if skel.heads[e] == v:
                    pi[v] = min(pi[v], pi[skel.tails[e]] + tau[e])
        tails, heads = list(skel.tails), list(skel.heads)
        assert np.allclose(shifted - tau, pi[tails] - pi[heads], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", _GAUGE_GAMES, ids=lambda s: s.topology)
    def test_nonnegative_tolls_are_unchanged(self, spec):
        skel = generate(spec).skeleton()
        tau = np.random.default_rng(4).uniform(0.0, 1.0, skel.m)
        tau[::3] = 0.0
        assert np.array_equal(zeroorder._gauge_shift(skel, tau), tau)

    @pytest.mark.parametrize("spec", _GAUGE_GAMES, ids=lambda s: s.topology)
    def test_shifted_tolls_induce_the_same_flow(self, spec):
        # tau = base + phi(tail) - phi(head) has negative entries, and its
        # shift is a gauge of the nonnegative base
        game = generate(spec)
        skel = game.skeleton()
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, 1.0, skel.m)
        phi = rng.uniform(-2.0, 2.0, len(skel.vertices))
        tau = base + phi[list(skel.tails)] - phi[list(skel.heads)]
        assert tau.min() < 0.0
        shifted = zeroorder._gauge_shift(skel, tau)
        cfg = EqConfig(accuracy=1e-12)
        at_shift = solve_equilibrium(game, TollVector(shifted), cfg).flow.aggregate
        at_base = solve_equilibrium(game, TollVector(base), cfg).flow.aggregate
        assert np.max(np.abs(at_shift - at_base)) <= 1e-8


@pytest.mark.parametrize("seed, budget", [(6, 200), (12, 320), (7, 200), (13, 340)])
def test_dag_mixed_points_enforce_without_fallback(seed, budget, monkeypatch):
    # every sample after the reference one is a Newton candidate mixed
    # toward the reference flow.  Seeds 6 and 12's iteration-1 mixed
    # candidates used to fall back to the ellipsoid (2,245 and 3,533
    # queries); seeds 7 and 13's succeed only after the dual restart from
    # their best tolls
    updates = []
    update = Ellipsoid.update

    def counted(self, g):
        updates.append(1)
        return update(self, g)

    monkeypatch.setattr(Ellipsoid, "update", counted)
    game = generate(
        InstanceSpec(topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=seed)
    )
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    cfg = OptConfig(epsilon=0.05)
    tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
    assert updates == []
    assert rep.total_oracle_queries <= budget
    logged = [tau.tobytes() for tau, _ in oracle.query_log]
    assert len(set(logged)) == len(logged)
    induced = solve_equilibrium(game, tolls, EqConfig(accuracy=1e-10)).flow
    assert total_latency(game, induced) <= optimal_flow(game, gap=1e-10)[1] + 2 * cfg.epsilon


@pytest.mark.parametrize("seed, max_queries", [(4, 72), (16, 80)])
def test_one_enforcement_per_descent_iteration(monkeypatch, seed, max_queries):
    # the reference sample, then one enforcement per iteration that samples
    # its candidate: the probes surround the last accepted sample, which is
    # already enforced and interior, and a certified iteration (decrement
    # or estimated gap) stops before its candidate
    enforce = zeroorder.enforce_flow
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return enforce(*args, **kwargs)

    monkeypatch.setattr(zeroorder, "enforce_flow", counted)
    game = generate(
        InstanceSpec(topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=seed)
    )
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    _, rep = compute_optimal_tolls(oracle, oracle.skeleton, OptConfig(epsilon=0.05))
    # every iteration but a CONVERGED stop samples its candidate
    sampled = len(rep.iteration_trace) - (rep.status == "CONVERGED")
    assert len(calls) == 1 + sampled
    assert rep.total_oracle_queries <= max_queries


def test_warm_game_caches_replay_the_run_bitwise():
    # a whole run on a game whose caches are warm (its seed paths and
    # admitted starts, and the projection games of its skeleton) gives the
    # same bits as on a fresh game and on a freshly generated equal game
    spec = InstanceSpec(topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=2)

    def run(game):
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, _ = compute_optimal_tolls(oracle, oracle.skeleton, OptConfig(epsilon=0.05))
        log = [(tau, resp.aggregate_flow, resp.total_cost) for tau, resp in oracle.query_log]
        return tolls.values, log

    game = generate(spec)
    cold_tolls, cold_log = run(game)
    assert "zero_toll_paths" in vars(game) and game._zero_toll_starts
    assert game.skeleton() in zeroorder._PROJECTION_GAMES
    for tolls, log in (run(game), run(generate(spec))):
        assert np.array_equal(tolls, cold_tolls)
        assert len(log) == len(cold_log)
        for (tau, flow, cost), (tau0, flow0, cost0) in zip(log, cold_log):
            assert np.array_equal(tau, tau0) and np.array_equal(flow, flow0)
            assert cost == cost0


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
        _, rep = compute_optimal_tolls(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        assert rep.best_cost <= 0.77
        assert rep.total_oracle_queries == oracle.query_count

    def test_fig1_l2_flow_near_optimum(self, fig1_l2):
        oracle = EquilibriumOracle(fig1_l2, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, fig1_l2.skeleton(), OptConfig(epsilon=0.02))
        assert np.max(np.abs(rep.best_flow.aggregate - [0.5, 0.5])) <= 0.05

    def test_braess(self, braess):
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, braess.skeleton(), OptConfig(epsilon=0.02))
        assert rep.best_cost <= 1.5 + 0.02

    def test_best_cost_monotone_in_trace(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        bests = [r["best_cost"] for r in rep.iteration_trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_best_flow_feasible_and_acyclic(self, rng):
        game = random_parallel(3, rng)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=0.05))
        assert is_feasible(game, rep.best_flow)
        assert not has_positive_cycle(game, rep.best_flow)

    def test_query_budget_flags_report(self, pigou):
        oracle = EquilibriumOracle(
            pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11, max_queries=4
        )
        _, rep = compute_optimal_tolls(oracle, pigou.skeleton(), OptConfig(epsilon=0.02))
        assert rep.status == "BUDGET_EXHAUSTED"
        assert rep.best_cost < float("inf")
        assert rep.total_oracle_queries <= 4

    def test_iteration_cap_is_not_a_spent_budget(self):
        # no query budget is set, so the cap, not a budget, ends the run;
        # iteration 1's Newton decrement (about 2.9) certifies nothing
        game = generate(_UNCERTIFIED_DAG)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(
            oracle, game.skeleton(), OptConfig(epsilon=0.05, max_iterations=1)
        )
        assert [r["iteration"] for r in rep.iteration_trace] == [1]
        assert rep.status == "ITERATION_LIMIT"

    def test_stall_stops_descent(self, fig1_l1, monkeypatch):
        # uphill gradients and no gap certificate (iteration 1's Newton
        # decrement is the true gap 0.25): iteration 1's Newton candidate is
        # not accepted, and a repeat would replay it bitwise
        fit_gradient = zeroorder._fit_gradient
        monkeypatch.setattr(
            zeroorder,
            "_fit_gradient",
            lambda d_flow, d_cost, span, A: -fit_gradient(d_flow, d_cost, span, A),
        )
        monkeypatch.setattr(
            zeroorder, "_estimated_fw_gap", lambda *args: float("inf")
        )
        oracle = EquilibriumOracle(fig1_l1, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, fig1_l1.skeleton(), OptConfig(epsilon=0.1))
        assert rep.status == "STALLED"
        assert rep.gap_bound is None
        assert [r["iteration"] for r in rep.iteration_trace] == [1]
        assert [r["accepted"] for r in rep.iteration_trace] == [False]
        # one probe (d = 1)
        assert [r["gradient_queries"] for r in rep.iteration_trace] == [1]
        assert rep.total_oracle_queries == 6

    def test_failed_candidate_ends_run_with_best_sample(self, monkeypatch):
        # every enforcement after the reference sample fails; iteration 1
        # probes around the reference sample, its Newton decrement (about
        # 2.9) certifies nothing, so the candidate is sampled and fails
        game = generate(_UNCERTIFIED_DAG)
        enforce = zeroorder.enforce_flow
        calls = []

        def fail_after_first(*args, **kwargs):
            calls.append(args[2].max_iterations)
            if len(calls) == 1:
                return enforce(*args, **kwargs)
            return _not_found(*args, **kwargs)

        cfg = OptConfig(epsilon=0.05)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with monkeypatch.context() as patch:
            patch.setattr(zeroorder, "enforce_flow", fail_after_first)
            tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        # one uncapped search from the prediction
        assert calls[1:] == [None]
        assert rep.status == "STALLED"
        assert [r["accepted"] for r in rep.iteration_trace] == [False]
        # d = 3 probes
        assert [r["gradient_queries"] for r in rep.iteration_trace] == [3]
        first = SampleEngine(
            EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11),
            cfg.resolved_delta(oracle.skeleton),
        ).sample(reference_flow(oracle.skeleton))
        assert rep.best_cost == first.observed_cost
        assert np.array_equal(tolls.values, first.enforcing_tolls.values)
        assert np.array_equal(rep.final_tolls.values, tolls.values)

    @pytest.mark.parametrize(
        "spec, epsilon, max_queries, status",
        [
            (InstanceSpec(topology="pigou"), 0.02, None, "CONVERGED"),
            (InstanceSpec(topology="braess"), 0.02, None, "CONVERGED"),
            (
                InstanceSpec(topology="grid", width=3, height=3, seed=5),
                0.1,
                None,
                "CONVERGED",
            ),
            (
                InstanceSpec(topology="random_dag", degree=3, commodities=2, seed=5),
                0.05,
                150,
                "STALLED",
            ),
        ],
        ids=["pigou", "braess", "grid", "dag-s5"],
    )
    def test_accepted_candidates_drop_cost_by_half_delta(
        self, spec, epsilon, max_queries, status
    ):
        # the descent walks downhill only: an accepted candidate lowers the
        # current cost by more than delta / 2, any other leaves it alone.
        # DAG seed 5's last candidate is not accepted while both of its
        # certificates still read above epsilon / 2
        game = generate(spec)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        cfg = OptConfig(epsilon=epsilon)
        delta = cfg.resolved_delta(oracle.skeleton)
        tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        first = SampleEngine(
            EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11), delta
        ).sample(reference_flow(oracle.skeleton))
        costs = [first.observed_cost] + [r["cost"] for r in rep.iteration_trace]
        for before, entry in zip(costs, rep.iteration_trace):
            if entry["accepted"]:
                assert entry["cost"] < before - 0.5 * delta
            else:
                assert entry["cost"] == before
        assert rep.status == status
        if max_queries is not None:
            assert rep.total_oracle_queries <= max_queries
        induced = solve_equilibrium(game, tolls, EqConfig(accuracy=1e-10)).flow
        opt = optimal_flow(game, gap=1e-10)[1]
        assert total_latency(game, induced) <= opt + 2 * cfg.epsilon

    @pytest.mark.parametrize(
        "spec",
        [
            # delta / (4 m K^2) = 4.1e-13: 2 delta - eps_query < 1e-12
            InstanceSpec(topology="random_dag", degree=3, demand=30.0, n_vertices=5),
            # K = 2e300 or so is finite, K^2 is not
            InstanceSpec(topology="parallel", links=4, demand=1e300),
        ],
    )
    def test_epsilon_finer_than_oracle_rejected_before_any_query(self, spec):
        game = generate(spec)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with pytest.raises(ValueError, match="epsilon 0.02 .* oracle accuracy 1e-11"):
            compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=0.02))
        assert oracle.query_count == 0

    def test_cyclic_graph_rejected_before_any_query(self):
        # the projection's DAG shortest paths could never run on it
        game = make_cyclic()
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with pytest.raises(ValueError, match="acyclic"):
            compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=0.02))
        assert oracle.query_count == 0

    def test_mismatched_skeleton_rejected(self, pigou, braess):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with pytest.raises(ValueError):
            compute_optimal_tolls(oracle, braess.skeleton(), OptConfig(epsilon=0.02))


_CERTIFIED_CASES = criterion_5_cases() + criterion_8_cases()


class TestNewtonDecrement:
    @pytest.mark.parametrize(
        "game, epsilon",
        [case[1:] for case in _CERTIFIED_CASES],
        ids=[case[0] for case in _CERTIFIED_CASES],
    )
    def test_decrement_bounds_the_probed_samples_gap(self, game, epsilon, monkeypatch):
        # every iteration's decrement is at least the cost of the sample its
        # probes surround minus OPT.  A candidate that is not accepted ends
        # the run, so the sample probed last is the best one, and a
        # decrement stop bounds the gap of the sample whose tolls return
        probe = zeroorder.JacobianModel.probe
        costs = []

        def spy(oracle, sample, *args):
            costs.append(sample.observed_cost)
            return probe(oracle, sample, *args)

        monkeypatch.setattr(zeroorder.JacobianModel, "probe", spy)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=epsilon))
        opt = optimal_flow(game, gap=1e-10)[1]
        betas = [r["decrement"] for r in rep.iteration_trace]
        assert len(betas) == len(costs) > 0
        for beta, cost in zip(betas, costs):
            assert beta >= cost - opt
        if rep.gap_bound is not None:
            assert costs[-1] == rep.best_cost
            assert rep.gap_bound >= rep.best_cost - opt

    def test_parallel_links_stop_on_the_decrement(self):
        # 8 affine links: iteration 1's probes certify the gap, so neither a
        # candidate nor a second probe round is paid for
        game = generate(InstanceSpec(topology="parallel", links=8, seed=5))
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        cfg = OptConfig(epsilon=0.25, max_iterations=5)
        tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        assert rep.total_oracle_queries <= 21
        assert rep.status == "CONVERGED"
        assert rep.gap_bound == rep.iteration_trace[-1]["decrement"] <= cfg.epsilon / 2
        assert not rep.iteration_trace[-1]["accepted"]
        induced = solve_equilibrium(game, tolls, EqConfig(accuracy=1e-10)).flow
        opt = optimal_flow(game, gap=1e-10)[1]
        assert total_latency(game, induced) <= opt + 2 * cfg.epsilon


class TestOptConfig:
    def test_defaults(self, pigou):
        delta = OptConfig(epsilon=0.02).resolved_delta(pigou.skeleton())
        N = pigou.skeleton().constants.N
        assert delta == pytest.approx(0.02 / (8 * N * N))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": float("inf")},
            {"epsilon": float("nan")},
            {"epsilon": 0.02, "max_iterations": 0},
            {"epsilon": 0.02, "max_iterations": -3},
        ],
    )
    def test_unusable_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptConfig(**kwargs)


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

    def test_returns_best_sample_tolls_without_extra_query(self, braess):
        cfg = OptConfig(epsilon=0.02)
        probe = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, descent = compute_optimal_tolls(probe, braess.skeleton(), cfg)
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, rep = compute_optimal_tolls(oracle, braess.skeleton(), cfg)
        assert tolls is rep.final_tolls
        assert rep.total_oracle_queries == oracle.query_count
        assert oracle.query_count == descent.total_oracle_queries
        # the best cost is the total latency of the equilibrium these
        # very tolls induce
        assert oracle.query(tolls).total_cost == rep.best_cost

    def test_budget_equal_to_descent_spend_keeps_best_sample(
        self, pigou, fig1_l1, fig1_l2, braess
    ):
        # a budget of exactly what the descent spends is enough: returning
        # the best sample's tolls takes no further query, and a budget
        # reached but never refused is not a spent one.  Pigou and fig1_l2
        # end after iteration 1 at 5 queries, on a Newton decrement that
        # needs no candidate; iteration 1 probes around the reference
        # sample.  Fig1_l1 and braess end on the decrement at iteration 2
        cfg = OptConfig(epsilon=0.02)
        for game in (pigou, fig1_l1, fig1_l2, braess):
            probe = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
            _, descent = compute_optimal_tolls(probe, game.skeleton(), cfg)
            assert descent.status == "CONVERGED"
            oracle = EquilibriumOracle(
                game, OracleMode.FLOW_AND_COST, eps_query=1e-11,
                max_queries=descent.total_oracle_queries,
            )
            tolls, rep = compute_optimal_tolls(oracle, game.skeleton(), cfg)
            assert rep.status == "CONVERGED"
            assert np.array_equal(tolls.values, descent.final_tolls.values)
            assert rep.total_oracle_queries == oracle.query_count == oracle.max_queries


_NO_SCIPY = """
import sys
from tollopt import (
    EquilibriumOracle, InstanceSpec, OptConfig, OracleMode,
    compute_optimal_tolls, generate,
)
game = generate(InstanceSpec(topology="pigou"))
oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=0.02))
assert "scipy" not in sys.modules
"""


def test_optimize_runs_on_numpy_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
