"""Toll enforcement: cut correctness, ellipsoid search, certificates."""

import inspect
import math

import numpy as np
import pytest

from conftest import random_dag_game, random_parallel
from tollopt import FlowVector, TollVector, solve_equilibrium
from tollopt import enforcement
from tollopt.ellipsoid import Ellipsoid
from tollopt.enforcement import (
    DegenerateCut,
    EnforcementConfig,
    EnforcementStatus,
    TargetCyclic,
    TargetInfeasible,
    ellipsoid_search,
    enforce_flow,
    required_accuracy,
    separation_cut,
)
from tollopt.equilibrium import NoConvergence
from tollopt.exact import marginal_cost_tolls, optimal_flow
from tollopt.game import RoutingGame, has_positive_cycle
from tollopt.instances import TOPOLOGIES, InstanceSpec, generate
from tollopt.oracle import ACCURACY_FLOOR, EquilibriumOracle, OracleMode


class TestSeparationCut:
    def test_simple_subtraction(self):
        g = separation_cut(
            TollVector.zeros(2), np.array([1.0, 0.0]), np.array([0.5, 0.5])
        )
        assert np.allclose(g, [0.5, -0.5])

    def test_degenerate(self):
        with pytest.raises(DegenerateCut):
            separation_cut(
                TollVector.zeros(2), np.array([0.5, 0.5]), np.array([0.5, 0.5])
            )

    def test_pigou_certificate_kept(self):
        # marginal-cost tolls (1/2, 0) enforce (1/2, 1/2) on pigou; the cut
        # taken at tau = 0 (observed flow (1,0)) must keep them
        g = separation_cut(
            TollVector.zeros(2), np.array([1.0, 0.0]), np.array([0.5, 0.5])
        )
        tau_star = np.array([0.5, 0.0])
        tau_queried = np.zeros(2)
        assert np.dot(g, tau_star) >= np.dot(g, tau_queried)


class TestEnforceFlow:
    def test_pigou_half_half(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = enforce_flow(
            oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-3)
        )
        assert res.status is EnforcementStatus.SUCCESS
        assert res.achieved_deviation <= 2e-3
        # interior equilibrium pins the toll difference near 1/2
        diff = res.tolls.values[0] - res.tolls.values[1]
        assert diff == pytest.approx(0.5, abs=0.02)
        induced = oracle.query(res.tolls).aggregate_flow
        assert np.max(np.abs(induced - [0.5, 0.5])) <= 2e-3

    def test_fig1_l2_half_half(self, fig1_l2):
        oracle = EquilibriumOracle(fig1_l2, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = enforce_flow(
            oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-3)
        )
        assert res.status is EnforcementStatus.SUCCESS
        diff = res.tolls.values[1] - res.tolls.values[0]
        assert diff == pytest.approx(0.5, abs=0.02)

    def test_equilibrium_target_trivially_enforceable(self, braess):
        oracle = EquilibriumOracle(braess, OracleMode.FLOW_ONLY, eps_query=1e-9)
        target = solve_equilibrium(braess).flow
        res = enforce_flow(oracle, target, EnforcementConfig(delta=1e-3))
        assert res.status is EnforcementStatus.SUCCESS
        assert res.achieved_deviation <= 2e-3

    def test_query_accounting(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        oracle.query(TollVector.zeros(2))  # unrelated traffic
        before = oracle.query_count
        res = enforce_flow(
            oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-3)
        )
        assert res.queries_used == oracle.query_count - before

    def test_budget_cap_gives_not_found(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = ellipsoid_search(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=3),
        )
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.queries_used <= 3
        assert math.isfinite(res.achieved_deviation)

    def test_volume_floor_gives_not_found(self, pigou):
        # a start ball of radius 1e-6 is below the floor radius
        # delta / (4 m K) = 6.25e-5 after the first cut
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = ellipsoid_search(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3),
            initial=Ellipsoid.ball([1.0, 1.0], 1e-6),
        )
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.queries_used == 1
        assert res.iterations == 1
        assert res.achieved_deviation == pytest.approx(0.5)

    def test_required_accuracy_raised_to_floor(self, pigou):
        # delta^2 / (K m k sum_d) = 2.5e-13 is below ACCURACY_FLOOR, so an
        # oracle at the floor is accepted
        assert required_accuracy(pigou, 1e-3) == pytest.approx(2.5e-7)
        assert required_accuracy(pigou.skeleton(), 1e-6) == ACCURACY_FLOOR
        oracle = EquilibriumOracle(
            pigou, OracleMode.FLOW_ONLY, eps_query=ACCURACY_FLOOR
        )
        res = enforce_flow(
            oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-6)
        )
        assert res.status is EnforcementStatus.SUCCESS
        assert res.achieved_deviation <= 2e-6

    def test_start_outside_box_never_queries(self, pigou):
        # the start center lies below the box, so the one allowed
        # iteration spends a box cut and no query
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = ellipsoid_search(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=1),
            initial=Ellipsoid.ball([-1.0, -1.0], 0.5),
        )
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.queries_used == 0
        assert oracle.query_count == 0
        assert res.achieved_deviation == float("inf")
        assert np.array_equal(res.tolls.values, [0.0, 0.0])

    def test_infeasible_target_rejected(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY)
        with pytest.raises(TargetInfeasible):
            enforce_flow(
                oracle, FlowVector.single([0.2, 0.2]), EnforcementConfig(delta=1e-3)
            )

    def test_cyclic_target_rejected(self):
        from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game

        edges = (
            Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
            Edge("e1", "t", "u", PolyLatency((0.0, 1.0))),
            Edge("e2", "u", "t", PolyLatency((0.0, 1.0))),
        )
        game = validate_game(
            RoutingGame(("s", "t", "u"), edges, (Commodity("s", "t", 1.0),))
        )
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY)
        with pytest.raises(TargetCyclic):
            enforce_flow(
                oracle,
                FlowVector.single([1.0, 0.4, 0.4]),
                EnforcementConfig(delta=1e-3),
            )

    def test_coarse_oracle_rejected(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-3)
        with pytest.raises(ValueError, match="coarser"):
            enforce_flow(
                oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-3)
            )


class TestDualAscent:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_success_on_every_topology(self, topology):
        game = generate(InstanceSpec(topology=topology, degree=3, seed=4))
        target, _ = optimal_flow(game)
        assert not has_positive_cycle(game, target)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-10)
        res = enforce_flow(oracle, target, EnforcementConfig(delta=1e-3))
        assert res.status is EnforcementStatus.SUCCESS
        assert res.achieved_deviation <= 2e-3
        induced = solve_equilibrium(game, res.tolls).flow.aggregate
        assert np.max(np.abs(induced - target.aggregate)) <= 2e-3

    @pytest.mark.parametrize(
        "per_edge, start",
        [
            pytest.param(0, None, id="0"),
            pytest.param(1, None, id="1"),
            # from (3, 0) every flow takes link 2, so both dual steps fail
            pytest.param(1, TollVector([3.0, 0.0]), id="1-start"),
        ],
    )
    def test_fallback_to_ellipsoid(self, pigou, monkeypatch, per_edge, start):
        monkeypatch.setattr(enforcement, "DUAL_QUERIES_PER_EDGE", per_edge)
        searches = []
        starts = []

        def spy(*args, **kwargs):
            starts.append(kwargs.get("initial", args[4] if len(args) > 4 else None))
            searches.append(ellipsoid_search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(enforcement, "ellipsoid_search", spy)
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        records = []
        res = enforce_flow(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3),
            on_iteration=records.append,
            initial=start,
        )
        dual_steps = per_edge * pigou.m
        assert res.status is EnforcementStatus.SUCCESS
        assert res.achieved_deviation <= 2e-3
        assert len(searches) == 1
        assert starts == [None]  # the fallback starts from the full box
        assert res.queries_used == dual_steps + searches[0].queries_used
        assert res.iterations == dual_steps + searches[0].iterations
        assert [r.cut_type for r in records[:dual_steps]] == ["dual"] * dual_steps
        assert all(r.ellipsoid is None and r.log_volume is None for r in records[:dual_steps])
        assert all(r.ellipsoid is not None for r in records[dual_steps:])
        assert [r.iteration for r in records] == list(range(1, len(records) + 1))

    def test_max_iterations_caps_both_phases(self, pigou, monkeypatch):
        monkeypatch.setattr(enforcement, "DUAL_QUERIES_PER_EDGE", 1)
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = enforce_flow(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=pigou.m + 2),
        )
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.iterations == pigou.m + 2
        assert res.queries_used <= pigou.m + 2

    def test_max_iterations_below_dual_budget_skips_ellipsoid(self, pigou, monkeypatch):
        searches = []
        monkeypatch.setattr(enforcement, "ellipsoid_search", searches.append)
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        res = enforce_flow(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=2),
        )
        assert searches == []
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.iterations == res.queries_used == 2
        assert math.isfinite(res.achieved_deviation)

    def test_starts_from_initial_center(self, pigou):
        # tolls with tau_1 = tau_2 + 1/2 enforce (1/2, 1/2) exactly, so the
        # first query succeeds; a start above T_max is clipped into the box
        t_max = pigou.skeleton().constants.T_max
        for start, clipped in (
            ([0.5, 0.0], [0.5, 0.0]),
            ([t_max + 1.0, t_max - 0.5], [t_max, t_max - 0.5]),
        ):
            oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
            res = enforce_flow(
                oracle,
                FlowVector.single([0.5, 0.5]),
                EnforcementConfig(delta=1e-3),
                initial=TollVector(start),
            )
            assert res.status is EnforcementStatus.SUCCESS
            assert res.queries_used == res.iterations == 1
            assert np.array_equal(res.tolls.values, clipped)

    def test_start_is_fifth_parameter_initial(self):
        # the benchmark's tracer counts warm calls by this name and position
        params = list(inspect.signature(enforce_flow).parameters)
        assert params[4] == "initial"


class TestCutValidity:
    def test_witness_tolls_stay_inside(self, rng):
        # targets drawn as equilibria of known random tolls: the witness
        # enforces the target exactly, so no cut may ever separate it
        for _ in range(6):
            m = int(rng.integers(2, 7))
            game = random_parallel(m, rng)
            witness = rng.uniform(0.0, 1.0, m)
            target = solve_equilibrium(game, TollVector(witness)).flow
            oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
            violations = []

            def check(rec):
                if not rec.ellipsoid.contains(witness, tol=1e-7):
                    violations.append(rec.iteration)

            res = ellipsoid_search(
                oracle, target, EnforcementConfig(delta=1e-3), on_iteration=check
            )
            assert res.status is EnforcementStatus.SUCCESS
            assert violations == []

    def test_marginal_cost_certificate_stays_inside(self, rng):
        # optimal-flow targets: the marginal-cost tolls enforce them
        for _ in range(4):
            game = random_dag_game(5, 8, 1, rng)
            f_opt, _ = optimal_flow(game)
            tau_mc = marginal_cost_tolls(game, f_opt).values
            oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
            violations = []

            def check(rec):
                if not rec.ellipsoid.contains(tau_mc, tol=1e-7):
                    violations.append(rec.iteration)

            res = ellipsoid_search(
                oracle, f_opt, EnforcementConfig(delta=1e-3), on_iteration=check
            )
            assert res.status is EnforcementStatus.SUCCESS
            assert violations == []

    def test_marginal_tolls_do_enforce_optimum(self, braess):
        f_opt, _ = optimal_flow(braess)
        tau_mc = marginal_cost_tolls(braess, f_opt)
        induced = solve_equilibrium(braess, tau_mc).flow
        assert np.max(np.abs(induced.aggregate - f_opt.aggregate)) < 1e-8


class TestVolumeDecay:
    def test_per_cut_ratio_bound(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        volumes = []
        ellipsoid_search(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3),
            on_iteration=lambda rec: volumes.append(rec.log_volume),
        )
        bound = -1.0 / (2.0 * (pigou.m + 1)) + 1e-6
        for prev, cur in zip(volumes, volumes[1:]):
            assert cur - prev <= bound

    def test_cumulative_decay(self, rng):
        game = random_parallel(4, rng)
        target = solve_equilibrium(game, TollVector(rng.uniform(0, 1, 4))).flow
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
        volumes = []
        ellipsoid_search(
            oracle,
            target,
            EnforcementConfig(delta=1e-3),
            on_iteration=lambda rec: volumes.append(rec.log_volume),
        )
        t = len(volumes)
        assert volumes[-1] <= volumes[0] - (t - 1) / (2.0 * (game.m + 1)) + t * 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=NoConvergence,
    reason="known solver defect: at tolls near T_max/2 the duality gap stalls "
    "at 1.7e-10 to 2.4e-10, above its 1.65e-10 target, on some edge orders",
)
def test_random_dag_seed6_enforcement_reaches_solver_gap():
    # the outcome depends on edge order, and which orders fail moves with
    # any change to the solver's arithmetic: run the game's own order and
    # seven seeded relabelings of it, and ask all of them to succeed
    game = generate(
        InstanceSpec(
            topology="random_dag", n_vertices=7, degree=3, commodities=2, seed=6
        )
    )
    tau = np.random.default_rng(1003).uniform(0.0, 1.0, game.m)
    orders = [np.arange(game.m)] + [
        np.random.default_rng(s).permutation(game.m) for s in range(1, 8)
    ]
    for order in orders:
        relabeled = RoutingGame(
            game.vertices, tuple(game.edges[j] for j in order), game.commodities
        )
        target = solve_equilibrium(relabeled, TollVector(tau[order])).flow
        oracle = EquilibriumOracle(relabeled, OracleMode.FLOW_AND_COST, 1e-10)
        res = ellipsoid_search(oracle, target, EnforcementConfig(delta=1e-3))
        assert res.status is EnforcementStatus.SUCCESS
