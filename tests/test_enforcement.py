"""Toll enforcement: cut correctness, ellipsoid search, certificates."""

import inspect
import math

import numpy as np
import pytest

from conftest import random_dag_game, random_parallel
from tollopt import FlowVector, TollVector, solve_equilibrium
from tollopt import enforcement
from tollopt.ellipsoid import Ellipsoid, NumericBreakdown
from tollopt.enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    TargetCyclic,
    TargetInfeasible,
    ellipsoid_search,
    enforce_flow,
    required_accuracy,
)
from tollopt.equilibrium import EqConfig, NoConvergence
from tollopt.exact import marginal_cost_tolls, optimal_flow
from tollopt.game import RoutingGame, has_positive_cycle
from tollopt.instances import TOPOLOGIES, InstanceSpec, generate
from tollopt.oracle import ACCURACY_FLOOR, EquilibriumOracle, OracleMode
from tollopt.zeroorder import OptConfig, SampleEngine, reference_flow


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_unusable_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        EnforcementConfig(delta=delta)


@pytest.mark.parametrize("cap", [0, -3, 2.5, 1.5, True, False, "5", np.float64(3.0)])
def test_iteration_caps_refuse_all_but_ints_from_1(cap):
    # both caps are refused when the config is built, before any query
    with pytest.raises(ValueError, match="max_iterations"):
        EnforcementConfig(delta=1e-3, max_iterations=cap)
    with pytest.raises(ValueError, match="max_iterations"):
        OptConfig(epsilon=0.02, max_iterations=cap)


def test_iteration_caps_accept_ints_from_1():
    for cap in (1, 7, np.int64(3)):
        assert EnforcementConfig(delta=1e-3, max_iterations=cap).max_iterations == cap
        assert OptConfig(epsilon=0.02, max_iterations=cap).max_iterations == cap
    assert EnforcementConfig(delta=1e-3).max_iterations is None
    with pytest.raises(ValueError, match="max_iterations"):
        OptConfig(epsilon=0.02, max_iterations=None)


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

    @pytest.mark.parametrize("search", [enforce_flow, ellipsoid_search])
    def test_delta_below_cut_floor_rejected(self, pigou, search):
        # 2 delta - eps_query = 2e-12 - 1e-11 < 0: no answer could succeed
        oracle = EquilibriumOracle(
            pigou, OracleMode.FLOW_ONLY, eps_query=ACCURACY_FLOOR
        )
        with pytest.raises(ValueError, match="eps_query"):
            search(
                oracle, FlowVector.single([0.5, 0.5]), EnforcementConfig(delta=1e-12)
            )
        assert oracle.query_count == 0

    @pytest.mark.parametrize("search", [enforce_flow, ellipsoid_search])
    def test_overflowing_search_constants_rejected(self, search):
        # coefficients up to 1e160: the solver's gap target is finite, but
        # T_max m K / delta and (T_max sqrt(m) / 2)^2 are not
        game = generate(InstanceSpec(topology="parallel", links=4, coeff_bound=1e160))
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        with pytest.raises(ValueError, match="search's constants overflow a double"):
            search(oracle, FlowVector.single([0.25] * 4), EnforcementConfig(delta=1e-3))
        assert oracle.query_count == 0


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
        "per_edge, start, cap, status",
        [
            pytest.param(0, None, None, EnforcementStatus.SUCCESS, id="0"),
            pytest.param(1, None, None, EnforcementStatus.SUCCESS, id="1"),
            # from (3, 0) every flow takes link 2, so both dual steps fail
            pytest.param(
                1, TollVector([3.0, 0.0]), None, EnforcementStatus.SUCCESS, id="1-start"
            ),
            # the cap leaves the fallback two iterations, too few to succeed
            pytest.param(1, None, 4, EnforcementStatus.NOT_FOUND, id="1-capped"),
            # (1/2, 0) enforces (1/2, 1/2) exactly: the first dual step
            # succeeds and nothing falls back
            pytest.param(
                1, TollVector([0.5, 0.0]), None, EnforcementStatus.SUCCESS, id="1-dual"
            ),
        ],
    )
    def test_fallback_to_ellipsoid(self, pigou, monkeypatch, per_edge, start, cap, status):
        monkeypatch.setattr(enforcement, "DUAL_QUERIES_PER_EDGE", per_edge)
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST, eps_query=1e-9)
        records = []
        res = enforce_flow(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=cap),
            on_iteration=records.append,
            initial=start,
        )
        assert res.status is status
        success = status is EnforcementStatus.SUCCESS
        if success:
            # the accepted answer is the oracle's answer at the returned tolls
            assert res.achieved_deviation <= 2e-3
            fresh = oracle.query(res.tolls)
            assert np.array_equal(res.response.aggregate_flow, fresh.aggregate_flow)
            assert res.response.total_cost == fresh.total_cost
        else:
            assert res.response is None
        # every iteration but a successful last one leaves one record, and
        # every record but a box cut's spent one query
        assert [r.iteration for r in records] == list(range(1, len(records) + 1))
        assert res.iterations == len(records) + success
        assert res.queries_used == sum(r.deviation is not None for r in records) + success
        if not records:
            assert res.queries_used == res.iterations == 1
            return
        dual, cuts = records[: per_edge * pigou.m], records[per_edge * pigou.m :]
        assert all(r.cut_type == "dual" for r in dual)
        assert all(r.ellipsoid is None and r.log_volume is None for r in dual)
        assert all(r.cut_type != "dual" and r.ellipsoid is not None for r in cuts)
        # the cuts start from the ball around the toll box, whatever the start
        t_max = pigou.skeleton().constants.T_max
        assert cuts[0].cut_type == "separation"
        assert np.array_equal(cuts[0].center, np.full(pigou.m, t_max / 2))

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

    def test_max_iterations_below_dual_budget_skips_ellipsoid(self, pigou):
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        records = []
        res = enforce_flow(
            oracle,
            FlowVector.single([0.5, 0.5]),
            EnforcementConfig(delta=1e-3, max_iterations=2),
            on_iteration=records.append,
        )
        assert [r.cut_type for r in records] == ["dual", "dual"]
        assert all(r.ellipsoid is None for r in records)
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.iterations == res.queries_used == 2
        assert math.isfinite(res.achieved_deviation)

    @pytest.mark.parametrize("cap", [None, 5])
    @pytest.mark.parametrize("instance", ["pigou", "dag"])
    def test_no_dual_steps_is_ellipsoid_search(self, pigou, monkeypatch, instance, cap):
        # with no dual budget enforce_flow is the ellipsoid search, bit for bit
        monkeypatch.setattr(enforcement, "DUAL_QUERIES_PER_EDGE", 0)
        game, target = pigou, FlowVector.single([0.5, 0.5])
        if instance == "dag":
            game = generate(
                InstanceSpec(
                    topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=2
                )
            )
            tau = np.random.default_rng(7).uniform(0.0, 1.0, game.m)
            target = solve_equilibrium(game, TollVector(tau)).flow
        cfg = EnforcementConfig(delta=1e-3, max_iterations=cap)
        runs = []
        for search in (enforce_flow, ellipsoid_search):
            oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-10)
            records = []
            runs.append((search(oracle, target, cfg, records.append), records))
        (res, recs), (ref, ref_recs) = runs
        assert res.tolls.values.tobytes() == ref.tolls.values.tobytes()
        assert (res.achieved_deviation, res.queries_used, res.status, res.iterations) == (
            ref.achieved_deviation, ref.queries_used, ref.status, ref.iterations
        )
        if ref.response is None:
            assert res.response is None
        else:
            assert res.response.aggregate_flow.tobytes() == ref.response.aggregate_flow.tobytes()
        assert len(recs) == len(ref_recs) > 0
        for rec, want in zip(recs, ref_recs):
            assert (rec.iteration, rec.cut_type, rec.deviation, rec.log_volume) == (
                want.iteration, want.cut_type, want.deviation, want.log_volume
            )
            assert rec.center.tobytes() == want.center.tobytes()
            assert rec.ellipsoid.center.tobytes() == want.ellipsoid.center.tobytes()
            assert rec.ellipsoid.shape.tobytes() == want.ellipsoid.shape.tobytes()

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


def _cubic_links_target():
    """Degree-3 parallel links and the equilibrium at tolls drawn from [0, 1];
    a cold dual ascent takes nine queries there and fills its memory."""
    game = generate(InstanceSpec(topology="parallel", links=8, degree=3, seed=2))
    tau = np.random.default_rng(7).uniform(0.0, 1.0, game.m)
    return game, solve_equilibrium(game, TollVector(tau)).flow


class TestLbfgsStep:
    def _spy(self, monkeypatch, oracle):
        """Record (queries so far, the secant pairs) at each L-BFGS step."""
        direction = enforcement._lbfgs_direction
        steps = []

        def spy(pairs, g):
            kept = [(s.copy(), y.copy()) for s, y, _ in pairs]
            steps.append((oracle.query_count, kept))
            return direction(pairs, g)

        monkeypatch.setattr(enforcement, "_lbfgs_direction", spy)
        return steps

    def test_memory_keeps_the_newest_pairs(self, monkeypatch):
        game, target = _cubic_links_target()
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-10)
        steps = self._spy(monkeypatch, oracle)
        res = enforce_flow(oracle, target, EnforcementConfig(delta=1e-3))
        assert res.status is EnforcementStatus.SUCCESS
        sizes = [len(pairs) for _, pairs in steps]
        assert max(sizes) == enforcement.LBFGS_MEMORY
        assert sizes.count(enforcement.LBFGS_MEMORY) >= 2
        # a full memory drops its oldest pair for the newest
        for (_, before), (_, after) in zip(steps, steps[1:]):
            if len(before) == len(after) == enforcement.LBFGS_MEMORY:
                assert all(np.array_equal(a[0], b[0]) for a, b in zip(before[1:], after))
        assert all(float(s @ y) > 0.0 for _, pairs in steps for s, y in pairs)

    def test_pair_without_curvature_is_skipped(self, pigou, monkeypatch):
        # the second query is answered with the first answer, so s.y = 0:
        # no pair is kept and the second step is the 1/K gradient step again
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        query = oracle.query
        answers = []

        def repeat_first(tolls):
            answers.append(query(tolls))
            return answers[0] if len(answers) == 2 else answers[-1]

        monkeypatch.setattr(oracle, "query", repeat_first)
        steps = self._spy(monkeypatch, oracle)
        target = FlowVector.single([0.5, 0.5])
        enforce_flow(oracle, target, EnforcementConfig(delta=1e-3, max_iterations=3))
        const = pigou.skeleton().constants
        g = answers[0].aggregate_flow - target.aggregate
        queried = [tolls for tolls, _ in oracle.query_log]
        assert np.array_equal(queried[1], np.clip(g / const.K, 0.0, const.T_max))
        assert np.array_equal(queried[2], np.clip(queried[1] + g / const.K, 0.0, const.T_max))
        assert all(count == 3 for count, _ in steps)  # no L-BFGS step before

    def test_worse_answer_clears_the_memory(self, monkeypatch):
        # the fifth query is answered with the first, worse than the best
        # deviation so far: the memory restarts from at most the newest pair
        game, target = _cubic_links_target()
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-10)
        query = oracle.query
        answers = []

        def first_again(tolls):
            answers.append(query(tolls))
            return answers[0] if len(answers) == 5 else answers[-1]

        monkeypatch.setattr(oracle, "query", first_again)
        steps = self._spy(monkeypatch, oracle)
        res = enforce_flow(oracle, target, EnforcementConfig(delta=1e-3))
        assert res.status is EnforcementStatus.SUCCESS
        devs = [np.abs(a.aggregate_flow - target.aggregate).max() for a in answers[:4]]
        assert devs[0] > min(devs[1:])
        sizes = dict((count, len(pairs)) for count, pairs in steps)
        assert sizes[4] == 3
        assert sizes.get(5, 0) <= 1 and sizes[6] <= 2


def _reference_sample(degree, seed):
    """The minimizer's cold reference sample on a 6-vertex two-commodity
    DAG: a fresh oracle, the reference flow and its enforcement config."""
    spec = InstanceSpec(
        topology="random_dag", n_vertices=6, degree=degree, commodities=2, seed=seed
    )
    oracle = EquilibriumOracle(generate(spec), OracleMode.FLOW_AND_COST, eps_query=1e-11)
    delta = OptConfig(epsilon=0.05).resolved_delta(oracle.skeleton)
    cfg = EnforcementConfig(delta=SampleEngine(oracle, delta).delta_enforce)
    return oracle, reference_flow(oracle.skeleton), cfg


def _deviations(oracle, target):
    return [np.abs(r.aggregate_flow - target.aggregate).max() for _, r in oracle.query_log]


class TestDualRestart:
    """After 5m dual steps without success the ascent goes back once to its
    best tolls, with their stored answer and an empty L-BFGS memory."""

    def test_resumes_from_moved_best_tolls(self, monkeypatch):
        # degree-1 DAG seed 4: the best of the first 5m answers is the 30th
        oracle, target, cfg = _reference_sample(1, 4)
        restart = enforcement.DUAL_RESTART_PER_EDGE * oracle.skeleton.m
        records, lbfgs_steps = [], []
        direction = enforcement._lbfgs_direction

        def spy(pairs, g):
            lbfgs_steps.append(len(records) + 1)  # the iteration taking the step
            return direction(pairs, g)

        monkeypatch.setattr(enforcement, "_lbfgs_direction", spy)
        res = enforce_flow(oracle, target, cfg, records.append)
        assert res.status is EnforcementStatus.SUCCESS
        devs = _deviations(oracle, target)
        best = int(np.argmin(devs[:restart]))
        assert best > 0
        best_tolls, best_answer = oracle.query_log[best]
        # iteration 5m + 1 reuses the best answer instead of querying again
        resumed = records[restart]
        assert resumed.iteration == restart + 1
        assert np.array_equal(resumed.center, best_tolls)
        assert resumed.deviation == devs[best]
        assert res.queries_used == res.iterations - 1
        logged = [tolls.tobytes() for tolls, _ in oracle.query_log]
        assert len(set(logged)) == len(logged)
        # with no memory, its step is g/K from the best tolls
        assert restart + 1 not in lbfgs_steps
        const = oracle.skeleton.constants
        g = best_answer.aggregate_flow - target.aggregate
        expected = np.clip(best_tolls + g / const.K, 0.0, const.T_max)
        assert np.array_equal(oracle.query_log[restart][0], expected)

    def test_no_restart_while_best_is_the_start(self):
        # DAG seed 13: no answer beats the one at zero tolls within 5m steps;
        # a restart there would replay the search's own steps
        oracle, target, cfg = _reference_sample(3, 13)
        restart = enforcement.DUAL_RESTART_PER_EDGE * oracle.skeleton.m
        res = enforce_flow(oracle, target, cfg)
        assert res.status is EnforcementStatus.SUCCESS
        devs = _deviations(oracle, target)
        assert int(np.argmin(devs[:restart])) == 0
        assert res.queries_used == res.iterations == 61
        logged = [tolls.tobytes() for tolls, _ in oracle.query_log]
        assert len(set(logged)) == len(logged) == 61

    def test_cap_of_at_most_5m_never_restarts(self):
        # capped at 5m or less the search stops before its restart: its queries are
        # the uncapped search's first 5m, one per iteration
        oracle, target, cfg = _reference_sample(1, 4)
        restart = enforcement.DUAL_RESTART_PER_EDGE * oracle.skeleton.m
        enforce_flow(oracle, target, cfg)
        uncapped = [tolls.tobytes() for tolls, _ in oracle.query_log]
        for cap in (restart - 1, restart):
            capped_oracle, _, _ = _reference_sample(1, 4)
            res = enforce_flow(
                capped_oracle, target, EnforcementConfig(cfg.delta, max_iterations=cap)
            )
            assert res.status is EnforcementStatus.NOT_FOUND
            assert res.queries_used == res.iterations == cap
            logged = [tolls.tobytes() for tolls, _ in capped_oracle.query_log]
            assert logged == uncapped[:cap]


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


class TestBreakdownRestart:
    """A shape matrix that degenerates numerically restarts the cuts on a
    ball around the best cut tolls, at most six times."""

    def _run(self, pigou, monkeypatch, breakdowns):
        log_volume = Ellipsoid.log_volume
        raised, balls = [], []

        def fake_log_volume(self):
            if len(raised) < breakdowns:
                raised.append(self)
                raise NumericBreakdown("faked")
            return log_volume(self)

        ball = Ellipsoid.ball.__func__

        def spy_ball(cls, center, radius):
            balls.append((np.array(center, dtype=float), radius))
            return ball(cls, center, radius)

        monkeypatch.setattr(Ellipsoid, "log_volume", fake_log_volume)
        monkeypatch.setattr(Ellipsoid, "ball", classmethod(spy_ball))
        oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-9)
        target = FlowVector.single([0.5, 0.5])
        res = ellipsoid_search(oracle, target, EnforcementConfig(delta=1e-3))
        # the first ball is the start, around the toll box
        return oracle, target, res, len(raised), balls[1:]

    def test_one_breakdown_restarts_around_best_cut(self, pigou, monkeypatch):
        oracle, target, res, raised, restarts = self._run(pigou, monkeypatch, 1)
        assert raised == 1
        assert len(restarts) == 1
        # only the first center was cut before the breakdown
        first_tolls, first = oracle.query_log[0]
        assert np.array_equal(restarts[0][0], first_tolls)
        dev = np.abs(first.aggregate_flow - target.aggregate).max()
        const = pigou.constants
        radius = max(8.0 * pigou.m * const.K * dev, 1e3 * 1e-3)
        full = 0.5 * const.T_max * math.sqrt(pigou.m)
        assert restarts[0][1] == pytest.approx(min(radius, full))
        assert res.status is EnforcementStatus.SUCCESS
        induced = solve_equilibrium(pigou, res.tolls, EqConfig(accuracy=1e-12)).flow
        assert np.abs(induced.aggregate - target.aggregate).max() <= 2e-3

    def test_six_restarts_then_not_found(self, pigou, monkeypatch):
        oracle, target, res, raised, restarts = self._run(pigou, monkeypatch, 1000)
        assert raised == 7  # the seventh breakdown ends the search
        assert len(restarts) == 6
        assert res.status is EnforcementStatus.NOT_FOUND
        assert res.response is None
        # every restart ball is centred on the one queried point, whose
        # stored answer its first cut reuses
        assert res.queries_used == oracle.query_count == 1
        devs = [
            np.abs(resp.aggregate_flow - target.aggregate).max()
            for _, resp in oracle.query_log
        ]
        best = int(np.argmin(devs))
        assert res.achieved_deviation == devs[best]
        assert np.array_equal(res.tolls.values, oracle.query_log[best][0])

    @pytest.mark.parametrize("breakdowns", [1, 3, 1000])
    def test_no_tolls_are_queried_twice(self, pigou, monkeypatch, breakdowns):
        oracle, _, _, raised, restarts = self._run(pigou, monkeypatch, breakdowns)
        assert len(restarts) == min(raised, 6) >= 1
        logged = [tolls.tobytes() for tolls, _ in oracle.query_log]
        assert len(set(logged)) == len(logged)


@pytest.mark.xfail(
    strict=True,
    raises=NoConvergence,
    reason="known solver defect: at tolls near T_max/2 Newton stops at its "
    "1e-13 * |c.F| tolerance, about 1.4e-10, and the duality gap ends near "
    "1.9e-10, above its 1.65e-10 target, on some edge orders",
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
