"""Core model: validation, latency evaluation, cost, feasibility,
cycle canceling, derived constants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_parallel, random_dag_game, random_parallel
from tollopt import (
    Commodity,
    Edge,
    FlowVector,
    Infeasible,
    InvalidGame,
    PolyLatency,
    RoutingGame,
    TollVector,
    acyclic_reduce,
    derive_constants,
    eval_latency,
    is_feasible,
    solve_equilibrium,
    total_latency,
    validate_game,
)
from tollopt.game import has_positive_cycle
from tollopt.instances import TOPOLOGIES, InstanceSpec, generate
from tollopt.paths import dag_order, decompose_paths, shortest_path


class TestValidation:
    def test_fig1_l1_is_valid(self, fig1_l1):
        g = validate_game(fig1_l1)
        assert g.m == 2 and g.k == 1
        assert g.constants.N == 2

    def test_zero_demand_rejected(self):
        with pytest.raises(InvalidGame):
            Commodity("s", "t", 0.0)
            RoutingGame(
                ("s", "t"),
                (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),),
                (Commodity("s", "t", 0.0),),
            )
            validate_game(
                RoutingGame(
                    ("s", "t"),
                    (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),),
                    (Commodity("s", "t", 0.0),),
                )
            )

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvalidGame):
            PolyLatency((2.0, -1.0))

    def test_unreachable_sink_rejected(self):
        game = RoutingGame(
            ("s", "t", "u"),
            (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),),
            (Commodity("s", "u", 1.0),),
        )
        with pytest.raises(InvalidGame, match="unreachable"):
            validate_game(game)

    def test_self_loop_rejected(self):
        game = RoutingGame(
            ("s", "t"),
            (
                Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
                Edge("e1", "s", "s", PolyLatency((0.0, 1.0))),
            ),
            (Commodity("s", "t", 1.0),),
        )
        with pytest.raises(InvalidGame, match="self-loop"):
            validate_game(game)

    def test_flat_latency_needs_constant_flag(self):
        with pytest.raises(InvalidGame):
            PolyLatency((1.0, 0.0))
        PolyLatency((1.0, 0.0), constant=True)

    def test_parallel_edges_allowed(self):
        validate_game(make_parallel([(0.0, 1.0), (0.0, 1.0)]))


class TestEvalLatency:
    def test_identity_polynomial(self):
        assert eval_latency(PolyLatency((0.0, 1.0)), 0.5) == 0.5

    def test_constant_edge(self):
        assert eval_latency(PolyLatency((1.0,), constant=True), 0.7) == 1.0

    def test_quadratic(self):
        assert eval_latency(PolyLatency((2.0, 0.0, 3.0)), 2.0) == 14.0

    def test_exact_fraction_mode(self):
        lat = PolyLatency((0.5, 0.25))
        value = eval_latency(lat, Fraction(1, 2))
        assert value == Fraction(5, 8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            eval_latency(PolyLatency((0.0, 1.0)), -0.1)

    @given(
        x=st.floats(min_value=0.0, max_value=10.0),
        y=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, x, y):
        lat = PolyLatency((0.3, 1.2, 0.4))
        lo, hi = min(x, y), max(x, y)
        assert eval_latency(lat, lo) <= eval_latency(lat, hi) + 1e-12


class TestTotalLatency:
    def test_fig1_l2_half_half(self, fig1_l2):
        cost = total_latency(fig1_l2, FlowVector.single([0.5, 0.5]))
        assert cost == pytest.approx(0.75, abs=1e-12)

    def test_fig1_l1_all_on_free_edge(self, fig1_l1):
        assert total_latency(fig1_l1, FlowVector.single([0.0, 1.0])) == 0.0

    def test_pigou_all_on_linear_edge(self, pigou):
        assert total_latency(pigou, FlowVector.single([1.0, 0.0])) == 1.0

    def test_infeasible_flow_rejected(self, pigou):
        with pytest.raises(Infeasible):
            total_latency(pigou, FlowVector.single([0.7, 0.2]))


class TestIsFeasible:
    def test_pigou_feasible(self, pigou):
        assert is_feasible(pigou, FlowVector.single([1.0, 0.0]))

    def test_pigou_demand_mismatch(self, pigou):
        assert not is_feasible(pigou, FlowVector.single([0.7, 0.2]))

    def test_empty_commodity_game(self):
        game = validate_game(
            RoutingGame(
                ("s", "t"),
                (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),),
                (),
            )
        )
        assert is_feasible(game, FlowVector.zeros(0, 1))

    def test_negative_flow_rejected(self, pigou):
        assert not is_feasible(pigou, FlowVector.single([1.5, -0.5]))


def _two_cycle_game():
    edges = (
        Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
        Edge("e1", "t", "u", PolyLatency((0.0, 1.0))),
        Edge("e2", "u", "t", PolyLatency((0.0, 1.0))),
    )
    return validate_game(
        RoutingGame(("s", "t", "u"), edges, (Commodity("s", "t", 1.0),))
    )


class TestAcyclicReduce:
    def test_acyclic_input_unchanged(self, pigou):
        f = FlowVector.single([0.3, 0.7])
        out = acyclic_reduce(pigou, f)
        assert np.array_equal(out.per_commodity, f.per_commodity)

    def test_two_cycle_cancelled(self):
        game = _two_cycle_game()
        f = FlowVector.single([1.0, 0.3, 0.3])
        out = acyclic_reduce(game, f)
        assert np.allclose(out.per_commodity[0], [1.0, 0.0, 0.0])
        assert is_feasible(game, out)

    def test_braess_back_edge_circulation(self):
        # braess plus a t->s return edge carrying 0.1 circulating units
        edges = (
            Edge("e0", "s", "v", PolyLatency((0.0, 1.0))),
            Edge("e1", "s", "w", PolyLatency((1.0,), constant=True)),
            Edge("e2", "v", "t", PolyLatency((1.0,), constant=True)),
            Edge("e3", "w", "t", PolyLatency((0.0, 1.0))),
            Edge("e4", "v", "w", PolyLatency((0.0,), constant=True)),
            Edge("e5", "t", "s", PolyLatency((0.0, 1.0))),
        )
        game = validate_game(
            RoutingGame(("s", "v", "w", "t"), edges, (Commodity("s", "t", 1.0),))
        )
        # 1.0 on s->v->w->t plus 0.1 around s->v->w->t->s
        f = FlowVector.single([1.1, 0.0, 0.0, 1.1, 1.1, 0.1])
        cost_before = total_latency(game, f)
        out = acyclic_reduce(game, f)
        assert not has_positive_cycle(game, out)
        assert np.allclose(out.per_commodity[0], [1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        assert total_latency(game, out) < cost_before
        assert np.all(out.per_commodity <= f.per_commodity + 1e-15)

    def test_idempotent_on_random_flows(self, rng):
        game = random_dag_game(6, 10, 1, rng)
        from tollopt import solve_equilibrium

        f = solve_equilibrium(game).flow
        once = acyclic_reduce(game, f)
        twice = acyclic_reduce(game, once)
        assert np.array_equal(once.per_commodity, twice.per_commodity)

    def test_infeasible_rejected(self, pigou):
        with pytest.raises(Infeasible):
            acyclic_reduce(pigou, FlowVector.single([0.1, 0.2]))


class TestDeriveConstants:
    def test_fig1(self, fig1_l1):
        c = derive_constants(fig1_l1)
        assert c.K == 2.0
        assert c.T_max == 8.0
        assert c.N == 2

    def test_pigou(self, pigou):
        c = derive_constants(pigou)
        assert c.K == 2.0 and c.T_max == 8.0

    def test_constant_only_game(self):
        game = validate_game(
            RoutingGame(
                ("s", "t"),
                tuple(
                    Edge(f"e{i}", "s", "t", PolyLatency((1.0,), constant=True))
                    for i in range(3)
                ),
                (Commodity("s", "t", 1.0),),
            )
        )
        c = derive_constants(game)
        assert c.K == 1.0
        assert c.T_max == 2.0 * game.m * c.K

    def test_K_dominates_latency_and_derivative(self, rng):
        # dense sampling over the feasible aggregate range
        for _ in range(20):
            m = int(rng.integers(2, 6))
            deg = int(rng.integers(1, 4))
            lats = []
            for _ in range(m):
                coeffs = [round(float(rng.uniform(0, 1.5)), 6)]
                coeffs += [
                    round(float(rng.uniform(0.1, 1.5)), 6) for _ in range(deg)
                ]
                lats.append(tuple(coeffs))
            game = make_parallel(lats, demand=float(rng.uniform(0.5, 2.0)))
            K = game.constants.K
            total = game.constants.total_demand
            xs = np.linspace(0.0, total, 64)
            for e in game.edges:
                for x in xs:
                    assert e.latency.value(float(x)) <= K + 1e-9
                    assert x * e.latency.slope(float(x)) <= K + 1e-9


class TestCostShape:
    def test_convexity_sampled(self, rng):
        game = random_parallel(4, rng, quadratic=True)
        for _ in range(200):
            a = rng.dirichlet(np.ones(4))
            b = rng.dirichlet(np.ones(4))
            lam = float(rng.uniform(0, 1))
            fa, fb = FlowVector.single(a), FlowVector.single(b)
            mix = FlowVector.single(lam * a + (1 - lam) * b)
            lhs = total_latency(game, mix)
            rhs = lam * total_latency(game, fa) + (1 - lam) * total_latency(game, fb)
            assert lhs <= rhs + 1e-9

    def test_lipschitz_bound(self, rng):
        game = random_parallel(3, rng)
        c = game.constants
        lip = 2 * game.m * c.K**2
        for _ in range(100):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            fa, fb = FlowVector.single(a), FlowVector.single(b)
            diff = abs(total_latency(game, fa) - total_latency(game, fb))
            assert diff <= lip * np.max(np.abs(a - b)) + 1e-12


class TestVectors:
    def test_aggregate_is_column_sum(self):
        f = FlowVector(np.array([[0.2, 0.3], [0.1, 0.4]]))
        assert np.allclose(f.aggregate, [0.3, 0.7])

    def test_negative_toll_rejected(self):
        with pytest.raises(ValueError):
            TollVector(np.array([0.5, -0.1]))


class TestSkeleton:
    def test_built_once(self, pigou):
        skel = pigou.skeleton()
        assert pigou.skeleton() is skel
        assert skel.skeleton() is skel

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_helpers_agree_on_game_and_skeleton(self, topology):
        commodities = 2 if topology == "random_dag" else 1
        spec = InstanceSpec(topology=topology, commodities=commodities, seed=1)
        game = generate(spec)
        skel = game.skeleton()
        rng = np.random.default_rng(7)
        f = solve_equilibrium(game, TollVector(rng.uniform(0, 1, game.m))).flow
        shifted = FlowVector(f.per_commodity + 0.1)
        costs = rng.uniform(0, 1, game.m)
        assert dag_order(game) == dag_order(skel)
        for flow in (f, shifted):
            assert is_feasible(game, flow) == is_feasible(skel, flow)
        assert np.array_equal(
            acyclic_reduce(game, f).per_commodity, acyclic_reduce(skel, f).per_commodity
        )
        for i, c in enumerate(game.commodities):
            assert shortest_path(game, costs, c.source, c.sink) == shortest_path(
                skel, costs, c.source, c.sink
            )
            row = f.per_commodity[i]
            assert decompose_paths(game, row, c.source, c.sink) == decompose_paths(
                skel, row, c.source, c.sink
            )
