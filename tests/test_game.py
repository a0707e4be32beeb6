"""Core model: validation, latency evaluation, cost, feasibility,
cycle canceling, derived constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_braess,
    make_parallel,
    random_cubic_parallel,
    random_dag_game,
    random_parallel,
)
from tollopt import (
    Commodity,
    Edge,
    FlowVector,
    Infeasible,
    InvalidGame,
    PolyLatency,
    RoutingGame,
    TollOutOfRange,
    TollVector,
    acyclic_reduce,
    derive_constants,
    is_feasible,
    solve_equilibrium,
    total_latency,
    validate_game,
)
from tollopt.game import FEASIBILITY_TOL, has_positive_cycle
from tollopt.instances import TOPOLOGIES, InstanceSpec, generate
from tollopt.paths import decompose_paths, shortest_path


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

    def test_parallel_edges_allowed(self):
        validate_game(make_parallel([(0.0, 1.0), (0.0, 1.0)]))

    def test_flat_latency_is_constant(self):
        assert PolyLatency((1.0, 0.0)).constant
        assert PolyLatency((0.0,)).constant
        assert not PolyLatency((1.0, 0.0, 2.0)).constant

    @pytest.mark.parametrize("demand", [float("inf"), float("nan")])
    def test_non_finite_demand_rejected(self, demand):
        with pytest.raises(InvalidGame):
            make_parallel([(0.0, 1.0), (1.0, 1.0)], demand=demand)

    def test_overflowing_constants_rejected(self):
        # K = 2 (1e200)^2 overflows, and so does a demand total of 2e308
        with pytest.raises(InvalidGame, match="finite"):
            make_parallel([(0.0, 1.0), (0.0, 0.0, 1.0)], demand=1e200)
        edges = (Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),)
        game = RoutingGame(("s", "t"), edges, (Commodity("s", "t", 1e308),) * 2)
        with pytest.raises(InvalidGame, match="finite"):
            validate_game(game)


class TestEvalLatency:
    def test_identity_polynomial(self):
        assert PolyLatency((0.0, 1.0)).value(0.5) == 0.5

    def test_constant_edge(self):
        assert PolyLatency((1.0,)).value(0.7) == 1.0

    def test_quadratic(self):
        assert PolyLatency((2.0, 0.0, 3.0)).value(2.0) == 14.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            PolyLatency((0.0, 1.0)).value(-0.1)

    @given(
        x=st.floats(min_value=0.0, max_value=10.0),
        y=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, x, y):
        lat = PolyLatency((0.3, 1.2, 0.4))
        lo, hi = min(x, y), max(x, y)
        assert lat.value(lo) <= lat.value(hi) + 1e-12


class TestTotalLatency:
    def test_fig1_l2_half_half(self, fig1_l2):
        cost = total_latency(fig1_l2, FlowVector.single([0.5, 0.5]))
        assert cost == pytest.approx(0.75, abs=1e-12)

    def test_fig1_l1_all_on_free_edge(self, fig1_l1):
        assert total_latency(fig1_l1, FlowVector.single([0.0, 1.0])) == 0.0

    def test_pigou_all_on_linear_edge(self, pigou):
        assert total_latency(pigou, FlowVector.single([1.0, 0.0])) == 1.0

    def test_equals_edge_sum_on_random_cubic_games(self, rng):
        for _ in range(20):
            game = random_cubic_parallel(int(rng.integers(2, 9)), rng)
            for _ in range(5):
                w = rng.dirichlet(np.ones(game.m))
                w[rng.random(game.m) < 0.3] = 0.0
                if w.sum() == 0.0:
                    w[0] = 1.0
                f = FlowVector.single(w / w.sum())
                direct = sum(
                    x * e.latency.value(x)
                    for x, e in zip(f.aggregate, game.edges)
                    if x > 0
                )
                assert total_latency(game, f) == direct

    def test_infeasible_flow_rejected(self, pigou):
        with pytest.raises(Infeasible):
            total_latency(pigou, FlowVector.single([0.7, 0.2]))


class TestLatencyTable:
    def test_built_once(self, rng):
        game = random_cubic_parallel(4, rng)
        assert game.latency_table is game.latency_table

    def test_matches_latency_methods(self, rng):
        game = random_cubic_parallel(6, rng)
        table = game.latency_table
        for e, edge in enumerate(game.edges):
            for x in rng.uniform(0.0, 2.0, 5).tolist() + [0.0]:
                acc = 0.0
                for a in table.horner[e]:
                    acc = acc * x + a
                assert acc == edge.latency.value(x)
                acc = 0.0
                for a in table.slope_horner[e]:
                    acc = acc * x + a
                assert acc == edge.latency.slope(x)
            assert table.at_zero[e] == edge.latency.value(0.0)
            assert list(table.coeffs[e, : len(edge.latency.coeffs)]) == list(
                edge.latency.coeffs
            )
        assert not table.coeffs.flags.writeable


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

    @staticmethod
    def _reference(game, f, tol=FEASIBILITY_TOL):
        """Per-edge conservation loop; a NaN fails every comparison."""
        X = f.per_commodity
        if X.shape != (game.k, game.m):
            return False
        skel = game.skeleton()
        vi = skel.vertex_index
        for i, c in enumerate(skel.commodities):
            net = [0.0] * len(skel.vertices)
            for e in range(game.m):
                x = float(X[i, e])
                if not x >= -tol:
                    return False
                net[skel.tails[e]] += x
                net[skel.heads[e]] -= x
            net[vi[c.source]] -= c.demand
            net[vi[c.sink]] += c.demand
            if not all(abs(v) <= tol for v in net):
                return False
        return True

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_matches_per_edge_reference(self, topology):
        commodities = 2 if topology == "random_dag" else 1
        game = generate(InstanceSpec(topology=topology, commodities=commodities, seed=1))
        tol = FEASIBILITY_TOL
        X = solve_equilibrium(game).flow.per_commodity

        def check(Y, expected):
            f = FlowVector(Y)
            assert is_feasible(game, f) == self._reference(game, f) == expected
            assert is_feasible(game.skeleton(), f) == expected

        check(X, True)
        for e in range(game.m):
            for shift, expected in ((0.5 * tol, True), (2.0 * tol, False)):
                Y = X.copy()
                Y[0, e] += shift
                check(Y, expected)
            Y = X.copy()
            Y[0, e] = -1.5 * tol
            check(Y, False)
            Y = X.copy()
            Y[0, e] = np.nan
            check(Y, False)
        check(np.hstack([X, np.zeros((game.k, 1))]), False)
        check(np.vstack([X, X]), False)


def _two_cycle_game():
    edges = (
        Edge("e0", "s", "t", PolyLatency((0.0, 1.0))),
        Edge("e1", "t", "u", PolyLatency((0.0, 1.0))),
        Edge("e2", "u", "t", PolyLatency((0.0, 1.0))),
    )
    return validate_game(
        RoutingGame(("s", "t", "u"), edges, (Commodity("s", "t", 1.0),))
    )


def _braess_back_edge():
    """Braess plus a t->s return edge, and a flow with 1.0 on s->v->w->t
    plus 0.1 circulating around s->v->w->t->s."""
    edges = make_braess().edges + (Edge("e5", "t", "s", PolyLatency((0.0, 1.0))),)
    game = validate_game(
        RoutingGame(("s", "v", "w", "t"), edges, (Commodity("s", "t", 1.0),))
    )
    return game, FlowVector.single([1.1, 0.0, 0.0, 1.1, 1.1, 0.1])


def _shared_edge_cycles_game():
    """s->t, then t->u->t and t->u->w->t: two cycles sharing t->u."""
    edges = tuple(
        Edge(f"e{i}", tail, head, PolyLatency((0.0, 1.0)))
        for i, (tail, head) in enumerate(
            [("s", "t"), ("t", "u"), ("u", "t"), ("u", "w"), ("w", "t")]
        )
    )
    return validate_game(
        RoutingGame(("s", "t", "u", "w"), edges, (Commodity("s", "t", 1.0),))
    )


class TestPositiveCycle:
    def _game(self):
        # two s->t commodities on the two-cycle graph
        game = _two_cycle_game()
        return RoutingGame(game.vertices, game.edges, game.commodities * 2)

    def test_cycle_in_second_commodity_only(self):
        f = FlowVector(np.array([[1.0, 0.0, 0.0], [1.0, 0.3, 0.3]]))
        assert is_feasible(self._game(), f)
        assert has_positive_cycle(self._game(), f)

    def test_cycle_below_tolerance_ignored(self):
        # the tolerance is 1e-12 * max(1, largest flow) = 1e-12 here
        f = FlowVector(np.array([[1.0, 0.0, 0.0], [1.0, 5e-13, 5e-13]]))
        assert not has_positive_cycle(self._game(), f)


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
        game, f = _braess_back_edge()
        cost_before = total_latency(game, f)
        out = acyclic_reduce(game, f)
        assert not has_positive_cycle(game, out)
        assert np.allclose(out.per_commodity[0], [1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        assert total_latency(game, out) < cost_before
        assert np.all(out.per_commodity <= f.per_commodity + 1e-15)

    def test_two_cycles_sharing_an_edge(self):
        game = _shared_edge_cycles_game()
        f = FlowVector.single([1.0, 0.5, 0.2, 0.3, 0.3])
        assert is_feasible(game, f) and has_positive_cycle(game, f)
        out = acyclic_reduce(game, f)
        assert is_feasible(game, out)
        assert not has_positive_cycle(game, out)
        assert np.all(out.per_commodity <= f.per_commodity)
        assert total_latency(game, out) <= total_latency(game, f)
        assert np.allclose(out.per_commodity[0], [1.0, 0.0, 0.0, 0.0, 0.0])

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


class TestDecomposePaths:
    def test_braess_back_edge_leaves_the_circulation(self):
        game, f = _braess_back_edge()
        pieces = decompose_paths(game, f.per_commodity[0], "s", "t")
        skel = game.skeleton()
        total = np.zeros(game.m)
        for path, amount in pieces:
            assert skel.edge_tails[path[0]] == "s" and skel.edge_heads[path[-1]] == "t"
            for a, b in zip(path, path[1:]):
                assert skel.edge_heads[a] == skel.edge_tails[b]
            total[list(path)] += amount
        circulation = np.array([0.1, 0.0, 0.0, 0.1, 0.1, 0.1])
        assert np.allclose(total, f.per_commodity[0] - circulation, atol=1e-15)

    def test_fewest_hops_first(self, braess):
        # s->v->t and s->w->t have two hops, s->v->w->t three
        pieces = decompose_paths(braess, np.array([0.6, 0.2, 0.2, 0.6, 0.4]), "s", "t")
        assert [path for path, _ in pieces] == [(0, 2), (1, 3), (0, 4, 3)]
        assert np.allclose([a for _, a in pieces], [0.2, 0.2, 0.4])

    def test_flow_that_never_reaches_t_gives_no_path(self, braess):
        assert decompose_paths(braess, np.array([0.5, 0.0, 0.0, 0.0, 0.0]), "s", "t") == []


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
                    Edge(f"e{i}", "s", "t", PolyLatency((1.0,)))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_toll_rejected(self, bad):
        with pytest.raises(TollOutOfRange):
            TollVector(np.array([0.5, bad]))


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
        assert game.skeleton().topological_order == skel.topological_order
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
