"""Equilibrium engine: Beckmann potential, solver accuracy against
independent closed forms, Wardrop violation, shortest paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PolyLatency,
    TollVector,
    beckmann_potential,
    derive_constants,
    equilibrium,
    is_feasible,
    solve_equilibrium,
    total_latency,
    wardrop_violation,
)
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import EquilibriumOracle, OracleMode
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


class TestEvalKernels:
    """The solver's row-wise Horner kernels against ``PolyLatency``."""

    # degrees 0 to 3; the table pads the lower-degree rows with zeros
    LATENCIES = [
        (0.7,),
        (0.2, 1.3),
        (0.0, 0.5, 0.25),
        (0.1, 0.0, 0.0, 2.0),
        (1.5, 0.3, 0.0, 0.4),
        (0.35, 0.9, 1.1, 0.0),
    ]

    def test_match_poly_latency_bitwise(self, rng):
        game = make_parallel(self.LATENCIES)
        A = game.latency_table.coeffs
        assert A.shape == (len(self.LATENCIES), 4)
        lats = [e.latency for e in game.edges]
        for x in [np.zeros(game.m), rng.uniform(0.0, 2.0, game.m), np.full(game.m, 1e3)]:
            value = np.array([lat.value(float(xe)) for lat, xe in zip(lats, x)])
            slope = np.array([lat.slope(float(xe)) for lat, xe in zip(lats, x)])
            assert equilibrium._eval_poly_rows(A, x).tobytes() == value.tobytes()
            assert equilibrium._eval_slope_rows(A, x).tobytes() == slope.tobytes()
        # zero-load costs are the constant column
        zero = equilibrium._eval_poly_rows(A, np.zeros(game.m))
        assert zero.tobytes() == A[:, 0].tobytes()

    def test_width_one_table_returns_a_fresh_array(self):
        game = make_parallel([(0.7,), (1.2,)])
        A = game.latency_table.coeffs
        assert A.shape == (2, 1) and not A.flags.writeable
        x = np.array([0.3, 0.7])
        value = equilibrium._eval_poly_rows(A, x)
        assert not np.shares_memory(value, A)
        value += 1.0  # writable, and the table keeps its coefficients
        assert np.array_equal(A[:, 0], [0.7, 1.2])
        slope = equilibrium._eval_slope_rows(A, x)
        assert np.array_equal(slope, [0.0, 0.0]) and not np.shares_memory(slope, A)

    @pytest.mark.parametrize("cubic", [False, True])
    def test_newton_matrix_follows_the_loads(self, rng, cubic):
        # one path per link, so the slope block is diag(l'(F)); the affine
        # matrix is built once per working set, the cubic one per call
        lats = [(0.2, 1.3), (0.5, 0.4), (0.1, 0.9)]
        if cubic:
            lats[1] = (0.5, 0.4, 0.0, 2.0)
        game = make_parallel(lats)
        A = game.latency_table.coeffs
        rows = [(0, (e,)) for e in range(3)]
        state = equilibrium._PathState(game, rows, np.full(3, 1 / 3))
        for keep in (None, np.array([True, False, True])):
            if keep is not None:
                state.narrow(keep)
                lats = [lat for lat, kept in zip(lats, keep) if kept]
            P = len(lats)
            for F in rng.uniform(0.0, 1.0, (2, 3)):
                slopes = [
                    PolyLatency(lat).slope(float(F[e]))
                    for lat, (_, (e,)) in zip(lats, state.rows)
                ]
                expected = np.zeros((P + 1, P + 1))
                expected[:P, :P] = np.diag(slopes)
                expected[:P, P], expected[P, :P] = -1.0, 1.0
                assert np.array_equal(state.kkt(A, F), expected)


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
        for _ in range(10):  # the general solver's quadratic line search
            game = random_parallel(int(rng.integers(2, 6)), rng, quadratic=True)
            tau = TollVector(rng.uniform(0.0, 2.0, game.m))
            cases.append((game, tau, solve_equilibrium(game, tau)))
        for _ in range(10):  # affine: one Newton matrix per working set
            game = random_parallel(int(rng.integers(2, 6)), rng)
            tau = TollVector(rng.uniform(0.0, 2.0, game.m))
            cases.append((game, tau, solve_equilibrium(game, tau)))
        for _ in range(10):  # one cubic edge: a Newton matrix per iteration
            m = int(rng.integers(2, 6))
            lats = [e.latency.coeffs for e in random_parallel(m, rng).edges]
            j = int(rng.integers(m))
            lats[j] = (*lats[j], 0.0, round(float(rng.uniform(0.3, 1.5)), 6))
            game = make_parallel(lats)
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

    def test_constant_latency_tie_hands_back_to_conditional_gradient(
        self, monkeypatch
    ):
        # the untolled seed splits the demand over links 0, 2 and 3; at
        # these tolls the constant link 1 is cheapest (1.2 against 1.5, 2.3
        # and 2.0), Newton stalls on the constant routes, and one
        # conditional-gradient step moves all the demand there.  Without
        # that step the solve raises NoConvergence
        game = make_parallel([(0.0, 1.0), (1.0,), (0.5,), (0.2, 0.5, 0.3)])
        steps = []
        line_search = equilibrium._line_search

        def counted_step(*args):
            steps.append(1)
            return line_search(*args)

        monkeypatch.setattr(equilibrium, "_line_search", counted_step)
        cfg = EqConfig(accuracy=1e-11)
        res = solve_equilibrium(game, TollVector(np.array([1.5, 0.2, 1.8, 1.8])), cfg)
        assert np.allclose(res.flow.aggregate, [0.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
        assert res.beckmann_gap <= cfg.accuracy
        assert len(steps) >= 1

    def test_grid_seeded_solve_skips_conditional_gradient(self, monkeypatch):
        # every solve starts from the game's untolled equilibrium paths and
        # goes straight to Newton: no conditional-gradient line search, and
        # at most three Dijkstra runs (the parent's cold start took 7 to 9
        # and 3 to 4 line searches on these tolls), and the answer still
        # matches a much tighter solve
        game = generate(InstanceSpec(topology="grid", width=3, height=3, seed=5))
        tight = solve_equilibrium(game, cfg=EqConfig(accuracy=1e-12))
        steps, runs = [], []
        line_search, dijkstra = equilibrium._line_search, equilibrium.dijkstra

        def counted_step(*args):
            steps.append(1)
            return line_search(*args)

        def counted_run(*args):
            runs.append(1)
            return dijkstra(*args)

        monkeypatch.setattr(equilibrium, "_line_search", counted_step)
        monkeypatch.setattr(equilibrium, "dijkstra", counted_run)
        res = solve_equilibrium(game)
        assert steps == [] and len(runs) <= 3
        diff = res.flow.per_commodity - tight.flow.per_commodity
        assert np.max(np.abs(diff)) <= 1e-9
        rng = np.random.default_rng(5)
        for _ in range(6):
            runs.clear()
            solve_equilibrium(game, TollVector(rng.uniform(0.0, 0.5, game.m)))
            assert steps == [] and len(runs) <= 3

    def test_cheaper_path_admitted_below_the_gap_target(self):
        # at these tolls the solve's cost scale |c.F| is about 67, so a
        # cheaper path was admitted only when it saved 20 * 1e-13 |c.F|,
        # 1.3e-10, above the oracle's 1.67e-11 gap target: the solve
        # settled at gap 6.6e-11 and raised NoConvergence
        game = generate(
            InstanceSpec(topology="random_dag", n_vertices=6, degree=1, commodities=2, seed=4)
        )
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tau = TollVector(
            np.array(
                [
                    9.85054105155272, 42.37144614844729, 11.604018108867495,
                    21.72082611239363, 4.900051037318498, 9.801013998837789,
                    4.900051037318498, 9.850541051552714,
                ]
            )
        )
        resp = oracle.query(tau)
        tight = solve_equilibrium(game, tau, EqConfig(accuracy=1e-12))
        diff = resp.aggregate_flow - tight.flow.aggregate
        assert np.max(np.abs(diff)) <= 1e-9


class TestSeededStart:
    SPECS = {
        "grid": InstanceSpec(topology="grid", width=3, height=3, seed=5),
        "dag": InstanceSpec(
            topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=2
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_answer_independent_of_call_history(self, name):
        # the seed is a function of the game alone: a (game, tolls) pair
        # gives the same bits as a first solve on a fresh copy and after
        # solves at other tolls on another copy
        spec = self.SPECS[name]
        rng = np.random.default_rng(11)
        first = generate(spec)
        tau = TollVector(rng.uniform(0.0, 1.0, first.m))
        a = solve_equilibrium(first, tau)
        second = generate(spec)
        for _ in range(3):
            solve_equilibrium(second, TollVector(rng.uniform(0.0, 2.0, second.m)))
        b = solve_equilibrium(second, tau)
        assert np.array_equal(a.flow.per_commodity, b.flow.per_commodity)
        assert a.beckmann_gap == b.beckmann_gap

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_kept_starts_give_the_same_bits(self, name):
        # the game keeps each admitted start; solves that reuse one answer
        # as a fresh copy of the game that admits it anew
        spec = self.SPECS[name]
        rng = np.random.default_rng(12)
        game = generate(spec)
        tolls = [TollVector(rng.uniform(0.0, 2.0, game.m)) for _ in range(8)]
        warm = [solve_equilibrium(game, t) for t in tolls + tolls]
        starts = game._zero_toll_starts
        assert 1 <= len(starts) <= len(tolls)
        affine = game.latency_table.coeffs.shape[1] == 2
        for _, h, M, J in starts.values():
            assert not h.flags.writeable and not M.flags.writeable
            assert (J is not None) == affine  # an affine game's constant Newton matrix
            assert J is None or not J.flags.writeable
        for i, t in enumerate(tolls):
            cold = solve_equilibrium(generate(spec), t)
            for res in (warm[i], warm[i + len(tolls)]):
                assert np.array_equal(res.flow.per_commodity, cold.flow.per_commodity)
                assert res.beckmann_gap == cold.beckmann_gap
                assert res.wardrop_violation == cold.wardrop_violation

    def test_cold_solve_runs_once_per_game(self, monkeypatch):
        cold = []
        solve_paths = equilibrium._solve_paths

        def counted(game, tau, accuracy, start):
            if start is None:
                cold.append(game)
            return solve_paths(game, tau, accuracy, start)

        monkeypatch.setattr(equilibrium, "_solve_paths", counted)
        spec = self.SPECS["dag"]
        game = generate(spec)
        assert cold == []  # nothing runs before the first solve
        rng = np.random.default_rng(3)
        for _ in range(2):  # two oracles on one game
            oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST)
            for _ in range(4):
                oracle.query(TollVector(rng.uniform(0.0, 1.0, game.m)))
        assert cold == [game]
        solve_equilibrium(generate(spec))  # a second copy seeds itself
        assert len(cold) == 2

    def test_jointly_spanned_paths_are_not_generated(self):
        # here one round finds a cheaper path for each commodity, (0, 4, 8)
        # and (0, 4, 7), that together with (1, 8) and (1, 7) are linearly
        # dependent; admitting both made the Newton system singular, and
        # the solve ended with gap 9.2e-4 (an optimize run on this game,
        # epsilon = 0.05, asked for these tolls)
        game = generate(self.SPECS["dag"])
        tau = TollVector(np.array([
            0.2028778476755233, 0.4201271603995949, 1.0400126159407017,
            1.754595588860984, 0.24616855282568292, 1.564374252594861,
            0.36204702712419085, 0.530198528020998, 0.9538696531245505,
            0.18202526438849218, 0.2964588072454727,
        ]))
        res = solve_equilibrium(game, tau, EqConfig(accuracy=1.5454770559971273e-10))
        assert res.beckmann_gap <= 1.5454770559971273e-10

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_seed_paths_are_independent_and_carry_the_demand(self, name):
        # path generation admits no path the working set spans, so the
        # seed never makes a Newton system singular
        game = generate(self.SPECS[name])
        seed = game.zero_toll_paths
        assert game.zero_toll_paths is seed
        rows, h = seed
        M = equilibrium._path_rows(rows, game.m, game.k)
        assert np.linalg.matrix_rank(M) == len(rows) == len(h)
        assert np.all(h > 0.0)
        for i, com in enumerate(game.commodities):
            mine = [hv for (j, _), hv in zip(rows, h) if j == i]
            assert sum(mine) == pytest.approx(com.demand, abs=1e-12)
        untolled = solve_equilibrium(game).flow.aggregate
        agg = np.zeros(game.m)
        for (_, p), hv in zip(rows, h):
            agg[list(p)] += hv
        assert np.max(np.abs(agg - untolled)) <= 1e-9


def _reference_step(A, F, D, tau) -> float:
    """Root on [0, 1] of phi'(g) = sum_e D_e (l_e(F_e + g D_e) + tau_e),
    by numpy polynomial composition and numpy.roots."""
    P = np.polynomial.Polynomial
    dphi = P([float(np.dot(D, tau))])
    for a, f, d in zip(A, F, D):
        dphi = dphi + d * P(a)(P([f, d]))
    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(1.0) <= 0.0:
        return 1.0
    roots = np.roots(dphi.coef[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(min(real[(real >= 0.0) & (real <= 1.0)], key=lambda g: abs(dphi(g))))


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    degree=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_line_search_matches_reference_root(seed, m, degree):
    # latencies with slope at least 0.5 and steps of at least 0.3 per edge
    # keep phi'' >= 0.045 on [0, 1], so the root is well conditioned
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 2.0, (m, degree + 1))
    A[:, 1] = rng.uniform(0.5, 2.0, m)
    D = rng.uniform(0.3, 1.0, m) * rng.choice([-1.0, 1.0], m)
    F = np.maximum(rng.uniform(0.0, 1.0, m), -D)  # F + D stays a flow
    tau = rng.uniform(0.0, 2.0, m)
    got = equilibrium._line_search(A, F, D, tau)
    assert abs(got - _reference_step(A, F, D, tau)) <= 1e-12
    if degree == 1:
        # affine: the closed-form root, bit for bit (its last bit moves
        # whole optimize runs)
        c0 = float(np.dot(D, A[:, 0] + A[:, 1] * F)) + float(np.dot(D, tau))
        c1 = float(np.dot(D * D, np.ascontiguousarray(A[:, 1])))
        want = 0.0 if c0 >= 0.0 else 1.0 if c0 + c1 <= 0.0 else -c0 / c1
        assert got == want


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
