"""Query boundary: response correctness, counting, logging, privacy."""

import dataclasses
import enum

import numpy as np
import pytest

from conftest import make_parallel, random_parallel
from tollopt import (
    FlowVector,
    PolyLatency,
    RoutingGame,
    TollVector,
    solve_equilibrium,
    total_latency,
)
from tollopt import oracle as oracle_module
from tollopt.enforcement import EnforcementConfig, enforce_flow
from tollopt.game import LatencyTable
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import (
    EquilibriumOracle,
    OracleBudgetExceeded,
    OracleMode,
    TollOutOfRange,
)


def test_fig1_l1_flow_only_zero_tolls(fig1_l1):
    oracle = EquilibriumOracle(fig1_l1, OracleMode.FLOW_ONLY)
    resp = oracle.query(TollVector.zeros(2))
    assert np.allclose(resp.aggregate_flow, [0.0, 1.0], atol=1e-9)
    assert resp.total_cost is None


def test_fig1_pair_indistinguishable_on_grid(fig1_l1, fig1_l2):
    o1 = EquilibriumOracle(fig1_l1, OracleMode.FLOW_ONLY, eps_query=1e-10)
    o2 = EquilibriumOracle(fig1_l2, OracleMode.FLOW_ONLY, eps_query=1e-10)
    worst = 0.0
    for t0 in np.linspace(0, 2, 9):
        for t1 in np.linspace(0, 2, 9):
            tolls = TollVector(np.array([t0, t1]))
            f1 = o1.query(tolls).aggregate_flow
            f2 = o2.query(tolls).aggregate_flow
            worst = max(worst, float(np.max(np.abs(f1 - f2))))
    assert worst <= 2 * 1e-10


def test_fig1_pair_costs_differ(fig1_l1, fig1_l2):
    o1 = EquilibriumOracle(fig1_l1, OracleMode.FLOW_AND_COST)
    o2 = EquilibriumOracle(fig1_l2, OracleMode.FLOW_AND_COST)
    r1 = o1.query(TollVector.zeros(2))
    r2 = o2.query(TollVector.zeros(2))
    assert r1.total_cost == pytest.approx(0.0, abs=1e-9)
    assert r2.total_cost == pytest.approx(1.0, abs=1e-9)


def test_query_indices_increment(pigou):
    oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY)
    assert oracle.query(TollVector.zeros(2)).query_index == 1
    assert oracle.query(TollVector.zeros(2)).query_index == 2
    assert oracle.query_count == 2


def test_determinism(pigou, rng):
    oracle = EquilibriumOracle(pigou, OracleMode.FLOW_AND_COST)
    tau = TollVector(rng.uniform(0, 2, 2))
    a = oracle.query(tau)
    b = oracle.query(tau)
    assert np.array_equal(a.aggregate_flow, b.aggregate_flow)
    assert a.total_cost == b.total_cost


def test_toll_out_of_range(pigou):
    oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY)
    with pytest.raises(TollOutOfRange):
        oracle.query(TollVector(np.array([0.0, 100.0])))  # above T_max = 8
    with pytest.raises(TollOutOfRange):
        oracle.query(TollVector(np.array([1.0, 1.0, 1.0])))  # wrong length


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("topology", ["braess", "parallel"])
def test_non_finite_toll_rejected_uncounted(braess, rng, topology, bad):
    game = braess if topology == "braess" else random_parallel(4, rng)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST)
    tau = np.full(game.m, 0.5)
    tau[1] = bad
    with pytest.raises(TollOutOfRange):
        oracle.query(TollVector(tau))
    assert oracle.query_count == 0
    assert oracle.query_log == []
    assert oracle.query(TollVector(np.full(game.m, 0.5))).query_index == 1


def test_budget_exhaustion(pigou):
    oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, max_queries=2)
    oracle.query(TollVector.zeros(2))
    oracle.query(TollVector.zeros(2))
    with pytest.raises(OracleBudgetExceeded):
        oracle.query(TollVector.zeros(2))


def test_negative_budget_rejected(pigou):
    with pytest.raises(ValueError, match="max_queries"):
        EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, max_queries=-3)


def test_cost_consistency_with_returned_flow(rng):
    game = random_parallel(3, rng)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-9)
    c = game.constants
    for _ in range(10):
        tau = TollVector(rng.uniform(0, 2, 3))
        resp = oracle.query(tau)
        direct = total_latency(game, FlowVector.single(resp.aggregate_flow))
        assert abs(resp.total_cost - direct) <= 2 * game.m * c.K**2 * oracle.eps_query


def test_flow_accuracy_against_hidden_equilibrium(rng):
    game = random_parallel(4, rng, quadratic=True)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
    for _ in range(10):
        tau = TollVector(rng.uniform(0, 2, 4))
        resp = oracle.query(tau)
        exact = solve_equilibrium(game, tau).flow.aggregate
        assert np.max(np.abs(resp.aggregate_flow - exact)) <= oracle.eps_query


def test_no_game_leak_in_repr_or_skeleton(pigou):
    oracle = EquilibriumOracle(pigou, OracleMode.FLOW_ONLY)
    assert "PolyLatency" not in repr(oracle)
    assert not hasattr(oracle.skeleton, "edges")  # ids and endpoints only


def _reachable(obj, depth=0):
    """obj and every value reachable from it through containers, arrays and
    instance attributes."""
    yield obj
    if depth > 6 or isinstance(obj, (str, bytes, enum.Enum)):
        return
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, np.ndarray):
        children = obj.ravel().tolist()
    elif dataclasses.is_dataclass(obj) or hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        children = []
    for child in children:
        yield from _reachable(child, depth + 1)


def test_no_latency_data_reachable_from_skeleton_or_oracle():
    coeffs = {0.1234567, 0.7654321, 0.3141592, 0.2718281, 0.5772156}
    game = make_parallel([(0.1234567, 0.7654321), (0.3141592, 0.2718281, 0.5772156)])
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST)
    oracle.query(TollVector(np.array([0.5, 0.0])))
    skel = oracle.skeleton
    for name in dir(skel):  # fill every cached index
        if not name.startswith("_"):
            getattr(skel, name)
    assert game.latency_table is not None
    exposed = [v for k, v in vars(oracle).items() if k != "_EquilibriumOracle__game"]
    exposed += [oracle.query_log, skel]
    for value in _reachable(exposed):
        assert not isinstance(value, (RoutingGame, LatencyTable, PolyLatency))
        assert not (isinstance(value, float) and value in coeffs)


def test_eps_query_floor(pigou):
    with pytest.raises(ValueError):
        EquilibriumOracle(pigou, OracleMode.FLOW_ONLY, eps_query=1e-13)


def test_eps_query_nan_rejected():
    # a NaN promise passes `eps < floor`; an enforcement against it can
    # never accept a deviation, however small
    game = make_parallel([(0.0, 1.0)] * 3)
    with pytest.raises(ValueError, match="floor"):
        EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=float("nan"))


def test_overflowing_costs_refused_before_any_solve(monkeypatch):
    # demand 1e300: K = 2e300 is finite, the solver's gap target is not
    game = generate(InstanceSpec(topology="parallel", links=4, demand=1e300))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(oracle_module, "solve_equilibrium", no_solve)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    with pytest.raises(ValueError, match="overflow a double"):
        oracle.query(TollVector.zeros(4))
    assert oracle.query_count == 0
    target = FlowVector.single([2.5e299] * 4)
    with pytest.raises(ValueError, match="overflow a double"):
        enforce_flow(oracle, target, EnforcementConfig(delta=1e-3))
    assert oracle.query_count == 0


def test_large_finite_costs_still_answered():
    # demand 1e30: the gap target is large but finite, so queries run
    game = generate(InstanceSpec(topology="parallel", links=4, demand=1e30))
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    resp = oracle.query(TollVector.zeros(4))
    assert resp.aggregate_flow.sum() == pytest.approx(1e30)
