"""The benchmark's workloads: fixed instance suites, one call per operation,
and full-knowledge checks of every output.

An operation is one ``compute_optimal_tolls`` call or one ``enforce_flow``
call on a fresh oracle.  A pass runs every operation of a workload once.
The suites are fixed (README.md says why); ``seed`` sets the order of the
operations in a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from tollopt import enforcement, exact, zeroorder
from tollopt.enforcement import EnforcementConfig, EnforcementStatus
from tollopt.equilibrium import EqConfig, solve_equilibrium
from tollopt.game import FlowVector, RoutingGame, TollVector, total_latency
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import EquilibriumOracle, OracleMode
from tollopt.zeroorder import OptConfig

WORKLOADS = ("parallel-opt", "grid-opt", "poly-enforce")

#: Accuracy of the full-knowledge re-solves that score outputs.
CHECK_ACCURACY = 1e-10


@dataclass(frozen=True)
class Op:
    label: str
    game: RoutingGame  # the hidden game
    eps_query: float
    tolerance: float  # epsilon of an optimize op, delta of an enforce op
    max_iterations: int | None = None  # descent cap of an optimize op
    target: FlowVector | None = None  # set for enforce ops

    def oracle(self) -> EquilibriumOracle:
        return EquilibriumOracle(self.game, OracleMode.FLOW_AND_COST, self.eps_query)


@dataclass(frozen=True)
class Outcome:
    seconds: float
    queries: int
    log_len: int
    tolls: TollVector | None
    result: Any  # OptimizationReport or EnforcementResult
    error: str | None  # exception class name if the call raised


def _optimize_op(spec: InstanceSpec, epsilon: float, max_iterations: int) -> Op:
    return Op(f"{spec.topology}-s{spec.seed}", generate(spec), 1e-11, epsilon, max_iterations)


def _enforce_op(spec: InstanceSpec, i: int) -> Op:
    """Target: the equilibrium at tolls drawn uniformly from [0, 1]."""
    game = generate(spec)
    tau = np.random.default_rng(1000 + i).uniform(0.0, 1.0, game.m)
    target = solve_equilibrium(game, TollVector(tau)).flow
    return Op(f"{spec.topology}-s{spec.seed}", game, 1e-10, 1e-3, target=target)


def build(name: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one pass, in the order the seed gives.

    ``small`` swaps in instances that finish in milliseconds, for the
    harness's own tests.
    """
    if name == "parallel-opt":
        spec = InstanceSpec(topology="parallel", links=3 if small else 8, seed=5)
        ops = [_optimize_op(spec, 0.25, 2 if small else 5)]
    elif name == "grid-opt":
        side = 2 if small else 3
        spec = InstanceSpec(topology="grid", width=side, height=side, seed=5)
        ops = [_optimize_op(spec, 0.25 if small else 0.1, 1)]
    elif name == "poly-enforce":
        specs = []
        for s in range(1, 2 if small else 6):
            specs.append(
                InstanceSpec(topology="parallel", links=3 if small else 8, degree=3, seed=s)
            )
            specs.append(
                InstanceSpec(
                    topology="random_dag",
                    n_vertices=4 if small else 7,
                    degree=3,
                    commodities=2,
                    seed=s,
                )
            )
        ops = [_enforce_op(spec, i) for i, spec in enumerate(specs)]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


def reference(op: Op) -> float | None:
    """Optimal total latency of an optimize op's game (None for enforce ops)."""
    if op.target is not None:
        return None
    return exact.optimal_flow(op.game, gap=CHECK_ACCURACY)[1]


def run(op: Op, oracle: EquilibriumOracle) -> Outcome:
    """One timed call.  Any exception is recorded, never raised."""
    tolls = result = error = None
    start = perf_counter()
    try:
        if op.target is None:
            cfg = OptConfig(epsilon=op.tolerance, max_iterations=op.max_iterations)
            tolls, result = zeroorder.compute_optimal_tolls(oracle, oracle.skeleton, cfg)
        else:
            cfg = EnforcementConfig(delta=op.tolerance)
            result = enforcement.enforce_flow(oracle, op.target, cfg)
            tolls = result.tolls
    except Exception as exc:  # every failure is scored, none stops the run
        error = type(exc).__name__
    seconds = perf_counter() - start
    return Outcome(seconds, oracle.query_count, len(oracle.query_log), tolls, result, error)


def check(op: Op, out: Outcome, opt_cost: float | None) -> float | None:
    """Error of the output as a fraction of its guarantee; None if it failed.

    Optimize: (induced cost - OPT) / (2 epsilon).  Enforce: deviation of
    the induced aggregate flow from the target / (2 delta).  Both re-solve
    the hidden game at the returned tolls.  An output fails if the call
    raised, the search reported NOT_FOUND, or the fraction exceeds 1.
    """
    if out.error is not None:
        return None
    if op.target is not None and out.result.status is not EnforcementStatus.SUCCESS:
        return None
    try:
        flow = solve_equilibrium(op.game, out.tolls, EqConfig(accuracy=CHECK_ACCURACY)).flow
    except Exception:  # a reference that cannot be computed fails the output
        return None
    if op.target is None:
        frac = (total_latency(op.game, flow) - opt_cost) / (2.0 * op.tolerance)
    else:
        dev = float(np.max(np.abs(flow.aggregate - op.target.aggregate)))
        frac = dev / (2.0 * op.tolerance)
    return frac if frac <= 1.0 else None
