"""Replay check: sha256 digests of the query logs of 42 optimize runs.

A behaviour-neutral change must leave every digest, and so the total, as
it was.  Each run builds a fresh game and oracle, runs
``compute_optimal_tolls`` and hashes every query's tolls, aggregate flow
and cost, then the returned tolls.  Run it from the repository root:

    PYTHONPATH=src python tests/replay_hash.py

It prints one line per run (queries, status, gap_frac, ``Ellipsoid.update``
calls, digest) and the total queries and digest over the per-run digests,
in order.  gap_frac is (induced cost - OPT) / (2 epsilon), with the
induced equilibrium and OPT re-solved at accuracy 1e-10 on a fresh game,
as the benchmark's output check scores an optimize call.  This is a
script, not a test.
"""

from __future__ import annotations

import hashlib

import numpy as np

from tollopt.ellipsoid import Ellipsoid
from tollopt.equilibrium import EqConfig, solve_equilibrium
from tollopt.exact import optimal_flow
from tollopt.game import total_latency
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import EquilibriumOracle, OracleMode
from tollopt.zeroorder import OptConfig, compute_optimal_tolls


def _dag(seed: int, degree: int = 3, n_vertices: int = 6) -> InstanceSpec:
    return InstanceSpec(
        topology="random_dag", n_vertices=n_vertices, degree=degree, commodities=2, seed=seed
    )


def runs() -> list[tuple[str, InstanceSpec, OptConfig]]:
    """The suite (the two optimize workloads' games, the uncapped 3x3
    grid, parallel links m = 16 / 64, braess, degree-3 two-commodity DAG
    seeds 1-6) and the wider set: degree-3 DAG seeds 7-16, degree-1 DAG
    seeds 1-6, 7-vertex degree-3 DAG seeds 1 / 3 / 14, 4x4 and 5x5 grids,
    m = 32 parallel links, pigou, degree-3 m = 8 parallel links seeds 1-4
    and degree-3 3x3 grids seeds 1-2.  The first 23 rows, the suite and
    DAG seeds 7-16, keep their order so that their digests compare with
    older tables of those runs."""
    grid = InstanceSpec(topology="grid", width=3, height=3, seed=5)
    capped = OptConfig(epsilon=0.25, max_iterations=5)
    out = [
        ("parallel-opt", InstanceSpec(topology="parallel", links=8, seed=5), capped),
        ("grid-opt", grid, OptConfig(epsilon=0.1, max_iterations=1)),
        ("grid-3x3-uncapped", grid, OptConfig(epsilon=0.1)),
    ]
    for links, seed in ((16, 4), (16, 5), (64, 5)):
        out.append((f"parallel-m{links}-s{seed}",
                    InstanceSpec(topology="parallel", links=links, seed=seed), capped))
    out.append(("braess", InstanceSpec(topology="braess"), OptConfig(epsilon=0.02)))
    out += [(f"dag-s{seed}", _dag(seed), OptConfig(epsilon=0.05)) for seed in range(1, 17)]
    out += [(f"dag1-s{seed}", _dag(seed, degree=1), OptConfig(epsilon=0.05))
            for seed in range(1, 7)]
    out += [(f"dag7v-s{seed}", _dag(seed, n_vertices=7), OptConfig(epsilon=0.05))
            for seed in (1, 3, 14)]
    for side in (4, 5):
        out.append((f"grid-{side}x{side}",
                    InstanceSpec(topology="grid", width=side, height=side, seed=5),
                    OptConfig(epsilon=0.1)))
    out.append(("parallel-m32-s5", InstanceSpec(topology="parallel", links=32, seed=5), capped))
    out.append(("pigou", InstanceSpec(topology="pigou"), OptConfig(epsilon=0.02)))
    for seed in range(1, 5):
        out.append((f"parallel-cubic-s{seed}",
                    InstanceSpec(topology="parallel", links=8, degree=3, seed=seed),
                    OptConfig(epsilon=0.25)))
    for seed in (1, 2):
        out.append((f"grid-cubic-s{seed}",
                    InstanceSpec(topology="grid", width=3, height=3, degree=3, seed=seed),
                    OptConfig(epsilon=0.1)))
    return out


def replay(spec: InstanceSpec, cfg: OptConfig) -> tuple[int, str, float, int, str]:
    """(queries, status, gap_frac, Ellipsoid.update calls, sha256 hex
    digest) of one run on a fresh game."""
    update, updates = Ellipsoid.update, []

    def counted(self, g):
        updates.append(1)
        return update(self, g)

    game = generate(spec)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    Ellipsoid.update = counted
    try:
        tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
    finally:
        Ellipsoid.update = update
    h = hashlib.sha256()
    for tau, resp in oracle.query_log:
        h.update(np.ascontiguousarray(tau, dtype=float).tobytes())
        h.update(np.ascontiguousarray(resp.aggregate_flow, dtype=float).tobytes())
        h.update(np.float64(resp.total_cost).tobytes())
    h.update(np.ascontiguousarray(tolls.values, dtype=float).tobytes())
    hidden = generate(spec)
    flow = solve_equilibrium(hidden, tolls, EqConfig(accuracy=1e-10)).flow
    opt = optimal_flow(hidden, gap=1e-10)[1]
    gap_frac = (total_latency(hidden, flow) - opt) / (2.0 * cfg.epsilon)
    return oracle.query_count, rep.status, gap_frac, len(updates), h.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    queries = 0
    for name, spec, cfg in runs():
        n, status, gap_frac, updates, digest = replay(spec, cfg)
        queries += n
        total.update(digest.encode())
        print(f"{name:20s} {n:5d} {status:16s} {gap_frac:9.3g} {updates:3d} {digest}",
              flush=True)
    print(f"{'total':20s} {queries:5d} {'':16s} {'':9s} {'':3s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
