"""Replay check: sha256 digests of the query logs of 23 optimize runs.

A behaviour-neutral change must leave every digest, and so the total, as
it was.  Each run builds a fresh game and oracle, runs
``compute_optimal_tolls`` and hashes every query's tolls, aggregate flow
and cost, then the returned tolls.  Run it from the repository root:

    PYTHONPATH=src python tests/replay_hash.py

It prints one line per run (queries, status, digest) and the total digest
over the per-run digests, in order.  This is a script, not a test.
"""

from __future__ import annotations

import hashlib

import numpy as np

from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import EquilibriumOracle, OracleMode
from tollopt.zeroorder import OptConfig, compute_optimal_tolls


def runs() -> list[tuple[str, InstanceSpec, OptConfig]]:
    """The suite (the two optimize workloads' games, the uncapped 3x3
    grid, parallel links m = 16 / 64, braess) and degree-3 two-commodity
    DAG seeds 1-16."""
    grid = InstanceSpec(topology="grid", width=3, height=3, seed=5)
    out = [
        ("parallel-opt", InstanceSpec(topology="parallel", links=8, seed=5),
         OptConfig(epsilon=0.25, max_iterations=5)),
        ("grid-opt", grid, OptConfig(epsilon=0.1, max_iterations=1)),
        ("grid-3x3-uncapped", grid, OptConfig(epsilon=0.1)),
    ]
    for links, seed in ((16, 4), (16, 5), (64, 5)):
        out.append((f"parallel-m{links}-s{seed}",
                    InstanceSpec(topology="parallel", links=links, seed=seed),
                    OptConfig(epsilon=0.25, max_iterations=5)))
    out.append(("braess", InstanceSpec(topology="braess"), OptConfig(epsilon=0.02)))
    for seed in range(1, 17):
        spec = InstanceSpec(
            topology="random_dag", n_vertices=6, degree=3, commodities=2, seed=seed
        )
        out.append((f"dag-s{seed}", spec, OptConfig(epsilon=0.05)))
    return out


def replay(spec: InstanceSpec, cfg: OptConfig) -> tuple[int, str, str]:
    """(queries, status, sha256 hex digest) of one run on a fresh game."""
    game = generate(spec)
    oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
    tolls, rep = compute_optimal_tolls(oracle, oracle.skeleton, cfg)
    h = hashlib.sha256()
    for tau, resp in oracle.query_log:
        h.update(np.ascontiguousarray(tau, dtype=float).tobytes())
        h.update(np.ascontiguousarray(resp.aggregate_flow, dtype=float).tobytes())
        h.update(np.float64(resp.total_cost).tobytes())
    h.update(np.ascontiguousarray(tolls.values, dtype=float).tobytes())
    return oracle.query_count, rep.status, h.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    queries = 0
    for name, spec, cfg in runs():
        n, status, digest = replay(spec, cfg)
        queries += n
        total.update(digest.encode())
        print(f"{name:20s} {n:5d} {status:16s} {digest}", flush=True)
    print(f"{'total':20s} {queries:5d} {'':16s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
