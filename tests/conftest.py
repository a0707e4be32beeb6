import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tollopt import Commodity, Edge, PolyLatency, RoutingGame, validate_game
from tollopt.instances import InstanceSpec, generate


def make_parallel(latencies, demand=1.0):
    """Parallel-link game; a latency is a coefficient tuple."""
    edges = tuple(
        Edge(f"e{i}", "s", "t", PolyLatency(tuple(c)))
        for i, c in enumerate(latencies)
    )
    return validate_game(
        RoutingGame(("s", "t"), edges, (Commodity("s", "t", demand),))
    )


def make_braess(demand=1.0):
    edges = (
        Edge("e0", "s", "v", PolyLatency((0.0, 1.0))),
        Edge("e1", "s", "w", PolyLatency((1.0,))),
        Edge("e2", "v", "t", PolyLatency((1.0,))),
        Edge("e3", "w", "t", PolyLatency((0.0, 1.0))),
        Edge("e4", "v", "w", PolyLatency((0.0,))),
    )
    return validate_game(
        RoutingGame(("s", "v", "w", "t"), edges, (Commodity("s", "t", demand),))
    )


def criterion_5_cases():
    """(name, game, epsilon) of the affine end-to-end acceptance set."""
    rng = np.random.default_rng(17)
    cases = [
        (name, generate(InstanceSpec(topology=name)), 0.02)
        for name in ("pigou", "fig1_l2", "braess")
    ]
    for i in range(6):
        m = int(rng.integers(3, 7))
        cases.append((f"parallel{m}-{i}", random_parallel(m, rng), 0.02))
    for i, (w, h) in enumerate([(2, 2), (2, 2), (3, 2), (3, 2)]):
        spec = InstanceSpec(topology="grid", width=w, height=h, seed=100 + i)
        cases.append((f"grid{w}x{h}-{i}", generate(spec), 0.02))
    return cases


def criterion_8_cases():
    """(name, game, epsilon) of the beyond-affine end-to-end acceptance set:
    cubic parallel links, a 3x3 grid and a two-commodity cubic DAG."""
    specs = [
        (InstanceSpec(topology="parallel", links=8, degree=3, seed=1), 0.05),
        (InstanceSpec(topology="grid", width=3, height=3, seed=5), 0.1),
        (
            InstanceSpec(
                topology="random_dag", n_vertices=5, degree=3, commodities=2, seed=1
            ),
            0.05,
        ),
    ]
    return [(spec.topology, generate(spec), eps) for spec, eps in specs]


def make_cyclic():
    """Diamond with both a->b and b->a: a directed cycle on the s-t paths."""
    edges = tuple(
        Edge(f"e{i}", tail, head, PolyLatency((0.1 * i, 1.0)))
        for i, (tail, head) in enumerate(
            [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t"), ("s", "b"), ("a", "t")]
        )
    )
    return validate_game(
        RoutingGame(("s", "a", "b", "t"), edges, (Commodity("s", "t", 1.0),))
    )


def random_parallel(m, rng, bound=1.5, quadratic=False):
    lats = []
    for _ in range(m):
        a0 = round(float(rng.uniform(0.0, bound / 2)), 6)
        a1 = round(float(rng.uniform(0.3, bound)), 6)
        if quadratic and rng.random() < 0.5:
            lats.append((a0, a1, round(float(rng.uniform(0.0, bound / 2)), 6)))
        else:
            lats.append((a0, a1))
    return make_parallel(lats)


def random_cubic_parallel(m, rng, bound=1.5):
    """Degree-3 parallel links; about half are flat at zero (a_1 = 0)."""
    lats = []
    for _ in range(m):
        a0 = round(float(rng.uniform(0.0, bound / 2)), 6)
        a1 = round(float(rng.uniform(0.3, bound)), 6) if rng.random() < 0.5 else 0.0
        a2 = round(float(rng.uniform(0.0, bound / 2)), 6)
        a3 = round(float(rng.uniform(0.3, bound)), 6)
        lats.append((a0, a1, a2, a3))
    return make_parallel(lats)


def random_dag_game(n, m_target, k, rng, bound=1.5):
    pairs = {(i, i + 1) for i in range(n - 1)}
    attempts = 0
    while len(pairs) < m_target and attempts < 20 * m_target:
        attempts += 1
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        pairs.add((i, j))
    ordered = sorted(pairs)
    edges = tuple(
        Edge(
            f"e{idx}",
            f"v{i}",
            f"v{j}",
            PolyLatency(
                (
                    round(float(rng.uniform(0.0, bound / 2)), 6),
                    round(float(rng.uniform(0.3, bound)), 6),
                )
            ),
        )
        for idx, (i, j) in enumerate(ordered)
    )
    coms = [Commodity("v0", f"v{n-1}", 1.0)]
    if k == 2:
        coms.append(Commodity("v0", f"v{n-2}", 0.7))
    return validate_game(
        RoutingGame(tuple(f"v{i}" for i in range(n)), edges, tuple(coms))
    )


@pytest.fixture
def pigou():
    return make_parallel([(0.0, 1.0), (1.0,)])


@pytest.fixture
def fig1_l1():
    return make_parallel([(0.0, 1.0), (0.0,)])


@pytest.fixture
def fig1_l2():
    return make_parallel([(1.0,), (0.0, 1.0)])


@pytest.fixture
def braess():
    return make_braess()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
