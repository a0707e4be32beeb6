"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np

from closedforms import parallel_equilibrium
from conftest import (
    criterion_5_cases,
    criterion_8_cases,
    make_braess,
    random_dag_game,
    random_parallel,
)
from tollopt import (
    EqConfig,
    FlowVector,
    TollVector,
    solve_equilibrium,
    total_latency,
)
from tollopt.cli import run_bench, run_impossibility_demo, validate_report
from tollopt.enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    ellipsoid_search,
    enforce_flow,
)
from tollopt.exact import marginal_cost_tolls, optimal_flow
from tollopt.game import has_positive_cycle
from tollopt.oracle import EquilibriumOracle, OracleMode
from tollopt.zeroorder import (
    JacobianModel,
    OptConfig,
    SampleEngine,
    affine_hull_basis,
    compute_optimal_tolls,
    project_to_polytope,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_impossibility_reproduction():
    """Flow-only oracles cannot separate the two-link pair; optima differ."""
    start = time.perf_counter()
    report = run_impossibility_demo(grid_resolution=21, toll_max=2.0)
    elapsed = time.perf_counter() - start
    r = report["results"]
    ok = (
        r["max_flow_discrepancy"] <= 1e-6
        and np.allclose(r["optimal_flow_l1"], [0.0, 1.0], atol=1e-9)
        and np.allclose(r["optimal_flow_l2"], [0.5, 0.5], atol=1e-9)
        and abs(r["optimal_cost_l1"] - 0.0) <= 1e-9
        and abs(r["optimal_cost_l2"] - 0.75) <= 1e-9
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"max discrepancy {r['max_flow_discrepancy']:.2e} on a 21x21 grid, "
        f"optima ({r['optimal_cost_l1']:.3f}, {r['optimal_cost_l2']:.3f}), "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_equilibrium_correctness():
    """Solver matches closed forms on 100 random tolled parallel games."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        game = random_parallel(m, rng, quadratic=True)
        tau = rng.uniform(0.0, 2.0, m)
        ref = parallel_equilibrium([e.latency.coeffs for e in game.edges], tau)
        got = solve_equilibrium(game, TollVector(tau)).flow.aggregate
        worst = max(worst, float(np.max(np.abs(got - ref))))
    braess = make_braess()
    braess_cost = total_latency(braess, solve_equilibrium(braess).flow)
    ok = worst <= 1e-6 and abs(braess_cost - 2.0) <= 1e-6
    _verdict(
        2,
        ok,
        f"100 random tolled parallel games, worst flow error {worst:.2e}; "
        f"braess zero-toll cost {braess_cost:.9f}",
    )
    assert ok


def test_criterion_3_enforcement_contract():
    """50 random instances: SUCCESS within 2*delta, certificates never cut."""
    rng = np.random.default_rng(7)
    delta = 1e-3
    start = time.perf_counter()
    successes = 0
    certificate_violations = 0
    runs = []
    for idx in range(50):
        target = None
        while target is None:
            if idx % 2 == 0:
                m = int(rng.integers(2, 17))
                game = random_parallel(m, rng)
                # target = optimal flow; certificate = its marginal-cost tolls
                target, _ = optimal_flow(game)
                certificate = marginal_cost_tolls(game, target).values
            else:
                n = int(rng.integers(4, 8))
                m_target = int(rng.integers(n, 17))
                k = int(rng.integers(1, 3))
                game = random_dag_game(n, m_target, k, rng)
                # target = equilibrium of random tolls; they are the witness
                certificate = rng.uniform(0.0, 1.0, game.m)
                target = solve_equilibrium(game, TollVector(certificate)).flow
            if has_positive_cycle(game, target):
                target = None  # redraw; enforcement needs acyclic targets
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
        hits = []

        def check(rec, cert=certificate):
            if not rec.ellipsoid.contains(cert, tol=1e-7):
                hits.append(rec.iteration)

        res = ellipsoid_search(
            oracle, target, EnforcementConfig(delta=delta), on_iteration=check
        )
        runs.append((game.m, game.k, res))
        certificate_violations += len(hits)
        if res.status is EnforcementStatus.SUCCESS and res.achieved_deviation <= 2 * delta:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes == len(runs) == 50 and certificate_violations == 0 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"{successes}/{len(runs)} enforcements succeeded at delta={delta}, "
        f"{certificate_violations} certificate violations, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_oracle_accuracy():
    """100 random feasible flows priced within delta of the hidden cost."""
    rng = np.random.default_rng(11)
    delta = 1e-2
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    engines = []
    for _ in range(7):
        m = int(rng.integers(2, 5))
        game = random_parallel(m, rng)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engines.append((game, SampleEngine(oracle, delta)))
    for _ in range(3):
        game = random_dag_game(5, 8, 1, rng)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        engines.append((game, SampleEngine(oracle, delta)))
    while checked < 100:
        game, engine = engines[checked % len(engines)]
        if game.k == 1 and all(e.tail == "s" for e in game.edges):
            split = rng.dirichlet(np.ones(game.m))
            flow = FlowVector.single(split)
        else:
            raw = rng.normal(0.4, 0.4, size=(game.k, game.m))
            flow = project_to_polytope(game.skeleton(), raw)
        sample = engine.sample(flow)
        # the hidden cost of the requested flow (cycle-free on these DAGs),
        # of the sample's flow and of an independent solve at its tolls
        induced = solve_equilibrium(game, sample.enforcing_tolls, EqConfig(1e-12)).flow
        for priced in (flow, sample.flow, induced):
            worst = max(worst, abs(sample.observed_cost - total_latency(game, priced)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= delta and checked == 100
    _verdict(
        4,
        ok,
        f"100 zero-order samples, worst cost error {worst:.2e} "
        f"(budget {delta}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_end_to_end():
    """compute_optimal_tolls reaches OPT + 2*eps on the full test set."""
    eps = 0.02
    start = time.perf_counter()
    cases = criterion_5_cases()
    gaps = []
    ok = True
    for name, game, _ in cases:
        _, opt = optimal_flow(game)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, _ = compute_optimal_tolls(
            oracle, game.skeleton(), OptConfig(epsilon=eps)
        )
        induced_cost = total_latency(game, solve_equilibrium(game, tolls).flow)
        gap = induced_cost - opt
        gaps.append((name, gap))
        if gap > 2 * eps + 1e-12:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    worst_name, worst_gap = max(gaps, key=lambda g: g[1])
    _verdict(
        5,
        ok,
        f"{len(cases)} instances, worst induced-cost gap {worst_gap:.4f} "
        f"({worst_name}) against budget {2 * eps}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_numerical_properties():
    """Convexity sampling, ellipsoid identity, gradient check, bench trend."""
    rng = np.random.default_rng(23)
    # convexity of total latency: 10^4 sampled chords, zero violations
    violations = 0
    trials = 0
    games = [random_parallel(int(rng.integers(2, 6)), rng, quadratic=True) for _ in range(10)]
    while trials < 10_000:
        game = games[trials % len(games)]
        a = rng.dirichlet(np.ones(game.m))
        b = rng.dirichlet(np.ones(game.m))
        lam = float(rng.uniform(0, 1))
        mix = total_latency(game, FlowVector.single(lam * a + (1 - lam) * b))
        bound = lam * total_latency(game, FlowVector.single(a)) + (
            1 - lam
        ) * total_latency(game, FlowVector.single(b))
        if mix > bound + 1e-9:
            violations += 1
        trials += 1

    # central-cut volume identity within 1e-9
    from tollopt.ellipsoid import Ellipsoid, central_cut_volume_ratio

    ident_ok = True
    for dim in range(2, 9):
        A = rng.normal(size=(dim, dim))
        E = Ellipsoid(rng.normal(size=dim), A @ A.T + 0.5 * np.eye(dim))
        g = rng.normal(size=dim)
        ratio = math.exp(E.update(g).log_volume() - E.log_volume())
        if abs(ratio - central_cut_volume_ratio(dim)) > 1e-9:
            ident_ok = False

    # the optimizer's toll-probe gradient at an enforced flow vs the
    # analytic marginal cost at the flow of the answer it accepted
    grad_ok = True
    for _ in range(5):
        game = random_parallel(4, rng, quadratic=True)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        skel = oracle.skeleton
        basis = affine_hull_basis(skel)
        split = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        f = FlowVector.single(split / split.sum())
        at = SampleEngine(oracle, OptConfig(epsilon=0.05).resolved_delta(skel)).sample(f)
        # the raw and the curvature-corrected fit
        model = JacobianModel.probe(oracle, at, basis)
        gradients = (model.g_hat, model.g_c)
        h = 1e-5
        marginal = np.array(
            [
                e.latency.value(x) + x * e.latency.slope(x)
                for x, e in zip(at.response.aggregate_flow, game.edges)
            ]
        )
        expected = basis.sum(axis=1) @ marginal
        K2 = 6 * game.constants.K  # crude curvature bound
        if max(np.max(np.abs(g - expected)) for g in gradients) > max(1e-4, K2 * h):
            grad_ok = False

    # query-count trend (informational, recorded in the bench report)
    bench = run_bench(sizes=(2, 4, 8, 16), epsilon=0.25, opt_iterations=5, seed=3)
    bench_ok = validate_report(bench) and all(
        math.isfinite(bench["results"][k])
        for k in ("loglog_slope_enforce", "loglog_slope_optimize")
    )

    ok = violations == 0 and ident_ok and grad_ok and bench_ok
    _verdict(
        6,
        ok,
        f"convexity violations {violations}/10000, volume identity "
        f"{'ok' if ident_ok else 'broken'}, gradient check "
        f"{'ok' if grad_ok else 'broken'}, bench slopes "
        f"enforce={bench['results']['loglog_slope_enforce']:.2f} "
        f"optimize={bench['results']['loglog_slope_optimize']:.2f} "
        f"(informational)",
    )
    assert ok


def test_criterion_7_enforcement_by_dual_ascent():
    """Criterion 3's 50 instances through ``enforce_flow``: SUCCESS within
    2*delta, and any ellipsoid fallback keeps the certificate."""
    rng = np.random.default_rng(7)
    delta = 1e-3
    start = time.perf_counter()
    successes = 0
    certificate_violations = 0
    fallbacks = 0
    queries = 0
    for idx in range(50):
        target = None
        while target is None:
            if idx % 2 == 0:
                game = random_parallel(int(rng.integers(2, 17)), rng)
                target, _ = optimal_flow(game)
                certificate = marginal_cost_tolls(game, target).values
            else:
                n = int(rng.integers(4, 8))
                m_target = int(rng.integers(n, 17))
                k = int(rng.integers(1, 3))
                game = random_dag_game(n, m_target, k, rng)
                certificate = rng.uniform(0.0, 1.0, game.m)
                target = solve_equilibrium(game, TollVector(certificate)).flow
            if has_positive_cycle(game, target):
                target = None
        oracle = EquilibriumOracle(game, OracleMode.FLOW_ONLY, eps_query=1e-9)
        cuts = []
        hits = []

        def check(rec, cert=certificate):
            if rec.ellipsoid is not None:
                cuts.append(rec.iteration)
                if not rec.ellipsoid.contains(cert, tol=1e-7):
                    hits.append(rec.iteration)

        res = enforce_flow(
            oracle, target, EnforcementConfig(delta=delta), on_iteration=check
        )
        induced = solve_equilibrium(game, res.tolls).flow.aggregate
        dev = float(np.max(np.abs(induced - target.aggregate)))
        fallbacks += bool(cuts)
        certificate_violations += len(hits)
        queries += res.queries_used
        if res.status is EnforcementStatus.SUCCESS and max(res.achieved_deviation, dev) <= 2 * delta:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes == 50 and certificate_violations == 0 and elapsed < 60.0
    _verdict(
        7,
        ok,
        f"{successes}/50 dual-ascent enforcements succeeded at delta={delta}, "
        f"{fallbacks} ellipsoid fallbacks, {certificate_violations} certificate "
        f"violations, {queries} queries, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_end_to_end_beyond_affine():
    """compute_optimal_tolls reaches OPT + 2*eps on cubic parallel links, a
    3x3 grid and a two-commodity cubic DAG."""
    start = time.perf_counter()
    ok = True
    details = []
    for name, game, eps in criterion_8_cases():
        _, opt = optimal_flow(game)
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        tolls, _ = compute_optimal_tolls(oracle, game.skeleton(), OptConfig(epsilon=eps))
        gap = total_latency(game, solve_equilibrium(game, tolls).flow) - opt
        ok = ok and gap <= 2 * eps + 1e-12
        details.append(
            f"{name} gap {gap:.4f}/{2 * eps} in {oracle.query_count} queries"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(8, ok, f"{'; '.join(details)}, {elapsed:.1f}s")
    assert ok
