"""Command-line front end: instance generation, equilibrium solves, toll
enforcement, end-to-end toll optimization, the flow-only impossibility
demo, and query-count benchmarking.

Exit codes: 0 success, 2 a checked tolerance failed (including an
equilibrium solve or ellipsoid update that could not reach its accuracy),
3 invalid input, 4 query budget exhausted (including a cost sample whose
enforcement failed).  Every command that queries an oracle (``enforce``,
``optimize``, ``demo-impossibility``, ``bench``) maps these failures the
same way.  Every command is deterministic given --seed and emits a
machine-readable report with a stable field order.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

import click
import numpy as np

from .enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    TargetCyclic,
    TargetInfeasible,
    enforce_flow,
    required_accuracy,
)
from .ellipsoid import NumericBreakdown
from .equilibrium import EqConfig, NoConvergence, solve_equilibrium
from .exact import optimal_flow
from .game import InvalidGame, TollOutOfRange, TollVector, total_latency
from .instances import TOPOLOGIES, BadSpec, InstanceSpec, generate
from .oracle import (
    EquilibriumOracle,
    OracleBudgetExceeded,
    OracleMode,
)
from .serialize import (
    flow_from_json,
    flow_to_json,
    game_from_json,
    game_to_json,
    tolls_from_json,
    tolls_to_json,
)
from .zeroorder import OptConfig, OracleSampleFailed, compute_optimal_tolls

__all__ = [
    "main",
    "run_impossibility_demo",
    "run_pipeline",
    "run_bench",
    "REPORT_SCHEMA",
    "validate_report",
]

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4

#: Minimal structural schema every emitted report satisfies.
REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "command",
        "instance",
        "config",
        "results",
        "oracle_queries",
        "wall_clock_sec",
    ],
    "properties": {
        "command": {"type": "string"},
        "instance": {"type": "object"},
        "config": {"type": "object"},
        "results": {"type": "object"},
        "oracle_queries": {"type": "number"},
        "wall_clock_sec": {"type": "number"},
    },
}


def validate_report(report: dict, schema: dict = REPORT_SCHEMA) -> bool:
    """Structural check of a report against the published schema."""
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(report, dict):
            return False
        for key in schema.get("required", []):
            if key not in report:
                return False
        for key, sub in schema.get("properties", {}).items():
            if key in report and not validate_report(report[key], sub):
                return False
        return True
    if kind == "string":
        return isinstance(report, str)
    if kind == "number":
        return isinstance(report, (int, float)) and not isinstance(report, bool)
    return True


def _report(command: str, instance: dict, config: dict, results: dict,
            queries: int, started: float) -> dict:
    return {
        "command": command,
        "instance": instance,
        "config": config,
        "results": results,
        "oracle_queries": queries,
        "wall_clock_sec": time.perf_counter() - started,
    }


def run_impossibility_demo(grid_resolution: int = 21, toll_max: float = 2.0) -> dict:
    """Probe the fig1 pair with a toll grid through flow-only oracles.

    The two games answer identically (within 1e-6) on every grid point
    even though their optimal flows (and costs) differ, so no flow-only
    strategy can tell which tolls are optimal.  Raises ``TollOutOfRange``
    before any query when ``toll_max`` is not in [0, T_max].
    """
    started = time.perf_counter()
    flow_tol = 1e-6
    g1 = generate(InstanceSpec(topology="fig1_l1"))
    g2 = generate(InstanceSpec(topology="fig1_l2"))
    t_max = min(g1.constants.T_max, g2.constants.T_max)
    if not 0.0 <= toll_max <= t_max:  # False for NaN
        raise TollOutOfRange(f"toll_max must lie in [0, {t_max}]")
    o1 = EquilibriumOracle(g1, OracleMode.FLOW_ONLY, eps_query=1e-10)
    o2 = EquilibriumOracle(g2, OracleMode.FLOW_ONLY, eps_query=1e-10)
    grid = np.linspace(0.0, toll_max, grid_resolution)
    max_discrepancy = 0.0
    for t0 in grid:
        for t1 in grid:
            tolls = TollVector(np.array([t0, t1]))
            f1 = o1.query(tolls).aggregate_flow
            f2 = o2.query(tolls).aggregate_flow
            max_discrepancy = max(
                max_discrepancy, float(np.max(np.abs(f1 - f2)))
            )
    opt1_flow, opt1_cost = optimal_flow(g1)
    opt2_flow, opt2_cost = optimal_flow(g2)
    optima_differ = (
        float(np.max(np.abs(opt1_flow.aggregate - opt2_flow.aggregate))) > 0.1
        or abs(opt1_cost - opt2_cost) > 0.1
    )
    results = {
        "grid_resolution": grid_resolution,
        "toll_range": [0.0, toll_max],
        "max_flow_discrepancy": max_discrepancy,
        "optimal_flow_l1": list(opt1_flow.aggregate),
        "optimal_flow_l2": list(opt2_flow.aggregate),
        "optimal_cost_l1": opt1_cost,
        "optimal_cost_l2": opt2_cost,
        "indistinguishable": bool(max_discrepancy <= flow_tol),
        "optima_differ": bool(optima_differ),
    }
    return _report(
        "demo-impossibility",
        {"topologies": ["fig1_l1", "fig1_l2"]},
        {"grid_resolution": grid_resolution, "flow_tol": flow_tol},
        results,
        o1.query_count + o2.query_count,
        started,
    )


def _pipeline_on_game(
    game,
    instance_desc: dict,
    cfg: OptConfig,
    trace_path: str | None = None,
) -> dict:
    started = time.perf_counter()
    _, opt_cost = optimal_flow(game)
    oracle = EquilibriumOracle(
        game, OracleMode.FLOW_AND_COST, eps_query=1e-11, max_queries=cfg.max_queries
    )
    tolls, report = compute_optimal_tolls(oracle, game.skeleton(), cfg)
    induced = solve_equilibrium(game, tolls)
    induced_cost = total_latency(game, induced.flow)
    gap = induced_cost - opt_cost
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for rec in report.iteration_trace:
                fh.write(json.dumps(rec) + "\n")
    results = {
        "optimal_cost": opt_cost,
        "best_sampled_cost": report.best_cost,
        "induced_equilibrium_cost": induced_cost,
        "gap": gap,
        "gap_within_2eps": bool(gap <= 2 * cfg.epsilon + 1e-12),
        "tolls": list(tolls.values),
        "optimizer_status": report.status,
        "optimizer_queries": report.total_oracle_queries,
    }
    return _report(
        "optimize",
        instance_desc,
        {"epsilon": cfg.epsilon, "delta": cfg.delta,
         "max_queries": cfg.max_queries},
        results,
        oracle.query_count,
        started,
    )


def run_pipeline(
    spec: InstanceSpec,
    epsilon: float = 0.02,
    delta: float | None = None,
    max_queries: int | None = None,
    trace_path: str | None = None,
) -> dict:
    """Generate a game, hide it behind a cost-revealing oracle, compute
    near-optimal tolls, and score them against the full-knowledge optimum."""
    game = generate(spec)
    cfg = OptConfig(epsilon=epsilon, delta=delta, max_queries=max_queries)
    return _pipeline_on_game(game, asdict(spec), cfg, trace_path)


def run_bench(
    sizes: tuple[int, ...] = (2, 4, 8, 16),
    epsilon: float = 0.1,
    delta_enforce: float = 1e-3,
    seed: int = 0,
    opt_iterations: int | None = None,
) -> dict:
    """Record query counts across instance sizes.

    For each size m: enforce a random equilibrium target on a parallel-link
    game at delta_enforce, and run the end-to-end optimizer at a loose
    epsilon (optionally with a fixed descent-iteration budget so large
    sizes stay affordable).  Log-log slopes against m are reported as an
    empirical trend, not a guarantee.
    """
    opt_cfg = OptConfig(epsilon=epsilon, max_iterations=opt_iterations or 60)
    return _bench(sizes, EnforcementConfig(delta=delta_enforce), opt_cfg, seed)


def _bench(sizes: tuple[int, ...], enforce_cfg: EnforcementConfig,
           opt_cfg: OptConfig, seed: int) -> dict:
    started = time.perf_counter()
    enforce_counts: list[int] = []
    optimize_counts: list[int] = []
    for idx, m in enumerate(sizes):
        spec = InstanceSpec(topology="parallel", links=m, seed=seed + idx)
        game = generate(spec)
        rng = np.random.default_rng(seed + 1000 + idx)
        tau = TollVector(rng.uniform(0.0, 1.0, m))
        target = solve_equilibrium(game, tau).flow
        eps = min(1e-10, required_accuracy(game, enforce_cfg.delta))
        oracle = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=eps)
        res = enforce_flow(oracle, target, enforce_cfg)
        enforce_counts.append(res.queries_used)
        oracle2 = EquilibriumOracle(game, OracleMode.FLOW_AND_COST, eps_query=1e-11)
        _, rep = compute_optimal_tolls(oracle2, game.skeleton(), opt_cfg)
        optimize_counts.append(rep.total_oracle_queries)
    logs = np.log(np.asarray(sizes, dtype=float))
    if len(sizes) >= 2:
        slope_enf = float(
            np.polyfit(logs, np.log(np.maximum(enforce_counts, 1)), 1)[0]
        )
        slope_opt = float(
            np.polyfit(logs, np.log(np.maximum(optimize_counts, 1)), 1)[0]
        )
    else:
        slope_enf = slope_opt = float("nan")
    results = {
        "sizes": list(sizes),
        "enforce_queries": enforce_counts,
        "optimize_queries": optimize_counts,
        "loglog_slope_enforce": slope_enf,
        "loglog_slope_optimize": slope_opt,
    }
    return _report(
        "bench",
        {"topology": "parallel", "sizes": list(sizes)},
        {"epsilon": opt_cfg.epsilon, "delta_enforce": enforce_cfg.delta,
         "seed": seed},
        results,
        sum(enforce_counts) + sum(optimize_counts),
        started,
    )


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@contextmanager
def _solver_failures_exit():
    """Exit 4 on a spent budget or failed cost sample, 2 on a solver or
    ellipsoid that could not reach its accuracy."""
    try:
        yield
    except (OracleBudgetExceeded, OracleSampleFailed) as exc:
        click.echo(f"budget exhausted: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except (NoConvergence, NumericBreakdown) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_TOLERANCE)


def _load_game(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return game_from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, InvalidGame, ValueError) as exc:
        click.echo(f"invalid instance: {exc}", err=True)
        sys.exit(EXIT_INVALID)


@click.group()
def main() -> None:
    """Toll computation for routing games behind equilibrium oracles."""


@main.command("gen")
@click.option("--topology", required=True,
              help=f"one of {', '.join(TOPOLOGIES)}")
@click.option("--links", default=3, show_default=True)
@click.option("--width", default=2, show_default=True)
@click.option("--height", default=2, show_default=True)
@click.option("--n-vertices", default=6, show_default=True)
@click.option("--density", default=0.4, show_default=True)
@click.option("--degree", default=1, show_default=True)
@click.option("--coeff-bound", default=1.0, show_default=True)
@click.option("--demand", default=1.0, show_default=True)
@click.option("--commodities", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def gen_cmd(topology, links, width, height, n_vertices, density, degree,
            coeff_bound, demand, commodities, seed, out) -> None:
    """Generate a routing-game instance as JSON."""
    try:
        spec = InstanceSpec(
            topology=topology, links=links, width=width, height=height,
            n_vertices=n_vertices, density=density, degree=degree,
            coeff_bound=coeff_bound, demand=demand, commodities=commodities,
            seed=seed,
        )
        game = generate(spec)
    except (BadSpec, InvalidGame) as exc:
        click.echo(f"invalid spec: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    text = game_to_json(game)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    sys.exit(EXIT_OK)


@main.command("solve-eq")
@click.option("--instance", required=True, type=click.Path(exists=False))
@click.option("--tolls", "tolls_path", type=click.Path(exists=False), default=None)
@click.option("--accuracy", default=1e-8, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def solve_eq_cmd(instance, tolls_path, accuracy, out) -> None:
    """Compute the tolled Wardrop equilibrium of a known instance."""
    started = time.perf_counter()
    game = _load_game(instance)
    tolls = TollVector.zeros(game.m)
    if tolls_path:
        try:
            with open(tolls_path, encoding="utf-8") as fh:
                tolls = tolls_from_json(game, fh.read())
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            click.echo(f"invalid tolls: {exc}", err=True)
            sys.exit(EXIT_INVALID)
    try:
        cfg = EqConfig(accuracy=accuracy)
    except ValueError as exc:
        click.echo(f"invalid accuracy: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    try:
        result = solve_equilibrium(game, tolls, cfg)
    except NoConvergence as exc:
        click.echo(f"solver did not converge: {exc}", err=True)
        sys.exit(EXIT_TOLERANCE)
    report = _report(
        "solve-eq",
        {"path": instance, "m": game.m, "k": game.k},
        {"accuracy": accuracy, "tolls": tolls_path},
        {
            "flow": json.loads(flow_to_json(game, result.flow)),
            "aggregate": list(result.flow.aggregate),
            "total_latency": total_latency(game, result.flow),
            "beckmann_gap": result.beckmann_gap,
            "wardrop_violation": result.wardrop_violation,
        },
        0,
        started,
    )
    _emit(report, out)
    sys.exit(EXIT_OK)


@main.command("enforce")
@click.option("--instance", required=True, type=click.Path(exists=False))
@click.option("--target", required=True, type=click.Path(exists=False))
@click.option("--delta-enforce", "delta", default=1e-3, show_default=True)
@click.option("--max-queries", default=None, type=int)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def enforce_cmd(instance, target, delta, max_queries, trace_path, out) -> None:
    """Find tolls enforcing a target flow on a (locally known) instance."""
    started = time.perf_counter()
    game = _load_game(instance)
    try:
        cfg = EnforcementConfig(delta=delta)
        with open(target, encoding="utf-8") as fh:
            f_star = flow_from_json(game, fh.read())
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    oracle = EquilibriumOracle(
        game,
        OracleMode.FLOW_ONLY,
        eps_query=min(1e-10, required_accuracy(game, delta)),
        max_queries=max_queries,
    )
    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None

    def sink(rec) -> None:
        if trace_fh is not None:
            trace_fh.write(
                json.dumps(
                    {
                        "iteration": rec.iteration,
                        "cut_type": rec.cut_type,
                        "center": list(rec.center),
                        "deviation": rec.deviation,
                        "log_volume": rec.log_volume,
                    }
                )
                + "\n"
            )

    try:
        with _solver_failures_exit():
            result = enforce_flow(oracle, f_star, cfg, on_iteration=sink)
    except (TargetInfeasible, TargetCyclic) as exc:
        click.echo(f"invalid target: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    report = _report(
        "enforce",
        {"path": instance, "m": game.m, "k": game.k},
        {"delta": delta, "max_queries": max_queries},
        {
            "status": result.status.value,
            "tolls": json.loads(tolls_to_json(game, result.tolls)),
            "achieved_deviation": result.achieved_deviation,
            "queries_used": result.queries_used,
            "iterations": result.iterations,
        },
        oracle.query_count,
        started,
    )
    _emit(report, out)
    if result.status is not EnforcementStatus.SUCCESS:
        sys.exit(EXIT_TOLERANCE)
    sys.exit(EXIT_OK)


@main.command("optimize")
@click.option("--instance", default=None, type=click.Path(),
              help="run on a game file instead of a generated topology")
@click.option("--topology", default="pigou", show_default=True)
@click.option("--links", default=3, show_default=True)
@click.option("--width", default=2, show_default=True)
@click.option("--height", default=2, show_default=True)
@click.option("--n-vertices", default=6, show_default=True)
@click.option("--density", default=0.4, show_default=True)
@click.option("--degree", default=1, show_default=True)
@click.option("--demand", default=1.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--epsilon", default=0.02, show_default=True)
@click.option("--delta", default=None, type=float)
@click.option("--max-queries", default=None, type=int)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def optimize_cmd(instance, topology, links, width, height, n_vertices, density,
                 degree, demand, seed, epsilon, delta, max_queries, trace_path,
                 out) -> None:
    """End-to-end: hide a game behind the oracle, compute near-optimal tolls."""
    try:
        if instance is not None:
            game = _load_game(instance)
            desc = {"path": instance, "m": game.m, "k": game.k}
        else:
            spec = InstanceSpec(
                topology=topology, links=links, width=width, height=height,
                n_vertices=n_vertices, density=density, degree=degree,
                demand=demand, seed=seed,
            )
            game = generate(spec)
            desc = asdict(spec)
        cfg = OptConfig(epsilon=epsilon, delta=delta, max_queries=max_queries)
        cfg.resolved_delta(game.skeleton())  # rejects a delta above its bound
    except ValueError as exc:  # BadSpec, or an invalid epsilon or delta
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    with _solver_failures_exit():
        report = _pipeline_on_game(game, desc, cfg, trace_path)
    _emit(report, out)
    if report["results"]["optimizer_status"] == "BUDGET_EXHAUSTED":
        sys.exit(EXIT_BUDGET)
    sys.exit(EXIT_OK if report["results"]["gap_within_2eps"] else EXIT_TOLERANCE)


@main.command("demo-impossibility")
@click.option("--grid", "grid_resolution", default=21, show_default=True)
@click.option("--toll-max", default=2.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def demo_cmd(grid_resolution, toll_max, out) -> None:
    """Show that flow-only oracles cannot separate the fig1 game pair."""
    if grid_resolution < 2:
        click.echo("grid resolution must be at least 2", err=True)
        sys.exit(EXIT_INVALID)
    with _solver_failures_exit():
        try:
            report = run_impossibility_demo(grid_resolution, toll_max)
        except TollOutOfRange as exc:
            click.echo(f"invalid toll range: {exc}", err=True)
            sys.exit(EXIT_INVALID)
    _emit(report, out)
    ok = report["results"]["indistinguishable"] and report["results"]["optima_differ"]
    sys.exit(EXIT_OK if ok else EXIT_TOLERANCE)


@main.command("bench")
@click.option("--sizes", default="2,4,8,16", show_default=True)
@click.option("--epsilon", default=0.1, show_default=True)
@click.option("--delta-enforce", "delta", default=1e-3, show_default=True)
@click.option("--opt-iterations", default=None, type=int,
              help="fixed descent-iteration budget for the optimize leg")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def bench_cmd(sizes, epsilon, delta, opt_iterations, seed, out) -> None:
    """Query-count trend across instance sizes (informational)."""
    try:
        size_tuple = tuple(int(s) for s in sizes.split(","))
        if any(s < 2 for s in size_tuple):
            raise ValueError("sizes must be at least 2")
        enforce_cfg = EnforcementConfig(delta=delta)
        opt_cfg = OptConfig(epsilon=epsilon, max_iterations=opt_iterations or 60)
    except ValueError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    with _solver_failures_exit():
        report = _bench(size_tuple, enforce_cfg, opt_cfg, seed)
    _emit(report, out)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
