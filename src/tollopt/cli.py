"""Command-line front end: instance generation, equilibrium solves, toll
enforcement, end-to-end toll optimization, the flow-only impossibility
demo, and query-count benchmarking.

Exit codes are one map, by exception class, that every command runs in:

- 0 success;
- 2 a checked tolerance failed: an equilibrium solve that could not reach
  its accuracy (``NoConvergence``), an ellipsoid update that broke down
  (``NumericBreakdown``), an enforcement that found no tolls, or an
  optimize or demo result that fails its own check;
- 3 invalid input: a click usage error (an unknown command or option, a
  missing option, a value of the wrong type), any ``ValueError`` (a
  malformed instance, tolls or target file, a bad spec or configuration
  value, a negative query budget, a toll out of range, an infeasible or
  cyclic target, a graph with a directed cycle for ``optimize``, a game
  whose costs overflow a double for ``solve-eq`` and ``enforce``), a
  missing field (``KeyError``), or an input or output path that cannot be
  read or written (``OSError``);
- 4 query budget exhausted (``OracleBudgetExceeded``, or
  ``OracleSampleFailed`` when a cost sample's enforcement failed), and an
  ``optimize`` run whose descent spent the budget, after its report;
- 1 only when standard output closes early (a broken pipe), as click
  handles it.

``enforce --trace`` writes one JSON line per enforcement step (a dual
step or an ellipsoid cut), ``optimize --trace`` one per descent
iteration, with the queries its gradient spent (``gradient_queries``)
and its Newton decrement (``decrement``).  The ``optimize`` report puts
the query-only ``gap_bound`` (the decrement that stopped the run, or
null) next to the full-knowledge ``gap``.
``--out`` files open while the options are parsed, and ``--trace`` files
before the first query, so a path that cannot be written exits 3 before
any solve.  Every command is deterministic given --seed and emits a
machine-readable report with a stable field order.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .enforcement import (
    EnforcementConfig,
    EnforcementStatus,
    enforce_flow,
    required_accuracy,
)
from .ellipsoid import NumericBreakdown
from .equilibrium import EqConfig, NoConvergence, solve_equilibrium
from .exact import optimal_flow
from .game import TollOutOfRange, TollVector, total_latency
from .instances import TOPOLOGIES, InstanceSpec, generate
from .oracle import (
    EquilibriumOracle,
    OracleBudgetExceeded,
    OracleMode,
    _refuse_overflowing,
)
from .serialize import (
    flow_from_json,
    flow_to_json,
    game_from_json,
    game_to_json,
    tolls_from_json,
    tolls_to_json,
)
from .zeroorder import (
    OptConfig,
    OracleSampleFailed,
    compute_optimal_tolls,
)

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

_JSON_TYPES = {"string": str, "object": dict, "number": (int, float)}


def validate_report(report) -> bool:
    """Whether ``report`` is a dict holding every field ``REPORT_SCHEMA``
    requires, each of the JSON type it names (a bool is not a number)."""
    if not isinstance(report, dict):
        return False
    for key in REPORT_SCHEMA["required"]:
        value = report.get(key)
        kind = _JSON_TYPES[REPORT_SCHEMA["properties"][key]["type"]]
        if not isinstance(value, kind) or isinstance(value, bool):
            return False
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


@contextmanager
def _jsonl(path: str | None):
    """Yield a function that writes one record per JSON line to ``path``.

    The file opens on entry, so a path that cannot be written fails before
    any work; with no path the records are dropped.
    """
    if not path:
        yield lambda rec: None
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda rec: fh.write(json.dumps(rec) + "\n")


def run_impossibility_demo(grid_resolution: int = 21, toll_max: float = 2.0) -> dict:
    """Probe the fig1 pair with a toll grid through flow-only oracles.

    The two games answer identically (within 1e-6) on every grid point
    even though their optimal flows (and costs) differ, so no flow-only
    strategy can tell which tolls are optimal.  Raises ``ValueError``
    before any query when ``grid_resolution`` is below 2, and
    ``TollOutOfRange`` when ``toll_max`` is not in [0, T_max].
    """
    started = time.perf_counter()
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
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
    max_queries: int | None = None,
    trace_path: str | None = None,
) -> dict:
    started = time.perf_counter()
    oracle = EquilibriumOracle(
        game, OracleMode.FLOW_AND_COST, eps_query=1e-11, max_queries=max_queries
    )
    with _jsonl(trace_path) as write:
        # the minimizer checks cfg and the graph before its first query, so
        # a refused input costs no solve, the full-knowledge one included
        tolls, report = compute_optimal_tolls(oracle, game.skeleton(), cfg)
        for rec in report.iteration_trace:
            write(rec)
    _, opt_cost = optimal_flow(game)
    induced = solve_equilibrium(game, tolls)
    induced_cost = total_latency(game, induced.flow)
    gap = induced_cost - opt_cost
    results = {
        "optimal_cost": opt_cost,
        "best_sampled_cost": report.best_cost,
        "induced_equilibrium_cost": induced_cost,
        "gap": gap,
        "gap_bound": report.gap_bound,
        "gap_within_2eps": bool(gap <= 2 * cfg.epsilon + 1e-12),
        "tolls": list(tolls.values),
        "optimizer_status": report.status,
        "optimizer_queries": report.total_oracle_queries,
    }
    return _report(
        "optimize",
        instance_desc,
        {"epsilon": cfg.epsilon, "delta": cfg.resolved_delta(game.skeleton()),
         "max_queries": max_queries},
        results,
        oracle.query_count,
        started,
    )


def run_pipeline(
    spec: InstanceSpec,
    epsilon: float = 0.02,
    max_queries: int | None = None,
    trace_path: str | None = None,
) -> dict:
    """Generate a game, hide it behind a cost-revealing oracle, compute
    near-optimal tolls, and score them against the full-knowledge optimum."""
    game = generate(spec)
    cfg = OptConfig(epsilon=epsilon)
    return _pipeline_on_game(game, asdict(spec), cfg, max_queries, trace_path)


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
    empirical trend, not a guarantee; with fewer than two sizes they are
    None (JSON null).  Raises ``ValueError`` before any query on a size
    below 2 or an invalid epsilon or delta_enforce.
    """
    started = time.perf_counter()
    if any(m < 2 for m in sizes):
        raise ValueError("sizes must be at least 2")
    enforce_cfg = EnforcementConfig(delta=delta_enforce)
    cap = {} if opt_iterations is None else {"max_iterations": opt_iterations}
    opt_cfg = OptConfig(epsilon=epsilon, **cap)  # no cap given: OptConfig's default
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
    slope_enf = slope_opt = None  # a slope needs two sizes
    if len(sizes) >= 2:
        slope_enf = float(
            np.polyfit(logs, np.log(np.maximum(enforce_counts, 1)), 1)[0]
        )
        slope_opt = float(
            np.polyfit(logs, np.log(np.maximum(optimize_counts, 1)), 1)[0]
        )
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


@contextmanager
def _exit_codes():
    """Map a command's failures to the documented exit codes, by class.

    Every ``ValueError`` the package raises refuses its caller's input, and
    so does every click usage error, which click then reports itself.
    """
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INVALID
        raise
    except (OracleBudgetExceeded, OracleSampleFailed) as exc:
        click.echo(f"budget exhausted: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except NoConvergence as exc:
        click.echo(f"solver did not converge: {exc}", err=True)
        sys.exit(EXIT_TOLERANCE)
    except NumericBreakdown as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_TOLERANCE)
    except BrokenPipeError:
        raise  # a closed stdout is no invalid input: click exits 1 quietly
    except (OSError, KeyError, ValueError) as exc:
        click.echo(f"invalid input: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_INVALID)


class _Commands(click.Group):
    """A command group that parses its options and runs each command
    inside ``_exit_codes``."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _exit_codes():
            return super().invoke(ctx)


def _open_out(ctx: click.Context, param, path: str | None):
    """``--out`` callback: open the file for writing before the command
    runs, and hand the command a function that writes one text there (or
    to standard output).  Only that write replaces an existing file, so a
    failed run leaves it, perhaps the command's own input, as it was."""
    if not path:
        return click.echo
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    return lambda text: Path(path).write_text(text + "\n", encoding="utf-8")


def _emit(report: dict, out) -> None:
    out(json.dumps(report, indent=2, allow_nan=False))


def _load_game(path: str):
    return game_from_json(Path(path).read_text(encoding="utf-8"))


@click.group(cls=_Commands)
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
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def gen_cmd(topology, links, width, height, n_vertices, density, degree,
            coeff_bound, demand, commodities, seed, out) -> None:
    """Generate a routing-game instance as JSON."""
    spec = InstanceSpec(
        topology=topology, links=links, width=width, height=height,
        n_vertices=n_vertices, density=density, degree=degree,
        coeff_bound=coeff_bound, demand=demand, commodities=commodities,
        seed=seed,
    )
    out(game_to_json(generate(spec)))


@main.command("solve-eq")
@click.option("--instance", required=True, type=click.Path(exists=False))
@click.option("--tolls", "tolls_path", type=click.Path(exists=False), default=None)
@click.option("--accuracy", default=1e-8, show_default=True)
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def solve_eq_cmd(instance, tolls_path, accuracy, out) -> None:
    """Compute the tolled Wardrop equilibrium of a known instance."""
    started = time.perf_counter()
    game = _load_game(instance)
    tolls = TollVector.zeros(game.m)
    if tolls_path:
        tolls = tolls_from_json(game, Path(tolls_path).read_text(encoding="utf-8"))
    _refuse_overflowing(game.skeleton())
    result = solve_equilibrium(game, tolls, EqConfig(accuracy=accuracy))
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


@main.command("enforce")
@click.option("--instance", required=True, type=click.Path(exists=False))
@click.option("--target", required=True, type=click.Path(exists=False))
@click.option("--delta-enforce", "delta", default=1e-3, show_default=True)
@click.option("--max-queries", default=None, type=int)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def enforce_cmd(instance, target, delta, max_queries, trace_path, out) -> None:
    """Find tolls enforcing a target flow on a (locally known) instance."""
    started = time.perf_counter()
    game = _load_game(instance)
    cfg = EnforcementConfig(delta=delta)
    f_star = flow_from_json(game, Path(target).read_text(encoding="utf-8"))
    oracle = EquilibriumOracle(
        game,
        OracleMode.FLOW_ONLY,
        eps_query=min(1e-10, required_accuracy(game, delta)),
        max_queries=max_queries,
    )
    with _jsonl(trace_path) as write:

        def sink(rec) -> None:
            write(
                {
                    "iteration": rec.iteration,
                    "cut_type": rec.cut_type,
                    "center": list(rec.center),
                    "deviation": rec.deviation,
                    "log_volume": rec.log_volume,
                }
            )

        result = enforce_flow(oracle, f_star, cfg, on_iteration=sink)
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
@click.option("--max-queries", default=None, type=int)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def optimize_cmd(instance, topology, links, width, height, n_vertices, density,
                 degree, demand, seed, epsilon, max_queries, trace_path,
                 out) -> None:
    """End-to-end: hide a game behind the oracle, compute near-optimal tolls."""
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
    cfg = OptConfig(epsilon=epsilon)
    report = _pipeline_on_game(game, desc, cfg, max_queries, trace_path)
    _emit(report, out)
    if report["results"]["optimizer_status"] == "BUDGET_EXHAUSTED":
        sys.exit(EXIT_BUDGET)
    sys.exit(EXIT_OK if report["results"]["gap_within_2eps"] else EXIT_TOLERANCE)


@main.command("demo-impossibility")
@click.option("--grid", "grid_resolution", default=21, show_default=True)
@click.option("--toll-max", default=2.0, show_default=True)
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def demo_cmd(grid_resolution, toll_max, out) -> None:
    """Show that flow-only oracles cannot separate the fig1 game pair."""
    report = run_impossibility_demo(grid_resolution, toll_max)
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
@click.option("--out", type=click.Path(), default=None, callback=_open_out)
def bench_cmd(sizes, epsilon, delta, opt_iterations, seed, out) -> None:
    """Query-count trend across instance sizes (informational)."""
    sizes = tuple(int(s) for s in sizes.split(","))
    _emit(run_bench(sizes, epsilon, delta, seed, opt_iterations), out)


if __name__ == "__main__":
    main()
