"""Per-layer attribution: which tollopt attributes the traced run wraps, and
how its spans become per-layer metrics.

Each layer is a tollopt module.  Self times of the layers plus the
``unattributed`` remainder (time inside operations that no span covers:
the minimizer's own steps, argument checks, result assembly) add up to the
traced pass time.
"""

from __future__ import annotations

from tollopt import enforcement, equilibrium, oracle, zeroorder
from tollopt.ellipsoid import Ellipsoid
from tollopt.enforcement import EnforcementStatus
from tollopt.oracle import EquilibriumOracle
from tollopt.zeroorder import SampleEngine

from tracer import Span, Target


def _solve_info(args, kwargs, out):
    return out.iterations


def _enforce_info(args, kwargs, out):
    warm = kwargs.get("initial", args[4] if len(args) > 4 else None) is not None
    return warm, out.queries_used, out.iterations, out.status is EnforcementStatus.SUCCESS


def _sample_info(args, kwargs, out):
    return out.queries_spent


TARGETS = (
    Target(oracle, "solve_equilibrium", "equilibrium", _solve_info),
    Target(oracle, "total_latency", "oracle.cost"),
    Target(EquilibriumOracle, "query", "oracle.query"),
    Target(equilibrium, "dijkstra", "paths.dijkstra"),
    Target(Ellipsoid, "update", "ellipsoid.update"),
    Target(Ellipsoid, "log_volume", "ellipsoid.log_volume"),
    # zeroorder binds its own name for enforce_flow; enforce ops call the
    # module's.  Both are the enforcement layer.
    Target(zeroorder, "enforce_flow", "enforcement", _enforce_info),
    Target(enforcement, "enforce_flow", "enforcement.direct", _enforce_info),
    Target(SampleEngine, "sample", "zeroorder.sample", _sample_info),
    Target(zeroorder, "project_to_polytope", "zeroorder.project"),
    Target(zeroorder, "acyclic_reduce", "zeroorder.reduce"),
)

#: Metric name -> unit, in the order they are printed.
PER_LAYER = {
    "equilibrium.calls": "count",
    "equilibrium.self_s": "s",
    "equilibrium.us_per_call": "us",
    "equilibrium.share": "fraction",
    "equilibrium.iterations_mean": "count",
    "paths.dijkstra_calls": "count",
    "paths.self_s": "s",
    "oracle.self_s": "s",
    "oracle.cost_s": "s",
    "oracle.us_per_query": "us",
    "oracle.log_len": "count",
    "ellipsoid.updates": "count",
    "ellipsoid.update_s": "s",
    "ellipsoid.log_volume_s": "s",
    "ellipsoid.breakdowns": "count",
    "enforcement.calls": "count",
    "enforcement.self_s": "s",
    "enforcement.queries_per_call": "count",
    "enforcement.iterations_per_call": "count",
    "enforcement.success_share": "fraction",
    "enforcement.warm_calls": "count",
    "enforcement.warm_success_share": "fraction",
    "zeroorder.samples": "count",
    "zeroorder.cache_hit_share": "fraction",
    "zeroorder.queries_per_sample": "count",
    "zeroorder.final_enforce_queries": "count",
    "zeroorder.descent_iterations": "count",
    "zeroorder.fallback_iterations": "count",
    "zeroorder.project_s": "s",
    "zeroorder.self_s": "s",
    "unattributed.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_share": "fraction",
    "check.fail_share": "fraction",
    "check.gap_frac": "fraction",
}

#: Self-time metrics that, with unattributed.self_s, sum to trace.solve_s.
SELF_TIME_METRICS = (
    "equilibrium.self_s",
    "paths.self_s",
    "oracle.self_s",
    "oracle.cost_s",
    "ellipsoid.update_s",
    "ellipsoid.log_volume_s",
    "enforcement.self_s",
    "zeroorder.self_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(spans: list[Span], self_time: dict[int, float], passes: int, solve_s: float) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    ``solve_s`` is the mean traced pass time.  Counts and times are means
    per pass; ratios are taken over all traced passes; ``*.us_per_*`` and
    ``equilibrium.share`` use inclusive span time.
    """
    by_kind: dict[str, list[Span]] = {}
    for s in spans:
        by_kind.setdefault(s.kind, []).append(s)

    def of(*kinds: str) -> list[Span]:
        return [s for k in kinds for s in by_kind.get(k, ())]

    def self_s(*kinds: str) -> float:
        return sum(self_time[s.idx] for s in of(*kinds)) / passes

    def incl_s(kind: str) -> float:
        return sum(s.duration for s in of(kind))

    solves = of("equilibrium")
    queries = of("oracle.query")
    updates = of("ellipsoid.update")
    returned = [s.info for s in of("enforcement", "enforcement.direct") if not s.raised]
    warm = [r for r in returned if r[0]]
    samples = [s for s in of("zeroorder.sample") if not s.raised]
    misses = [s.info for s in samples if s.info > 0]
    sample_ids = {s.idx for s in of("zeroorder.sample")}
    final = [
        s.info[1]
        for s in of("enforcement")
        if not s.raised and s.parent not in sample_ids
    ]
    m = {
        "equilibrium.calls": len(solves) / passes,
        "equilibrium.self_s": self_s("equilibrium"),
        "equilibrium.us_per_call": 1e6 * _ratio(incl_s("equilibrium"), len(solves)),
        "equilibrium.share": _ratio(incl_s("equilibrium") / passes, solve_s),
        "equilibrium.iterations_mean": _ratio(
            sum(s.info for s in solves if not s.raised), len(solves)
        ),
        "paths.dijkstra_calls": len(of("paths.dijkstra")) / passes,
        "paths.self_s": self_s("paths.dijkstra"),
        "oracle.self_s": self_s("oracle.query"),
        "oracle.cost_s": self_s("oracle.cost"),
        "oracle.us_per_query": 1e6 * _ratio(incl_s("oracle.query"), len(queries)),
        "ellipsoid.updates": len(updates) / passes,
        "ellipsoid.update_s": self_s("ellipsoid.update"),
        "ellipsoid.log_volume_s": self_s("ellipsoid.log_volume"),
        "ellipsoid.breakdowns": sum(
            s.info == "NumericBreakdown" for s in of("ellipsoid.update", "ellipsoid.log_volume")
        )
        / passes,
        "enforcement.calls": len(of("enforcement", "enforcement.direct")) / passes,
        "enforcement.self_s": self_s("enforcement", "enforcement.direct"),
        "enforcement.queries_per_call": _ratio(sum(r[1] for r in returned), len(returned)),
        "enforcement.iterations_per_call": _ratio(sum(r[2] for r in returned), len(returned)),
        "enforcement.success_share": _ratio(sum(r[3] for r in returned), len(returned)),
        "enforcement.warm_calls": len(warm) / passes,
        "enforcement.warm_success_share": _ratio(sum(r[3] for r in warm), len(warm)),
        "zeroorder.samples": len(samples) / passes,
        "zeroorder.cache_hit_share": _ratio(len(samples) - len(misses), len(samples)),
        "zeroorder.queries_per_sample": _ratio(sum(misses), len(misses)),
        "zeroorder.final_enforce_queries": sum(final) / passes,
        "zeroorder.project_s": self_s("zeroorder.project"),
        "zeroorder.self_s": self_s("zeroorder.sample", "zeroorder.project", "zeroorder.reduce"),
    }
    m["unattributed.self_s"] = solve_s - sum(m[k] for k in SELF_TIME_METRICS)
    return m
