"""tollopt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload parallel-opt --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the harness imports tollopt from its
``src`` directory.  It repeats the workload's pass until ``--seconds`` is
spent (at least two passes), scores every output against the full-knowledge
game, and prints a metric table followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate between untraced and traced and the metrics
are the per-layer ones.  Times are scaled to a reference machine speed
measured in the same run (README.md says why).  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Metric name -> unit, in the order they are printed.
END_TO_END = {
    "solve_s": "s",
    "op_s.p50": "s",
    "queries": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Set-up is timed in this many fresh interpreters; setup_s is the median.
SETUP_PROBES = 7
MIN_PASSES = 2

#: Calibration loops run before a pass's first operation and after each one.
CALIBRATION_REPS = 3

#: Seconds ``calibrate`` takes on the reference machine (a 2-vCPU 2.1 GHz
#: Xeon VM when it is not slowed by its neighbours).
REFERENCE_S = 0.012


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that shares no code with tollopt.

    The machine's speed swings by up to half between spells of tens of
    seconds; a time scaled by REFERENCE_S / calibrate() follows the work,
    not the spell.
    """
    start = perf_counter()
    s = 0.0
    for i in range(200_000):
        s += i * 0.5
    return perf_counter() - start


#: Seconds ``import numpy`` takes in a fresh interpreter on the reference
#: machine; set-up times are scaled by it, since import speed swings more
#: than ``calibrate`` does.
REFERENCE_IMPORT_S = 0.1

_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
ops = workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
oracles = [op.oracle() for op in ops]
print(t1 - t0, time.perf_counter() - t0)
"""


def _use_checkout() -> None:
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_seconds(name: str, seed: int, small: bool) -> tuple[float, float]:
    """Median scaled and raw time of import, instance generation and oracle
    construction, each sample in a fresh interpreter."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), name, str(seed), str(int(small))],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        numpy_s, seconds = map(float, proc.stdout.split()[-2:])
        scaled.append(seconds * REFERENCE_IMPORT_S / numpy_s)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def _run_pass(workloads, ops, refs, tracer) -> dict:
    outcomes = []
    calib = [calibrate() for _ in range(CALIBRATION_REPS)]
    for op in ops:
        oracle = op.oracle()
        if tracer is None:
            outcomes.append(workloads.run(op, oracle))
        else:
            with tracer:
                outcomes.append(workloads.run(op, oracle))
        calib.extend(calibrate() for _ in range(CALIBRATION_REPS))
    speed = REFERENCE_S / statistics.median(calib)
    fracs = [workloads.check(op, out, ref) for op, out, ref in zip(ops, outcomes, refs)]
    for op, out, frac in zip(ops, outcomes, fracs):
        if frac is None:
            print(f"failed: {op.label} ({out.error or 'guarantee missed'})")
    trace = [
        r["iteration"]
        for out in outcomes
        if out.error is None and hasattr(out.result, "iteration_trace")
        for r in out.result.iteration_trace
    ]
    return {
        "traced": tracer is not None,
        "speed": speed,
        "raw_s": sum(out.seconds for out in outcomes),
        "solve_s": speed * sum(out.seconds for out in outcomes),
        "op_s": [speed * out.seconds for out in outcomes],
        "queries": tuple(out.queries for out in outcomes),
        "log_len": max(out.log_len for out in outcomes),
        "fracs": fracs,
        "descent": sum(isinstance(it, int) for it in trace),
        "fallback": sum(not isinstance(it, int) for it in trace),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; return the result object the harness prints."""
    setup_s, raw_setup_s = setup_seconds(name, seed, small)
    _use_checkout()
    import workloads

    ops = workloads.build(name, seed, small)
    refs = [workloads.reference(op) for op in ops]
    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.TARGETS)
        before = [vars(t.owner)[t.attr] for t in layers.TARGETS]

    calibrate()  # the first call is not representative
    passes: list[dict] = []
    pass_wall: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(workloads, ops, refs, tracer if traced else None))
        pass_wall.append(perf_counter() - start)
        if len(passes) >= MIN_PASSES and perf_counter() + statistics.median(pass_wall) > deadline:
            break

    fracs = [f for p in passes for f in p["fracs"]]
    attempted = len(fracs)
    failed = sum(f is None for f in fracs)
    ok = [f for f in fracs if f is not None]
    same_queries = len({p["queries"] for p in passes}) == 1
    restored = True
    table = {
        "fail_share": (failed / attempted, "fraction"),
        "gap_frac" if ops[0].target is None else "dev_frac": (max(ok, default=0.0), "fraction"),
        "passes": (len(passes), "count"),
        "ops_per_pass": (len(ops), "count"),
        "speed_factor": (statistics.median(p["speed"] for p in passes), "ratio"),
        "raw.solve_s": (statistics.median(p["raw_s"] for p in passes), "s"),
        "raw.setup_s": (raw_setup_s, "s"),
    }
    untraced = [p for p in passes if not p["traced"]]
    if not trace:
        op_s = [s for p in passes for s in p["op_s"]]
        metrics = {
            "solve_s": statistics.median(p["solve_s"] for p in passes),
            "op_s.p50": statistics.median(op_s),
            "queries": sum(passes[0]["queries"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END
        table["op_samples"] = (len(op_s), "count")
        if len(ops) > 1:
            table["op_s.p90"] = (statistics.quantiles(op_s, n=10)[-1], "s")
    else:
        tr = [p for p in passes if p["traced"]]
        traced_s = statistics.fmean(p["raw_s"] for p in tr)
        metrics = layers.aggregate(tracer.spans, tracer.self_times(), len(tr), traced_s)
        metrics.update(
            {
                "oracle.log_len": max(p["log_len"] for p in tr),
                "zeroorder.descent_iterations": statistics.fmean(p["descent"] for p in tr),
                "zeroorder.fallback_iterations": statistics.fmean(p["fallback"] for p in tr),
                "trace.solve_s": traced_s,
                "trace.overhead_share": statistics.median(p["solve_s"] for p in tr)
                / statistics.median(p["solve_s"] for p in untraced)
                - 1.0,
                "check.fail_share": table["fail_share"][0],
                "check.gap_frac": max(ok, default=0.0),
            }
        )
        units = layers.PER_LAYER
        metrics = {k: metrics[k] for k in units}
        restored = all(vars(t.owner)[t.attr] is b for t, b in zip(layers.TARGETS, before))
        table["tracer_restored"] = (int(restored), "bool")

    for key, unit in units.items():
        print(f"{key:34s} {metrics[key]:>14.6g} {unit}")
    for key, (value, unit) in table.items():
        print(f"{key:34s} {value:>14.6g} {unit}")
    print("pass_s", " ".join(f"{p['solve_s']:.3f}" for p in passes))
    print("raw_pass_s", " ".join(f"{p['raw_s']:.3f}" for p in passes))
    if not same_queries:
        print("queries differ between passes:", [sum(p["queries"]) for p in passes])
    return {
        "correct": failed == 0 and same_queries and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tollopt" / "__init__.py").is_file():
        print(f"no tollopt sources under {SRC}", file=sys.stderr)
        return 2
    _use_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
