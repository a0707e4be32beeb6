"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tollopt  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == layers.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_emits_every_metric(name, trace):
    result = run.measure(name, seed=3, seconds=0.0, trace=trace, small=True)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = layers.PER_LAYER if trace else run.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[k] for k in layers.SELF_TIME_METRICS) + m["unattributed.self_s"]
        assert parts == pytest.approx(m["trace.solve_s"], rel=1e-9)
        assert m["oracle.us_per_query"] > 0 and m["enforcement.calls"] > 0


def _attribute_snapshot() -> dict[tuple[str, str], object]:
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "tollopt" or mod_name.startswith("tollopt."):
            for key, value in vars(mod).items():
                snap[(mod_name, key)] = value
                if inspect.isclass(value) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        snap[(f"{mod_name}.{key}", attr)] = member
    return snap


def test_tracer_restores_tollopt_attributes():
    before = _attribute_snapshot()
    tracer = Tracer(layers.TARGETS)
    with tracer:
        assert tollopt.oracle.solve_equilibrium is not before[("tollopt.oracle", "solve_equilibrium")]
        game = tollopt.generate(tollopt.InstanceSpec(topology="braess"))
        tollopt.EquilibriumOracle(game).query(tollopt.TollVector.zeros(game.m))
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    kinds = {s.kind for s in tracer.spans}
    assert {"oracle.query", "equilibrium", "oracle.cost"} <= kinds


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise tollopt.NoConvergence("injected")

    monkeypatch.setattr(tollopt.zeroorder, "compute_optimal_tolls", broken)
    result = run.measure("parallel-opt", seed=0, seconds=0.0, trace=False, small=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_run_refuses_a_tree_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-opt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
