"""CLI commands: outputs, exit codes, report schema."""

import json

import pytest
from click.testing import CliRunner

from tollopt import cli, oracle
from tollopt.cli import (
    main,
    run_impossibility_demo,
    run_pipeline,
    validate_report,
)
from tollopt.ellipsoid import NumericBreakdown
from tollopt.equilibrium import NoConvergence
from tollopt.instances import InstanceSpec
from tollopt.oracle import OracleBudgetExceeded
from tollopt.zeroorder import OracleSampleFailed


@pytest.fixture
def runner():
    return CliRunner()


def test_gen_writes_game(runner, tmp_path):
    out = tmp_path / "game.json"
    result = runner.invoke(
        main, ["gen", "--topology", "pigou", "--out", str(out)]
    )
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert len(payload["edges"]) == 2


def test_gen_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = runner.invoke(
            main,
            ["gen", "--topology", "parallel", "--links", "3", "--seed", "7",
             "--out", str(path)],
        )
        assert res.exit_code == 0
    assert a.read_text() == b.read_text()


def test_gen_bad_topology(runner):
    result = runner.invoke(main, ["gen", "--topology", "moebius"])
    assert result.exit_code == 3


def test_solve_eq(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    result = runner.invoke(main, ["solve-eq", "--instance", str(game_path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert validate_report(report)
    assert report["results"]["aggregate"] == [1.0, 0.0]
    assert report["results"]["total_latency"] == pytest.approx(1.0)


def test_solve_eq_missing_instance(runner, tmp_path):
    result = runner.invoke(
        main, ["solve-eq", "--instance", str(tmp_path / "nope.json")]
    )
    assert result.exit_code == 3


def test_solve_eq_no_convergence_exits_2(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(
        main,
        ["gen", "--topology", "random_dag", "--n-vertices", "7", "--degree", "3",
         "--commodities", "2", "--seed", "6", "--out", str(game_path)],
    )
    result = runner.invoke(
        main, ["solve-eq", "--instance", str(game_path), "--accuracy", "1e-30"]
    )
    assert result.exit_code == 2


def test_solve_eq_bad_accuracy_exits_3(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    result = runner.invoke(
        main, ["solve-eq", "--instance", str(game_path), "--accuracy", "-1"]
    )
    assert result.exit_code == 3


def test_solve_eq_non_finite_toll_exits_3(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    tolls = tmp_path / "tolls.json"
    tolls.write_text('{"e0": "nan", "e1": 0.5}')
    result = runner.invoke(
        main, ["solve-eq", "--instance", str(game_path), "--tolls", str(tolls)]
    )
    assert result.exit_code == 3
    assert "Traceback" not in result.output


def test_enforce_success_and_trace(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    target = tmp_path / "target.json"
    target.write_text('{"e0": "0.5", "e1": "0.5"}')
    trace = tmp_path / "trace.jsonl"
    result = runner.invoke(
        main,
        ["enforce", "--instance", str(game_path), "--target", str(target),
         "--delta-enforce", "1e-3", "--trace", str(trace)],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert validate_report(report)
    assert report["results"]["status"] == "success"
    assert report["results"]["achieved_deviation"] <= 2e-3
    lines = trace.read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert {"iteration", "cut_type", "center", "deviation", "log_volume"} <= set(rec)


def test_enforce_infeasible_target(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    target = tmp_path / "target.json"
    target.write_text('{"e0": "0.5", "e1": "0.1"}')
    result = runner.invoke(
        main, ["enforce", "--instance", str(game_path), "--target", str(target)]
    )
    assert result.exit_code == 3


def test_optimize_pigou(runner):
    result = runner.invoke(
        main, ["optimize", "--topology", "pigou", "--epsilon", "0.02"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert validate_report(report)
    assert report["results"]["gap_within_2eps"] is True


def test_optimize_spent_budget_emits_report_and_exits_4(runner, tmp_path):
    # the descent spends the budget, so the final enforcement cannot run:
    # the best sample's tolls are reported, not lost
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["optimize", "--topology", "pigou", "--max-queries", "5", "--out", str(out)],
    )
    assert result.exit_code == 4
    report = json.loads(out.read_text())
    assert validate_report(report)
    results = report["results"]
    assert results["optimizer_status"] == "BUDGET_EXHAUSTED"
    assert results["optimizer_queries"] == report["oracle_queries"] <= 5
    assert len(results["tolls"]) == 2
    assert results["gap_within_2eps"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["--epsilon", "-1"],
        ["--delta", "0.5"],
        ["--delta", "0"],
        ["--delta", "-1"],
        ["--delta", "nan"],
    ],
)
def test_optimize_bad_config_exits_3(runner, args):
    result = runner.invoke(main, ["optimize", "--topology", "pigou", *args])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["enforce", "--delta-enforce", "0"],
        ["bench", "--sizes", "2", "--epsilon", "0"],
        ["bench", "--sizes", "2", "--delta-enforce", "-1"],
        ["demo-impossibility", "--grid", "2", "--toll-max", "-1"],
        ["demo-impossibility", "--grid", "2", "--toll-max", "nan"],
        ["demo-impossibility", "--grid", "2", "--toll-max", "9"],  # T_max is 8
    ],
)
def test_invalid_number_exits_3(runner, tmp_path, args):
    if args[0] == "enforce":
        game_path = tmp_path / "game.json"
        runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
        target = tmp_path / "target.json"
        target.write_text('{"e0": "0.5", "e1": "0.5"}')
        args = [*args, "--instance", str(game_path), "--target", str(target)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "call, error",
    [
        ("compute_optimal_tolls", NoConvergence),
        ("compute_optimal_tolls", NumericBreakdown),
        ("enforce_flow", NoConvergence),
    ],
)
def test_numerical_failure_exits_2(runner, monkeypatch, tmp_path, call, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, call, fail)
    if call == "compute_optimal_tolls":
        result = runner.invoke(main, ["optimize", "--topology", "pigou"])
    else:
        game_path = tmp_path / "game.json"
        runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
        target = tmp_path / "target.json"
        target.write_text('{"e0": "0.5", "e1": "0.5"}')
        result = runner.invoke(
            main, ["enforce", "--instance", str(game_path), "--target", str(target)]
        )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "error, code",
    [
        (NoConvergence, 2),
        (NumericBreakdown, 2),
        (OracleSampleFailed, 4),
        (OracleBudgetExceeded, 4),
    ],
)
@pytest.mark.parametrize(
    "args",
    [
        ["demo-impossibility", "--grid", "2"],
        ["bench", "--sizes", "2,3", "--epsilon", "0.2", "--opt-iterations", "3"],
    ],
)
def test_oracle_failure_exit_codes(runner, monkeypatch, args, error, code):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(oracle, "solve_equilibrium", fail)
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert "injected" in result.output


def test_demo_impossibility_small_grid(runner):
    result = runner.invoke(main, ["demo-impossibility", "--grid", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["results"]["indistinguishable"] is True
    assert report["results"]["optima_differ"] is True


def test_demo_bad_grid(runner):
    result = runner.invoke(main, ["demo-impossibility", "--grid", "1"])
    assert result.exit_code == 3


def test_bench_small(runner, tmp_path):
    out = tmp_path / "bench.json"
    result = runner.invoke(
        main,
        ["bench", "--sizes", "2,3", "--epsilon", "0.2", "--opt-iterations", "3",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert validate_report(report)
    assert len(report["results"]["enforce_queries"]) == 2


def test_report_fields_in_stable_order():
    report = run_impossibility_demo(grid_resolution=2)
    assert list(report.keys()) == [
        "command", "instance", "config", "results", "oracle_queries",
        "wall_clock_sec",
    ]
    assert validate_report(report)


def test_report_json_round_trip():
    report = run_impossibility_demo(grid_resolution=2)
    assert json.loads(json.dumps(report)) == json.loads(json.dumps(report))


def test_run_pipeline_function():
    report = run_pipeline(InstanceSpec(topology="pigou"), epsilon=0.02)
    assert validate_report(report)
    assert report["results"]["gap"] <= 0.04


def test_enforce_tight_delta_builds_oracle_at_required_accuracy(runner, tmp_path):
    # delta = 1e-9 needs an oracle at 1e-11, finer than the default 1e-10
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    target = tmp_path / "target.json"
    target.write_text('{"e0": "0.5", "e1": "0.5"}')
    result = runner.invoke(
        main,
        ["enforce", "--instance", str(game_path), "--target", str(target),
         "--delta-enforce", "1e-9"],
    )
    assert result.exit_code == 0
    assert "Traceback" not in result.output
    assert json.loads(result.output)["results"]["status"] == "success"


def test_bench_tight_delta_enforce(runner):
    result = runner.invoke(
        main,
        ["bench", "--sizes", "2,4", "--delta-enforce", "1e-9",
         "--opt-iterations", "1"],
    )
    assert result.exit_code == 0
    assert "Traceback" not in result.output


def test_bench_one_size_writes_strict_json(runner):
    result = runner.invoke(
        main, ["bench", "--sizes", "2", "--epsilon", "0.2", "--opt-iterations", "1"]
    )
    assert result.exit_code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(result.output, parse_constant=reject)
    assert report["results"]["loglog_slope_enforce"] is None
    assert report["results"]["loglog_slope_optimize"] is None


def test_bench_size_below_two_exits_3(runner):
    result = runner.invoke(main, ["bench", "--sizes", "1"])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


def test_optimize_trace_writes_one_line_per_iteration(runner, tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = runner.invoke(
        main,
        ["optimize", "--topology", "pigou", "--epsilon", "0.02",
         "--trace", str(trace)],
    )
    assert result.exit_code == 0
    lines = trace.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert [type(rec["iteration"]) for rec in records] == [int] * len(records)
    assert [rec["iteration"] for rec in records] == list(range(1, len(records) + 1))


def test_optimize_on_instance_file(runner, tmp_path):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    result = runner.invoke(
        main, ["optimize", "--instance", str(game_path), "--epsilon", "0.02"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert validate_report(report)
    assert report["instance"]["path"] == str(game_path)
    assert report["results"]["gap_within_2eps"] is True
