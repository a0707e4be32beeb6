"""CLI commands: outputs, exit codes, report schema."""

import errno
import json
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_cyclic
from tollopt import cli, equilibrium, oracle
from tollopt.cli import (
    main,
    run_impossibility_demo,
    run_pipeline,
    validate_report,
)
from tollopt.ellipsoid import NumericBreakdown
from tollopt.enforcement import EnforcementResult, EnforcementStatus
from tollopt.equilibrium import NoConvergence
from tollopt.game import TollVector
from tollopt.instances import InstanceSpec, generate
from tollopt.oracle import OracleBudgetExceeded
from tollopt.serialize import game_to_json
from tollopt.zeroorder import OracleSampleFailed


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pigou_files(runner, tmp_path):
    """Paths of a pigou instance file and of a feasible target flow file."""
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    target = tmp_path / "target.json"
    target.write_text('{"e0": "0.5", "e1": "0.5"}')
    return str(game_path), str(target)


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


def test_gen_prints_instance_without_out(runner):
    result = runner.invoke(main, ["gen", "--topology", "pigou"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["edges"]) == 2


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


def test_solve_eq_no_convergence_exits_2(runner, tmp_path, monkeypatch):
    # with no iteration allowed the solver returns its start, the
    # all-or-nothing assignment, whose gap is far above any target: the
    # exit does not hinge on the last bits of a converged solve
    game_path = tmp_path / "game.json"
    runner.invoke(
        main,
        ["gen", "--topology", "random_dag", "--n-vertices", "7", "--degree", "3",
         "--commodities", "2", "--seed", "6", "--out", str(game_path)],
    )
    monkeypatch.setattr(equilibrium, "MAX_ITERATIONS", 0)
    result = runner.invoke(main, ["solve-eq", "--instance", str(game_path)])
    assert result.exit_code == 2
    assert "solver did not converge" in result.output


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


def test_optimize_reports_delta_in_force(runner):
    # delta = epsilon / (8 N^2) with N = mk = 2 on pigou
    result = runner.invoke(main, ["optimize", "--topology", "pigou"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["delta"] == 0.02 / 32


def test_optimize_spent_budget_emits_report_and_exits_4(runner, tmp_path):
    # the descent spends the budget: the best sample's tolls are
    # reported, not lost
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["optimize", "--topology", "pigou", "--max-queries", "4", "--out", str(out)],
    )
    assert result.exit_code == 4
    report = json.loads(out.read_text())
    assert validate_report(report)
    results = report["results"]
    assert results["optimizer_status"] == "BUDGET_EXHAUSTED"
    assert results["optimizer_queries"] == report["oracle_queries"] <= 4
    assert len(results["tolls"]) == 2
    assert results["gap_within_2eps"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["--epsilon", "-1"],
        ["--epsilon", "0"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
        ["--demand", "0"],
        ["--max-queries", "-3"],
    ],
)
def test_optimize_bad_config_exits_3(runner, args):
    result = runner.invoke(main, ["optimize", "--topology", "pigou", *args])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("solve-eq", "--tolls", '{"e7": "0.5"}'),  # pigou has no edge e7
        ("solve-eq", "--tolls", '["0.5", "0.5"]'),
        ("solve-eq", "--tolls", '{"e0": [1]}'),
        ("enforce", "--target", '["0.5", "0.5"]'),
        ("enforce", "--target", '{"e0": "0.5", "e1": "0.5", "e9": "0"}'),
        ("solve-eq", "--instance", "[1]"),
        (
            "solve-eq",
            "--instance",
            '{"vertices": ["s", "t"], "edges": [{"id": "e0", "tail": "s", '
            '"head": "t", "coeffs": ["nan", "1.0"]}], "commodities": '
            '[{"source": "s", "sink": "t", "demand": "1.0"}]}',
        ),
        (
            "solve-eq",
            "--instance",
            '{"vertices": ["s", "t"], "edges": [{"id": ["x"], "tail": "s", '
            '"head": "t", "coeffs": ["0.0", "1.0"]}], "commodities": '
            '[{"source": "s", "sink": "t", "demand": "1.0"}]}',
        ),
    ],
)
def test_malformed_input_file_exits_3(runner, tmp_path, command, option, text):
    game_path = tmp_path / "game.json"
    runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
    target = tmp_path / "target.json"
    target.write_text('{"e0": "0.5", "e1": "0.5"}')
    files = {"--instance": str(game_path)}
    if command == "enforce":
        files["--target"] = str(target)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files[option] = str(bad)
    result = runner.invoke(main, [command, *(x for kv in files.items() for x in kv)])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--topology", "pigou", "--out"],
        ["solve-eq", "--instance", "GAME", "--out"],
        ["enforce", "--instance", "GAME", "--target", "TARGET", "--trace"],
        ["optimize", "--topology", "pigou", "--trace"],
        ["enforce", "--instance", "GAME", "--target", "TARGET", "--out"],
        ["optimize", "--topology", "pigou", "--out"],
        ["demo-impossibility", "--grid", "2", "--out"],
        ["bench", "--sizes", "2", "--out"],
    ],
)
def test_unwritable_output_path_exits_3(runner, tmp_path, monkeypatch, pigou_files,
                                        args):
    def never(*args, **kwargs):
        pytest.fail("the run started before its output files were opened")

    for name in ("solve_equilibrium", "enforce_flow", "compute_optimal_tolls",
                 "run_impossibility_demo"):
        monkeypatch.setattr(cli, name, never)
    files = dict(zip(("GAME", "TARGET"), pigou_files))
    bad = str(tmp_path / "missing" / "out.json")
    result = runner.invoke(main, [*(files.get(a, a) for a in args), bad])
    assert result.exit_code == 3
    assert "No such file or directory" in result.output
    assert "Traceback" not in result.output


def test_unwritable_out_leaves_trace_empty(runner, tmp_path):
    trace = tmp_path / "t.jsonl"
    bad = tmp_path / "missing" / "r.json"
    result = runner.invoke(
        main,
        ["optimize", "--topology", "pigou", "--trace", str(trace), "--out", str(bad)],
    )
    assert result.exit_code == 3
    assert not trace.exists() or trace.read_text() == ""


def test_out_replaced_only_by_the_report(runner, pigou_files):
    game_path, _ = pigou_files
    result = runner.invoke(main, ["optimize", "--epsilon", "nan", "--out", game_path])
    assert result.exit_code == 3
    # the failed run left the file as it was, so it can still be read
    result = runner.invoke(
        main, ["solve-eq", "--instance", game_path, "--out", game_path]
    )
    assert result.exit_code == 0
    assert json.loads(Path(game_path).read_text())["command"] == "solve-eq"


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--links", "x"],
        ["gen"],
        ["optimize", "--bogus"],
        ["bogus"],
        ["--bogus"],
    ],
)
def test_usage_error_exits_3(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "Error:" in result.output


@pytest.mark.parametrize("args", [["--help"], ["optimize", "--help"]])
def test_help_exits_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "Usage:" in result.output


def test_closed_stdout_is_not_invalid_input(runner, monkeypatch):
    def closed(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(click, "echo", closed)
    result = runner.invoke(main, ["gen", "--topology", "pigou"])
    assert result.exit_code == 1


def test_enforce_not_found_writes_report_and_exits_2(runner, tmp_path, monkeypatch,
                                                     pigou_files):
    def not_found(*args, **kwargs):
        return EnforcementResult(
            TollVector(np.array([0.25, 0.0])), 0.1, 3,
            EnforcementStatus.NOT_FOUND, 3, None,
        )

    monkeypatch.setattr(cli, "enforce_flow", not_found)
    game_path, target = pigou_files
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["enforce", "--instance", game_path, "--target", target, "--out", str(out)],
    )
    assert result.exit_code == 2
    report = json.loads(out.read_text())
    assert validate_report(report)
    assert report["results"]["status"] == "not_found"
    assert report["results"]["tolls"] == {"e0": "0.25", "e1": "0.0"}


def test_optimize_cyclic_instance_exits_3(runner, tmp_path):
    game_path = tmp_path / "cyc.json"
    game_path.write_text(game_to_json(make_cyclic()))
    result = runner.invoke(main, ["optimize", "--instance", str(game_path)])
    assert result.exit_code == 3
    assert "acyclic" in result.output
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
        ["enforce", "--delta-enforce", "inf"],
        ["optimize", "--topology", "pigou", "--epsilon", "inf"],
        ["bench", "--sizes", "2", "--epsilon", "inf"],
        ["bench", "--sizes", "2,3", "--opt-iterations", "0"],
        ["gen", "--topology", "random_dag", "--n-vertices", "5", "--density", "nan"],
        ["gen", "--topology", "random_dag", "--n-vertices", "5", "--density", "-1"],
        # the oracle runs at 1e-11, so 2 delta - eps_query < 0
        ["enforce", "--delta-enforce", "1e-12", "--trace", "trace.jsonl"],
        ["gen", "--topology", "pigou", "--demand", "inf"],
        ["gen", "--topology", "pigou", "--demand", "nan"],
        ["solve-eq", "--instance", "inf.json"],
        # K = 2 (1e200)^2 is past the double range
        ["gen", "--topology", "parallel", "--degree", "2", "--demand", "1e200"],
        # enforcement at delta / (4 m K^2) = 4.1e-13, finer than 1e-11 serves
        ["optimize", "--topology", "random_dag", "--degree", "3", "--demand", "30",
         "--n-vertices", "5"],
        # K is finite, K^2 is not
        ["optimize", "--topology", "parallel", "--links", "4", "--demand", "1e300"],
    ],
)
def test_invalid_number_exits_3(runner, tmp_path, monkeypatch, args):
    def never(*args, **kwargs):
        pytest.fail("a solve ran before the settings were checked")

    if args[0] == "enforce":
        game_path = tmp_path / "game.json"
        runner.invoke(main, ["gen", "--topology", "pigou", "--out", str(game_path)])
        target = tmp_path / "target.json"
        target.write_text('{"e0": "0.5", "e1": "0.5"}')
        args = [*args, "--instance", str(game_path), "--target", str(target)]
    if args[0] == "solve-eq":  # a pigou file with demand inf
        text = game_to_json(generate(InstanceSpec(topology="pigou")))
        text = text.replace('"demand": "1.0"', '"demand": "inf"')
        (tmp_path / "inf.json").write_text(text)
    monkeypatch.setattr(oracle, "solve_equilibrium", never)
    monkeypatch.setattr(cli, "solve_equilibrium", never)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    if "--trace" in args:
        assert (tmp_path / "trace.jsonl").read_text() == ""


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


_VALID_REPORT = {
    "command": "bench", "instance": {}, "config": {}, "results": {},
    "oracle_queries": 0, "wall_clock_sec": 0.5,
}


@pytest.mark.parametrize(
    "report",
    [
        [_VALID_REPORT],
        {k: v for k, v in _VALID_REPORT.items() if k != "results"},
        {**_VALID_REPORT, "config": []},
        {**_VALID_REPORT, "command": 1},
        {**_VALID_REPORT, "oracle_queries": True},
    ],
    ids=["not-a-dict", "missing-key", "list-for-object", "number-for-string",
         "bool-for-number"],
)
def test_validate_report_refuses_malformed(report):
    assert validate_report(_VALID_REPORT)
    assert not validate_report(report)


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


def test_optimize_trace_says_where_gradient_queries_went(runner, tmp_path):
    # pigou: d = 1, so each iteration probes one link around the mixed point
    trace = tmp_path / "trace.jsonl"
    result = runner.invoke(
        main,
        ["optimize", "--topology", "pigou", "--epsilon", "0.02", "--trace", str(trace)],
    )
    assert result.exit_code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert [rec["gradient_queries"] for rec in records] == [1] * len(records)
    report = json.loads(result.output)
    assert records[-1]["queries"] == report["results"]["optimizer_queries"]


def test_overflowing_costs_exit_3_before_any_solve(runner, tmp_path, monkeypatch):
    # demand 1e300 on 4 links: K is finite but the solver's gap target,
    # 1e-12 (1 + K sum_d sqrt(m)), is not
    game_path = tmp_path / "game.json"
    result = runner.invoke(
        main,
        ["gen", "--topology", "parallel", "--links", "4", "--demand", "1e300",
         "--out", str(game_path)],
    )
    assert result.exit_code == 0
    target = tmp_path / "target.json"
    target.write_text(json.dumps({f"e{i}": 2.5e299 for i in range(4)}))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve_equilibrium", no_solve)
    monkeypatch.setattr(oracle, "solve_equilibrium", no_solve)
    for args in (
        ["solve-eq", "--instance", str(game_path)],
        ["enforce", "--instance", str(game_path), "--target", str(target)],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert "overflow a double" in result.output
        assert "Traceback" not in result.output


def test_overflowing_search_constants_exit_3_before_any_query(runner, tmp_path):
    # coefficients up to 1e160: the solver's gap target is finite, but the
    # search's cut limit and starting ball are not
    game_path = tmp_path / "game.json"
    result = runner.invoke(
        main,
        ["gen", "--topology", "parallel", "--links", "4", "--coeff-bound", "1e160",
         "--out", str(game_path)],
    )
    assert result.exit_code == 0
    target = tmp_path / "target.json"
    target.write_text(json.dumps({f"e{i}": 0.25 for i in range(4)}))
    result = runner.invoke(
        main, ["enforce", "--instance", str(game_path), "--target", str(target)]
    )
    assert result.exit_code == 3, result.output
    assert "search's constants overflow a double" in result.output
    assert "Traceback" not in result.output
