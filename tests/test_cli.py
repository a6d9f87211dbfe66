"""The bench command: configuration, planning, reports, and exit codes."""

import csv
import io
import json
from dataclasses import asdict

import pytest

from essm_search.cli import (ALGORITHMS, CSV_COLUMNS, ExperimentConfig,
                             emit, main, parse_n_values, run_experiment)
from essm_search.errors import ConfigError


def config(**kw):
    kw.setdefault("ns", (4,))
    return ExperimentConfig(**kw)


# --- configuration ---------------------------------------------------------

def test_parse_n_values_forms():
    assert parse_n_values("6") == (6,)
    assert parse_n_values("5..8") == (5, 6, 7, 8)
    assert parse_n_values("4,6..7") == (4, 6, 7)
    assert parse_n_values("7,7") == (7, 7)


@pytest.mark.parametrize("text", ["", "x", "5..", "..5", "8..5", "4,,5",
                                  "\u0664", "0_4", "\u0664..5"])
def test_parse_n_values_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_n_values(text)


def test_config_validation():
    with pytest.raises(ConfigError):
        config(ns=())
    with pytest.raises(ConfigError):
        config(ns=(0,))
    with pytest.raises(ConfigError):
        config(algorithms=())
    with pytest.raises(ConfigError):
        config(algorithms=("dfs",))
    with pytest.raises(ConfigError):
        config(output_format="xml")
    with pytest.raises(ConfigError):
        config(max_nodes=0)
    with pytest.raises(ConfigError):
        config(max_expansions=-1)
    for seconds in (0, -1.5, float("nan")):
        with pytest.raises(ConfigError):
            config(max_seconds=seconds)
    assert config().algorithms == ALGORITHMS


# --- running ----------------------------------------------------------------

def test_run_experiment_row_shape_and_order():
    cfg = config(ns=(4, 5), known_specs=("solution-prefix:2", "false-heuristic"))
    warn = io.StringIO()
    reports = run_experiment(cfg, warn_sink=warn)
    assert [(r.n, r.algorithm) for r in reports] == [
        (4, "bfs"), (4, "ebfs"), (5, "bfs"), (5, "ebfs")]
    for r in reports:
        assert r.problem == "nqueens"
        assert r.outcome == "success"
        assert r.solution_length == r.n
        assert 0 < r.expansions <= r.nodes_created
        assert 0 < r.closed_count <= r.nodes_created
        assert r.millis >= 0
    bfs4, ebfs4 = reports[0], reports[1]
    assert (bfs4.k_count, bfs4.seeding) == (1, "empty")
    assert ebfs4.k_count == 3
    assert ebfs4.seeding == "empty+solution-prefix:2+false-heuristic"
    # the baseline warns when it drops extra known states
    assert "ignores 2 known state(s)" in warn.getvalue()


def test_run_experiment_is_deterministic_apart_from_timing():
    cfg = config(ns=(5,), known_specs=("solution-prefix:2",))
    strip = lambda rows: [{k: v for k, v in asdict(r).items() if k != "millis"}
                          for r in rows]
    quiet = lambda: run_experiment(cfg, warn_sink=io.StringIO())
    assert strip(quiet()) == strip(quiet())


def test_run_experiment_reports_failures_without_solutions():
    reports = run_experiment(config(ns=(3,)))
    assert all(r.outcome == "failure" for r in reports)
    assert all(r.solution_length is None for r in reports)


def test_run_experiment_honors_caps():
    reports = run_experiment(config(ns=(5,), algorithms=("ebfs",), max_nodes=10))
    assert reports[0].outcome == "resource_limit"
    assert reports[0].nodes_created >= 10


def test_run_experiment_trace_lines_match_expansions():
    sink = io.StringIO()
    cfg = config(ns=(4,), algorithms=("ebfs",), trace=True)
    reports = run_experiment(cfg, trace_sink=sink)
    lines = sink.getvalue().splitlines()
    assert lines[0].startswith("# trace problem=nqueens n=4 algorithm=ebfs")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == reports[0].expansions
    assert body[0].startswith("1,4:")


def test_explicit_known_state_spec():
    cfg = config(ns=(4,), algorithms=("ebfs",), known_specs=("4:0,1;1,3",))
    (report,) = run_experiment(cfg)
    assert report.k_count == 2
    assert report.seeding == "empty+state:4:0,1;1,3"
    assert report.outcome == "success"


@pytest.mark.parametrize("specs", [
    ("false-heuristic",),              # needs a prefix before it
    ("solution-prefix:x",),
    ("solution-prefix:0",),
    ("5:0,0",),                        # wrong board size for n=4
    ("4:9,9",),                        # unparseable placement
    ("4:0,0;1,1",),                    # attacking known state
    ("4:\u00b2,0",),                   # a superscript two is not a digit
    ("solution-prefix:\u0662",),       # an Arabic-Indic two is not an ASCII digit
    ("solution-prefix:0_2",),
])
def test_bad_known_specs_are_config_errors(specs):
    with pytest.raises(ConfigError):
        run_experiment(config(ns=(4,), known_specs=specs))


def test_unsolvable_prefix_request_is_a_config_error():
    with pytest.raises(ConfigError):
        run_experiment(config(ns=(3,), known_specs=("solution-prefix:1",)))


# --- serialization ------------------------------------------------------------

def test_emit_csv_shape():
    reports = run_experiment(config(ns=(3, 4), algorithms=("ebfs",)))
    rows = list(csv.reader(io.StringIO(emit(reports, "csv"))))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    failure, success = rows[1], rows[2]
    assert failure[CSV_COLUMNS.index("outcome")] == "failure"
    assert failure[CSV_COLUMNS.index("solution_length")] == ""
    assert success[CSV_COLUMNS.index("solution_length")] == "4"


def test_emit_json_shape():
    reports = run_experiment(config(ns=(3,), algorithms=("bfs",)))
    data = json.loads(emit(reports, "json"))
    assert isinstance(data, list) and len(data) == 1
    assert set(data[0]) == set(CSV_COLUMNS)
    assert data[0]["solution_length"] is None
    assert data[0]["outcome"] == "failure"


def test_emit_empty_reports_is_a_bare_header():
    assert emit([], "csv") == ",".join(CSV_COLUMNS) + "\n"
    assert json.loads(emit([], "json")) == []


def test_emit_json_round_trips_report_fields():
    reports = run_experiment(config(ns=(4,), algorithms=("ebfs",)))
    assert json.loads(emit(reports, "json")) == [asdict(r) for r in reports]


# --- the command itself ---------------------------------------------------------

def test_main_success_exit_and_csv_output(capsys):
    code = main(["--n", "4", "--algo", "ebfs", "--known", "solution-prefix:2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][CSV_COLUMNS.index("seeding")] == "empty+solution-prefix:2"


def test_main_prefix_depth_defaults_to_two(capsys):
    code = main(["--n", "4", "--algo", "ebfs", "--known", "solution-prefix"])
    assert code == 0
    assert "empty+solution-prefix:2" in capsys.readouterr().out


def test_main_failure_exit(capsys):
    assert main(["--n", "3"]) == 1
    assert "failure" in capsys.readouterr().out


def test_main_resource_limit_exit(capsys):
    code = main(["--n", "5", "--algo", "bfs", "--max-nodes", "10"])
    assert code == 1
    assert "resource_limit" in capsys.readouterr().out


def test_main_wall_time_cap_ends_n8_bfs_as_resource_limit(capsys):
    code = main(["--n", "8", "--algo", "bfs", "--max-seconds", "0.02"])
    assert code == 1
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "bfs" and row[9] == "resource_limit"
    assert int(row[6]) < 115777


def test_main_config_error_exit(capsys):
    assert main(["--n", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_main_json_format(capsys):
    code = main(["--n", "4", "--algo", "ebfs", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["algorithm"] == "ebfs"
    assert data[0]["solution_length"] == 4


def test_main_trace_goes_to_stderr(capsys):
    code = main(["--n", "4", "--algo", "ebfs", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("# trace")


def test_main_smallest_board(capsys):
    assert main(["--n", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("success") == 2
