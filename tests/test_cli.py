import json

import pytest

from gridpursuit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_copnum_grid_3x3(capsys):
    code, out, _ = run_cli(capsys, "copnum", "--graph", "grid:3x3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cop_number"] == 2
    assert payload["witness"] is not None
    assert payload["k_range"] == [1, 9]
    assert "millis" in payload and "states" in payload


def test_copnum_grid_2x2(capsys):
    code, out, _ = run_cli(capsys, "copnum", "--graph", "grid:2x2")
    assert json.loads(out)["cop_number"] == 2
    assert code == 0


def test_solve_four_cycle_one_cop(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "cube:2", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["cops_win"] is False
    assert payload["witness"] is None


def test_count_examples(capsys):
    code, out, _ = run_cli(capsys, "count", "--dims", "3,3,3", "--level", "3")
    assert code == 0
    assert json.loads(out)["c"] == 7
    code, out, _ = run_cli(capsys, "count", "--dims", "5,5", "--level", "3")
    payload = json.loads(out)
    assert payload["c"] == 4 and payload["s"] == 6
    assert payload["c"] + payload["s"] + payload["l"] == 25


def test_bound_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--dims", "4,4", "--cops", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["large_component_lb"] == 6
    assert payload["best_m"] == 3


def test_bound_is_sound_on_thin_box(capsys):
    # two removals split the 5x2 box into components of 4, below the
    # box's own level cut (7), so no level witnesses the reported bound
    code, out, _ = run_cli(capsys, "bound", "--dims", "5,2", "--cops", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["large_component_lb"] <= 4
    assert payload["best_m"] is None


def test_match_writes_trace_and_replays(tmp_path, capsys):
    trace_path = tmp_path / "match.jsonl"
    code, out, _ = run_cli(
        capsys,
        "match", "--graph", "grid:9x9", "--cop", "diagonal-pairs",
        "--robber", "max-component", "--k", "8", "--seed", "1",
        "--trace", str(trace_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["outcome"] == "capture"
    assert summary["seed"] == 1

    code, out, _ = run_cli(capsys, "replay", "--trace", str(trace_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["replayed"] is True
    assert payload["outcome"] == "capture"


def test_match_with_invariant_checks(capsys):
    code, out, _ = run_cli(
        capsys,
        "match", "--graph", "grid:8x8", "--cop", "random", "--robber", "grid2d-evader",
        "--k", "6", "--seed", "3", "--max-rounds", "40", "--check-invariants",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["robber_violations"] == 0
    assert summary["outcome"] == "timeout"


def test_match_retract_robber(capsys):
    code, out, _ = run_cli(
        capsys,
        "match", "--graph", "grid:9x7", "--cop", "random",
        "--robber", "retract:grid2d-evader/grid:7x7", "--k", "5",
        "--max-rounds", "30", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "timeout"


def test_bad_strategy_name_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "match", "--graph", "grid:3x3", "--cop", "bogus",
        "--robber", "random", "--k", "1",
    )
    assert code == 3
    assert "bogus" in err


def test_bad_graph_is_config_error(capsys):
    code, _, err = run_cli(capsys, "copnum", "--graph", "blob:3")
    assert code == 3


def test_undersized_blockade_is_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        "match", "--graph", "grid:3x3x3", "--cop", "blockade-3d",
        "--robber", "random", "--k", "5",
    )
    assert code == 3
    assert "blockade" in err


def test_solver_cap_is_resource_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "grid:10x10", "--k", "9", "--cap", "1000")
    assert code == 4


def test_render_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    run_cli(
        capsys,
        "match", "--graph", "grid:3x3", "--cop", "greedy", "--robber", "stationary",
        "--k", "1", "--trace", str(trace_path),
    )
    code, out, _ = run_cli(capsys, "render", "--trace", str(trace_path))
    assert code == 0
    assert "X" in out  # capture squares render as X


def test_table_includes_resolved_4x4(capsys):
    code, out, _ = run_cli(capsys, "table", "--json")
    assert code == 0
    rows = {r["graph"]: r for r in json.loads(out)["rows"]}
    assert rows["grid:1x1"]["cop_number"] == 1
    assert rows["grid:2x2"]["cop_number"] == 2
    assert rows["grid:3x3"]["cop_number"] == 2
    assert rows["grid:4x4"]["cop_number"] in (3, 4)
    assert rows["grid:4x4"]["replay_verified"] is True
    assert rows["torus:3x3"]["cop_number"] == 3
    assert rows["cube:3"]["cop_number"] == 2


def test_solve_exits_1_when_the_witness_replay_fails(capsys, monkeypatch):
    from gridpursuit.solver import TableCops

    monkeypatch.setattr(TableCops, "move", lambda self, state: list(state.cops))
    code, out, err = run_cli(capsys, "solve", "--graph", "grid:3x3", "--k", "2")
    assert code == 1
    assert out == ""
    assert "witness replay failed" in err
