import json

import pytest

from gridpursuit.cli import TABLE_ROWS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_exit(capsys, *argv):
    """run_cli, with argparse's SystemExit taken as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    return code, out, err


def test_copnum_grid_3x3(capsys):
    code, out, _ = run_cli(capsys, "copnum", "--graph", "grid:3x3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cop_number"] == 2
    # the witness placement as coordinate lists
    assert len(payload["witness"]) == 2
    assert all(len(v) == 2 and all(0 <= c < 3 for c in v) for v in payload["witness"])
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


@pytest.mark.parametrize("seed", ["0", "6"])
def test_random_robber_with_no_free_vertex_is_a_robber_fault(capsys, seed):
    # both cops land on the two vertices the retraction maps onto
    code, out, err = run_cli(
        capsys,
        "match", "--graph", "grid:4x4", "--cop", "random",
        "--robber", "retract:random/grid:1x2", "--k", "2", "--seed", seed,
        "--max-rounds", "50",
    )
    assert code == 2 and "Traceback" not in err
    summary = json.loads(out)
    assert (summary["outcome"], summary["fault_side"]) == ("fault", "robber")


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


@pytest.mark.parametrize("argv, message", [
    (("solve", "--graph", "grid:3x3", "--k", "-1"), "cop count must be >= 0"),
    (("bound", "--dims", "5,5", "--cops", "-1"), "cop count must be >= 0"),
    (("copnum", "--graph", "grid:3x3", "--k-max", "-1"), "k_max must be >= 1"),
    (("copnum", "--graph", "grid:3x3", "--k-max", "0"), "k_max must be >= 1"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_negative_cop_count_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


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


def test_table_json_out_writes_the_rows_it_prints(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "table", "--json", "--out", str(path))
    assert code == 0
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written == json.loads(out)
    assert [r["graph"] for r in written["rows"]] == [spec for spec, _ in TABLE_ROWS]


def test_solve_exits_1_when_the_witness_replay_fails(capsys, monkeypatch):
    from gridpursuit.solver import TableCops

    monkeypatch.setattr(TableCops, "move", lambda self, state: list(state.cops))
    code, out, err = run_cli(capsys, "solve", "--graph", "grid:3x3", "--k", "2")
    assert code == 1
    assert out == ""
    assert "witness replay failed" in err


# -- bad traces and oversized graphs ---------------------------------------------


def _recorded_trace(tmp_path, capsys):
    """Lines of a diagonal-pairs capture on grid:7x7 with k=6."""
    path = tmp_path / "good.jsonl"
    code, _, _ = run_cli(
        capsys,
        "match", "--graph", "grid:7x7", "--cop", "diagonal-pairs", "--robber", "random",
        "--k", "6", "--seed", "8", "--trace", str(path),
    )
    assert code == 0
    return path.read_text().splitlines()


def _replay_lines(tmp_path, capsys, lines):
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return run_cli(capsys, "replay", "--trace", str(path))


def _edit(line, **fields):
    record = json.loads(line)
    record.update(fields)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_replay_rejects_a_trace_without_its_final_event(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    assert json.loads(lines[-1])["event"] == "capture"
    code, out, err = _replay_lines(tmp_path, capsys, lines[:-1])
    assert code == 1 and out == ""
    assert "does not end" in err


@pytest.mark.parametrize("field, value", [("k", 9), ("k", 5), ("graph", "grid:5x5"),
                                          ("graph", "torus:7x7x7"), ("version", 2),
                                          ("max_rounds", 2)])
def test_replay_rejects_a_header_that_disagrees_with_the_events(tmp_path, capsys, field, value):
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(tmp_path, capsys, [_edit(lines[0], **{field: value})] + lines[1:])
    assert code == 1 and out == ""
    assert "Traceback" not in err


def test_replay_rejects_an_illegal_move(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    turn = next(i for i, ln in enumerate(lines) if json.loads(ln).get("phase") == "cop-turn")
    x, y = json.loads(lines[turn - 1])["cops"][0]
    cops = json.loads(lines[turn])["cops"]
    cops[0] = [x + 2 if x < 5 else x - 2, y]  # two steps in one turn
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:turn] + [_edit(lines[turn], cops=cops)] + lines[turn + 1:])
    assert code == 1 and out == ""
    assert "cop 0 cannot step" in err


def _cop_turn(lines):
    return next(i for i, ln in enumerate(lines) if json.loads(ln).get("phase") == "cop-turn")


def test_replay_of_a_bare_int_robber_is_a_usage_error(tmp_path, capsys):
    # a vertex index is no position in a trace: positions are coordinate lists
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:2] + [_edit(lines[2], robber=3)] + lines[3:])
    assert code == 3 and out == ""
    assert "line 3" in err and "wrong type" in err


@pytest.mark.parametrize("old, new", [
    ('"cops":[[1,0]', '"cops":[[1,-0]'),  # a negative zero coordinate
    ('"robber":[5,0]', '"robber":[5,-0]'),
    ('"cops":[[1,0],[2,1]', '"cops":[[1, 0], [2, 1]'),  # spaces after separators
])
def test_replay_of_non_canonical_coordinate_text_replays(tmp_path, capsys, old, new):
    lines = _recorded_trace(tmp_path, capsys)
    turn = _cop_turn(lines)
    assert old in lines[turn]
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:turn] + [lines[turn].replace(old, new, 1)] + lines[turn + 1:])
    assert code == 0, err
    _, want, _ = _replay_lines(tmp_path, capsys, lines)
    assert json.loads(out) == json.loads(want)


@pytest.mark.parametrize("coordinate, shown", [
    (lambda x, y: [7, y], "(7, 0)"),  # out of range on grid:7x7
    (lambda x, y: [x, y, 0], "(1, 0, 0)"),  # of the wrong arity
])
def test_replay_of_a_coordinate_off_the_graph_is_a_mismatch(tmp_path, capsys, coordinate, shown):
    lines = _recorded_trace(tmp_path, capsys)
    turn = _cop_turn(lines)
    cops = json.loads(lines[turn])["cops"]
    cops[0] = coordinate(*cops[0])
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:turn] + [_edit(lines[turn], cops=cops)] + lines[turn + 1:])
    assert code == 1 and out == ""
    assert f"illegal action at round 1 (cop-turn) on grid:7x7: {shown} is not a vertex" in err


def test_replay_reports_a_robber_on_vertex_zero(tmp_path, capsys):
    # the trace ends with the robber on (0, 0), vertex index 0
    path = tmp_path / "corner.jsonl"
    code, out, _ = run_cli(
        capsys, "match", "--graph", "grid:3x3", "--cop", "random", "--robber", "stationary",
        "--k", "1", "--max-rounds", "1", "--seed", "0", "--trace", str(path))
    assert code == 0 and json.loads(out)["outcome"] == "timeout"
    code, out, _ = run_cli(capsys, "replay", "--trace", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["final_robber"] == [0, 0]
    assert payload["final_cops"] == [[2, 0]]


@pytest.mark.parametrize("phase", ["robber-placement", "robber-turn"])
def test_replay_rejects_a_robber_action_without_a_robber(tmp_path, capsys, phase):
    lines = _recorded_trace(tmp_path, capsys)
    at = next(i for i, ln in enumerate(lines) if json.loads(ln).get("phase") == phase)
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:at] + [_edit(lines[at], robber=None)] + lines[at + 1:])
    assert code == 1 and out == ""
    assert "illegal action" in err


def test_replay_rejects_an_edited_round(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    code, _, err = _replay_lines(tmp_path, capsys, lines[:-1] + [_edit(lines[-1], round=99)])
    assert code == 1
    assert "round 99" in err


@pytest.mark.parametrize("line", [
    "not json",
    '{"round": 1, "phase": "cop-turn"',
    "[1, 2]",
])
def test_replay_of_a_non_json_line_is_a_usage_error(tmp_path, capsys, line):
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(tmp_path, capsys, lines[:2] + [line] + lines[2:])
    assert code == 3 and out == ""
    assert "line 3" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["[" * 10**5 + "]" * 10**5, "7" * 5000], ids=["nested", "digits"])
def test_replay_of_a_line_json_cannot_decode_is_a_usage_error(tmp_path, capsys, value):
    # nested past the recursion limit, or an integer past the int-string
    # digit limit: an error line, not a traceback
    lines = _recorded_trace(tmp_path, capsys)
    bad = lines[2].replace('"cops":[', f'"cops":[{value},', 1)
    code, out, err = _replay_lines(tmp_path, capsys, lines[:2] + [bad] + lines[3:])
    assert code == 3 and out == ""
    assert err.startswith("error: trace line 3") and "Traceback" not in err


@pytest.mark.parametrize("field", ["event", "phase", "cops", "robber", "round", "annotations"])
def test_replay_of_an_event_missing_a_field_is_a_usage_error(tmp_path, capsys, field):
    lines = _recorded_trace(tmp_path, capsys)
    record = json.loads(lines[2])
    del record[field]
    code, out, err = _replay_lines(tmp_path, capsys, lines[:2] + [json.dumps(record)] + lines[3:])
    assert code == 3 and out == ""
    assert field in err


@pytest.mark.parametrize("cops, robber", [
    ([["a", 1]] * 6, [0, 0]),
    ([[1.5, 1]] * 6, [0, 0]),
    ([1, 2, 3, 4, 5, 6], [0, 0]),
    ([[1, 1]] * 6, "here"),
    ({"0": [1, 1]}, [0, 0]),
])
def test_replay_of_badly_typed_positions_is_a_usage_error(tmp_path, capsys, cops, robber):
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(
        tmp_path, capsys, lines[:2] + [_edit(lines[2], cops=cops, robber=robber)] + lines[3:])
    assert code == 3 and out == ""
    assert "wrong type" in err


def test_replay_of_non_string_annotations_is_a_usage_error(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    assert json.loads(lines[1])["phase"] == "cop-placement"
    edited = _edit(lines[1], annotations={"level": [1, 2], "x": None})
    code, out, err = _replay_lines(tmp_path, capsys, lines[:1] + [edited] + lines[2:])
    assert code == 3 and out == ""
    assert "line 2" in err and "wrong type" in err


def test_replay_of_a_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    code, out, _ = run_cli(capsys, "replay", "--trace", str(path))
    assert code == 3 and out == ""


def test_match_on_an_oversized_graph_is_a_resource_error(capsys):
    code, out, err = run_cli(
        capsys, "match", "--graph", "cube:30", "--cop", "random", "--robber", "random", "--k", "1")
    assert code == 4 and out == ""
    assert "1073741824 vertices" in err


def test_replay_on_an_oversized_graph_is_a_resource_error(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    code, out, _ = _replay_lines(tmp_path, capsys, [_edit(lines[0], graph="cube:40")] + lines[1:])
    assert code == 4 and out == ""


def test_match_with_a_huge_cop_count_is_a_resource_error(capsys):
    code, out, err = run_cli(
        capsys, "match", "--graph", "grid:3x3", "--cop", "row-sweep", "--robber", "stationary",
        "--k", "1000000000000")
    assert code == 4 and out == ""
    assert err.startswith("error: 1000000000000 cops") and "Traceback" not in err


@pytest.mark.parametrize("graph", ["grid:\u00b2x2", "grid:\u0663x3", "torus:3x\uff13",
                                   "grid:" + "1" * 5000 + "x2"],
                         ids=["superscript", "arabic-indic", "fullwidth", "past-int-limit"])
def test_bad_graph_dimension_digits_are_a_usage_error(tmp_path, capsys, graph):
    # only ASCII digits are dimensions: int() rejects "\u00b2" and reads
    # "\u0663" (Arabic-Indic three) as 3, and no dimension has 5000 digits
    code, out, err = run_cli(capsys, "solve", "--graph", graph, "--k", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: bad dimension") and "Traceback" not in err
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(tmp_path, capsys, [_edit(lines[0], graph=graph)] + lines[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: bad dimension") and "Traceback" not in err


def test_replay_of_a_huge_header_k_is_a_resource_error(tmp_path, capsys):
    lines = _recorded_trace(tmp_path, capsys)
    code, out, err = _replay_lines(tmp_path, capsys, [_edit(lines[0], k=10**12)] + lines[1:])
    assert code == 4 and out == ""
    assert err.startswith("error: 1000000000000 cops")


@pytest.mark.parametrize("argv", [
    ("count", "--dims", "1000000000000", "--level", "1"),
    ("bound", "--dims", "1000000000000,2", "--cops", "1"),
    # the box and each of its equal-sided sub-boxes are small, the 399
    # sub-boxes together are not
    ("bound", "--dims", ",".join(["2"] * 400), "--cops", "1"),
])
def test_count_and_bound_on_an_oversized_box_are_resource_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: level counts of") and "capped at 10000000" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--graph", "grid:3x3", "--k", "abc"),
    ("solve", "--graph", "grid:3x3"),
    ("bogus",),
    (),
    ("match", "--graph", "grid:3x3", "--cop", "random", "--robber", "random", "--k", "1",
     "--no-such-flag"),
], ids=["bad-int", "missing-k", "unknown-subcommand", "no-subcommand", "unknown-flag"])
def test_command_line_errors_exit_3(capsys, argv):
    # exit 2 is a strategy fault, the code argparse itself uses for these
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("usage: gridpursuit") and "error:" in err


@pytest.mark.parametrize("argv", [(), ("solve",)], ids=["top", "solve"])
def test_help_exits_0(capsys, argv):
    code, out, _ = run_cli_exit(capsys, *argv, "--help")
    assert code == 0 and out.startswith("usage: gridpursuit")


@pytest.mark.parametrize("argv", [
    ("count", "--dims", "\u0663,\u0663", "--level", "1"),
    ("count", "--dims", "1_0,3", "--level", "1"),
    ("count", "--dims", "3,3", "--level", "\u0661"),
    ("bound", "--dims", "4,4", "--cops", "\u0662"),
    ("bound", "--dims", "\uff14,4", "--cops", "1"),
    ("solve", "--graph", "grid:3x3", "--k", "\uff12"),
    ("solve", "--graph", "grid:3x3", "--k", "1_0"),
    ("solve", "--graph", "grid:3x3", "--k", "\u00b2"),
    ("solve", "--graph", "grid:3x3", "--k", "-\u0661"),
    ("copnum", "--graph", "grid:3x3", "--k-max", "+2"),
    ("match", "--graph", "grid:3x3", "--cop", "random", "--robber", "random", "--k", "1",
     "--seed", "\u0661"),
    ("solve", "--graph", "grid:3x3", "--k", "1" * 700),
], ids=["dims-arabic-indic", "dims-underscore", "level", "cops", "dims-fullwidth", "k-fullwidth",
        "k-underscore", "k-superscript", "negative-arabic-indic", "plus-sign", "seed",
        "past-int-limit"])
def test_integer_arguments_take_ascii_digits_only(capsys, argv):
    # int() reads "\u0663" (Arabic-Indic three) as 3 and "1_0" as 10; the
    # command line takes integers by the rule graph specs use
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 3 and out == ""
    assert "Traceback" not in err


def test_integer_arguments_keep_a_leading_minus_and_blanks(capsys):
    # a negative count reaches the library, which refuses it
    code, out, err = run_cli(capsys, "solve", "--graph", "grid:3x3", "--k=-1")
    assert code == 3 and out == "" and "cop count must be >= 0" in err
    code, out, _ = run_cli(capsys, "count", "--dims", " 3, 3", "--level", " 02 ")
    assert code == 0 and json.loads(out)["dims"] == [3, 3] and json.loads(out)["level"] == 2
