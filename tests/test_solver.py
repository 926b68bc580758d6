import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.cops import GreedyCops
from gridpursuit.errors import ConfigurationError, ReplayError, ResourceLimitError
from gridpursuit.grid import cube, grid, parse_graph, product, torus
from gridpursuit.engine import GameState, Phase, run_match, trace_to_jsonl
from gridpursuit.robbers import RandomRobber
from gridpursuit import solver
from gridpursuit.solver import TableCops, TableRobber, cop_number, extract_policies, solve_game

from oracles import (
    cops_win_naive,
    dims_of,
    explicit_adjacency,
    flood,
    robber_certificate_violations,
    table_cops_reference,
)


def test_single_vertex_one_cop_wins():
    assert solve_game(grid(1, 1), 1).cops_win is True


def test_four_cycle_needs_two_cops():
    assert solve_game(cube(2), 1).cops_win is False
    assert solve_game(cube(2), 2).cops_win is True


def test_three_by_three_needs_two_cops():
    assert solve_game(grid(3, 3), 1).cops_win is False
    res = solve_game(grid(3, 3), 2)
    assert res.cops_win is True
    # vertex indices, as Python ints
    assert len(res.witness_placement) == 2 and {type(v) for v in res.witness_placement} == {int}


def test_zero_cops_never_win():
    assert solve_game(grid(2, 2), 0).cops_win is False


def test_cop_number_small_values():
    assert cop_number(grid(2, 2)).cop_number == 2
    assert cop_number(grid(5, 1)).cop_number == 1  # one cop sweeps a path
    assert cop_number(grid(1, 1)).cop_number == 1


def test_cop_number_rectangle_in_paper_range():
    value = cop_number(grid(3, 4)).cop_number
    assert value in (2, 3)


def test_cop_number_dimension_symmetry():
    assert cop_number(grid(3, 4)).cop_number == cop_number(grid(4, 3)).cop_number


def test_cop_number_monotone_under_subgrid_chain():
    values = [cop_number(grid(a, b)).cop_number for a, b in ((3, 3), (3, 4), (4, 4))]
    assert values[0] <= values[1] <= values[2]


def test_win_is_monotone_in_k():
    g = torus(3, 3)
    wins = [solve_game(g, k).cops_win for k in range(1, 5)]
    for worse, better in zip(wins, wins[1:]):
        assert not (worse and not better)


def test_resource_cap_raises():
    with pytest.raises(ResourceLimitError):
        solve_game(grid(10, 10), 6, cap=10_000)


def test_joint_move_cap_refuses_before_the_table_build():
    # 437,580 states pass the state cap, but every configuration has 5^9
    # joint moves to rank: refused at once, not after minutes of ranking
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        solve_game(grid(3, 3), 9)
    assert time.perf_counter() - start < 1
    assert (err.value.estimate, err.value.cap) == (5**9, solver.JOINT_MOVE_CAP)


def test_successor_cap_refuses_before_the_component_pass(monkeypatch):
    # 47,376,576 states and 5^5 joint moves pass the caps above, but the
    # successor buffer's row bound is 820,384,032 entries (3.06 GiB):
    # refused before the components are labelled, not after
    def unreached(*args):
        raise AssertionError("component pass reached")

    monkeypatch.setattr(solver, "_components", unreached)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        solve_game(grid(6, 6), 5)
    assert time.perf_counter() - start < 10
    assert (err.value.estimate, err.value.cap) == (820_384_032, solver.SUCCESSOR_CAP)


@pytest.mark.parametrize("text, k, size", [
    ("torus:5x5", 5, 275_234_400), ("grid:5x5", 5, 116_828_271), ("torus:4x4", 4, 1_837_620),
])
def test_row_bound_of_five_by_five_with_five_cops_stays_under_the_successor_cap(text, k, size):
    # the bound is computed, not solved: these stay under the cap
    g = parse_graph(text)
    _, padded = solver._closed_neighborhoods(g)
    configs = np.array(list(itertools.combinations_with_replacement(range(g.vertex_count), k)),
                       dtype=np.int32)
    assert solver._row_bound(configs, padded) == size <= solver.SUCCESSOR_CAP


@pytest.mark.parametrize("text", ["grid:5x5", "grid:3x3x3"])
def test_joint_move_cap_admits_five_cops_on_small_boxes(monkeypatch, text):
    # 5^5 and 7^5 joint moves per configuration are within the cap: the
    # solve goes on to label components, where this test stops it
    class Admitted(Exception):
        pass

    def stop(*args):
        raise Admitted

    monkeypatch.setattr(solver, "_components", stop)
    with pytest.raises(Admitted):
        solve_game(parse_graph(text), 5)


def test_optimal_policies_capture_on_solved_win():
    res = solve_game(grid(3, 3), 2)
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(grid(3, 3), cop_policy, robber_policy, 2, max_rounds=200)
    assert trace.outcome == "capture"


def test_optimal_robber_escapes_single_cop_forever():
    res = solve_game(grid(3, 3), 1)
    assert res.cops_win is False
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(grid(3, 3), GreedyCops(), robber_policy, 1, max_rounds=100)
    assert trace.outcome == "timeout"


def test_table_cops_stand_still_from_a_losing_table():
    # two cops lose on the 4x4 grid: no witness, so both start on (0, 0),
    # and no move of theirs settles, so they never leave it
    g = grid(4, 4)
    res = solve_game(g, 2)
    assert res.cops_win is False
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(g, cop_policy, robber_policy, 2, max_rounds=12)
    assert (trace.outcome, trace.rounds) == ("timeout", 12)
    start = g.index((0, 0))
    assert all(ev["cops"] == (start, start) for ev in trace.events)


def test_optimal_policies_emit_only_legal_moves():
    res = solve_game(cube(3), 2)
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(cube(3), cop_policy, robber_policy, 2, max_rounds=64)
    assert trace.fault_side is None


def test_solver_agrees_with_proven_strategy():
    # wherever the solver certifies k cops win, the constructive pursuit
    # with that many cops must also win its matches
    from gridpursuit.cops import DiagonalPairsCops
    from gridpursuit.robbers import MaxComponentRobber, RandomRobber

    res = solve_game(grid(3, 3), 2)
    assert res.cops_win
    for seed in range(3):
        trace = run_match(grid(3, 3), DiagonalPairsCops(), RandomRobber(), 2, seed=seed)
        assert trace.outcome == "capture"
    trace = run_match(grid(3, 3), DiagonalPairsCops(), MaxComponentRobber(), 2)
    assert trace.outcome == "capture"


def test_five_by_five_needs_exactly_four_cops():
    # the odd-side square-grid value at the first interesting size; the
    # k=4 table is about a million states
    assert solve_game(grid(5, 5), 3).cops_win is False
    res = solve_game(grid(5, 5), 4)
    assert res.cops_win is True
    assert res.states_explored > 1_000_000


def test_statistics_populated():
    res = solve_game(cube(2), 1)
    assert res.states_explored == 2 * 4 * 4  # configs x vertices x sides
    assert res.transitions > 0
    assert res.elapsed >= 0


# --------------------------------------------------------------------------
# Pinned tables and witness traces: the settle order is the policy rank, so
# any change to it shows here before it reaches a trace
# --------------------------------------------------------------------------


def _rank_matrix(table):
    """cop_rank as int64, row-major over (configuration, robber vertex)."""
    return np.ascontiguousarray(table.cop_rank.T, dtype=np.int64)


def _win_matrix(table):
    return table.cop_win.T


@pytest.mark.parametrize("text, k, transitions, rank_sha256", [
    ("grid:3x3", 2, 4869, "5d8d9a53aad1d367c2231da879539e326c5d6b2c3ad204a33d1d666a18e5758b"),
    ("torus:3x3", 2, 1791, "b189793a04b20d503542820862e14bbab2bea8bf52e8f9e9dac2bf2022de0745"),
    ("cube:4", 3, 227680, "01e95ab40e1ca8f2ed2025421a2d19efd5accf36bc8b85d6ca442a1efe7b3450"),
    ("grid:4x4", 3, 124788, "158493bf899e38098fdef3569b7679b6c5e01acb50e09cb21d23d1f7d7f01b68"),
    ("grid:4x4", 4, 10844768, "8a16296952c9af31e4213610e39c4d1c84a4cb714c9076c489d2bd9ba438cbbc"),
    ("torus:4x4", 4, 25089600, "090cbbe3515897bd4682de2d54951a67509090f3be10ccbd8cbc1c8277f5fd73"),
])
def test_table_matches_pinned_settle_order(text, k, transitions, rank_sha256):
    res = solve_game(parse_graph(text), k)
    assert res.transitions == transitions
    ranks = _rank_matrix(res.table)
    assert hashlib.sha256(ranks.tobytes()).hexdigest() == rank_sha256
    # a cops-to-move state is won exactly when it was given a settle rank
    assert np.array_equal(_win_matrix(res.table), ranks > 0)


@pytest.mark.parametrize("text, k", [("grid:3x3", 2), ("cube:4", 3), ("grid:4x4", 3)])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_block_size_does_not_change_the_table(monkeypatch, text, k, chunk):
    # the queue is relaxed a block at a time; one item per block is the
    # one-at-a-time order, and 1 << 20 puts whole waves, with many repeated
    # keys, into one block (CHUNK_MOVES also sizes the CSR build chunks)
    g = parse_graph(text)
    expected = solve_game(g, k, verify_witness=False)
    monkeypatch.setattr(solver, "CHUNK_MOVES", chunk)
    res = solve_game(g, k, verify_witness=False)
    assert res.transitions == expected.transitions
    assert np.array_equal(res.table.cop_rank, expected.table.cop_rank)


EXPLICIT_INSTANCES = [
    ("grid:3x3", 2), ("torus:3x3", 2), ("product:3,4w", 2), ("cube:3", 3),
    ("grid:1x2", 4), ("cube:2", 5),
]


@pytest.mark.parametrize("text, k", EXPLICIT_INSTANCES)
def test_successor_rows_match_explicit_joint_moves(text, k):
    # each row: the distinct sorted joint moves, ranked by their position
    # in the lexicographic list of sorted configurations.  Stacked cops,
    # where the row-length bound is tight, dominate the last cases
    g = parse_graph(text)
    n_vertices = g.vertex_count
    adj = explicit_adjacency(dims_of(g))
    configs = list(itertools.combinations_with_replacement(range(n_vertices), k))
    rank = {cfg: i for i, cfg in enumerate(configs)}
    _, padded = solver._closed_neighborhoods(g)
    configs_array = np.array(configs, dtype=np.int32)
    ptr, succ = solver._successors(configs_array, padded, solver._config_ranker(n_vertices, k),
                                   solver._row_bound(configs_array, padded))
    assert len(succ) == ptr[-1]
    for ci, cfg in enumerate(configs):
        cops = [g.vertex_at(i) for i in cfg]
        moves = {tuple(sorted(g.index(d) for d in move))
                 for move in itertools.product(*([c] + sorted(adj[c]) for c in cops))}
        assert succ[ptr[ci]:ptr[ci + 1]].tolist() == sorted(rank[move] for move in moves)


@pytest.mark.parametrize("text, k", EXPLICIT_INSTANCES)
def test_components_are_named_by_their_smallest_state(text, k):
    # comp_id[r, ci] is the state ci * V + min(flood of r in G - cfg), or
    # n_cfg * V under a cop, and TableRobber.move offers exactly that flood
    g = parse_graph(text)
    n_vertices = g.vertex_count
    adj = explicit_adjacency(dims_of(g))
    t = solve_game(g, k, verify_witness=False).table
    offered = []
    robber = TableRobber(t)
    robber._pick = lambda ci, options: offered.append(options.tolist()) or int(options[0])
    configs = list(itertools.combinations_with_replacement(range(n_vertices), k))
    assert t.configs.tolist() == [list(cfg) for cfg in configs]
    taken = len(configs) * n_vertices
    for ci, cfg in enumerate(configs):
        cops = tuple(g.vertex_at(i) for i in cfg)
        for r in range(n_vertices):
            if r in cfg:
                assert t.comp_id[r, ci] == taken
                continue
            comp = sorted(g.index(v) for v in flood(adj, set(cops), g.vertex_at(r)))
            assert t.comp_id[r, ci] == ci * n_vertices + comp[0]
            robber.move(GameState(g, cfg, r, Phase.ROBBER_TURN))
            assert offered.pop() == comp


def test_solve_memory_stays_near_its_tables(monkeypatch):
    # block temporaries grow with CHUNK_MOVES, not with the state count: a
    # gather over a whole wave of this instance would hold about 25M entries.
    # The witness replay, which adds comp_key (an int64 per state), starts
    # after the fixed point's queue, counters and successor table are freed
    g = parse_graph("torus:4x4")
    held = []
    verify = solver._verify_witness
    monkeypatch.setattr(solver, "_verify_witness",
                        lambda res: held.append(tracemalloc.get_traced_memory()[0]) or verify(res))
    tracemalloc.start()
    try:
        res = solve_game(g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.witness_verified and len(held) == 1
    t = res.table
    _, padded = solver._closed_neighborhoods(g)
    ptr, succ = solver._successors(t.configs, padded, t.index,
                                   solver._row_bound(t.configs, padded))
    tables = sum(a.nbytes for a in (t.configs, t.cop_win, t.cop_rank, t.comp_id))
    assert peak < tables + ptr.nbytes + succ.nbytes + 4 * 2**20
    assert held[0] < tables + 2**20


@pytest.mark.parametrize("text, k, trace_sha256", [
    ("grid:3x3", 2, "d14d664f62f39cbd1a1ffcfc8ce642bce651d353bb5d78f0ff1f9a47f81558d8"),
    ("cube:3", 2, "8a5616f95cc28af9e263dae120e2bc2db8f99a4d1672c4e2c15aa3bbec614611"),
])
def test_witness_trace_is_pinned(text, k, trace_sha256):
    g = parse_graph(text)
    res = solve_game(g, k)
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(g, cop_policy, robber_policy, k, max_rounds=res.states_explored + 4, seed=0)
    assert trace.outcome == "capture"
    assert hashlib.sha256(trace_to_jsonl(trace).encode()).hexdigest() == trace_sha256


# --------------------------------------------------------------------------
# Verdicts against an independent fixed point, losses against a checked
# robber certificate, and the table policy against the table
# --------------------------------------------------------------------------

SMALL_PRODUCTS = [f"grid:{a}x{b}" for a in range(1, 4) for b in range(1, 5)] + [
    "torus:3x3", "cube:2", "cube:3", "product:3,4w",
]


@pytest.mark.parametrize("text", SMALL_PRODUCTS)
def test_verdicts_agree_with_naive_fixed_point(text):
    g = parse_graph(text)
    for k in range(1, 4):
        assert solve_game(g, k).cops_win == cops_win_naive(dims_of(g), k), k


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=3)
       .map(lambda dims: [(n, wrap and n >= 3) for n, wrap in dims])
       .filter(lambda dims: np.prod([n for n, _ in dims]) <= 12),
       st.integers(1, 3))
def test_verdicts_agree_with_naive_fixed_point_on_random_products(dims, k):
    assert solve_game(product(dims), k).cops_win == cops_win_naive(dims, k)


def _unsettled_states(res):
    """The loss table's unsettled cops-to-move states, robber off the cops,
    as (sorted cop coordinates, robber coordinates)."""
    g, t = res.graph, res.table
    states = set()
    for ci, cfg in enumerate(t.configs.tolist()):
        cops = tuple(g.vertex_at(i) for i in cfg)
        for r in np.flatnonzero(~t.cop_win[:, ci]).tolist():
            if r not in cfg:
                states.add((cops, g.vertex_at(r)))
    return states


@pytest.mark.parametrize("text, k", [
    ("grid:3x3", 1), ("grid:3x4", 2), ("cube:4", 3), ("grid:4x4", 3),
])
def test_loss_tables_leave_a_closed_robber_certificate(text, k):
    res = solve_game(parse_graph(text), k)
    assert res.cops_win is False
    assert robber_certificate_violations(dims_of(res.graph), k, _unsettled_states(res)) == []


def test_robber_certificate_check_rejects_a_cop_win():
    res = solve_game(grid(3, 3), 2)
    assert res.cops_win is True
    assert robber_certificate_violations(dims_of(res.graph), 2, _unsettled_states(res))


@pytest.mark.parametrize("text, k, states", [
    ("grid:3x3", 2, 324), ("cube:3", 2, 224), ("torus:3x3", 3, 1080), ("grid:3x4", 3, 3432),
    ("grid:4x4", 3, 5468),
])
def test_table_cops_capture_or_enter_a_settled_component(text, k, states):
    g = parse_graph(text)
    res = solve_game(g, k)
    t = res.table
    adj = explicit_adjacency(dims_of(g))
    cop_policy, _ = extract_policies(res)
    checked, violations = 0, []
    for ci, cfg in enumerate(t.configs.tolist()):
        cops = tuple(g.vertex_at(i) for i in cfg)
        for r in np.flatnonzero(t.cop_win[:, ci]).tolist():
            if r in cfg:
                continue
            checked += 1
            robber = g.vertex_at(r)
            answer = cop_policy.move(GameState(g, tuple(cfg), r, Phase.COP_TURN))
            assert {type(d) for d in answer} == {int}  # Python ints, not numpy scalars
            after = t.config_index(answer)
            dests = tuple(map(g.vertex_at, answer))
            assert all(d == c or d in adj[c] for c, d in zip(cops, dests))
            if robber in dests:
                continue
            if not all(t.cop_win[g.index(v), after] for v in flood(adj, set(dests), robber)):
                violations.append((cops, robber, dests))
    assert checked == states
    assert violations == []


def _assert_table_cops_match_the_reference(res, states):
    """TableCops.move equals table_cops_reference on every (cops, robber)
    state; returns how many of them were capture turns."""
    cop_policy, _ = extract_policies(res)
    captures = 0
    for cops, r in states:
        answer = cop_policy.move(GameState(res.graph, cops, r, Phase.COP_TURN, 1))
        assert {type(d) for d in answer} == {int}
        assert answer == table_cops_reference(res.table, cops, r), (cops, r)
        captures += r in answer
    return captures


@pytest.mark.parametrize("text, k, states", [
    ("grid:3x3", 2, 324), ("cube:3", 2, 224), ("torus:3x3", 3, 1080), ("grid:3x4", 3, 3432),
    ("grid:4x4", 3, 10880),
])
def test_table_cops_match_the_reference_on_every_state(text, k, states):
    # every cops-to-move state with the robber off the cops, won or lost
    # (grid:4x4 k=3 is a loss table), stacked cops included, with the cops
    # in sorted order and reversed, since the joint-move order is that of
    # the cops in the state
    res = solve_game(parse_graph(text), k)
    n_vertices = res.graph.vertex_count
    cases = [(tuple(cfg), r) for cfg in res.table.configs.tolist()
             for r in range(n_vertices) if r not in cfg]
    assert len(cases) == states
    cases += [(cops[::-1], r) for cops, r in cases]
    assert 0 < _assert_table_cops_match_the_reference(res, cases) < len(cases)


def test_table_cops_match_the_reference_on_torus_4x4_with_four_cops():
    # 625 joint moves a turn: the witness line, then a seeded sample of
    # states with the cops in any order, stacked or not
    g = parse_graph("torus:4x4")
    res = solve_game(g, 4)
    cop_policy, robber_policy = extract_policies(res)
    trace = run_match(g, cop_policy, robber_policy, 4, max_rounds=res.states_explored + 4)
    assert trace.outcome == "capture"
    line = [(ev["cops"], ev["robber"]) for ev in trace.events
            if ev["phase"] in (Phase.ROBBER_PLACEMENT.value, Phase.ROBBER_TURN.value)]
    assert len(line) == trace.rounds
    assert _assert_table_cops_match_the_reference(res, line) == 1
    rng = random.Random(0)
    sample = []
    while len(sample) < 500:
        cops = tuple(rng.randrange(16) for _ in range(4))
        r = rng.randrange(16)
        if r not in cops:
            sample.append((cops, r))
    assert 0 < _assert_table_cops_match_the_reference(res, sample) < len(sample)


def test_local_columns_list_each_cops_options_in_product_order():
    local = solver._local_columns((2, 3, 1))
    assert local.dtype == np.int8 and not local.flags.writeable
    assert [tuple(m) for m in local.T.tolist()] == list(itertools.product(range(2), range(3), range(1)))


def test_table_policies_refuse_a_graph_or_cop_count_they_were_not_solved_for():
    t = solve_game(grid(3, 3), 2).table
    for g in (grid(5, 5), torus(3, 3)):
        with pytest.raises(ConfigurationError, match="grid:3x3"):
            run_match(g, TableCops(t), RandomRobber(), 2)
        with pytest.raises(ConfigurationError, match="grid:3x3"):
            run_match(g, GreedyCops(), TableRobber(t), 2)
    with pytest.raises(ConfigurationError, match="k=3"):
        run_match(grid(3, 3), TableCops(t), RandomRobber(), 3)
    # the same graph under another description plays
    trace = run_match(parse_graph("product:3,3"), TableCops(t), TableRobber(t), 2)
    assert trace.outcome == "capture"


# --------------------------------------------------------------------------
# Witness verification is reported truthfully
# --------------------------------------------------------------------------


def _stand_still(self, state):
    return list(state.cops)


def test_witness_verified_only_after_a_replay():
    assert solve_game(grid(3, 3), 2).witness_verified is True
    assert solve_game(grid(3, 3), 2, verify_witness=False).witness_verified is False
    assert solve_game(grid(3, 3), 1).witness_verified is False


def test_failed_witness_replay_raises_replay_error(monkeypatch):
    monkeypatch.setattr(TableCops, "move", _stand_still)
    with pytest.raises(ReplayError, match="witness replay failed"):
        solve_game(grid(3, 3), 2)
