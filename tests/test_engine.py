import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.engine import (
    MAX_MATCH_VERTICES,
    GameState,
    Phase,
    apply_cop_move,
    apply_robber_move,
    initial_state,
    place_cops,
    place_robber,
    reachable_set,
    render_ascii,
    replay_trace,
    run_match,
    trace_from_jsonl,
    trace_to_jsonl,
)
from gridpursuit.errors import (
    InvalidVertexError,
    ReplayError,
    ResourceLimitError,
    RuleViolation,
    TraceFormatError,
)
from gridpursuit.grid import cube, grid, parse_graph, torus

import oracles


def make_state(g, cops, robber, phase=Phase.COP_TURN, round_no=1):
    return GameState(g, tuple(cops), robber, phase, round_no)


# -- reachability --------------------------------------------------------------


def test_reachable_no_cops_is_everything():
    g = grid(3, 3)
    assert reachable_set(g, [], (0, 0)) == set(g.vertices())


def test_reachable_blocked_by_wall():
    g = grid(3, 3)
    cops = [(1, 0), (1, 1), (1, 2)]
    assert reachable_set(g, cops, (0, 1)) == {(0, 0), (0, 1), (0, 2)}


def test_reachable_torus_wall_leaves_two_sides_joined():
    g = torus(4, 4)
    cops = [(1, 0), (1, 1), (1, 2), (1, 3)]
    got = reachable_set(g, cops, (3, 0))
    assert got == {(x, y) for x in (0, 2, 3) for y in range(4)}
    assert len(got) == 12


def test_reachable_occupied_source_raises():
    g = grid(3, 3)
    with pytest.raises(RuleViolation):
        reachable_set(g, [(0, 0)], (0, 0))


def test_reachable_matches_flood_exhaustively_small():
    g = grid(3, 3)
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    verts = list(g.vertices())
    for cops in itertools.chain(
        [()], itertools.combinations(verts, 1), itertools.combinations(verts, 2)
    ):
        for src in verts:
            if src in cops:
                continue
            assert reachable_set(g, cops, src) == oracles.flood(adj, set(cops), src)


@given(st.integers(0, 10_000))
@settings(max_examples=80)
def test_removing_a_cop_never_shrinks_reachability(seed):
    rng = random.Random(seed)
    g = rng.choice([grid(4, 4), torus(4, 5), cube(3)])
    verts = list(g.vertices())
    cops = rng.sample(verts, rng.randint(1, 4))
    free = [v for v in verts if v not in cops]
    src = rng.choice(free)
    full = reachable_set(g, cops, src)
    for i in range(len(cops)):
        fewer = cops[:i] + cops[i + 1 :]
        if src in fewer:
            continue
        assert full <= reachable_set(g, fewer, src)


# -- moves ---------------------------------------------------------------------


def test_cop_move_legal_step():
    s = make_state(grid(3, 3), [(0, 0)], (2, 2))
    s2 = apply_cop_move(s, [(0, 1)])
    assert s2.phase is Phase.ROBBER_TURN
    assert s2.cops == ((0, 1),)


def test_cop_move_capture_by_colocation():
    s = make_state(grid(3, 3), [(2, 1)], (2, 2))
    s2 = apply_cop_move(s, [(2, 2)])
    assert s2.phase is Phase.OVER
    assert s2.winner == "cops"


def test_cop_move_diagonal_rejected_with_index():
    s = make_state(grid(3, 3), [(2, 2), (0, 0)], (1, 2))
    with pytest.raises(RuleViolation) as err:
        apply_cop_move(s, [(2, 2), (1, 1)])
    assert err.value.cop_index == 1


def test_cop_move_off_the_graph_rejected():
    s = make_state(grid(3, 3), [(2, 2), (0, 0)], (1, 1))
    for bad in [(3, 2), (2, -1), (2, 2, 0), (2,)]:
        with pytest.raises(InvalidVertexError):
            apply_cop_move(s, [bad, (0, 0)])


def test_cop_move_long_step_rejected_with_index():
    s = make_state(grid(5, 5), [(0, 0), (4, 4), (2, 2)], (0, 4))
    with pytest.raises(RuleViolation) as err:
        apply_cop_move(s, [(0, 0), (4, 4), (4, 2)])
    assert err.value.cop_index == 2


@pytest.mark.parametrize("g, legal", [(torus(4, 5), True), (grid(4, 5), False)])
def test_cop_wrap_step_legal_only_on_a_cycle(g, legal):
    s = make_state(g, [(0, 2), (1, 4)], (2, 2))
    dests = [(3, 2), (1, 0)]  # each cop crosses the seam of its own axis
    if legal:
        assert apply_cop_move(s, dests).cops == tuple(dests)
    else:
        with pytest.raises(RuleViolation) as err:
            apply_cop_move(s, dests)
        assert err.value.cop_index == 0


def test_cop_move_wrong_arity_rejected():
    s = make_state(grid(3, 3), [(0, 0)], (2, 2))
    with pytest.raises(RuleViolation):
        apply_cop_move(s, [(0, 1), (1, 0)])


def test_robber_move_blocked_by_wall():
    g = grid(5, 5)
    cops = [(2, y) for y in range(5)]
    s = make_state(g, cops, (0, 0), Phase.ROBBER_TURN)
    with pytest.raises(RuleViolation):
        apply_robber_move(s, (4, 4))


def test_robber_stay_is_legal():
    s = make_state(grid(3, 3), [], (0, 0), Phase.ROBBER_TURN)
    s2 = apply_robber_move(s, (0, 0))
    assert s2.phase is Phase.COP_TURN
    assert s2.round == 2


def test_robber_move_around_center():
    s = make_state(grid(3, 3), [(1, 1)], (0, 0), Phase.ROBBER_TURN)
    s2 = apply_robber_move(s, (2, 2))
    assert s2.robber == (2, 2)


def test_robber_cannot_land_on_cop():
    s = make_state(grid(3, 3), [(0, 1)], (0, 0), Phase.ROBBER_TURN)
    with pytest.raises(RuleViolation):
        apply_robber_move(s, (0, 1))


def test_round_increments_on_robber_turn_only():
    g = grid(2, 2)
    s = initial_state(g)
    s = place_cops(s, [(0, 0)])
    s = place_robber(s, (1, 1))
    assert s.round == 1
    s = apply_cop_move(s, [(0, 1)])
    assert s.round == 1
    s = apply_robber_move(s, (1, 0))
    assert s.round == 2


# -- matches -------------------------------------------------------------------


def test_sweep_captures_stationary_quickly():
    from gridpursuit.cops import RowSweepCops
    from gridpursuit.robbers import StationaryRobber

    trace = run_match(grid(3, 3), RowSweepCops(), StationaryRobber(), 3, max_rounds=10)
    assert trace.outcome == "capture"
    assert trace.rounds <= 3


def test_one_greedy_cop_times_out_on_four_cycle():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.robbers import MaxComponentRobber

    trace = run_match(cube(2), GreedyCops(), MaxComponentRobber(), 1, max_rounds=100)
    assert trace.outcome == "timeout"


def test_full_cover_placement_is_round_zero_capture():
    from gridpursuit.cops import RowSweepCops
    from gridpursuit.robbers import StationaryRobber

    g = grid(2, 1)
    trace = run_match(g, RowSweepCops(), StationaryRobber(), 2, max_rounds=5)
    assert trace.outcome == "capture"
    assert trace.rounds == 0


def test_match_is_deterministic_and_replayable():
    from gridpursuit.cops import RandomCops
    from gridpursuit.robbers import RandomRobber

    g = torus(4, 4)
    t1 = run_match(g, RandomCops(), RandomRobber(), 3, max_rounds=40, seed=9)
    t2 = run_match(g, RandomCops(), RandomRobber(), 3, max_rounds=40, seed=9)
    assert trace_to_jsonl(t1) == trace_to_jsonl(t2)
    t3 = run_match(g, RandomCops(), RandomRobber(), 3, max_rounds=40, seed=10)
    assert trace_to_jsonl(t1) != trace_to_jsonl(t3)

    final = replay_trace(t1)
    assert final.cops == t1.final_state.cops
    assert final.robber == t1.final_state.robber


def test_trace_jsonl_roundtrip():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.robbers import RandomRobber

    trace = run_match(grid(4, 4), GreedyCops(), RandomRobber(), 2, max_rounds=30, seed=3)
    text = trace_to_jsonl(trace)
    parsed = trace_from_jsonl(text)
    assert parsed.header == trace.header
    assert trace_to_jsonl(parsed) == text
    assert parsed.outcome == trace.outcome
    replay_trace(parsed)


def test_trace_header_fields():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.robbers import StationaryRobber

    trace = run_match(grid(3, 3), GreedyCops(), StationaryRobber(), 1, max_rounds=7, seed=5)
    h = trace.header
    assert h["graph"] == "grid:3x3"
    assert h["k"] == 1 and h["seed"] == 5 and h["max_rounds"] == 7
    assert h["version"] == 1
    assert h["cop_strategy"] == "greedy"
    assert h["robber_strategy"] == "stationary"


def test_robber_always_inside_reachable_during_play():
    from gridpursuit.cops import RandomCops
    from gridpursuit.robbers import RandomRobber

    trace = run_match(grid(4, 4), RandomCops(), RandomRobber(), 2, max_rounds=30, seed=1)
    g = grid(4, 4)
    for ev in trace.events:
        if ev["phase"] == "cop-turn" and ev["event"] is None:
            robber = tuple(ev["robber"])
            cops = [tuple(c) for c in ev["cops"]]
            assert robber in reachable_set(g, cops, robber)


def test_strategy_fault_is_reported_not_raised():
    from gridpursuit.engine import CopStrategy
    from gridpursuit.robbers import StationaryRobber

    class Cheater(CopStrategy):
        name = "cheater"

        def place(self, graph, k):
            return [(0, 0)] * k

        def move(self, state):
            return [(2, 2)]  # teleport

    trace = run_match(grid(3, 3), Cheater(), StationaryRobber(), 1, max_rounds=5)
    assert trace.outcome == "fault"
    assert trace.fault_side == "cops"


def test_robber_fault_on_unreachable_or_garbage_move():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.engine import RobberStrategy

    class Teleporter(RobberStrategy):
        name = "teleporter"

        def place(self, graph, cops):
            return (0, 0)

        def move(self, state):
            return (4, 4)  # across the wall on row 2: unreachable

    class WallCops(GreedyCops):
        def place(self, graph, k):
            return [(x, 2) for x in range(5)]

        def move(self, state):
            return list(state.cops)

    trace = run_match(grid(5, 5), WallCops(), Teleporter(), 5, max_rounds=5)
    assert trace.outcome == "fault" and trace.fault_side == "robber"

    class Garbage(RobberStrategy):
        name = "garbage"

        def place(self, graph, cops):
            return (0, 0)

        def move(self, state):
            return (9, 9, 9)

    trace = run_match(grid(5, 5), WallCops(), Garbage(), 5, max_rounds=5)
    assert trace.outcome == "fault" and trace.fault_side == "robber"


# -- pinned traces --------------------------------------------------------------

# SHA-256 of trace_to_jsonl for small matches over every graph family, with
# random, greedy, max-component and guaranteed-pursuit sides.  Traces are part
# of the replay contract: an engine or bitboard rewrite must leave them
# byte-identical.
PINNED_TRACES = [
    ("grid:6x5", "random", "max-component", 3, 7, 40,
     "770498f93f5e16e963aaff28fce433a261900bbe0edd296f5ec219ef7ff81687"),
    ("torus:5x6", "greedy", "random", 2, 3, 40,
     "c27769ace58ad058760f9cd4aa5ab4f2fdf025fc34f670e2c4dc8cb5bd225517"),
    # the robber starts above the wall, so the cops play reflected
    ("grid:5x5x5", "blockade-3d", "random", 22, 0, None,
     "8a32e2d962736b0055aa4aa876260f9d2595e99a7cbe5d192f087c368de36b6c"),
    ("grid:5x5x5", "blockade-3d", "max-component", 22, 0, None,
     "ee7c5f01be4cc31802080447b0cda1933d85fc7405645c276f140b6358656024"),
    ("grid:3x3x3x3", "blockade-ddim", "max-component", 22, 2, None,
     "c2976db6abfb5d6d504ddfac559fca9ee0810e29a38d29d38d34a80304cacb52"),
    ("cube:6", "greedy", "max-component", 3, 4, 30,
     "327c4ae832baf56c6e74df8ff097f425c7985704f117709f4b255dcf566a7d02"),
    ("product:4w,3,2", "random", "random", 2, 5, 30,
     "3d15419737a60393fd1d1c99e4d1f07bb46dcf812465bef64a1886330ec35d57"),
    ("product:5,1,3w", "greedy", "random", 1, 9, 30,
     "808d6a639742ae42ed1ccbc1386724ab312aee50f0031f215b483bfe8b431013"),
    ("grid:7x7", "diagonal-pairs", "random", 6, 8, None,
     "b436cf6417b42723f646b50fdef9792503b7e26dd21e576c752aabeeaac46db3"),
    ("grid:9x9", "diagonal-pairs", "max-component", 8, 1, None,
     "f94d14d77944c9efa909c8f673ddb3184e8b784c158a9ae9a1124b63e6588949"),
    ("torus:6x6", "torus-two-rows", "max-component", 12, 0, None,
     "5556859de740d447edd0061a1b822ecf6ac38888d7c2a35480cd6e110edce1d7"),
]


@pytest.mark.parametrize("text, cop, robber, k, seed, max_rounds, sha256", PINNED_TRACES)
def test_trace_is_pinned(text, cop, robber, k, seed, max_rounds, sha256):
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.robbers import make_robber_strategy

    trace = run_match(parse_graph(text), make_cop_strategy(cop), make_robber_strategy(robber),
                      k, max_rounds=max_rounds, seed=seed)
    text_out = trace_to_jsonl(trace)
    assert hashlib.sha256(text_out.encode()).hexdigest() == sha256
    replay_trace(trace_from_jsonl(text_out))


# -- rendering -----------------------------------------------------------------


def test_render_single_cell():
    s = GameState(grid(1, 1), ((0, 0),), None, Phase.ROBBER_PLACEMENT)
    assert render_ascii(s) == "C"


def test_render_two_by_two():
    s = make_state(grid(2, 2), [(0, 0)], (1, 1))
    assert render_ascii(s) == "C·\n·R"


def test_render_colocation_is_x():
    s = GameState(grid(3, 3), ((1, 1),), (1, 1), Phase.OVER, 1, "cops")
    assert render_ascii(s).splitlines()[1][1] == "X"


def test_render_3d_plane_blocks():
    s = make_state(grid(2, 2, 2), [(0, 0, 0)], (1, 1, 1))
    text = render_ascii(s)
    assert "z=0" in text and "z=1" in text
    assert text.splitlines()[1][0] == "C"


# -- replay and parse errors -----------------------------------------------------


def _greedy_trace():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.robbers import RandomRobber

    return run_match(grid(4, 4), GreedyCops(), RandomRobber(), 2, max_rounds=30, seed=3)


def test_replay_requires_a_final_event():
    trace = _greedy_trace()
    trace.events.pop()
    with pytest.raises(ReplayError, match="does not end"):
        replay_trace(trace)
    trace.events = []
    with pytest.raises(ReplayError):
        replay_trace(trace)


def test_replay_rejects_events_after_the_final_one():
    trace = _greedy_trace()
    trace.events.append(dict(trace.events[-1]))
    with pytest.raises(ReplayError, match="unexpected"):
        replay_trace(trace)


def test_replay_checks_the_timeout_round_against_the_header():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.robbers import MaxComponentRobber

    trace = run_match(cube(2), GreedyCops(), MaxComponentRobber(), 1, max_rounds=6)
    assert trace.outcome == "timeout"
    replay_trace(trace)
    trace.header["max_rounds"] = 7
    with pytest.raises(ReplayError, match="max_rounds"):
        replay_trace(trace)


def test_replay_rejects_a_false_no_free_vertex_capture():
    from gridpursuit.cops import RowSweepCops
    from gridpursuit.robbers import StationaryRobber

    trace = run_match(grid(2, 1), RowSweepCops(), StationaryRobber(), 2, max_rounds=5)
    assert trace.rounds == 0
    replay_trace(trace)
    trace.header["graph"] = "grid:2x2"
    with pytest.raises(ReplayError, match="free vertex"):
        replay_trace(trace)


def test_replay_maps_engine_errors_to_replay_errors():
    trace = _greedy_trace()
    trace.events[0]["cops"] = [[0, 9], [0, 0]]  # off the graph
    with pytest.raises(ReplayError, match="illegal action"):
        replay_trace(trace)


def test_trace_from_jsonl_rejects_malformed_lines():
    text = trace_to_jsonl(_greedy_trace())
    header, first, rest = text.split("\n", 2)
    for bad in ["{", '"just a string"', '{"phase": "cop-placement"}']:
        with pytest.raises(TraceFormatError, match="line 2"):
            trace_from_jsonl("\n".join([header, bad, rest]))
    for bad_header in ["[]", '{"graph": "grid:4x4"}', header.replace('"k":2', '"k":"2"')]:
        with pytest.raises(TraceFormatError, match="header"):
            trace_from_jsonl("\n".join([bad_header, first, rest]))
    assert trace_to_jsonl(trace_from_jsonl(text)) == text


def test_run_match_caps_the_vertex_count_before_building_a_lattice():
    from gridpursuit.cops import RandomCops
    from gridpursuit.grid import lattice
    from gridpursuit.robbers import RandomRobber

    assert MAX_MATCH_VERTICES >= cube(14).vertex_count  # the largest graph played anywhere
    misses = lattice.cache_info().misses
    with pytest.raises(ResourceLimitError) as err:
        run_match(cube(21), RandomCops(), RandomRobber(), 1)
    assert err.value.estimate == 2**21 and err.value.cap == MAX_MATCH_VERTICES
    assert lattice.cache_info().misses == misses
