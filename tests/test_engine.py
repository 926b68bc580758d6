import hashlib
import itertools
import json
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.engine import (
    MAX_MATCH_COPS,
    MAX_MATCH_VERTICES,
    CopStrategy,
    GameState,
    MatchTrace,
    Phase,
    RobberStrategy,
    apply_cop_move,
    apply_robber_move,
    initial_state,
    place_cops,
    place_robber,
    reachable_mask,
    reachable_set,
    render_ascii,
    replay_trace,
    run_match,
    trace_from_jsonl,
    trace_to_jsonl,
    _codec,
    _load_written,
)
from gridpursuit.errors import (
    InvalidVertexError,
    ReplayError,
    ResourceLimitError,
    RuleViolation,
    TraceFormatError,
)
from gridpursuit.grid import cube, format_graph, grid, parse_graph, product, torus

import oracles


def ix(g, *vertices):
    """The vertex indices of coordinate tuples, as a tuple."""
    return tuple(map(g.index, vertices))


def coords(g, indices):
    """The coordinate tuples of vertex indices, as a tuple."""
    return tuple(map(g.vertex_at, indices))


def make_state(g, cops, robber, phase=Phase.COP_TURN, round_no=1):
    """A state from coordinate tuples (robber: a tuple or None)."""
    return GameState(g, ix(g, *cops), None if robber is None else g.index(robber), phase, round_no)


def reach(g, cops, src):
    """reachable_set from coordinates, as a set of coordinate tuples."""
    return set(coords(g, reachable_set(g, ix(g, *cops), g.index(src))))


# -- reachability --------------------------------------------------------------


def test_reachable_no_cops_is_everything():
    g = grid(3, 3)
    assert reachable_set(g, [], 0) == set(range(g.vertex_count))


def test_reachable_blocked_by_wall():
    g = grid(3, 3)
    cops = [(1, 0), (1, 1), (1, 2)]
    assert reachable_set(g, ix(g, *cops), g.index((0, 1))) == set(ix(g, (0, 0), (0, 1), (0, 2)))


def test_reachable_torus_wall_leaves_two_sides_joined():
    g = torus(4, 4)
    cops = [(1, 0), (1, 1), (1, 2), (1, 3)]
    got = reach(g, cops, (3, 0))
    assert got == {(x, y) for x in (0, 2, 3) for y in range(4)}
    assert len(got) == 12


def test_reachable_occupied_source_raises():
    g = grid(3, 3)
    with pytest.raises(RuleViolation, match=r"source \(0, 0\) is occupied"):
        reachable_set(g, [0], 0)


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
            assert reach(g, cops, src) == oracles.flood(adj, set(cops), src)


@given(st.integers(0, 10_000))
@settings(max_examples=80)
def test_removing_a_cop_never_shrinks_reachability(seed):
    rng = random.Random(seed)
    g = rng.choice([grid(4, 4), torus(4, 5), cube(3)])
    verts = list(g.vertices())
    cops = rng.sample(verts, rng.randint(1, 4))
    free = [v for v in verts if v not in cops]
    src = rng.choice(free)
    full = reach(g, cops, src)
    for i in range(len(cops)):
        fewer = cops[:i] + cops[i + 1 :]
        if src in fewer:
            continue
        assert full <= reach(g, fewer, src)


def test_a_kept_component_never_answers_for_another():
    # the lattice keeps the last component flooded; a robber outside it, or
    # cops differing from its configuration by one, must be flooded afresh
    g = grid(5, 5)
    wall = tuple((2, y) for y in range(5))
    gap = wall[:4] + ((4, 0),)  # one cop off the wall: one component
    target = g.index((1, 1))
    for flooded in (wall, gap):
        assert reachable_mask(g, ix(g, *flooded), 0) >> target & 1
        # a legal move first: its flood stops at (1, 1), or hits the kept one
        s = make_state(g, wall, (0, 4), Phase.ROBBER_TURN)
        assert apply_robber_move(s, target).robber == target
        s = make_state(g, wall, (4, 4), Phase.ROBBER_TURN)
        with pytest.raises(RuleViolation):
            apply_robber_move(s, target)


def test_concurrent_floods_on_one_lattice_match_the_oracle():
    # two threads flood through one lattice, each cycling through cop
    # configurations of its own, two floods per configuration: the first
    # builds fill masks, the second may find the component kept.  A short
    # switch interval interleaves the threads inside the floods
    g = grid(16, 16)
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    rng = random.Random(17)
    verts = list(g.vertices())
    jobs = []
    for _ in range(2):
        # index tuples, each configuration one object, as a match holds them
        configs = [ix(g, *rng.sample(verts, 30)) for _ in range(4)]
        floods = []
        for i in range(400):
            cops = configs[i // 2 % len(configs)]
            src = rng.choice([v for v in verts if g.index(v) not in cops])
            expected = set(ix(g, *oracles.flood(adj, set(coords(g, cops)), src)))
            floods.append((cops, g.index(src), expected))
        jobs.append(floods)
    barrier = threading.Barrier(len(jobs))
    wrong = []

    def flood_all(floods):
        barrier.wait()
        for cops, src, expected in floods:
            if reachable_set(g, cops, src) != expected:
                wrong.append((cops, src))

    threads = [threading.Thread(target=flood_all, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_concurrent_writes_and_parses_share_one_codec_table():
    # four threads (more than the cores) write and parse traces of one graph
    # through its codec table, filled from empty while they run; a short
    # switch interval interleaves them inside the fills
    from gridpursuit.cops import RandomCops
    from gridpursuit.robbers import RandomRobber

    g = grid(30, 30)
    traces = [run_match(g, RandomCops(), RandomRobber(), 40, max_rounds=15, seed=seed)
              for seed in range(8)]
    texts = [trace_to_jsonl(t) for t in traces]
    _codec.cache_clear()
    barrier = threading.Barrier(4)
    wrong = []

    def work(offset):
        barrier.wait()
        for i in range(len(traces)):
            j = (i + offset) % len(traces)
            if trace_from_jsonl(texts[j]).events != traces[j].events:
                wrong.append(("parse", j))
            if trace_to_jsonl(traces[j]) != texts[j]:
                wrong.append(("write", j))

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    codec = _codec(g)
    assert all(codec.index[text] == v and g.vertex_at(v) == tuple(map(int, text.split(",")))
               for v, text in codec.text.items())


# -- moves ---------------------------------------------------------------------


def test_cop_move_legal_step():
    g = grid(3, 3)
    s = make_state(g, [(0, 0)], (2, 2))
    s2 = apply_cop_move(s, ix(g, (0, 1)))
    assert s2.phase is Phase.ROBBER_TURN
    assert s2.cops == ix(g, (0, 1))


def test_cop_move_capture_by_colocation():
    g = grid(3, 3)
    s = make_state(g, [(2, 1)], (2, 2))
    s2 = apply_cop_move(s, ix(g, (2, 2)))
    assert s2.phase is Phase.OVER
    assert s2.winner == "cops"


def test_cop_move_diagonal_rejected_with_index():
    g = grid(3, 3)
    s = make_state(g, [(2, 2), (0, 0)], (1, 2))
    with pytest.raises(RuleViolation, match=r"cop 1 cannot step \(0, 0\) -> \(1, 1\)") as err:
        apply_cop_move(s, ix(g, (2, 2), (1, 1)))
    assert err.value.cop_index == 1


def test_cop_move_off_the_graph_rejected():
    g = grid(3, 3)
    s = make_state(g, [(2, 2), (0, 0)], (1, 1))
    # indices out of range, then answers that are no list of ints: a
    # coordinate tuple, a bool, a float equal to a vertex index
    for bad in [9, -1, 10**20, (2, 2), True, 8.0]:
        with pytest.raises(InvalidVertexError, match="is not a vertex of grid:3x3"):
            apply_cop_move(s, [bad, 0])
    for bad in [None, 8, "08", {8: 0}]:
        with pytest.raises(InvalidVertexError, match="not a list of vertices"):
            apply_cop_move(s, bad)


def test_cop_move_long_step_rejected_with_index():
    g = grid(5, 5)
    s = make_state(g, [(0, 0), (4, 4), (2, 2)], (0, 4))
    with pytest.raises(RuleViolation) as err:
        apply_cop_move(s, ix(g, (0, 0), (4, 4), (4, 2)))
    assert err.value.cop_index == 2


@pytest.mark.parametrize("g, legal", [(torus(4, 5), True), (grid(4, 5), False)])
def test_cop_wrap_step_legal_only_on_a_cycle(g, legal):
    s = make_state(g, [(0, 2), (1, 4)], (2, 2))
    dests = ix(g, (3, 2), (1, 0))  # each cop crosses the seam of its own axis
    if legal:
        assert apply_cop_move(s, dests).cops == dests
    else:
        with pytest.raises(RuleViolation) as err:
            apply_cop_move(s, dests)
        assert err.value.cop_index == 0


def test_cop_move_wrong_arity_rejected():
    g = grid(3, 3)
    s = make_state(g, [(0, 0)], (2, 2))
    with pytest.raises(RuleViolation):
        apply_cop_move(s, ix(g, (0, 1), (1, 0)))


def _explicit_cop_move_error(g, cops, dests):
    """(type, cop_index, message) of the error a joint move raises, from
    explicit adjacency over coordinates: first, when some destination is
    not a Python int (bools and floats are not), the first destination that
    is no vertex index; then the first cop that moves off the graph or to a
    non-neighbor, an off-graph index as InvalidVertexError; None for a
    legal move."""
    n = g.vertex_count
    if not all(type(d) is int for d in dests):
        bad = next(d for d in dests if type(d) is not int or not 0 <= d < n)
        return InvalidVertexError, None, f"{bad!r} is not a vertex of {format_graph(g)}"
    dims = oracles.dims_of(g)
    for i, (src, dst) in enumerate(zip(cops, dests)):
        if dst == src:
            continue
        if not 0 <= dst < n:
            return InvalidVertexError, None, f"{dst!r} is not a vertex of {format_graph(g)}"
        a, b = g.vertex_at(src), g.vertex_at(dst)
        if not oracles.adjacent(a, b, dims):
            return RuleViolation, i, f"cop {i} cannot step {a} -> {b}"
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([grid(4, 3), torus(3, 5), product([(4, True), (1, False), (3, False)]),
                        grid(7), torus(17, 17)]),
       st.data())
def test_cop_move_errors_match_explicit_adjacency(g, data):
    dims = oracles.dims_of(g)
    adj = oracles.explicit_adjacency(dims)
    verts = oracles.all_vertices(dims)
    n = g.vertex_count
    # short and long configurations
    k = data.draw(st.one_of(st.integers(1, 4), st.integers(16, 20)))
    # highest index first: hypothesis favours the first entries it samples
    # from, and only an index above 256 tells an equal int from the same one
    cops = data.draw(st.lists(st.sampled_from(verts[::-1]), min_size=k, max_size=k))
    state = make_state(g, cops, data.draw(st.sampled_from(verts)))

    def other(src):
        # any int near the index range, an equal float or bool, the
        # vertex's coordinate tuple, or an equal int in a list
        return st.one_of(
            st.integers(-2, n + 2), st.just(float(src)), st.just(bool(src)),
            st.just(g.vertex_at(src)), st.just([src]))

    # the state's own index, an equal int made anew (another object above
    # 256, on torus:17x17), a neighbor, or at a few drawn cops anything else
    odd = data.draw(st.sets(st.integers(0, k - 1), max_size=3))
    dests = [data.draw(other(src) if i in odd else st.one_of(
                 st.just(src), st.just(src).map(lambda v: int(str(v))),
                 st.sampled_from(sorted(adj[g.vertex_at(src)])).map(g.index)))
             for i, src in enumerate(state.cops)]
    expected = _explicit_cop_move_error(g, state.cops, dests)
    if expected is None:
        for answer in (dests, tuple(dests)):
            after = apply_cop_move(state, answer)
            assert after.cops == tuple(dests)
            assert (after.winner == "cops") == (state.robber in dests)
    else:
        with pytest.raises((InvalidVertexError, RuleViolation)) as err:
            apply_cop_move(state, dests)
        got = (type(err.value), getattr(err.value, "cop_index", None), str(err.value))
        assert got == expected


def test_robber_move_blocked_by_wall():
    g = grid(5, 5)
    cops = [(2, y) for y in range(5)]
    s = make_state(g, cops, (0, 0), Phase.ROBBER_TURN)
    with pytest.raises(RuleViolation, match=r"no cop-free path from \(0, 0\) to \(4, 4\)"):
        apply_robber_move(s, g.index((4, 4)))


def test_robber_stay_is_legal():
    s = make_state(grid(3, 3), [], (0, 0), Phase.ROBBER_TURN)
    s2 = apply_robber_move(s, 0)
    assert s2.phase is Phase.COP_TURN
    assert s2.round == 2


def test_robber_move_around_center():
    g = grid(3, 3)
    s = make_state(g, [(1, 1)], (0, 0), Phase.ROBBER_TURN)
    s2 = apply_robber_move(s, g.index((2, 2)))
    assert s2.robber == g.index((2, 2))


def test_robber_cannot_land_on_cop():
    g = grid(3, 3)
    s = make_state(g, [(0, 1)], (0, 0), Phase.ROBBER_TURN)
    with pytest.raises(RuleViolation, match=r"robber destination \(0, 1\) is cop-occupied"):
        apply_robber_move(s, g.index((0, 1)))


def test_answers_that_are_no_vertex_index_are_refused():
    # a coordinate tuple, as strategies answered before positions became
    # vertex indices, is no vertex: no second path accepts it
    g = grid(3, 3)
    s = make_state(g, [(1, 1)], (0, 0), Phase.ROBBER_TURN)
    for bad in [(2, 2), [8], 8.0, True, None, 9, -1]:
        with pytest.raises(InvalidVertexError, match="is not a vertex of grid:3x3"):
            apply_robber_move(s, bad)
    with pytest.raises(InvalidVertexError, match="is not a vertex of grid:3x3"):
        place_cops(initial_state(g), [(0, 0)])
    placed = place_cops(initial_state(g), [4])
    with pytest.raises(InvalidVertexError, match="is not a vertex of grid:3x3"):
        place_robber(placed, (0, 0))


class _CoordinateCops(CopStrategy):
    """Cops that answer coordinate tuples, valid vertices of the graph."""

    name = "coordinate-cops"

    def place(self, graph, k):
        return [(0, 0)] * k

    def move(self, state):
        return [(0, 1)] * len(state.cops)


class _CoordinateRobber(RobberStrategy):
    """A robber that places on an index, then answers a coordinate tuple."""

    name = "coordinate-robber"

    def place(self, graph, cops):
        return graph.vertex_count - 1

    def move(self, state):
        return state.graph.vertex_at(state.robber)


@pytest.mark.parametrize("cops, robber, k, side, phase", [
    (_CoordinateCops, "stationary", 1, "cops", "cop-placement"),
    ("row-sweep", _CoordinateRobber, 4, "robber", "robber-turn"),
])
def test_a_strategy_answering_coordinates_ends_in_a_fault(cops, robber, k, side, phase):
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.robbers import make_robber_strategy

    cops = cops() if isinstance(cops, type) else make_cop_strategy(cops)
    robber = robber() if isinstance(robber, type) else make_robber_strategy(robber)
    trace = run_match(grid(4, 4), cops, robber, k, max_rounds=5)
    assert (trace.outcome, trace.fault_side) == ("fault", side)
    fault = trace.events[-1]
    assert fault["phase"] == phase
    assert fault["annotations"]["error"].endswith("is not a vertex of grid:4x4")
    assert trace_to_jsonl(trace_from_jsonl(trace_to_jsonl(trace))) == trace_to_jsonl(trace)
    replay_trace(trace_from_jsonl(trace_to_jsonl(trace)))


class _Pacer(RobberStrategy):
    """Steps one ahead on the first axis when that vertex is free, else to
    its smallest free neighbour, else stays."""

    name = "pacer"

    def place(self, graph, cops):
        return min(v for v in range(graph.vertex_count) if v not in cops)

    def move(self, state):
        g = state.graph
        x, *rest = g.vertex_at(state.robber)
        ahead = g.index(((x + 1) % g.lengths[0], *rest))
        free = set(g.closed_neighbors(state.robber)) - {state.robber} - set(state.cops)
        return ahead if ahead in free else min(free, default=state.robber)


def test_a_step_to_a_neighbour_is_checked_without_a_flood(monkeypatch):
    from gridpursuit.cops import RandomCops
    from gridpursuit.grid import BitLattice

    floods = []
    component = BitLattice.component

    def counted(self, *args):
        floods.append(args)
        return component(self, *args)

    g = torus(6, 6)
    trace = trace_from_jsonl(trace_to_jsonl(run_match(g, RandomCops(), _Pacer(), 2, max_rounds=30)))
    steps = [(a["robber"], b["robber"]) for a, b in zip(trace.events, trace.events[1:])
             if b["phase"] == "robber-turn" and a["robber"] != b["robber"]]
    assert len(steps) > 5 and all(g.is_edge(a, b) for a, b in steps)
    steps = [coords(g, step) for step in steps]
    assert any(abs(a[0] - b[0]) == 5 or abs(a[1] - b[1]) == 5 for a, b in steps)  # across the seam
    monkeypatch.setattr(BitLattice, "component", counted)
    replay_trace(trace)
    assert floods == []

    # a step onto a cop, also a neighbour across a seam, and a longer step
    # across a cop wall are still refused; only the longer step floods
    wall = tuple((2, y) for y in range(5))
    g = grid(5, 5)
    s = make_state(g, wall, (1, 2), Phase.ROBBER_TURN)
    assert apply_robber_move(s, g.index((1, 3))).robber == g.index((1, 3))
    with pytest.raises(RuleViolation, match="cop-occupied"):
        apply_robber_move(s, g.index((2, 2)))
    assert floods == []
    with pytest.raises(RuleViolation, match="no cop-free path"):
        apply_robber_move(s, g.index((3, 2)))
    assert len(floods) == 1
    g = torus(5, 5)
    s = make_state(g, ((4, 0),), (0, 0), Phase.ROBBER_TURN)
    assert apply_robber_move(s, g.index((0, 4))).robber == g.index((0, 4))
    with pytest.raises(RuleViolation, match="cop-occupied"):
        apply_robber_move(s, g.index((4, 0)))
    assert len(floods) == 1


def test_round_increments_on_robber_turn_only():
    g = grid(2, 2)
    s = initial_state(g)
    s = place_cops(s, ix(g, (0, 0)))
    s = place_robber(s, g.index((1, 1)))
    assert s.round == 1
    s = apply_cop_move(s, ix(g, (0, 1)))
    assert s.round == 1
    s = apply_robber_move(s, g.index((1, 0)))
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
    # parse_graph shares one graph per text, and with it the lattice's kept
    # mask and flood and the codec table: two traces of one graph, written,
    # parsed, re-written and replayed twice each in turn, must not see each
    # other's state, also when the matches were played on an equal graph
    # built directly, which is not the shared object
    from gridpursuit.cops import GreedyCops, RandomCops
    from gridpursuit.grid import Dim, GraphSpec
    from gridpursuit.robbers import MaxComponentRobber, RandomRobber

    shared = parse_graph("grid:4x4")
    assert shared is parse_graph("grid:4x4")
    for g in (shared, GraphSpec((Dim(4), Dim(4)))):
        assert g == shared
        traces = [run_match(g, GreedyCops(), RandomRobber(), 2, max_rounds=30, seed=3),
                  run_match(g, RandomCops(), MaxComponentRobber(), 3, max_rounds=30, seed=4)]
        texts = [trace_to_jsonl(trace) for trace in traces]
        for _ in range(2):
            for trace, text in zip(traces, texts):
                parsed = trace_from_jsonl(text)
                assert parsed.header == trace.header
                assert trace_to_jsonl(parsed) == text == trace_to_jsonl(trace)
                assert parsed.outcome == trace.outcome
                assert replay_trace(parsed) == trace.final_state


def _as_written(g, record):
    """record with its positions as trace_to_jsonl writes them: each vertex
    index as its coordinate list, any other value as it is."""
    def point(v):
        return list(g.vertex_at(v)) if type(v) is int and 0 <= v < g.vertex_count else v

    if type(record) is not dict:
        return record
    record = dict(record)
    if type(record.get("cops")) in (list, tuple):
        record["cops"] = [point(v) for v in record["cops"]]
    if "robber" in record:
        record["robber"] = point(record["robber"])
    return record


def _dumps_lines(trace):
    g = parse_graph(trace.header["graph"])
    return [json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in (trace.header, *(_as_written(g, ev) for ev in trace.events))]


def _configs_trace(configs):
    """A hand-built trace: a cop turn and a robber turn for each
    configuration, the robber turn sharing the cop turn's object."""
    events = [{"round": r, "phase": phase, "cops": cops, "robber": 0,
               "event": None, "annotations": {}}
              for r, cops in enumerate(configs, 1) for phase in ("cop-turn", "robber-turn")]
    return MatchTrace({"graph": "grid:99x99", "k": len(configs[0]), "max_rounds": 9,
                       "version": 1}, events)


def test_trace_lines_are_json_dumps_of_each_record():
    from gridpursuit.cops import GreedyCops, make_cop_strategy
    from gridpursuit.engine import CopStrategy
    from gridpursuit.errors import StrategyFault
    from gridpursuit.robbers import RandomRobber, StationaryRobber, make_robber_strategy

    class Quoting(CopStrategy):
        name = 'say "cheese"'

        def place(self, graph, k):
            self.last_annotations = {'a "key"': "naïve \\ ☃"}
            return ix(graph, (0, 0), (3, 3))

        def move(self, state):
            raise StrategyFault('cop "0" can\'t move — ünïcode ✓')

    blockade = run_match(parse_graph("grid:5x5x5"), make_cop_strategy("blockade-3d"),
                         make_robber_strategy("max-component"), 22)
    path = run_match(grid(7), GreedyCops(), RandomRobber(), 1, max_rounds=20, seed=2)
    fault = run_match(grid(4, 4), Quoting(), StationaryRobber(), 2, max_rounds=5)
    assert fault.outcome == "fault" and "ünïcode" in fault.events[-1]["annotations"]["error"]
    # the fault event holds the state before the failed cop turn
    assert fault.events[-1]["cops"] is fault.events[-2]["cops"]
    for trace in (blockade, path, fault):
        text = trace_to_jsonl(trace)
        assert text.splitlines() == _dumps_lines(trace)
        parsed = trace_from_jsonl(text)
        # events hold positions as GameState does, recorded and parsed alike
        assert parsed.events == trace.events
        for ev in parsed.events + trace.events:
            assert type(ev["cops"]) is tuple and {type(c) for c in ev["cops"]} <= {int}
            assert ev["robber"] is None or type(ev["robber"]) is int
        for events in (trace.events, parsed.events):
            # a robber's event repeats the cops of the event before it
            shared = [b["cops"] is a["cops"] for a, b in zip(events, events[1:])
                      if b["phase"].startswith("robber")]
            assert shared and all(shared)
        assert trace_to_jsonl(parsed) == text
        assert trace_to_jsonl(parsed).splitlines() == _dumps_lines(parsed)

    # events that are not what _event writes: an extra key, no cops, and
    # fields of other types, next to events that still share their cops
    events = blockade.events
    events[1] = {**events[1], "extra": "x"}
    events[2]["cops"] = None
    events[3]["robber"] = {"b": [1, 'a"b'], "a": None}
    events[4]["annotations"] = {"z": 1, "a": [2.5, True]}
    events[5]["round"] = 1.5
    # six-field events whose fields need the encoder: strings that need
    # escaping, an int and a bool tag, rounds that are no int (a bool, a
    # float, an int past 64 bits), robbers that are no vertex index of
    # grid:5x5x5 (and vertex 0), and empty annotations that are no dict
    fields = [("event", 'say "a"'), ("phase", "back\\slash"), ("event", "naïve ☃"),
              ("phase", "bell\x07\n"), ("phase", 1), ("phase", True), ("event", 1), ("event", True),
              ("round", True), ("round", 2.0), ("round", 2**70),
              ("robber", -1), ("robber", 125), ("robber", True), ("robber", 0),
              ("annotations", None), ("annotations", []), ("annotations", "")]
    for ev, (key, value) in zip(events[6:], fields):
        ev[key] = value
    assert trace_to_jsonl(blockade).splitlines() == _dumps_lines(blockade)

    # configurations with an entry that is no vertex index of grid:99x99
    # (a bool, a float, an int out of range, a coordinate tuple, a list)
    # are written as they are, next to configurations of vertex indices
    base = tuple(range(0, 40, 2))

    def changed(cops, **at):
        cops = list(cops)
        for i, value in at.items():
            cops[int(i[1:])] = value
        return tuple(cops)

    odd = [
        changed(base, i2=True), changed(base, i2=4.0), changed(base, i2=-1),
        changed(base, i2=99 * 99), changed(base, i2=10**30), changed(base, i2=(4, 4)),
        changed(base, i2=[4, 4], i5=()), base + (99 * 99 - 1,), base[:-1], (), list(base),
        [0] + list(base[1:]),
    ]
    configs = [base]
    for cops in odd:
        configs += [cops, changed(cops, i1=9) if len(cops) > 1 else cops, base]
    trace = _configs_trace(configs)
    assert trace_to_jsonl(trace).splitlines() == _dumps_lines(trace)


def test_the_codec_table_holds_each_vertex_met_once(monkeypatch):
    # the writer and the parser share one table per graph, filled with the
    # vertices they meet and with nothing sized by the vertex count; a
    # vertex's text is one string, held by both directions
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.engine import _Codec
    from gridpursuit.grid import GraphSpec
    from gridpursuit.robbers import make_robber_strategy

    g = parse_graph("grid:9x9x9")
    trace = run_match(g, make_cop_strategy("blockade-3d"), make_robber_strategy("max-component"),
                      66)
    met = {c for ev in trace.events for c in ev["cops"]} | {ev["robber"] for ev in trace.events}
    met.discard(None)
    decoded, admitted = [], []
    vertex_at, admit = GraphSpec.vertex_at, _Codec._admit
    monkeypatch.setattr(GraphSpec, "vertex_at", lambda self, i: decoded.append(i) or vertex_at(self, i))
    monkeypatch.setattr(_Codec, "_admit", lambda self, text: admitted.append(text) or admit(self, text))

    _codec.cache_clear()
    text = trace_to_jsonl(trace)
    codec = _codec(g)
    assert set(codec.text) == met and len(codec.index) == len(met) < g.vertex_count
    # each vertex, a cop's or the robber's, is decoded once, and a second
    # write decodes none
    assert sorted(decoded) == sorted(met)
    decoded.clear()
    assert trace_to_jsonl(trace) == text and decoded == []
    assert {id(t) for t in codec.index} == {id(t) for t in codec.text.values()}
    assert all(codec.index[t] == v for v, t in codec.text.items())

    # the parse finds every text in the table
    parsed = trace_from_jsonl(text)
    assert parsed.events == trace.events and decoded == [] and admitted == []
    assert set(codec.text) == met

    # a fresh table is filled by the parse alone, with what it reads
    _codec.cache_clear()
    admitted.clear()
    assert trace_from_jsonl(text).events == trace.events
    assert len(admitted) == len(met) and set(_codec(g).text) == met


def test_shared_cops_lines_keep_their_checks():
    header, *lines = trace_to_jsonl(_greedy_trace()).splitlines()
    events = [json.loads(ln) for ln in lines]
    i = next(i for i, ev in enumerate(events)
             if ev["phase"] == "robber-turn" and ev["cops"] == events[i - 1]["cops"])
    cops = events[i]["cops"]

    def with_line(ev):
        return "\n".join([header, *lines[:i], json.dumps(ev), *lines[i + 1:]])

    # 1.0 == 1 and True == 1: an equal line with a float or a bool
    # coordinate is still malformed
    bad_values = [(j, a, float(c)) for j, cop in enumerate(cops) for a, c in enumerate(cop)]
    bad_values += [(j, a, bool(c)) for j, a, c in bad_values if c in (0, 1)]
    assert any(type(value) is bool for _, _, value in bad_values)
    for j, a, value in bad_values:
        bad = json.loads(lines[i])
        bad["cops"][j][a] = value
        assert bad["cops"] == cops
        with pytest.raises(TraceFormatError, match=f"line {i + 2}"):
            trace_from_jsonl(with_line(bad))

    moved = json.loads(lines[i])
    x, y = moved["cops"][0]
    moved["cops"][0] = [(x + 1) % 4, y]
    with pytest.raises(ReplayError, match="replay diverged"):
        replay_trace(trace_from_jsonl(with_line(moved)))


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
            assert ev["robber"] in reachable_set(g, ev["cops"], ev["robber"])


def test_strategy_fault_is_reported_not_raised():
    from gridpursuit.engine import CopStrategy
    from gridpursuit.robbers import StationaryRobber

    class Cheater(CopStrategy):
        name = "cheater"

        def place(self, graph, k):
            return [0] * k

        def move(self, state):
            return [8]  # a teleport to (2, 2)

    trace = run_match(grid(3, 3), Cheater(), StationaryRobber(), 1, max_rounds=5)
    assert trace.outcome == "fault"
    assert trace.fault_side == "cops"


def test_robber_fault_on_unreachable_or_garbage_move():
    from gridpursuit.cops import GreedyCops
    from gridpursuit.engine import RobberStrategy

    class Teleporter(RobberStrategy):
        name = "teleporter"

        def place(self, graph, cops):
            return 0

        def move(self, state):
            return 24  # (4, 4), across the wall on row 2: unreachable

    class WallCops(GreedyCops):
        def place(self, graph, k):
            return [graph.index((x, 2)) for x in range(5)]

        def move(self, state):
            return list(state.cops)

    trace = run_match(grid(5, 5), WallCops(), Teleporter(), 5, max_rounds=5)
    assert trace.outcome == "fault" and trace.fault_side == "robber"

    class Garbage(RobberStrategy):
        name = "garbage"

        def place(self, graph, cops):
            return 0

        def move(self, state):
            return 999

    trace = run_match(grid(5, 5), WallCops(), Garbage(), 5, max_rounds=5)
    assert trace.outcome == "fault" and trace.fault_side == "robber"


@pytest.mark.parametrize("bad", [("a", 1), (2.0, 2), (True, 1), (4.0, 4), "5", None])
@pytest.mark.parametrize("turn", ["place", "move"])
def test_non_int_coordinates_are_recorded_faults(bad, turn):
    # a coordinate tuple (also of a str, float or bool coordinate), a str
    # or None where a vertex index belongs: not a TypeError traceback and
    # not a trace that trace_from_jsonl rejects
    _answers_are_recorded_faults([bad] if type(bad) is tuple else bad, bad, turn)


@pytest.mark.parametrize("bad", [24.0, True, 2.0, [24], 2**70])
@pytest.mark.parametrize("turn", ["place", "move"])
def test_non_int_vertices_are_recorded_faults(bad, turn):
    # a float or a bool, also on a cop that "stays" at 24.0 on 24, an index
    # in a list, or an int out of range
    _answers_are_recorded_faults([bad], bad, turn)


def _answers_are_recorded_faults(cop_answer, bad, turn):
    from gridpursuit.engine import CopStrategy, RobberStrategy
    from gridpursuit.robbers import StationaryRobber

    class Typo(RobberStrategy):
        name = "typo"

        def place(self, graph, cops):
            return bad if turn == "place" else 0

        def move(self, state):
            return bad

    class TypoCops(CopStrategy):
        name = "typo-cops"

        def place(self, graph, k):
            return cop_answer if turn == "place" else [24]

        def move(self, state):
            return cop_answer

    class StayCops(CopStrategy):
        name = "stay"

        def place(self, graph, k):
            return [24]

        def move(self, state):
            return state.cops

    for cops, robber, side in ((TypoCops(), StationaryRobber(), "cops"),
                               (StayCops(), Typo(), "robber")):
        trace = run_match(grid(5, 5), cops, robber, 1, max_rounds=5)
        assert (trace.outcome, trace.fault_side) == ("fault", side)
        assert trace.events[-1]["event"] == "fault"
        replay_trace(trace_from_jsonl(trace_to_jsonl(trace)))
        # run_match records the side acting in the fault's phase, and no other
        flipped = {"cops": "robber", "robber": "cops"}[side]
        trace.events[-1]["annotations"]["side"] = flipped
        with pytest.raises(ReplayError):
            replay_trace(trace_from_jsonl(trace_to_jsonl(trace)))


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
    # odd heights: the walls stop after (height - 1) // 2 advances
    ("torus:5x5", "torus-two-rows", "max-component", 10, 0, None,
     "16709161ee4c6773b57da73d6b8c4b5206696447c08b35b2e122af5828f7fe48"),
    ("torus:7x7", "torus-two-rows", "max-component", 14, 0, None,
     "e598dd6977af26c26228e683332b0b06b12bcaeffcb34b2357b573bd6daf908c"),
    # a robber on the diagonal is surrounded: in its corner at (0, 0), and
    # at (2, 2) for this random seed
    ("grid:5x5", "diagonal-pairs", "stationary", 4, 0, None,
     "12df21a1879e71735e798f1a95b1d1263884379177e60aac8272dc9a51d62b56"),
    ("grid:7x7", "diagonal-pairs", "stationary", 6, 0, None,
     "aca0588c465a9fe6392494d1fc1aa998a7baa6dce00999b1681b21f22b72d910"),
    ("grid:7x7", "diagonal-pairs", "random", 6, 1, None,
     "d5d0d0b06984b8a658dbfa923d5ab76503d27353f0afd2e1452083910fa71e2c"),
    ("grid:5x5x5", "blockade-ddim", "max-component", 21, 0, None,
     "b3596296c0ce34cc86bcac4711d31c48dff009bb9ab328f96f0547c457301bec"),
    # the wall sweeps row by row, so max-component searches ever smaller
    # components; captured at round 11
    ("grid:12x12", "row-sweep", "max-component", 12, 0, None,
     "66d4b6a9dea10f42edf32a6bd9c2e51270297ee5e0797840a0a3e22dbf8b4ac3"),
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


class _TwoStepCop(CopStrategy):
    """A cop walking along the first axis of grid:5x5 from (0, 0), which
    answers a two-step move in round 3."""

    name = "two-step"

    def place(self, graph, k):
        return [0]

    def move(self, state):
        r = state.round
        return [5 * r] if r < 3 else [5 * (r + 1)]  # (r, 0), then (4, 0) from (2, 0)


class _OntoCopRobber(RobberStrategy):
    """A robber placed on (4, 4) of grid:5x5, which answers cop 0's vertex
    in round 2."""

    name = "onto-cop"

    def place(self, graph, cops):
        return 24

    def move(self, state):
        return state.robber if state.round < 2 else state.cops[0]


class _BehindWallRobber(RobberStrategy):
    """A robber placed on (0, 4) of grid:5x5, which answers (0, 0), behind
    the row sweep's wall."""

    name = "behind-wall"

    def place(self, graph, cops):
        return 4

    def move(self, state):
        return 0


# SHA-256 of fault traces on grid:5x5, recorded when strategies answered
# coordinate tuples: the fault messages name vertices by their coordinates,
# "cop 0 cannot step (2, 0) -> (4, 0)", "robber destination (2, 0) is
# cop-occupied" and "no cop-free path from (0, 4) to (0, 0)".
PINNED_FAULT_TRACES = [
    (_TwoStepCop, "stationary", 1, "cops",
     "952fe2eb3014dff0a2305c8bcacb79d915357a448fda589ec9c1bf56012632f4"),
    ("greedy", _OntoCopRobber, 1, "robber",
     "1d031224ddbfe50061c2bc3603adc180b9cd8c9d240a5e2e7b186a3283542355"),
    ("row-sweep", _BehindWallRobber, 5, "robber",
     "bae3dc9d34755ce6c5193f6d3b660a5ca601dfa9e459a328fa45c7a89f31f622"),
]


@pytest.mark.parametrize("cop, robber, k, side, sha256", PINNED_FAULT_TRACES)
def test_fault_trace_is_pinned(cop, robber, k, side, sha256):
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.robbers import make_robber_strategy

    cop = cop() if isinstance(cop, type) else make_cop_strategy(cop)
    robber = robber() if isinstance(robber, type) else make_robber_strategy(robber)
    trace = run_match(grid(5, 5), cop, robber, k, max_rounds=10)
    assert (trace.outcome, trace.fault_side) == ("fault", side)
    text_out = trace_to_jsonl(trace)
    assert hashlib.sha256(text_out.encode()).hexdigest() == sha256
    replay_trace(trace_from_jsonl(text_out))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["product:4w,3,2", "product:3,1,5w", "torus:4x3", "torus:3x3x3",
                        "cube:5", "grid:6x5", "grid:3x2x4"]),
       st.sampled_from(["random", "greedy"]), st.sampled_from(["random", "max-component"]),
       st.integers(1, 4), st.integers(0, 10**6))
def test_traces_round_trip_through_the_index_codec(text, cop, robber, k, seed):
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.robbers import make_robber_strategy

    trace = run_match(parse_graph(text), make_cop_strategy(cop), make_robber_strategy(robber),
                      k, max_rounds=12, seed=seed)
    written = trace_to_jsonl(trace)
    parsed = trace_from_jsonl(written)
    assert trace_to_jsonl(parsed) == written
    assert [(ev["cops"], ev["robber"]) for ev in parsed.events] == \
        [(ev["cops"], ev["robber"]) for ev in trace.events]
    assert written.splitlines() == _dumps_lines(trace)


# -- rendering -----------------------------------------------------------------


def test_render_single_cell():
    s = GameState(grid(1, 1), (0,), None, Phase.ROBBER_PLACEMENT)
    assert render_ascii(s) == "C"


def test_render_two_by_two():
    s = make_state(grid(2, 2), [(0, 0)], (1, 1))
    assert render_ascii(s) == "C·\n·R"


def test_render_colocation_is_x():
    s = GameState(grid(3, 3), (4,), 4, Phase.OVER, 1, "cops")
    assert render_ascii(s).splitlines()[1][1] == "X"


def test_render_lists_coordinates_past_three_dimensions():
    g = cube(4)
    s = make_state(g, [(0, 1, 0, 1)], (0, 0, 0, 0))
    assert render_ascii(s) == "cop 0: (0, 1, 0, 1)\nrobber: (0, 0, 0, 0)"


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


@pytest.mark.parametrize("phase, field", [
    ("robber-placement", "cops"), ("cop-turn", "robber"), ("robber-turn", "cops"),
])
def test_replay_compares_the_positions_the_acting_side_did_not_supply(phase, field):
    trace = _greedy_trace()
    g = grid(4, 4)
    ev = next(ev for ev in trace.events if ev["phase"] == phase and ev["event"] is None)
    first, *rest = ev["cops"] if field == "cops" else (ev["robber"],)
    x, y = g.vertex_at(first)
    moved = g.index(((x + 1) % 4, y))
    ev[field] = (moved, *rest) if field == "cops" else moved
    with pytest.raises(ReplayError, match=f"replay diverged at round {ev['round']} \\({phase}\\)"):
        replay_trace(trace)


def test_replay_maps_engine_errors_to_replay_errors():
    # (event, field, value from the recorded one): a position off the graph,
    # then positions that equal the recorded ones but are a bool, a float, a
    # str or the coordinate tuple (the events are cop placement, robber
    # placement, cop turn, robber turn)
    g = grid(4, 4)
    for index, field, edit in [
        (0, "cops", lambda cops: [16, *cops[1:]]),
        (0, "cops", lambda cops: [bool(cops[0]) if cops[0] < 2 else float(cops[0]), *cops[1:]]),
        (1, "robber", float),
        (1, "robber", g.vertex_at),
        (2, "cops", lambda cops: [float(cops[0]), *cops[1:]]),
        (2, "cops", lambda cops: [str(cops[0]), *cops[1:]]),
        (2, "cops", lambda cops: [g.vertex_at(cops[0]), *cops[1:]]),
        (3, "robber", float),
        (3, "robber", str),
        (3, "robber", lambda robber: [robber]),
    ]:
        trace = _greedy_trace()
        trace.events[index][field] = edit(trace.events[index][field])
        with pytest.raises(ReplayError, match="illegal action"):
            replay_trace(trace)


def test_trace_from_jsonl_rejects_malformed_lines():
    text = trace_to_jsonl(_greedy_trace())
    header, first, rest = text.split("\n", 2)
    # the last four: a line nested past the recursion limit and one holding
    # an integer past the int-string digit limit, each in another layout
    # (decoded whole) and in trace_to_jsonl's (decoded in parts)
    deep, digits = "[" * 10**5 + "]" * 10**5, "1" * 5000
    for bad in ["{", '"just a string"', '{"phase": "cop-placement"}',
                deep, first.replace('"cops":[', f'"cops":[{deep},', 1),
                f'{{"round": {digits}}}', first.replace('"cops":[[', f'"cops":[[{digits}', 1)]:
        with pytest.raises(TraceFormatError, match="line 2"):
            trace_from_jsonl("\n".join([header, bad, rest]))
    for bad_header in ["[]", '{"graph": "grid:4x4"}', header.replace('"k":2', '"k":"2"')]:
        with pytest.raises(TraceFormatError, match="header"):
            trace_from_jsonl("\n".join([bad_header, first, rest]))
    assert trace_to_jsonl(trace_from_jsonl(text)) == text


def _parsed_or_error_line(parse, text):
    """parse(text) as ("ok", header, events), or ("error", the line number
    its error names; 1 for the header)."""
    try:
        header, events = parse(text)
    except (TraceFormatError, oracles.TraceLineError) as err:
        named = re.search(r"line (\d+)", str(err))
        return "error", int(named.group(1)) if named else 1
    return "ok", header, events


def _from_jsonl(text):
    """trace_from_jsonl's header and events, with positions as coordinate
    tuples as the line-by-line parser gives them."""
    trace = trace_from_jsonl(text)
    g = parse_graph(trace.header["graph"])

    def point(v):
        return g.vertex_at(v) if type(v) is int else v

    for ev in trace.events:
        ev["cops"] = tuple(map(point, ev["cops"]))
        ev["robber"] = point(ev["robber"])
    return trace.header, trace.events


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_trace_from_jsonl_matches_a_line_by_line_parser():
    from gridpursuit.cops import make_cop_strategy
    from gridpursuit.errors import StrategyFault
    from gridpursuit.robbers import make_robber_strategy

    class Stuck(CopStrategy):
        name = "stuck"

        def place(self, graph, k):
            return ix(graph, (0, 0), (3, 3))

        def move(self, state):
            raise StrategyFault("no move")

    def match(text, cop, robber, k):
        cop = cop if isinstance(cop, CopStrategy) else make_cop_strategy(cop)
        return trace_to_jsonl(run_match(parse_graph(text), cop, make_robber_strategy(robber),
                                        k, seed=1))

    blockade = match("grid:5x5x5", "blockade-3d", "max-component", 22)
    fault = match("grid:4x4", Stuck(), "stationary", 2)
    assert '"level"' in blockade and '"fault"' in fault
    texts = [blockade, fault, trace_to_jsonl(_greedy_trace()),
             match("grid:9x9", "diagonal-pairs", "random", 8),
             match("torus:6x6", "torus-two-rows", "max-component", 12)]

    # hand-edited lines, at a robber turn that repeats the cops before it
    # (one of them on 1) and at the lines around it
    header, *lines = blockade.splitlines()
    records = [json.loads(ln) for ln in lines]
    i = next(i for i, ev in enumerate(records) if ev["phase"] == "robber-turn"
             and ev["cops"] == records[i - 1]["cops"] and any(c[0] == 1 for c in ev["cops"]))
    record = records[i]
    cops = _compact(record["cops"])
    head = f'{{"annotations":{_compact(record["annotations"])}'
    tail = _compact({key: record[key] for key in ("event", "phase", "robber", "round")})[1:]
    edits = [
        # an annotation keyed "cops", and a nested object holding "cops" and "event"
        f'{{"annotations":{{"cops":"[[0,0]]","event":"capture"}},"cops":{cops},{tail}',
        f'{{"annotations":{{"x":{{"cops":{cops},"event":null}}}},"cops":{cops},{tail}',
        _compact({**record, "robber": {"cops": record["cops"], "event": None}}),
        # duplicate top-level keys
        lines[i].replace(',"event":', ',"event":null,"cops":[[0,0,0]],"event":', 1),
        lines[i].replace(',"event":', ',"cops":[[0,0,0]],"event":', 1),
        lines[i].replace('"robber":', '"annotations":{},"robber":', 1),
        # spaces after separators, in the whole line and in the cops alone
        json.dumps(record, sort_keys=True),
        f'{head},"cops":{cops.replace(",", ", ")},{tail}',
        # cops equal to the line before's, but for a float or a bool
        f'{head},"cops":{cops.replace("[1,", "[1.0,", 1)},{tail}',
        f'{head},"cops":{cops.replace("[1,", "[true,", 1)},{tail}',
        # reordered keys
        f'{{"cops":{cops},{head[1:]},{tail}',
        f'{head},{tail[:-1]},"cops":{cops}}}',
        # trailing space, extra data, bad separators, and nesting past the
        # recursion limit
        lines[i] + "  ",
        lines[i] + "}",
        lines[i].replace('"cops":', '"cops"=', 1),
        lines[i].replace(',"event":', ';"event":', 1),
        lines[i].replace('"cops":[', '"cops":[' + "[" * 10**5 + "]" * 10**5 + ",", 1),
    ]
    # the fields after "cops", each as a JSON text: strings with escapes,
    # raw non-ASCII and raw control characters; a phase that is no string;
    # rounds that are no int, or no JSON, or too long for int(); robbers
    # that are no canonical coordinate list, or no vertex of grid:5x5x5
    texts_of = {key: _compact(record[key]) for key in ("event", "phase", "robber", "round")}
    for key, value in [
        ("event", r'"say \"a\""'), ("event", r'"back\\slash"'), ("event", r'"\u00e9"'),
        ("event", '"é ☃"'), ("event", '"tab\there"'), ("event", '""'), ("event", "1"),
        ("phase", r'"robber\u002dturn"'), ("phase", '"robber-turné"'), ("phase", '"a\x00"'),
        ("phase", "null"), ("phase", "1"), ("phase", '["robber-turn"]'),
        ("round", "1.0"), ("round", "true"), ("round", "-0"), ("round", "01"), ("round", "-1"),
        ("round", "1" * 100), ("round", "1" * 5000), ("round", '"1"'),
        ("robber", "[]"), ("robber", "[01,2]"), ("robber", "[1, 2]"), ("robber", "[1,2]"),
        ("robber", "[01,2,3]"), ("robber", "[5,0,0]"), ("robber", "[1,,2]"), ("robber", "[0,0,0,]"),
        ("robber", "[[0,0,0]]"), ("robber", "0"),
    ]:
        rest = ",".join(f'"{name}":{text}' for name, text in {**texts_of, key: value}.items())
        edits.append(f'{head},"cops":{cops},{rest}}}')
    # annotations of another type, or with a value that is no string
    for notes in ['{"a":1}', '{"a":null}', '{"a":"x","b":["y"]}', "[]", '"x"', "null"]:
        edits.append(f'{{"annotations":{notes},"cops":{cops},{tail}')
    for edit in edits:
        for at in (i - 1, i, i + 1):
            texts.append("\n".join([header, *lines[:at], edit, *lines[at + 1:]]))

    # hand-edited coordinates at a cop turn whose configuration is new but
    # whose coordinates all appeared before, so that its cops text maps
    # through the codec table text by text, and at the robber turn after it
    seen = set()
    for i, record in enumerate(records):
        if (record["phase"] == "cop-turn" and record["cops"] != records[i - 1]["cops"]
                and seen.issuperset(map(tuple, record["cops"]))):
            break
        seen.update(map(tuple, record["cops"]))
    codec, last = _codec(parse_graph("grid:5x5x5")), None
    for ln in lines[:i]:
        last = _load_written(ln, last, codec)[1]
    cops = _load_written(lines[i], last, codec)[0]["cops"]
    assert type(cops) is tuple and {type(c) for c in cops} == {int}
    coords = [_compact(c) for c in record["cops"]]
    j = len(coords) // 2
    a, b, c = record["cops"][j]
    before = lines[i][:lines[i].index(',"cops":') + 8]
    after = lines[i][lines[i].index(',"event":'):]
    edits = [
        before + "[[]]" + after,
        # two lists of coordinates where one is expected
        before + "[" + ",".join(coords[:j]) + "],[" + ",".join(coords[j:]) + "]" + after,
    ]
    for new in [
        f"[0{a},{b},{c}]", f"[-0,{b},{c}]", f"[+1,{b},{c}]", f"[1e0,{b},{c}]",
        f"[1.0,{b},{c}]", f"[true,{b},{c}]", f"[\u0661,{b},{c}]", f"[{'1' * 5000},{b},{c}]",
        f"[{a}, {b},{c}]", "[]", "[[]]", f"[{a},{b}]", f"[-1,{b},{c}]",
    ]:
        for at in (0, j, -1):
            edited = list(coords)
            edited[at] = new
            edits.append(before + "[" + ",".join(edited) + "]" + after)
    for edit in edits:
        for at in (i, i + 1):
            texts.append("\n".join([header, *lines[:at], edit, *lines[at + 1:]]))

    for text in texts:
        want = _parsed_or_error_line(oracles.parse_trace, text)
        assert _parsed_or_error_line(_from_jsonl, text) == want
    # every event line trace_to_jsonl writes is decoded in parts
    assert all(_load_written(ln, None, codec) for ln in lines)


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


def test_reachable_set_on_a_graph_over_the_vertex_cap_is_a_resource_error():
    # the engine's cap is the lattice's: a flood there would build one
    with pytest.raises(ResourceLimitError) as err:
        reachable_set(grid(1025, 1024), (), 0)
    assert err.value.cap == MAX_MATCH_VERTICES == 2**20


class _RecordingCops(CopStrategy):
    """Cops that only log the calls the engine makes on them."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.calls = []

    def reset(self, graph, k, rng):
        self.calls.append("reset")

    def place(self, graph, k):
        self.calls.append("place")
        return [0] * k


def test_run_match_and_replay_cap_the_cop_count_before_anything_is_built():
    from gridpursuit.cops import RowSweepCops
    from gridpursuit.robbers import RandomRobber, StationaryRobber

    assert MAX_MATCH_COPS >= 2581  # the largest wall played anywhere
    g = grid(3, 3)
    cops = _RecordingCops()
    for k in (MAX_MATCH_COPS + 1, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as err:
                run_match(g, cops, RandomRobber(), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.estimate == k and err.value.cap == MAX_MATCH_COPS
        assert cops.calls == [] and peak < 2**16
    trace = run_match(g, RowSweepCops(), StationaryRobber(), 3)
    trace.header["k"] = 10**12
    with pytest.raises(ResourceLimitError, match="1000000000000 cops"):
        replay_trace(trace)
