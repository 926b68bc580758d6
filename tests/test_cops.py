import math
from collections import Counter

import pytest

from gridpursuit.cops import (
    Blockade3DCops,
    BlockadeNDCops,
    DiagonalPairsCops,
    GreedyCops,
    RandomCops,
    RowSweepCops,
    TorusTwoRowsCops,
    _lex_step,
    blockade_3d_cop_count,
    blockade_nd_cop_count,
    make_cop_strategy,
)
from gridpursuit.engine import GameState, Phase, reachable_set, run_match, trace_to_jsonl
from gridpursuit.errors import ConfigurationError
from gridpursuit.grid import cube, format_graph, grid, parse_graph, torus
from gridpursuit.robbers import MaxComponentRobber, RandomRobber, StationaryRobber


def ix(g, *vertices):
    """The vertex indices of coordinate tuples, as a tuple."""
    return tuple(map(g.index, vertices))


def coords(g, indices):
    """The coordinate tuples of vertex indices, as a list."""
    return [g.vertex_at(i) for i in indices]


def capture_rounds(trace):
    assert trace.outcome == "capture", f"expected capture, got {trace.outcome}"
    return trace.rounds


# -- row sweep ------------------------------------------------------------------


def test_row_sweep_placement_is_top_row():
    g = grid(3, 3)
    assert coords(g, RowSweepCops().place(g, 3)) == [(0, 0), (1, 0), (2, 0)]


def test_row_sweep_needs_full_row():
    with pytest.raises(ConfigurationError):
        RowSweepCops().place(grid(4, 4), 3)


def test_row_sweep_advances_one_row_per_turn():
    g = grid(4, 4)
    trace = run_match(g, RowSweepCops(), StationaryRobber(), 4, max_rounds=10)
    for ev in trace.events:
        if ev["phase"] == "cop-turn":
            rows = {y for _, y in coords(g, ev["cops"])}
            assert rows == {min(ev["round"], 3)}
    assert trace.outcome == "capture"


def test_row_sweep_beats_even_the_optimal_robber():
    # dual route: the sweep's capture guarantee checked against the
    # strongest possible opponent, read off the solved game table
    from gridpursuit.solver import extract_policies, solve_game

    res = solve_game(grid(3, 3), 3)
    _, optimal_robber = extract_policies(res)
    trace = run_match(grid(3, 3), RowSweepCops(), optimal_robber, 3, max_rounds=10)
    assert trace.outcome == "capture"
    assert trace.rounds <= 3


@pytest.mark.parametrize("n", [3, 5, 8])
def test_row_sweep_robber_always_below_wall(n):
    g = grid(n, n)
    trace = run_match(g, RowSweepCops(), MaxComponentRobber(), n)
    for ev in trace.events:
        if ev["phase"] == "cop-turn" and ev["event"] is None:
            wall_row = max(y for _, y in coords(g, ev["cops"]))
            assert g.vertex_at(ev["robber"])[1] > wall_row
    assert capture_rounds(trace) <= n


# -- diagonal pairs --------------------------------------------------------------


def test_diagonal_pairs_placement_paired_on_diagonal():
    g = grid(5, 5)
    placement = DiagonalPairsCops().place(g, 4)
    assert sorted(coords(g, placement)) == [(1, 1), (1, 1), (3, 3), (3, 3)]


def test_diagonal_pairs_rejects_even_or_small():
    with pytest.raises(ConfigurationError):
        DiagonalPairsCops().place(grid(4, 4), 3)
    with pytest.raises(ConfigurationError):
        DiagonalPairsCops().place(grid(5, 5), 3)


def test_diagonal_pairs_split_below_diagonal():
    # robber below the diagonal (x < y): pairs fan out to the staircase
    g = grid(5, 5)
    cops = DiagonalPairsCops()
    state = GameState(g, ix(g, (1, 1), (1, 1), (3, 3), (3, 3)), g.index((0, 3)), Phase.COP_TURN, 1)
    cops.reset(g, 4, None)
    dests = cops.move(state)
    assert sorted(coords(g, dests)) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_diagonal_pairs_split_above_diagonal_is_transposed():
    g = grid(5, 5)
    cops = DiagonalPairsCops()
    state = GameState(g, ix(g, (1, 1), (1, 1), (3, 3), (3, 3)), g.index((3, 0)), Phase.COP_TURN, 1)
    cops.reset(g, 4, None)
    dests = cops.move(state)
    assert sorted(coords(g, dests)) == [(1, 0), (2, 1), (3, 2), (4, 3)]


def test_diagonal_pairs_surrounds_corner_diagonal_robber():
    g = grid(5, 5)
    cops = DiagonalPairsCops()
    cops.reset(g, 4, None)
    state = GameState(g, ix(g, (1, 1), (1, 1), (3, 3), (3, 3)), 0, Phase.COP_TURN, 1)
    dests = cops.move(state)
    assert {(0, 1), (1, 0)} <= set(coords(g, dests))
    # robber is now pinned on (0,0); the next cop move captures
    state2 = GameState(g, tuple(dests), 0, Phase.COP_TURN, 2)
    assert 0 in cops.move(state2)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_diagonal_pairs_captures_and_component_shrinks(n):
    trace = run_match(grid(n, n), DiagonalPairsCops(), MaxComponentRobber(), n - 1)
    assert trace.outcome == "capture"
    g = grid(n, n)
    sizes = []
    for ev in trace.events:
        if ev["phase"] == "cop-turn" and ev["event"] is None and ev["annotations"].get("phase") in ("split", "sweep"):
            comp = reachable_set(g, ev["cops"], ev["robber"])
            sizes.append(len(comp))
    assert all(a > b for a, b in zip(sizes, sizes[1:])), sizes


# -- torus pincer ----------------------------------------------------------------


def test_torus_two_rows_placement():
    g = torus(4, 4)
    placement = TorusTwoRowsCops().place(g, 8)
    assert Counter(y for _, y in coords(g, placement)) == {0: 4, 3: 4}


def test_torus_two_rows_walls_advance():
    g = torus(5, 5)
    trace = run_match(g, TorusTwoRowsCops(), MaxComponentRobber(), 10)
    assert capture_rounds(trace) <= 3
    for ev in trace.events:
        if ev["phase"] == "cop-turn" and ev["event"] is None:
            t = ev["round"]
            rows = Counter(y for _, y in coords(g, ev["cops"]))
            assert rows[t] == 5 and rows[5 - 1 - t] == 5
            assert t < g.vertex_at(ev["robber"])[1] < 5 - 1 - t


@pytest.mark.parametrize("n", [4, 6, 9])
def test_torus_two_rows_capture_time(n):
    trace = run_match(torus(n, n), TorusTwoRowsCops(), MaxComponentRobber(), 2 * n)
    assert capture_rounds(trace) <= math.ceil(n / 2) + 1


# -- blockades -------------------------------------------------------------------


def test_blockade_3d_cop_counts():
    assert blockade_3d_cop_count(3) == 7 + 2
    assert blockade_3d_cop_count(5) == 19 + 3


def test_blockade_3d_placement_covers_level_set():
    g = grid(3, 3, 3)
    placement = Blockade3DCops().place(g, blockade_3d_cop_count(3))
    wall = {v for v in g.vertices() if sum(v) == 3}
    assert wall <= set(coords(g, placement))
    assert len(wall) == 7


def test_blockade_3d_rejects_even_or_short():
    with pytest.raises(ConfigurationError):
        Blockade3DCops().place(grid(4, 4, 4), 100)
    with pytest.raises(ConfigurationError):
        Blockade3DCops().place(grid(3, 3, 3), 8)


def test_blockade_3d_rejects_other_dimension_counts():
    for g in (grid(5, 5), grid(3, 3, 3, 3)):
        with pytest.raises(ConfigurationError, match="blockade-3d needs 3 dimensions"):
            Blockade3DCops().place(g, 1000)
        with pytest.raises(ConfigurationError, match="needs 3 dimensions"):
            Blockade3DCops(allow_understaffed=True).place(g, 1000)


# every board each placement refuses: the wrong factor kind, the wrong
# number of factors, or unequal sides where the strategy needs them equal
BOARD_REFUSALS = {
    "row-sweep": ["torus:5x5", "grid:5", "grid:5x5x5", "product:5w,5", "product:5,5w"],
    "torus-two-rows": ["grid:5x5", "torus:5", "torus:5x5x5", "product:5w,5"],
    "diagonal-pairs": ["grid:5x6", "grid:7x5", "torus:5x5", "grid:5", "grid:5x5x5", "product:5,5w"],
    "blockade-3d": ["grid:5x5x6", "torus:5x5x5", "product:5,5,5w", "grid:5x5", "grid:5x5x5x5"],
    "blockade-ddim": ["grid:5x6", "grid:5x5x4", "torus:5x5", "torus:5x5x5", "product:5w,5,5"],
}


@pytest.mark.parametrize(
    "name, text", [(name, text) for name, texts in BOARD_REFUSALS.items() for text in texts]
)
def test_placement_refuses_a_board_by_its_description(name, text):
    g = parse_graph(text)
    with pytest.raises(ConfigurationError) as err:
        make_cop_strategy(name).place(g, 1000)
    assert format_graph(g) in str(err.value) and "Dim(" not in str(err.value)


def test_blockade_required_cops_follow_the_graph():
    assert Blockade3DCops().required_cops(grid(5, 5, 5)) == blockade_3d_cop_count(5)
    for dims in ((5, 5), (3, 3, 3), (3, 3, 3, 3)):
        needed = blockade_nd_cop_count(len(dims), dims[0])
        assert BlockadeNDCops().required_cops(grid(*dims)) == needed
        assert len(BlockadeNDCops().place(grid(*dims), needed)) == needed
        with pytest.raises(ConfigurationError, match=f"k >= {needed}"):
            BlockadeNDCops().place(grid(*dims), needed - 1)


def test_blockade_nd_counts_match_level_sets():
    # d=2: one full anti-diagonal, no reserves needed
    assert blockade_nd_cop_count(2, 5) == 5
    # d=4, n=3: wall 19 (vertices of {0,1,2}^4 summing to 4) + slice reserves
    assert blockade_nd_cop_count(4, 3) == 19 + 3
    # d=3 blocking wall equals the 3d strategy's wall; reserves differ by
    # the 3d crew's one-cop surplus
    for n in (3, 5, 7):
        assert blockade_nd_cop_count(3, n) == (3 * n * n + 1) // 4 + (n - 1) // 2
        assert blockade_3d_cop_count(n) - blockade_nd_cop_count(3, n) == 1


def level_boundary_events(trace):
    for ev in trace.events:
        if ev["phase"] == "cop-turn" and ev["annotations"].get("boundary") == "1":
            yield ev


@pytest.mark.parametrize("n", [3, 5])
def test_blockade_3d_boundary_occupancy_and_capture(n):
    g = grid(n, n, n)
    trace = run_match(g, Blockade3DCops(), MaxComponentRobber(), blockade_3d_cop_count(n))
    assert trace.outcome == "capture"
    seen_boundary = False
    for ev in level_boundary_events(trace):
        seen_boundary = True
        level = int(ev["annotations"]["level"])
        cops = set(coords(g, ev["cops"]))
        robber = None if ev["robber"] is None else g.vertex_at(ev["robber"])
        wall = {v for v in g.vertices() if sum(v) == level}
        mirrored = {v for v in g.vertices() if sum(v) == 3 * (n - 1) - level}
        assert wall <= cops or mirrored <= cops
        if ev["event"] is None and robber is not None:
            s = sum(robber)
            assert s < level or s > 3 * (n - 1) - level
    assert seen_boundary


@pytest.mark.parametrize("d,n", [(2, 5), (4, 3)])
def test_blockade_nd_captures(d, n):
    g = grid(*([n] * d))
    trace = run_match(g, BlockadeNDCops(), MaxComponentRobber(), blockade_nd_cop_count(d, n))
    assert trace.outcome == "capture"


class _PlacedRobber(StationaryRobber):
    """A robber that starts on a given vertex and never moves."""

    def __init__(self, start):
        super().__init__()
        self.start = start

    def place(self, graph, cops):
        return self.start


@pytest.mark.parametrize("name, text, worst", [
    ("blockade-3d", "grid:3x3x3", 7),
    ("blockade-3d", "grid:5x5x5", 22),
    ("blockade-ddim", "grid:3x3x3x3", 15),
    ("blockade-ddim", "grid:5x5x5", 23),
])
def test_blockade_catches_a_robber_on_every_free_vertex(name, text, worst):
    # a robber above the middle level is played on the mirrored board: the
    # wall covers the level set total - level and he stays above it
    g = parse_graph(text)
    cops = make_cop_strategy(name)
    k = cops.required_cops(g)
    total = g.ndim * (g.dims[0].length - 1)  # the corner's coordinate sum
    sums = [sum(v) for v in g.vertices()]
    occupied = set(cops.place(g, k))
    rounds = []
    for start in range(g.vertex_count):
        if start in occupied:
            continue
        trace = run_match(g, cops, _PlacedRobber(start), k)
        rounds.append(capture_rounds(trace))
        above = sums[start] > total // 2
        for ev in level_boundary_events(trace):
            level = int(ev["annotations"]["level"])
            wall = total - level if above else level
            assert {v for v, s in enumerate(sums) if s == wall} <= set(ev["cops"]), (start, ev["round"])
            if ev["event"] is None:
                assert sums[start] > wall if above else sums[start] < wall
    assert max(rounds) == worst


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (1, 4, 3), (3, 3, 3, 3)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_lex_step_commutes_with_the_reflection(dims):
    # the reflected blockade walks its reserves on the board's own indices
    # toward reflected targets, which relies on this identity
    g = grid(*dims)
    top = g.vertex_count - 1
    for a in range(g.vertex_count):
        for b in range(g.vertex_count):
            assert _lex_step(g, top - a, top - b) == top - _lex_step(g, a, b), (a, b)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_blockade_slice_targets_match_a_scan_of_every_vertex(d):
    for n in (3, 5, 7, 9):
        g = grid(*([n] * d))
        verts = list(g.vertices())  # index order
        for axis in (0, d - 1):
            cops = BlockadeNDCops()
            cops.shift_axis = axis
            for level in range(d * (n - 1) + 2):
                scan = [v for v in verts if v[axis] == n - 1 and sum(v) == level - 1]
                assert cops._slice_targets(g, level) == scan, (n, axis, level)


def test_blockade_understaffed_mode_runs_without_guarantee():
    g = grid(4, 4, 4)  # even side: only the relaxed mode accepts it
    cops = Blockade3DCops(allow_understaffed=True)
    trace = run_match(g, cops, MaxComponentRobber(), 10, max_rounds=30)
    assert trace.outcome in ("capture", "timeout")
    assert trace.fault_side is None


# -- heuristics ------------------------------------------------------------------


def test_greedy_step_tie_break():
    # lowest dimension index first: from (0,0) toward (2,2) moves along x
    g = grid(3, 3)
    cops = GreedyCops()
    state = GameState(g, ix(g, (0, 0)), g.index((2, 2)), Phase.COP_TURN, 1)
    assert coords(g, cops.move(state)) == [(1, 0)]


def test_greedy_adjacent_cop_captures():
    trace = run_match(grid(3, 3), GreedyCops(), StationaryRobber(), 2, max_rounds=20)
    assert trace.outcome == "capture"


def test_greedy_placement_spreads_evenly():
    g = grid(4, 4)
    placement = GreedyCops().place(g, 4)
    assert placement == [0, 4, 8, 12]


def test_greedy_torus_steps_shorter_way_around():
    g = torus(5, 5)
    state = GameState(g, ix(g, (0, 0)), g.index((4, 0)), Phase.COP_TURN, 1)
    assert coords(g, GreedyCops().move(state)) == [(4, 0)]
    # and along the last axis, across its seam too
    state = GameState(g, ix(g, (2, 4)), g.index((2, 1)), Phase.COP_TURN, 1)
    assert coords(g, GreedyCops().move(state)) == [(2, 0)]


def test_random_cops_moves_always_legal_and_reproducible():
    t1 = run_match(grid(4, 4), RandomCops(), RandomRobber(), 3, max_rounds=50, seed=12)
    t2 = run_match(grid(4, 4), RandomCops(), RandomRobber(), 3, max_rounds=50, seed=12)
    assert t1.fault_side is None
    assert [e["cops"] for e in t1.events] == [e["cops"] for e in t2.events]


def test_random_cops_reused_on_other_graphs_plays_like_a_fresh_instance():
    # the neighborhood table is per match: a stale grid:5x5 entry would
    # offer a torus:5x5 boundary cop the wrong moves
    reused = RandomCops()
    for g in (grid(5, 5), torus(5, 5), grid(4, 4, 4)):
        traces = [
            trace_to_jsonl(run_match(g, cops, MaxComponentRobber(), 3, max_rounds=40, seed=7))
            for cops in (reused, RandomCops())
        ]
        assert traces[0] == traces[1], g


ROBBERS = {"max-component": MaxComponentRobber, "random": RandomRobber,
           "stationary": StationaryRobber}


@pytest.mark.parametrize("name, first, second", [
    # first match: (graph, k, robber, seed, max_rounds, its last cop phase);
    # second match: (graph, k, robber, seed)
    ("torus-two-rows", ("torus:7x7", 14, "max-component", 0, 1, None),
     ("torus:5x5", 10, "max-component", 0)),
    ("diagonal-pairs", ("grid:7x7", 6, "max-component", 0, 1, "split"),
     ("grid:5x5", 4, "stationary", 0)),
    # the first robber starts above the wall, so the first match is reflected
    ("blockade-3d", ("grid:5x5x5", 22, "random", 0, 2, "transit"),
     ("grid:7x7x7", 41, "max-component", 0)),
    ("blockade-ddim", ("grid:3x3x3x3", 22, "max-component", 2, 1, "transit"),
     ("grid:5x5x5", 21, "max-component", 0)),
])
def test_reused_pursuits_play_like_fresh_instances(name, first, second):
    # a pursuit's per-match memory is set by place and its round-1 move, so
    # an instance stopped mid-phase plays its next match, on another graph,
    # byte for byte like a fresh one
    reused = make_cop_strategy(name)
    text, k, robber, seed, max_rounds, phase = first
    trace = run_match(parse_graph(text), reused, ROBBERS[robber](), k,
                      max_rounds=max_rounds, seed=seed)
    assert trace.outcome == "timeout"
    assert trace.events[-2]["annotations"].get("phase") == phase
    text, k, robber, seed = second
    traces = [trace_to_jsonl(run_match(parse_graph(text), cops, ROBBERS[robber](), k, seed=seed))
              for cops in (reused, make_cop_strategy(name))]
    assert traces[0] == traces[1]


def test_random_cops_table_holds_one_tuple_per_vertex():
    # one entry per vertex a cop moved from, its closed neighborhood in
    # ascending index order, filled as the cops reach vertices
    g = grid(6, 6)
    cops = RandomCops()
    trace = run_match(g, cops, MaxComponentRobber(), 5, max_rounds=60, seed=4)
    table = cops._options
    moved_from = {c for ev in trace.events[:-1] if ev["phase"] != "cop-turn" for c in ev["cops"]}
    assert set(table) == moved_from
    for v, options in table.items():
        near = {g.vertex_at(v)} | g.neighbors(g.vertex_at(v))
        assert type(options) is tuple and options == tuple(sorted(map(g.index, near)))


def test_random_cop_move_distribution_uniform():
    import random

    g = grid(3, 3)
    cops = RandomCops()
    cops.reset(g, 1, random.Random(99))
    state = GameState(g, ix(g, (1, 1)), 0, Phase.COP_TURN, 1)
    counts = Counter()
    samples = 100_000
    for _ in range(samples):
        counts[g.vertex_at(cops.move(state)[0])] += 1
    assert set(counts) == {(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}
    for v, c in counts.items():
        assert abs(c / samples - 0.2) < 0.02, (v, c)


@pytest.mark.parametrize("text", ["grid:1x1", "grid:1x2", "grid:3x3", "cube:3", "torus:3x3"])
def test_random_cops_draw_like_randrange(text):
    # closed neighbourhoods of 1 vertex (grid:1x1), 2 (grid:1x2), 3 to 5
    # (grid:3x3), 4 (cube:3) and 5 (torus:3x3): the moves, and the state the
    # generator is left in, equal a loop of randrange draws
    import random

    g = parse_graph(text)
    for seed in range(4):
        cops, rng, reference = RandomCops(), random.Random(seed), random.Random(seed)
        positions = list(range(g.vertex_count)) * 2
        cops.reset(g, len(positions), rng)
        for round_no in range(1, 21):
            state = GameState(g, tuple(positions), 0, Phase.COP_TURN, round_no)
            expected = []
            for c in positions:
                near = sorted(map(g.index, {g.vertex_at(c)} | g.neighbors(g.vertex_at(c))))
                expected.append(near[reference.randrange(len(near))])
            positions = cops.move(state)
            assert positions == expected
        assert rng.random() == reference.random()


def test_registry_names():
    for name in ("row-sweep", "diagonal-pairs", "torus-two-rows", "blockade-3d", "blockade-ddim", "greedy", "random"):
        assert make_cop_strategy(name).name == name
    with pytest.raises(ConfigurationError):
        make_cop_strategy("nope")
