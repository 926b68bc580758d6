import hashlib
import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gridpursuit.cops import Blockade3DCops, GreedyCops, RandomCops
from gridpursuit.engine import GameState, Phase, reachable_set, run_match, trace_to_jsonl
from gridpursuit.errors import ConfigurationError, StrategyFault
from gridpursuit.grid import BitLattice, cube, format_graph, grid, parse_graph, product, torus
from gridpursuit.robbers import (
    Grid2DEvader,
    Grid3DEvader,
    MaxComponentRobber,
    PotentialEvader,
    RandomRobber,
    RetractLift,
    StationaryRobber,
    TorusEvader,
    clamp_retraction,
    grid2d_cop_budget,
    grid3d_cop_budget,
    make_robber_strategy,
    potential,
    potential_cop_budget,
    torus_cop_budget,
    validate_retraction,
)

from oracles import (
    cop_board,
    dims_of,
    distances_from,
    explicit_adjacency,
    flood,
    grid2d_select,
    neighbours,
    torus_select,
)


def ix(g, *vertices):
    """The vertex indices of coordinate tuples, as a tuple."""
    return tuple(map(g.index, vertices))


def robber_turn_state(g, cops, robber, round_no=1):
    return GameState(g, tuple(cops), robber, Phase.ROBBER_TURN, round_no)


# -- grid evader -----------------------------------------------------------------


def test_grid2d_stacked_corner_cops_send_robber_to_far_sector():
    g = grid(5, 5)
    evader = Grid2DEvader(allow_excess_cops=True)
    evader.reset(g, None)
    cops = ((0, 0), (0, 0), (0, 0))
    v = g.vertex_at(evader.place(g, ix(g, *cops)))
    assert v[0] >= 3 and v[1] >= 3, v  # bottom-right sector
    assert all(g.distance(v, c) > 1 for c in cops)
    assert evader.last_annotations["sector"] == "bottom-right"


def test_grid2d_rigid_pattern_picks_empty_boundary_row():
    g = grid(5, 5)
    evader = Grid2DEvader()
    evader.reset(g, None)
    cops = ((3, 0), (0, 2), (2, 4))  # one cop per line, boundary pairs shared
    v = g.vertex_at(evader.place(g, ix(g, *cops)))
    assert v[1] == 1  # the empty one of the two top rows
    assert 1 <= v[0] <= 3  # never in a boundary column
    assert all(g.distance(v, c) > 1 for c in cops)
    assert evader.last_annotations["case"].startswith("rigid")


def test_grid2d_budget_enforced():
    g = grid(6, 6)
    evader = Grid2DEvader()
    evader.reset(g, None)
    with pytest.raises(ConfigurationError):
        evader.place(g, ix(g, *((x, 0) for x in range(5))))


def test_grid2d_no_adjacent_cop_over_random_play():
    n = 7
    g = grid(n, n)
    for seed in range(6):
        evader = Grid2DEvader()
        trace = run_match(g, RandomCops(), evader, grid2d_cop_budget(n),
                          max_rounds=60, seed=seed, check_invariants=True)
        assert trace.outcome == "timeout", (seed, trace.outcome)
        assert evader.violations == []


def test_grid2d_survives_greedy():
    n = 9
    evader = Grid2DEvader()
    trace = run_match(grid(n, n), GreedyCops(), evader, grid2d_cop_budget(n),
                      max_rounds=150, check_invariants=True)
    assert trace.outcome == "timeout"
    assert evader.violations == []
    assert evader.fallback_moves == 0


def test_grid2d_small_board_degrades_to_fallback():
    g = grid(3, 3)
    evader = Grid2DEvader()
    trace = run_match(g, RandomCops(), evader, 1, max_rounds=20, seed=2)
    assert trace.fault_side is None


# -- torus evader -----------------------------------------------------------------


def test_torus_band_arithmetic_and_zero_cop_choice():
    g = torus(18, 18)
    evader = TorusEvader()
    evader.reset(g, None)
    v = evader.place(g, ())
    assert type(v) is int and 0 <= v < g.vertex_count
    assert evader.last_annotations["band_height"] == 3  # 18 = 6 bands of 3
    # second nearly-empty row of the first band, second column of the
    # first empty triple
    assert g.vertex_at(v) == (1, 1)


def test_torus_evader_requires_large_board():
    with pytest.raises(ConfigurationError):
        TorusEvader().reset(torus(12, 12), None)


def test_torus_evader_budget():
    assert torus_cop_budget(18) == 11
    g = torus(18, 18)
    evader = TorusEvader()
    evader.reset(g, None)
    with pytest.raises(ConfigurationError):
        evader.place(g, ix(g, *((x, 0) for x in range(12))))


def test_torus_evader_survives_random_with_checks():
    n = 18
    g = torus(n, n)
    evader = TorusEvader()
    trace = run_match(g, RandomCops(), evader, torus_cop_budget(n),
                      max_rounds=80, seed=4, check_invariants=True)
    assert trace.outcome == "timeout"
    assert evader.violations == []


# -- 3d evader --------------------------------------------------------------------


def test_grid3d_zero_cops_walks_fixed_orientation_chain():
    g = grid(10, 10, 10)
    evader = Grid3DEvader()
    evader.reset(g, None)
    v = evader.place(g, ())
    assert g.vertex_at(v) == (6, 7, 7)
    notes = evader.last_annotations
    assert notes["half"] == "top"
    assert notes["quadrant"] == "top-front"
    assert notes["octant"] == "top-front-right"


def test_grid3d_budget_value():
    assert grid3d_cop_budget(10) == 71
    assert grid3d_cop_budget(20) == 286
    # a float product truncates one low at n = 250, 450, 500, ..., 1,000
    for n in range(2001):
        assert grid3d_cop_budget(n) == math.floor(Fraction(7172, 10000) * n * n), n


def test_grid3d_survives_greedy_with_checks():
    n = 10
    g = grid(n, n, n)
    evader = Grid3DEvader()
    trace = run_match(g, GreedyCops(), evader, grid3d_cop_budget(n),
                      max_rounds=40, check_invariants=True)
    assert trace.outcome == "timeout"
    octant_violations = [v for v in evader.violations if "octant" in v]
    assert octant_violations == []


def test_grid3d_rejects_wrong_board():
    with pytest.raises(ConfigurationError):
        Grid3DEvader().reset(grid(9, 9, 9), None)
    with pytest.raises(ConfigurationError):
        Grid3DEvader().reset(grid(10, 10), None)


# every board each evader's reset refuses: the wrong factor kind, the wrong
# number of factors, or unequal sides
BOARD_REFUSALS = {
    "grid2d-evader": ["grid:20x21", "grid:20", "grid:20x20x20", "torus:20x20", "product:20,20w"],
    "torus-evader": ["torus:18x19", "torus:18", "torus:18x18x18", "grid:18x18", "product:18w,18"],
    "grid3d-evader": ["grid:10x10x20", "grid:10x10", "grid:10x10x10x10", "torus:10x10x10",
                      "product:10,10,10w"],
    "cube-potential": ["grid:2x3", "grid:3", "torus:3x3", "product:2,2,3w"],
}


@pytest.mark.parametrize(
    "name, text", [(name, text) for name, texts in BOARD_REFUSALS.items() for text in texts]
)
def test_reset_refuses_a_board_by_its_description(name, text):
    g = parse_graph(text)
    with pytest.raises(ConfigurationError) as err:
        make_robber_strategy(name).reset(g, random.Random(0))
    assert format_graph(g) in str(err.value) and "Dim(" not in str(err.value)


# -- potential --------------------------------------------------------------------


def test_potential_single_cop_values():
    g = cube(4)
    origin = g.index((0, 0, 0, 0))
    assert potential(g, ix(g, (1, 1, 0, 0)), origin) == Fraction(1, 4)
    assert potential(g, ix(g, (0, 0, 0, 0)), origin) == 1
    assert potential(g, ix(g, (1, 0, 0, 0)), origin) == 1  # adjacent cop
    assert potential(g, ix(g, (1, 1, 0, 0)), g.index((0, 0, 0, 1))) == Fraction(1, 6)


def test_potential_rejects_non_hypercube():
    with pytest.raises(ConfigurationError):
        potential(grid(3, 3), [0], 4)


def test_potential_aggregate_matches_counting_identity():
    from gridpursuit.counts import aggregate_potential

    g = cube(3)
    cop = ix(g, (0, 1, 0))
    total = sum(potential(g, cop, v) for v in range(g.vertex_count))
    assert total == aggregate_potential(3) == Fraction(16, 3)


def test_potential_budget_example():
    assert potential_cop_budget(10) == 4
    assert potential_cop_budget(1) == potential_cop_budget(2) == -1  # no cops; ln 1 = 0


def test_potential_budget_is_exact():
    # twice the precision the budget evaluates in; a float floor is off by
    # one from n = 64 on, and the budget of every smaller n is unchanged
    for n in range(2, 401):
        with localcontext() as ctx:
            ctx.prec = 2 * (n + 20)
            exact = int(Decimal(2) ** (n - 3) / (n * Decimal(n).ln())) - 1
        assert potential_cop_budget(n) == exact, n
        if n < 64:
            assert exact == int(2 ** (n - 3) / (n * math.log(n))) - 1, n
    assert potential_cop_budget(64) == 8_663_094_464_742_396


def test_potential_evader_zero_cops_stays_put():
    g = cube(5)
    evader = PotentialEvader()
    evader.reset(g, None)
    v = evader.place(g, ())
    assert v == 0  # zero potential everywhere: lexicographic tie, (0, 0, 0, 0, 0)
    state = robber_turn_state(g, (), v)
    assert evader.move(state) == v


def test_potential_evader_annotates_exact_phi():
    g = cube(4)
    evader = PotentialEvader(allow_excess_cops=True)
    evader.reset(g, None)
    cops = ix(g, (1, 1, 1, 1))
    v = evader.place(g, cops)
    phi = Fraction(evader.last_annotations["phi"])
    assert phi == potential(g, cops, v)
    assert phi < Fraction(1, 2)


def _random_indices(g, k, seed):
    rng = random.Random(seed)
    return [rng.randrange(g.vertex_count) for _ in range(k)]


# (n, cops): random configurations for n = 1..12, stacked and zero cops, k far
# above the budget (0 cops on cube:8, the vertex (0, ..., 0)), the bench's
# cube:14 size, and cop counts on either side of 2^ceil(n/2), the rows of the
# spectrum's larger Hadamard factor: stacked cops on cube:7 and cube:10, and
# above it 70 random cops plus 10 stacked on cube:11 and 150 on cube:13
POTENTIAL_CASES = [(n, _random_indices(cube(n), n, n)) for n in range(1, 13)] + [
    (6, [*ix(cube(6), (0, 1, 1, 0, 1, 0))] * 5 + [*ix(cube(6), (1, 1, 1, 1, 1, 1))] * 3),
    (5, []),
    (8, _random_indices(cube(8), 300, 8) + [0] * 100),
    (14, _random_indices(cube(14), 54, 14)),
    (7, _random_indices(cube(7), 8, 7) * 2),
    (7, _random_indices(cube(7), 8, 7) * 2 + [0]),
    (10, _random_indices(cube(10), 16, 10) * 2),
    (10, _random_indices(cube(10), 16, 10) * 2 + [0]),
    (11, _random_indices(cube(11), 70, 11) + [0] * 10),
    (13, _random_indices(cube(13), 150, 13)),
]


@pytest.mark.parametrize("n, cops", POTENTIAL_CASES,
                         ids=[f"n{n}-k{len(c)}-{i}" for i, (n, c) in enumerate(POTENTIAL_CASES)])
def test_potential_scores_match_the_fraction_reference(n, cops):
    g = cube(n)
    evader = PotentialEvader(allow_excess_cops=True)
    evader.reset(g, None)
    scores = evader._scores(g, cops).tolist()
    every = list(range(g.vertex_count))
    # the reference costs about 0.7 ms a vertex at n = 14: sample there
    checked = every if n <= 12 else random.Random(n).sample(every, 2048)
    assert [scores[v] for v in checked] == [
        evader._lcm * potential(g, cops, v) for v in checked
    ]
    v = evader.place(g, cops)
    assert Fraction(evader.last_annotations["phi"]) == potential(g, cops, v)


def test_potential_scores_refuse_cop_counts_past_exact_arithmetic():
    # the transform's result 2^n * score stays below 2^64 while k * lcm <
    # 2^(64-n), and the float32 spectrum is exact while k <= 2^24
    g = cube(20)
    evader = PotentialEvader(allow_excess_cops=True)
    evader.reset(g, None)
    k = ((1 << 44) - 1) // evader._lcm + 1
    assert k == 1_586_975
    with pytest.raises(ConfigurationError, match="exact scoring"):
        evader._scores(g, [0] * k)
    # the first count past float32's integers passes the k * lcm check on
    # cube:10, and a range is refused before anything is allocated for it
    g = cube(10)
    evader.reset(g, None)
    cops = range((1 << 24) + 1)
    assert len(cops) * evader._lcm < 1 << (64 - 10)
    with pytest.raises(ConfigurationError, match="exact scoring"):
        evader._scores(g, cops)


def test_potential_evader_survives_greedy_small_cube():
    n = 9
    g = cube(n)
    k = potential_cop_budget(n)
    assert k >= 1
    evader = PotentialEvader()
    trace = run_match(g, GreedyCops(), evader, k, max_rounds=300, check_invariants=True)
    assert trace.outcome == "timeout"
    assert evader.violations == []


# -- floods made only when a check needs them ---------------------------------------


def _count_floods(monkeypatch, strategy):
    """A list that gets one (floods, step) pair per later strategy.move
    call: the BitLattice.component calls the move made, and whether its
    answer was the robber's vertex or a neighbour of it."""
    record, inside = [], []
    component = BitLattice.component

    def counted(self, *args):
        if inside:
            inside[-1] += 1
        return component(self, *args)

    def move(state, move=strategy.move):
        inside.append(0)
        try:
            v = move(state)
        finally:
            floods = inside.pop()
        record.append((floods, v == state.robber or state.graph.is_edge(state.robber, v)))
        return v

    monkeypatch.setattr(BitLattice, "component", counted)
    monkeypatch.setattr(strategy, "move", move)
    return record


def _walled_in(n, rng):
    """(cops, robber) on cube:n: cops on every outside neighbour of a
    random subcube of dimension 0, 1 or 2 that holds the robber, plus a
    few random cops; the robber's component is that subcube."""
    size = 1 << n
    dims = rng.sample(range(n), rng.randint(0, 2))
    base = rng.randrange(size)
    for d in dims:
        base &= ~(1 << d)
    inside = {base}
    for d in dims:
        inside |= {v | 1 << d for v in inside}
    cops = {v ^ 1 << d for v in inside for d in range(n)} - inside
    cops |= {rng.randrange(size) for _ in range(rng.randint(0, 3))} - inside
    return tuple(sorted(cops)), rng.choice(sorted(inside))


def test_potential_move_matches_the_brute_force_reference(monkeypatch):
    """On cube:3..6, with random cops and with the robber walled into a
    small subcube, a move is the least potential() over reachable_set,
    ties to the lowest index; the least free vertex is played without a
    flood when it is a step away, and the cut-off boards need the flood."""
    rng = random.Random(25)
    branches = Counter()
    for n in range(3, 7):
        g = cube(n)
        evader = PotentialEvader(allow_excess_cops=True)
        evader.reset(g, None)
        record = _count_floods(monkeypatch, evader)
        for i in range(60):
            if i % 3:
                cops = tuple(rng.randrange(g.vertex_count) for _ in range(rng.randrange(2 * n)))
                robber = rng.choice([v for v in range(g.vertex_count) if v not in cops])
            else:
                cops, robber = _walled_in(n, rng)
            phi = {v: potential(g, cops, v) for v in range(g.vertex_count)}
            reach = reachable_set(g, cops, robber)
            expected = min(reach, key=lambda v: (phi[v], v))
            least_free = min(set(range(g.vertex_count)) - set(cops), key=lambda v: (phi[v], v))

            assert evader.move(robber_turn_state(g, cops, robber)) == expected, (n, cops, robber)
            assert Fraction(evader.last_annotations["phi"]) == phi[expected]
            floods, _ = record[-1]
            one_step = least_free == robber or g.is_edge(robber, least_free)
            assert floods == (not one_step), (n, cops, robber)
            branches["step" if one_step else
                     "flood" if least_free in reach else "cut off"] += 1
    assert min(branches[key] for key in ("step", "flood", "cut off")) >= 10, branches


def test_potential_evader_floods_only_off_a_step(monkeypatch):
    g = cube(10)
    evader = PotentialEvader()
    record = _count_floods(monkeypatch, evader)
    run_match(g, GreedyCops(), evader, potential_cop_budget(10), max_rounds=200, seed=3)
    far = sum(not step for _, step in record)
    assert 0 < far < len(record) == 200
    assert all(floods <= 1 for floods, _ in record)
    assert sum(floods for floods, _ in record) <= far


def test_grid_evader_floods_on_fewer_turns_than_it_moves(monkeypatch):
    g = grid(8, 8)
    evader = Grid2DEvader()
    record = _count_floods(monkeypatch, evader)
    run_match(g, RandomCops(), evader, 6, max_rounds=60, seed=1, check_invariants=True)
    assert evader.violations == [] and len(record) == 60
    assert sum(floods for floods, _ in record) < len(record)


def test_proof_evader_target_on_a_neighbouring_cop_is_unreachable(monkeypatch):
    g = grid(6, 6)
    evader = Grid2DEvader()
    evader.reset(g, None)
    monkeypatch.setattr(evader, "select", lambda board: ((2, 3), {}))
    with pytest.raises(StrategyFault, match=r"selected target \(2, 3\) unreachable"):
        evader.move(robber_turn_state(g, ix(g, (2, 3)), g.index((2, 2))))


# -- proof-evader pins -------------------------------------------------------------

# (graph, cops, robber, k, seed, max_rounds, trace SHA-256, fallback_moves,
# component_failures, violations with invariants checked).  The trace and the
# counters must not depend on check_invariants; unchecked play records no
# violations.
EVADER_PINS = [
    ("grid:3x3", RandomCops, lambda g: Grid2DEvader(), 1, 2, 20,
     "81be06c246359da541ab21ba208f866f164bf3576355aa5405269c03c3e0677b", 21, None, 0),
    ("grid:8x8", RandomCops, lambda g: Grid2DEvader(), 6, 1, 60,
     "012c28806e42a57f188517475cab155d3a94d2983dcb8f2e09c642af125fc32e", 0, None, 0),
    ("grid:8x8", RandomCops, lambda g: Grid2DEvader(allow_excess_cops=True), 10, 1, 60,
     "470cf0ce2958a146a8e755ce0d6066717da08e0bd36b3abc83087d26e3bea6a5", 11, None, 2),
    ("grid:8x8", GreedyCops, lambda g: Grid2DEvader(allow_excess_cops=True), 9, 0, 60,
     "4f440e2dd301bd1217fa5e395a7a847f48e24ed7fa83b8ace06b77f7f46a12e4", 7, None, 0),
    ("torus:18x18", RandomCops, lambda g: TorusEvader(), 11, 4, 60,
     "0723c35f6eaa5c920ba5534594a7a569022ecd6eabe1fa77a17f15464d420b75", 0, None, 0),
    ("torus:18x18", RandomCops, lambda g: TorusEvader(allow_excess_cops=True), 16, 1, 60,
     "f3774e87ee12ab832c72f08a74987c27610ac5c46e75bdc133c65b4a28dc4b85", 21, None, 0),
    ("grid:10x10x10", GreedyCops, lambda g: Grid3DEvader(), 71, 1, 30,
     "541a2ebbe0b295acd2263b4fbb9826429965c8f71bae4c8693f7b769666bc88b", 31, 0, 0),
    ("grid:10x10x10", lambda: Blockade3DCops(allow_understaffed=True),
     lambda g: Grid3DEvader(), 71, 1, 30,
     "b5405a8a0a1e370a0132af85a568ff5e7792b7c066c7465e125803185b5b7235", 0, 0, 0),
    ("grid:10x10x10", RandomCops, lambda g: Grid3DEvader(allow_excess_cops=True), 80, 1, 30,
     "7d4bdcb1253e792161dcfc3fe904c7eba80d264674e70cf72ccb2d7aefbbca55", 28, 0, 0),
    ("cube:6", GreedyCops, lambda g: PotentialEvader(allow_excess_cops=True), 4, 4, 30,
     "070afee7cb25ce3aa2c665dabd1ceea5c4ba2d13f7687529d5abd211a6198adf", None, None, 0),
    ("grid:9x9", RandomCops,
     lambda g: make_robber_strategy("retract:grid2d-evader/grid:7x7", g), 5, 3, 40,
     "067e234c4e6acfed8c5708650799055db6a1d2ab5a938d20843177d59a6a0da0", 0, None, 0),
]


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize(
    "text, cops, robber, k, seed, max_rounds, sha256, fallbacks, component_failures, violations",
    EVADER_PINS,
    ids=[f"{pin[0]}-k{pin[3]}-{i}" for i, pin in enumerate(EVADER_PINS)],
)
def test_proof_evader_is_pinned(text, cops, robber, k, seed, max_rounds, sha256, fallbacks,
                                component_failures, violations, checked):
    g = parse_graph(text)
    strategy = robber(g)
    trace = run_match(g, cops(), strategy, k, max_rounds=max_rounds, seed=seed,
                      check_invariants=checked)
    evader = getattr(strategy, "inner_strategy", strategy)
    assert hashlib.sha256(trace_to_jsonl(trace).encode()).hexdigest() == sha256
    assert getattr(evader, "fallback_moves", None) == fallbacks
    assert getattr(evader, "component_failures", None) == component_failures
    assert len(strategy.violations) == (violations if checked else 0)


# (graph, evader class, cops, target, annotations) for every selection
# branch: the eight 2D sectors on their boundary row, the four-row window
# scan, both rigid cases, the torus band choice (its fewest nearly empty
# rows, a later band, no qualifying band) and the 3D region chain (its
# descent, a later plane group, no cop-free block).  Boards with no target
# play the max-component fallback.
SELECTION_CASES = [
    ("grid:6x6", Grid2DEvader, ((5, 5),), (4, 0),
     {"case": "sparse-rows", "window": 2, "sector": "top-right"}),
    ("grid:6x6", Grid2DEvader, ((3, 5), (4, 0)), (1, 0),
     {"case": "sparse-rows", "window": 3, "sector": "top-left"}),
    ("grid:6x6", Grid2DEvader, ((4, 0),), (4, 5),
     {"case": "sparse-rows", "window": 2, "sector": "bottom-right"}),
    ("grid:6x6", Grid2DEvader, ((4, 1), (4, 5), (5, 0)), (1, 5),
     {"case": "sparse-rows", "window": 3, "sector": "bottom-left"}),
    ("grid:6x6", Grid2DEvader, ((0, 2), (3, 4), (4, 0), (4, 3)), (0, 4),
     {"case": "sparse-cols", "window": 3, "sector": "top-right"}),
    ("grid:6x6", Grid2DEvader, ((0, 4), (3, 2), (5, 0), (5, 3)), (0, 1),
     {"case": "sparse-cols", "window": 3, "sector": "top-left"}),
    ("grid:6x6", Grid2DEvader, ((1, 2), (2, 5), (3, 1), (3, 3)), (5, 4),
     {"case": "sparse-cols", "window": 2, "sector": "bottom-right"}),
    ("grid:6x6", Grid2DEvader, ((0, 1), (1, 2), (2, 3), (5, 5)), (5, 1),
     {"case": "sparse-cols", "window": 3, "sector": "bottom-left"}),
    ("grid:6x6", Grid2DEvader, ((0, 5), (2, 2), (4, 0), (5, 4)), (5, 1),
     {"case": "sparse-rows", "window": 4, "sector": "top-right"}),
    ("grid:7x7", Grid2DEvader, ((0, 0), (1, 6), (4, 2), (4, 3), (6, 5)), (2, 1),
     {"case": "sparse-rows", "window": 5, "sector": "top-left"}),
    ("grid:7x7", Grid2DEvader, ((0, 1), (0, 3), (3, 5), (4, 4), (5, 2)), (5, 0),
     {"case": "sparse-cols", "window": 5, "sector": "bottom-left"}),
    ("grid:6x6", Grid2DEvader, ((0, 3), (2, 4), (3, 0), (4, 2)), (1, 1),
     {"case": "rigid-rows"}),
    ("grid:6x6", Grid2DEvader, ((1, 1), (2, 0), (3, 2), (3, 4), (5, 5)), (0, 2),
     {"case": "rigid-cols"}),
    ("grid:6x6", Grid2DEvader, ((0, 1), (1, 4), (2, 4), (3, 0), (5, 3)), (4, 5),
     {"fallback": 1}),
    ("torus:18x18", TorusEvader, (), (1, 1),
     {"case": "band", "band_start": 0, "band_height": 3}),
    ("torus:30x30", TorusEvader, ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2)), (6, 3),
     {"case": "band", "band_start": 0, "band_height": 5}),
    ("torus:18x18", TorusEvader, ((5, 0), (5, 1), (0, 4)), (2, 4),
     {"case": "band", "band_start": 3, "band_height": 3}),
    ("torus:18x18", TorusEvader, tuple((x, y) for y in range(0, 18, 3) for x in (0, 9)),
     (4, 1), {"fallback": 1}),
    ("grid:10x10x10", Grid3DEvader, ((2, 7, 7), (7, 2, 2)), (6, 2, 7),
     {"case": "region-chain", "half": "top", "quadrant": "top-back",
      "octant": "top-back-right", "block": "(5, 0, 5)"}),
    ("grid:20x20x20", Grid3DEvader,
     tuple((x, y, z) for x in (7, 12) for y in (7, 12) for z in (7, 12)), (11, 12, 17),
     {"case": "region-chain", "half": "top", "quadrant": "top-front",
      "octant": "top-front-right", "block": "(10, 10, 15)"}),
    ("grid:10x10x10", Grid3DEvader,
     tuple((x, y, z) for x in (2, 7) for y in (2, 7) for z in (2, 7)), (0, 0, 0),
     {"fallback": 1}),
]


@pytest.mark.parametrize(
    "text, evader_cls, cops, target, annotations", SELECTION_CASES,
    ids=[f"{case[0]}-{case[4].get('case', 'fallback')}-{i}"
         for i, case in enumerate(SELECTION_CASES)],
)
def test_proof_evader_place_branch(text, evader_cls, cops, target, annotations):
    g = parse_graph(text)
    evader = evader_cls(allow_excess_cops=True)
    evader.check_invariants = True
    evader.reset(g, None)
    assert g.vertex_at(evader.place(g, ix(g, *cops))) == target
    assert evader.last_annotations == annotations
    assert evader.violations == []


def _after_cops_answer(evader, g, cops):
    """Place against no cops with checks on, then move after `cops` arrive."""
    evader.check_invariants = True
    evader.reset(g, None)
    v = evader.place(g, ())
    evader.move(robber_turn_state(g, ix(g, *cops), v))
    return g.vertex_at(v)


def test_grid2d_post_move_check_flags_no_free_row():
    g = grid(6, 6)
    evader = Grid2DEvader(allow_excess_cops=True)
    _after_cops_answer(evader, g, tuple((0, y) for y in range(6)))
    assert evader.violations[0] == "round 1: no free row reachable from (4, 0)"


def test_grid2d_post_move_check_floods_when_the_robbers_row_holds_a_cop():
    g = grid(6, 6)
    evader = Grid2DEvader(allow_excess_cops=True)
    # cops wall the robber in on row 0; rows 2 to 4 are free but out of reach
    _after_cops_answer(evader, g, ((3, 0), (5, 0), (4, 1), (0, 5), (1, 5)))
    assert evader.violations[0] == "round 1: no free row reachable from (4, 0)"


def test_torus_post_move_check_flags_no_nearly_empty_row():
    g = torus(18, 18)
    evader = TorusEvader(allow_excess_cops=True)
    _after_cops_answer(evader, g, tuple((x, y) for y in range(18) for x in (9, 12)))
    assert evader.violations[0] == "round 1: no nearly empty row reachable from (1, 1)"


def test_grid3d_post_move_check_counts_component_failure():
    g = grid(10, 10, 10)
    evader = Grid3DEvader(allow_excess_cops=True)
    # a wall at z = 5 leaves the robber at z = 7 the smaller side
    v = _after_cops_answer(evader, g, tuple((x, y, 5) for x in range(10) for y in range(10)))
    assert v == (6, 7, 7)
    assert evader.component_failures == 1
    assert f"round 1: {v} not in a largest component" in evader.violations


# -- 2D selection against the per-vertex reference ---------------------------------


def _random_cops(rng, n):
    """0 to 2n + 2 cops, some boards with cops stacked on others; about 30%
    of boards hold n - 4 to n cops, at most one on each row and column."""
    if rng.random() < 0.3:
        m = rng.randint(n - 4, n)
        return tuple(zip(rng.sample(range(n), m), rng.sample(range(n), m)))
    cops = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 3))]
    if rng.random() < 0.3:
        cops = [rng.choice(cops) if rng.random() < 0.5 else c for c in cops]
    return tuple(cops)


def test_neighbours_match_the_pairwise_adjacency():
    for g in (grid(4, 4), grid(1, 3), torus(3, 3), torus(5, 4),
              product([(4, True), (1, False), (3, False)])):
        dims = dims_of(g)
        assert {v: neighbours(v, dims) for v in g.vertices()} == explicit_adjacency(dims)


def test_2d_selection_matches_the_per_vertex_reference():
    """On random grid (n = 4..24) and torus (n = 18..30) boards, the line
    board gives the reference's target and annotations, its near_cop test
    the reference near array at every vertex, and the row guarantee what a
    flood from a free vertex reaches."""
    rng = random.Random(18)
    vertices, adjacency = {}, {}  # per graph
    seen = Counter()
    for _ in range(5000):
        if rng.random() < 0.6:
            n = rng.randint(4, 24)
            g, evader, safe_max = grid(n, n), Grid2DEvader(allow_excess_cops=True), 0
        else:
            n = rng.randint(18, 30)
            g, evader, safe_max = torus(n, n), TorusEvader(allow_excess_cops=True), 1
        dims = dims_of(g)
        if g not in vertices:
            vertices[g] = list(g.vertices())  # index order
            adjacency[g] = {v: neighbours(v, dims) for v in vertices[g]}
        evader.reset(g, None)
        cops = _random_cops(rng, n)
        occ, near = cop_board(dims, cops)
        board = evader._board(ix(g, *cops))

        target, annotations = evader.select(board)
        reference = grid2d_select(occ, near) if safe_max == 0 else torus_select(occ)
        assert (target, annotations) == reference, (format_graph(g), cops)
        seen[evader.name, annotations["case"] if annotations else None] += 1

        assert [board.near_cop(v) for v in vertices[g]] == near.ravel().tolist(), cops

        src = rng.choice(vertices[g])
        while src in cops:
            src = rng.choice(vertices[g])
        comp = flood(adjacency[g], set(cops), src)
        # bit i of reach is the vertex of index i
        reach = int("".join("1" if v in comp else "0" for v in reversed(vertices[g])), 2)
        safe = {y for y, count in enumerate(occ.sum(axis=0)) if count <= safe_max}
        assert evader._row_reachable(board, reach) == any(y in safe for _, y in comp), cops
    for key in ("sparse-rows", "sparse-cols", "rigid-rows", "rigid-cols", None):
        assert seen["grid2d-evader", key] >= 20, seen
    for key in ("band", None):
        assert seen["torus-evader", key] >= 20, seen


# -- retraction -------------------------------------------------------------------


def test_clamp_retraction_validates():
    outer, inner = grid(9, 7), grid(7, 7)
    phi = clamp_retraction(outer, inner)
    validate_retraction(phi, outer, inner)
    assert phi((8, 3)) == (6, 3)
    assert phi((2, 5)) == (2, 5)


def test_every_clamp_of_a_grid_is_a_retraction():
    # RetractLift trusts clamp_retraction without validating it: every
    # corner sub-box of every grid of 1-3 dimensions, sides up to 4 (3 in
    # three dimensions), passes the exhaustive check
    pairs = 0
    for ndim, top in ((1, 4), (2, 4), (3, 3)):
        for outer_sides in itertools.product(range(1, top + 1), repeat=ndim):
            outer = grid(*outer_sides)
            for inner_sides in itertools.product(*(range(1, s + 1) for s in outer_sides)):
                inner = grid(*inner_sides)
                validate_retraction(clamp_retraction(outer, inner), outer, inner)
                pairs += 1
    assert pairs == 10 + 100 + 216


def test_bad_retraction_rejected():
    outer, inner = grid(5, 5), grid(3, 3)
    swap = lambda v: (min(v[1], 2), min(v[0], 2))  # moves inner vertices
    with pytest.raises(ConfigurationError):
        validate_retraction(swap, outer, inner)


def test_clamp_needs_fitting_subgrid():
    for outer, inner in ((grid(5, 5), grid(6, 5)), (torus(5, 5), grid(3, 3)),
                         (grid(5, 5), torus(3, 3)), (grid(5, 5), grid(3, 3, 3)), (grid(5), grid(3, 3))):
        with pytest.raises(ConfigurationError) as err:
            clamp_retraction(outer, inner)
        assert f"{format_graph(outer)} and {format_graph(inner)}" in str(err.value)


def test_identity_retraction_behaves_like_inner():
    g = grid(5, 5)
    base = run_match(g, RandomCops(), MaxComponentRobber(), 2, max_rounds=30, seed=8)
    lifted = run_match(
        g, RandomCops(), RetractLift(MaxComponentRobber(), g, g), 2, max_rounds=30, seed=8
    )
    assert [e["robber"] for e in base.events] == [e["robber"] for e in lifted.events]


def test_lifted_evader_stays_inside_subgraph_and_survives():
    outer, inner = grid(9, 7), grid(7, 7)
    lift = RetractLift(Grid2DEvader(), outer, inner)
    trace = run_match(outer, RandomCops(), lift, 5, max_rounds=80, seed=3,
                      check_invariants=True)
    assert trace.outcome == "timeout"
    assert lift.violations == []
    for ev in trace.events:
        if ev["robber"] is not None:
            assert inner.contains(outer.vertex_at(ev["robber"]))


def test_lift_reports_the_inner_strategy_violations_per_match():
    class Complaining(StationaryRobber):
        def move(self, state):
            self.violations.append(f"round {state.round}")
            return super().move(state)

    outer, inner = grid(5, 5), grid(3, 3)
    lift = RetractLift(Complaining(), outer, inner)
    for max_rounds in (6, 3):
        trace = run_match(outer, RandomCops(), lift, 1, max_rounds=max_rounds, seed=2,
                          check_invariants=True)
        assert trace.outcome == "timeout"
        assert lift.violations == [f"round {r}" for r in range(1, max_rounds + 1)]
        assert trace.robber_violations == max_rounds


# -- heuristics and registry -------------------------------------------------------


def test_stationary_places_first_free_vertex():
    g = grid(3, 3)
    v = StationaryRobber().place(g, ix(g, (0, 0), (0, 1)))
    assert g.vertex_at(v) == (0, 2)


def test_random_robber_with_no_free_vertex_faults():
    g = grid(1, 2)
    with pytest.raises(StrategyFault, match="no free vertex") as fault:
        RandomRobber().place(g, ix(g, (0, 1), (0, 0)))
    assert fault.value.side == "robber"
    # a retraction onto a 1x2 grid maps two cops onto both of its vertices
    g = grid(4, 4)
    lifted = make_robber_strategy("retract:random/grid:1x2", g)
    trace = run_match(g, RandomCops(), lifted, 2, max_rounds=50, seed=0)
    assert (trace.outcome, trace.fault_side) == ("fault", "robber")
    assert "no free vertex" in trace.events[-1]["annotations"]["error"]


def test_potential_evader_with_no_free_vertex_faults():
    # two cops on both vertices of cube:1, past the budget but allowed
    g = cube(1)
    evader = PotentialEvader(allow_excess_cops=True)
    evader.reset(g, None)
    with pytest.raises(StrategyFault, match="no free vertex") as fault:
        evader.place(g, (0, 1))
    assert fault.value.side == "robber"


def test_max_component_robber_with_no_free_vertex_faults():
    with pytest.raises(StrategyFault, match="no free vertex") as fault:
        MaxComponentRobber().place(grid(2, 2), (0, 1, 2, 3))
    assert fault.value.side == "robber"


def test_random_robber_reproducible():
    t1 = run_match(grid(4, 4), GreedyCops(), RandomRobber(), 1, max_rounds=30, seed=5)
    t2 = run_match(grid(4, 4), GreedyCops(), RandomRobber(), 1, max_rounds=30, seed=5)
    assert [e["robber"] for e in t1.events] == [e["robber"] for e in t2.events]


def test_max_component_placement_prefers_big_side():
    g = grid(3, 3)
    cops = ((1, 0), (1, 1), (1, 2))  # full wall: components of size 3 and 3
    v = g.vertex_at(MaxComponentRobber().place(g, ix(g, *cops)))
    assert v[0] in (0, 2)
    cops = ((1, 0), (1, 1), (2, 1))  # corner pocket (2 cells) vs the rest
    v = g.vertex_at(MaxComponentRobber().place(g, ix(g, *cops)))
    assert v not in {(2, 0)} and g.contains(v)


@pytest.mark.parametrize("g", [grid(7), grid(5, 4), torus(5, 6), grid(3, 3, 3), cube(5),
                               product([(4, True), (1, False), (3, False)]),
                               # the first axis with an edge is not the first
                               # axis, and a path leads a cycle
                               grid(1, 6, 5), product([(5, False), (4, True)])],
                         ids=format_graph)
def test_max_component_choose_matches_a_bfs_oracle(g):
    adj = explicit_adjacency(dims_of(g))
    verts = sorted(adj)  # lexicographic order is vertex index order
    rng = random.Random(format_graph(g))
    ties = 0

    def check(cops, candidates):
        nonlocal ties
        mask = sum(1 << g.index(v) for v in candidates)
        dist = distances_from(adj, set(cops)) if cops else dict.fromkeys(verts, 0)
        far = max(dist[v] for v in candidates)
        best = [v for v in verts if v in candidates and dist[v] == far]
        ties += len(best) > 1
        assert MaxComponentRobber.choose(g, ix(g, *cops), mask) == g.index(best[0]), \
            (cops, candidates)

    for _ in range(60):
        # stacked cops, no cops, and candidates that hold a cop all occur
        cops = [rng.choice(verts) for _ in range(rng.choice([0, 1, 1, 2, 3, 5]))]
        check(cops, rng.sample(verts, rng.randint(1, len(verts))))
    # the two callers' inputs on cops that cut the graph: move's one whole
    # cop-free component, and place's union of the largest ones.  The cuts
    # are full walls across a path axis, two walls across a cycle axis, and
    # the spheres around a corner (a cube's Hamming levels among them)
    cuts = [[v for v in verts if v[axis] in ({0, d.length // 2} if d.wrap else {d.length // 2})]
            for axis, d in enumerate(g.dims) if d.length >= 3]
    walled = len(cuts)
    corner = distances_from(adj, {verts[0]})
    cuts += [[v for v in verts if corner[v] == r] for r in range(1, max(corner.values()))]
    largest = 0
    for cops in cuts:
        comps, rest = [], set(verts) - set(cops)
        while rest:
            comps.append(flood(adj, set(cops), min(rest)))
            rest -= comps[-1]
        assert len(comps) > 1
        for comp in comps:
            check(cops, comp)
        top = max(map(len, comps))
        union = set().union(*(c for c in comps if len(c) == top))
        largest += len(union) > top
        check(cops, union)
    assert ties
    assert largest or not walled
    assert MaxComponentRobber.choose(g, [0], 0) is None


def test_registry_builds_all_names():
    for name in ("grid2d-evader", "torus-evader", "grid3d-evader", "cube-potential",
                 "max-component", "stationary", "random"):
        assert make_robber_strategy(name).name == name
    lifted = make_robber_strategy("retract:grid2d-evader/grid:7x7", grid(9, 7))
    assert lifted.name == "retract:grid2d-evader/grid:7x7"
    with pytest.raises(ConfigurationError):
        make_robber_strategy("retract:grid2d-evader")
    with pytest.raises(ConfigurationError):
        make_robber_strategy("nope")
