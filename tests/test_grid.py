import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.errors import GraphFormatError, InvalidVertexError, ResourceLimitError
from gridpursuit.grid import (
    MAX_MATCH_VERTICES,
    BitLattice,
    CoordMap,
    cube,
    format_graph,
    grid,
    lattice,
    parse_graph,
    product,
    torus,
)

import oracles


def ix(g, vertices):
    """The vertex indices of coordinate tuples, as a list."""
    return [g.index(v) for v in vertices]


def coords_of(g, indices):
    """The coordinate tuples of vertex indices, as a set."""
    return {g.vertex_at(i) for i in indices}


def test_neighbors_grid_corner():
    assert grid(3, 3).neighbors((0, 0)) == {(1, 0), (0, 1)}


def test_neighbors_torus_wraparound():
    assert torus(4, 4).neighbors((0, 0)) == {(1, 0), (3, 0), (0, 1), (0, 3)}


def test_neighbors_hypercube():
    assert cube(3).neighbors((0, 0, 0)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_neighbors_rejects_bad_coords():
    with pytest.raises(InvalidVertexError):
        grid(3, 3).neighbors((3, 0))
    with pytest.raises(InvalidVertexError):
        grid(3, 3).neighbors((0,))


def test_distance_grid_is_l1():
    assert grid(5, 5).distance((0, 0), (4, 4)) == 8


def test_distance_torus_wraps():
    # cross-checked against BFS on the explicit graph below
    assert torus(5, 5).distance((0, 0), (4, 4)) == 2


def test_distance_hypercube_is_hamming():
    assert cube(4).distance((0, 0, 0, 0), (1, 1, 0, 0)) == 2


@pytest.mark.parametrize("g", [grid(4, 4), torus(5, 5), cube(4)])
def test_distance_matches_bfs_everywhere(g):
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    for u in g.vertices():
        for v in g.vertices():
            assert g.distance(u, v) == oracles.bfs_distance(adj, u, v)


@pytest.mark.parametrize("g", [grid(4, 4), torus(5, 5), cube(4), product([(3, True), (4, False)])])
def test_adjacency_symmetry_and_distance_one(g):
    rng = random.Random(7)
    verts = list(g.vertices())
    for _ in range(200):
        u, v = rng.choice(verts), rng.choice(verts)
        assert (u in g.neighbors(v)) == (v in g.neighbors(u))
        assert (g.distance(u, v) == 1) == (u in g.neighbors(v))


@pytest.mark.parametrize("g", [grid(4, 3), torus(3, 5), cube(3),
                               product([(4, True), (1, False), (2, False)]), grid(7),
                               product([(3, True), (4, False), (5, True)])])
def test_adjacent_matches_explicit_adjacency(g):
    # is_edge(a, b) for b over every index and a band around the range:
    # true exactly for the neighbors' indices, so true makes b a vertex index
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    n = g.vertex_count
    for a, u in enumerate(g.vertices()):
        neighbors = set(ix(g, adj[u]))
        assert {b for b in range(-n - 2, 2 * n + 2) if g.is_edge(a, b)} == neighbors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=4)
       .map(lambda dims: product([(n, wrap and n >= 3) for n, wrap in dims])),
       st.data())
def test_closed_neighborhood_is_the_sorted_closed_neighborhood(g, data):
    v = tuple(data.draw(st.integers(0, d.length - 1)) for d in g.dims)
    near = sorted(g.neighbors(v) | {v})
    assert g.closed_neighbors(g.index(v)) == ix(g, near) == sorted(ix(g, near))


def test_identity_coordmap_returns_tuples():
    cm = CoordMap(grid(3, 4))
    assert cm.identity and not CoordMap(grid(3, 3), perm=(1, 0)).identity
    assert cm.apply([2, 1]) == (2, 1) and cm.invert([0, 3]) == (0, 3)


@pytest.mark.parametrize("g,lo,hi", [(grid(3, 3), 2, 4), (grid(2, 2, 2), 3, 3)])
def test_grid_degree_bounds(g, lo, hi):
    d = g.ndim
    for v in g.vertices():
        assert lo <= len(g.neighbors(v)) <= hi
        assert d <= len(g.neighbors(v)) <= 2 * d


def test_torus_degree_constant():
    g = torus(4, 5)
    for v in g.vertices():
        assert len(g.neighbors(v)) == 4


def test_hypercube_degree():
    g = cube(4)
    for v in g.vertices():
        assert len(g.neighbors(v)) == 4


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_distance_is_a_metric(seed):
    rng = random.Random(seed)
    g = rng.choice([grid(4, 5), torus(5, 3), cube(4)])
    verts = list(g.vertices())
    a, b, c = (rng.choice(verts) for _ in range(3))
    assert g.distance(a, a) == 0
    assert g.distance(a, b) == g.distance(b, a)
    assert g.distance(a, c) <= g.distance(a, b) + g.distance(b, c)
    if a != b:
        assert g.distance(a, b) > 0


def test_index_roundtrip_lexicographic():
    g = torus(3, 4, 5)
    for i, v in enumerate(g.vertices()):
        assert g.index(v) == i
        assert g.vertex_at(i) == v


def test_wrap_needs_length_three():
    with pytest.raises(GraphFormatError):
        product([(2, True)])
    with pytest.raises(GraphFormatError):
        torus(3, 2)


# -- description grammar -----------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("grid:5x5", grid(5, 5)),
        ("grid:10x10x10", grid(10, 10, 10)),
        ("torus:18x18", torus(18, 18)),
        ("cube:10", cube(10)),
        ("product:5w,5w,4", product([(5, True), (5, True), (4, False)])),
        ("grid:7", grid(7)),
    ],
)
def test_parse_graph_grammar(text, expected):
    assert parse_graph(text) == expected


@pytest.mark.parametrize(
    "g", [grid(5, 5), grid(2, 3), torus(3, 4), cube(6), product([(5, True), (4, False)])]
)
def test_format_parse_roundtrip(g):
    assert parse_graph(format_graph(g)) == g


def test_grid_2x2_formats_as_cube():
    assert format_graph(grid(2, 2)) == "cube:2"
    assert parse_graph("cube:2") == grid(2, 2)


@pytest.mark.parametrize("bad", ["grid", "blob:3x3", "grid:3xx3", "grid:-1x2", "cube:axe", "product:5q"])
def test_parse_graph_rejects_garbage(bad):
    with pytest.raises(GraphFormatError):
        parse_graph(bad)


# -- bitboards ----------------------------------------------------------------


@pytest.mark.parametrize("g", [grid(4, 3), torus(4, 5), cube(4), product([(3, True), (2, False), (2, False)])])
def test_bitboard_expand_matches_explicit_neighbors(g):
    lat = lattice(g)
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    rng = random.Random(3)
    verts = list(g.vertices())
    for _ in range(50):
        chosen = rng.sample(verts, rng.randint(1, 5))
        mask = lat.mask_of(ix(g, chosen))
        expected = set().union(*(adj[v] for v in chosen))
        assert coords_of(g, lat.set_of(lat.expand(mask))) == expected


@pytest.mark.parametrize("g", [grid(4, 4), torus(5, 4), cube(4)])
def test_bitboard_component_matches_flood(g):
    lat = lattice(g)
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    rng = random.Random(11)
    verts = list(g.vertices())
    for _ in range(60):
        blocked = set(rng.sample(verts, rng.randint(0, 4)))
        free = [v for v in verts if v not in blocked]
        src = rng.choice(free)
        mask = lat.component(g.index(src), lat.mask_of(ix(g, blocked)))
        assert coords_of(g, lat.set_of(mask)) == oracles.flood(adj, blocked, src)


@st.composite
def graphs_and_masks(draw):
    dims = draw(st.lists(
        st.one_of(st.tuples(st.integers(1, 6), st.just(False)),
                  st.tuples(st.integers(3, 6), st.just(True))),
        min_size=1, max_size=4))
    g = product(dims)
    mask = draw(st.integers(0, (1 << g.vertex_count) - 1))
    return g, mask


@given(graphs_and_masks())
@settings(max_examples=150, deadline=None)
def test_mask_conversions_match_per_vertex_reference(case):
    g, mask = case
    lat = lattice(g)
    members = {i for i in range(g.vertex_count) if mask >> i & 1}
    assert lat.set_of(mask) == members
    assert lat.mask_of(tuple(members)) == mask
    assert lat.mask_of(sorted(members) * 2) == mask  # stacked cops set one bit
    assert lat.mask_of([]) == 0 and lat.set_of(0) == set()


@given(graphs_and_masks())
@settings(max_examples=100, deadline=None)
def test_vertices_of_lists_members_in_index_order(case):
    g, mask = case
    members = [i for i in range(g.vertex_count) if mask >> i & 1]
    listed = lattice(g).vertices_of(mask)
    assert listed == members
    assert all(type(i) is int for i in listed)  # Python ints, as positions are


@pytest.mark.parametrize("g", [grid(4, 3), grid(21, 21, 21)])
def test_mask_of_never_returns_a_stale_mask(g):
    # few cops take the per-vertex path, many the numpy one; the mask of
    # the last tuple is kept, and must never answer for another
    lat = lattice(g)

    def expected(vertices):
        return sum(1 << i for i in set(vertices))

    rng = random.Random(13)
    for size in (3, 12):
        a = tuple(rng.sample(range(g.vertex_count), size))
        b = tuple(rng.sample(range(g.vertex_count), size))
        twin = tuple(list(a))  # equal to a, not the same object
        assert twin == a and twin is not a
        for vertices in (a, b, a, twin, twin, b, b, a):  # alternating, repeated
            assert lat.mask_of(vertices) == expected(vertices)

        listed = list(a)
        assert lat.mask_of(listed) == expected(a)
        listed[0] = b[0]
        assert lat.mask_of(listed) == expected(listed)
        assert lat.mask_of(iter(b)) == expected(b)


@functools.lru_cache(maxsize=64)
def _adjacency(dims):
    return oracles.explicit_adjacency(dims)


def _check_floods_against_oracle(g, blocked_sets, rng):
    """component on one fresh lattice from every start of each blocked set,
    blocked starts included, against the oracle's flood.  Calls alternate
    the sets, and each set's starts go round its components, so a kept
    component or fill masks answering for another call would show.  Each
    start is flooded with a random stop mask first, so a part kept after
    the fill met stop would answer the whole flood that follows."""
    dims = tuple(oracles.dims_of(g))
    adj = _adjacency(dims)
    rank = {v: i for i, v in enumerate(oracles.all_vertices(dims))}
    lat = BitLattice(g)
    plans = []
    for blocked in blocked_sets:
        blocked = set(blocked)
        comps = oracles.all_components(adj, blocked)
        # the oracle floods once per component: every member's answer
        members = [[(rank[v], sum(1 << rank[w] for w in comp)) for v in sorted(comp)]
                   for comp in comps]
        starts = [s for s in itertools.chain(*itertools.zip_longest(*members)) if s]
        starts += [(rank[v], 0) for v in blocked]
        plans.append((lat.mask_of([rank[v] for v in blocked]), starts))
    calls = itertools.zip_longest(*([(mask, s) for s in starts] for mask, starts in plans))
    for mask, (start, expected) in filter(None, itertools.chain.from_iterable(calls)):
        stop = rng.getrandbits(g.vertex_count)
        part = lat.component(start, mask, stop)
        assert part & ~expected == 0 and bool(part & stop) == bool(expected & stop)
        assert part >> start & 1 or not expected
        assert lat.component(start, mask) == expected


@given(graphs_and_masks(), st.data())
@settings(max_examples=80, deadline=None)
def test_component_matches_the_oracle_from_every_start(case, data):
    # the second blocked set differs from the first in one vertex
    g, mask = case
    flip = data.draw(st.integers(0, g.vertex_count - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    sets = [{g.vertex_at(i) for i in range(g.vertex_count) if m >> i & 1}
            for m in (mask, mask ^ 1 << flip)]
    _check_floods_against_oracle(g, sets, rng)


@pytest.mark.parametrize("text", ["grid:1x300", "grid:17x5", "torus:3x33"])
def test_component_matches_the_oracle_on_long_axes(text):
    # runs of 17 to 300 vertices take 5 to 9 doubling steps
    g = parse_graph(text)
    rng = random.Random(29)
    verts = list(g.vertices())
    for k in (1, 3, g.vertex_count // 8):
        a = rng.sample(verts, k)
        b = a[1:] + [rng.choice(verts)]
        _check_floods_against_oracle(g, [a, b], rng)


@pytest.mark.parametrize("g,blocked,crossing", [
    (product([(9, True)]), [(2,), (6,)], {(7,), (8,), (0,), (1,)}),
    (product([(2, False), (7, True)]), [(0, 2), (0, 5), (1, 2), (1, 5)],
     {(x, y) for x in (0, 1) for y in (6, 0, 1)}),
])
def test_component_fills_a_run_across_the_seam(g, blocked, crossing):
    lat = BitLattice(g)
    comp = lat.component(g.index(min(crossing)), lat.mask_of(ix(g, blocked)))
    assert coords_of(g, lat.set_of(comp)) == crossing
    _check_floods_against_oracle(g, [blocked, blocked[:1]], random.Random(31))


def test_a_blocked_start_floods_nothing_and_is_not_kept():
    g = grid(3, 3)
    lat = BitLattice(g)
    blocked = lat.mask_of([g.index((1, 1))])
    assert lat.component(g.index((1, 1)), blocked) == 0
    comp = lat.component(g.index((0, 0)), blocked)
    assert coords_of(g, lat.set_of(comp)) == set(g.vertices()) - {(1, 1)}


def test_bitboard_components_partition():
    g = grid(3, 3)
    lat = lattice(g)
    blocked = lat.mask_of(ix(g, [(1, 0), (1, 1), (1, 2)]))
    comps = lat.components(blocked)
    assert sorted(c.bit_count() for c in comps) == [3, 3]


@pytest.mark.parametrize("g", [grid(1025, 1024), grid(10**5, 10**5)], ids=["just-over", "10^10"])
def test_lattice_refuses_a_graph_over_the_vertex_cap(g):
    # the check comes before any allocation: a lattice of 10^10 vertices
    # would need more memory than a full mask of 1.25 GB
    with pytest.raises(ResourceLimitError) as err:
        lattice(g)
    assert err.value.estimate == g.vertex_count > MAX_MATCH_VERTICES == err.value.cap == 2**20
    assert f"{g.vertex_count} vertices" in str(err.value)


# -- coordinate transforms ----------------------------------------------------


def test_coordmap_roundtrip_and_adjacency():
    g = grid(5, 5)
    cm = CoordMap(g, perm=(1, 0), reflect=(True, False))
    for v in g.vertices():
        assert cm.invert(cm.apply(v)) == v
    rng = random.Random(5)
    verts = list(g.vertices())
    for _ in range(100):
        u, v = rng.choice(verts), rng.choice(verts)
        assert (u in g.neighbors(v)) == (cm.apply(u) in g.neighbors(cm.apply(v)))
