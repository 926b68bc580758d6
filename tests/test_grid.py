import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.errors import GraphFormatError, InvalidVertexError
from gridpursuit.grid import (
    Box,
    CoordMap,
    box_vertices,
    cube,
    format_graph,
    grid,
    interior,
    lattice,
    parse_graph,
    product,
    torus,
)

import oracles


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
                               product([(4, True), (1, False), (2, False)])])
def test_adjacent_matches_explicit_adjacency(g):
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    for u in g.vertices():
        for v in g.vertices():
            assert g.adjacent(u, v) == (v in adj[u])


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


# -- boxes -------------------------------------------------------------------


def test_interior_fully_inside_shrinks_each_side():
    g = grid(5, 5, 5)
    b = Box((1, 1, 1), (3, 3, 3))
    assert interior(g, b) == Box((2, 2, 2), (2, 2, 2))


def test_interior_respects_graph_boundary():
    g = grid(5, 5, 5)
    assert interior(g, Box((0, 0, 0), (2, 2, 2))) == Box((0, 0, 0), (1, 1, 1))


def test_interior_of_whole_graph_is_whole_graph():
    g = grid(5, 5)
    whole = Box((0, 0), (4, 4))
    assert interior(g, whole) == whole


def test_interior_collapse_returns_none():
    assert interior(grid(5, 5), Box((1, 1), (2, 2))) is None


@pytest.mark.parametrize(
    "g,b",
    [
        (grid(4, 4), Box((0, 1), (2, 3))),
        (grid(5, 5, 5), Box((0, 0, 0), (2, 2, 2))),
        (torus(5, 4, 3), Box((1, 0, 0), (3, 3, 2))),
        (torus(5, 5), Box((0, 1), (4, 3))),
    ],
)
def test_interior_matches_boundary_oracle(g, b):
    adj = oracles.explicit_adjacency(oracles.dims_of(g))
    box_set = set(box_vertices(g, b))
    expected = box_set - oracles.boundary_vertices(adj, box_set)
    got = interior(g, b)
    got_set = set() if got is None else set(box_vertices(g, got))
    assert got_set == expected


def test_interior_nesting():
    g = grid(6, 7)
    b = Box((1, 1), (5, 6))
    inner = interior(g, b)
    inner2 = interior(g, inner)
    as_set = lambda bx: set() if bx is None else set(box_vertices(g, bx))
    assert as_set(inner2) <= as_set(inner) <= as_set(b)


def test_box_vertices_counts():
    g = grid(3, 3)
    assert len(list(box_vertices(g, Box((0, 0), (2, 2))))) == g.vertex_count
    assert len(list(box_vertices(g, Box((1, 1), (1, 1))))) == 1
    assert len(list(box_vertices(g, Box((0, 0), (1, 2))))) == 6


def test_box_rejects_out_of_order_corners():
    with pytest.raises(InvalidVertexError):
        Box((2, 0), (1, 3))


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
        mask = lat.mask_of(chosen)
        expected = set().union(*(adj[v] for v in chosen))
        assert lat.set_of(lat.expand(mask)) == expected


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
        mask = lat.component(g.index(src), lat.mask_of(blocked))
        assert lat.set_of(mask) == oracles.flood(adj, blocked, src)


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
    members = {g.vertex_at(i) for i in range(g.vertex_count) if mask >> i & 1}
    assert lat.set_of(mask) == members
    assert lat.mask_of(members) == mask
    assert lat.mask_of(sorted(members) * 2) == mask  # stacked cops set one bit
    assert lat.mask_of([]) == 0 and lat.set_of(0) == set()


@given(graphs_and_masks())
@settings(max_examples=100, deadline=None)
def test_vertices_of_lists_members_in_index_order(case):
    g, mask = case
    members = [g.vertex_at(i) for i in range(g.vertex_count) if mask >> i & 1]
    listed = lattice(g).vertices_of(mask)
    assert listed == members == sorted(members)
    assert all(type(c) is int for v in listed for c in v)  # traces serialize them


def test_bitboard_components_partition():
    g = grid(3, 3)
    lat = lattice(g)
    blocked = lat.mask_of([(1, 0), (1, 1), (1, 2)])
    comps = lat.components(blocked)
    assert sorted(c.bit_count() for c in comps) == [3, 3]


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
