"""Cop-side strategies.

The guaranteed pursuits (row sweep, diagonal pairs, torus pincer, level
blockades) each implement a capture proof; their per-turn claims are
surfaced through trace annotations so tests can assert them.  Greedy and
random play exist as adversaries for exercising the evaders.

All tie-breaking is fixed and documented per strategy: deterministic play
is part of the trace-replay contract.  Like the engine, strategies see and
answer positions as vertex indices.

A pursuit's per-match memory is set by place and by its round-1 move
(state.round is 1 on the first cop turn), and every later turn reads its
phase off the round and the position.  So the pursuits rely on the base
class's reset alone, which sets the RNG and clears the annotations, and an
instance plays any number of matches, on any graphs.  RandomCops is the one
exception: its reset clears a per-match neighbourhood cache.
"""
from __future__ import annotations

import numpy as np

from .counts import level_closed_form
from .engine import CopStrategy, GameState
from .errors import ConfigurationError, require
from .grid import format_graph, is_box

__all__ = [
    "RowSweepCops",
    "DiagonalPairsCops",
    "TorusTwoRowsCops",
    "Blockade3DCops",
    "BlockadeNDCops",
    "GreedyCops",
    "RandomCops",
    "COP_STRATEGIES",
    "make_cop_strategy",
    "blockade_3d_cop_count",
    "blockade_nd_cop_count",
]


class RowSweepCops(CopStrategy):
    """One cop per column on the top row; the whole wall steps down each turn.

    The robber's row always exceeds the wall's row, so the wall eventually
    lands on him.  Needs k >= width; surplus cops stack on (0, 0) and ride
    along with column 0.
    """

    name = "row-sweep"

    def place(self, graph, k):
        require(is_box(graph, 2), f"row sweep needs a two-dimensional grid, got {format_graph(graph)}")
        width = graph.dims[0].length
        require(k >= width, f"row sweep needs k >= {width}, got {k}")
        return [graph.index((x, 0)) for x in range(width)] + [0] * (k - width)

    def move(self, state):
        # a step down a row is one index up: y is the last coordinate
        height = state.graph.dims[1].length
        return [c + 1 if c % height < height - 1 else c for c in state.cops]


class TorusTwoRowsCops(CopStrategy):
    """Walls on the top and bottom rows of a torus, sweeping toward each other.

    The two walls are adjacent through the wrap, so the robber is pinned in
    the shrinking open band between them.  Needs k >= 2 * width; surplus
    cops stack on (0, 0).
    """

    name = "torus-two-rows"

    def place(self, graph, k):
        require(is_box(graph, 2, wrap=True),
                f"torus pincer needs a two-dimensional torus, got {format_graph(graph)}")
        width, height = graph.lengths
        require(k >= 2 * width, f"torus pincer needs k >= {2 * width}, got {k}")
        wall = [graph.index((x, 0)) for x in range(width)]
        wall += [graph.index((x, height - 1)) for x in range(width)]
        return wall + [0] * (k - 2 * width)

    def move(self, state):
        width, height = state.graph.lengths
        # the walls have advanced t times: once per earlier turn, until they
        # would cross
        t = min(state.round - 1, (height - 1) // 2)
        dests = list(state.cops)
        if 2 * t + 2 <= height - 1:
            # a step along y, the last coordinate, moves the index by one
            for i in range(width):
                dests[i] += 1
                dests[width + i] -= 1
        self.last_annotations = {"top_row": min(t + 1, height - 1), "bottom_row": max(height - 2 - t, 0)}
        return dests


class DiagonalPairsCops(CopStrategy):
    """n-1 cops on an odd n x n grid, starting as stacked pairs on the
    even diagonal.

    After seeing the robber's side of the diagonal, the pairs split into a
    staircase hugging that side (round 1), which is a separating set; every
    cop above the bottom row then steps down once per turn (sweep),
    flattening the staircase into the corner and shrinking the robber's
    component each round.  A robber placed on the diagonal gets surrounded
    in place instead (round 1), and an adjacent cop closes on him (close).
    The mirrored (other-side) case plays the same strategy on the transposed
    board.  Surplus cops beyond n-1 stack on the first pair and never move.
    """

    name = "diagonal-pairs"

    def place(self, graph, k):
        require(is_box(graph, 2, equal=True), f"diagonal pairs needs a square grid, got {format_graph(graph)}")
        n = graph.dims[0].length
        require(n % 2 == 1 and n >= 3, f"diagonal pairs needs odd n >= 3, got {n}")
        require(k >= n - 1, f"diagonal pairs needs k >= {n - 1}, got {k}")
        pairs = []
        for j in range((n - 1) // 2):
            pairs += [graph.index((2 * j + 1, 2 * j + 1))] * 2
        return pairs + [graph.index((1, 1))] * (k - (n - 1))

    def move(self, state):
        g = state.graph
        n = g.dims[0].length
        strategists = n - 1  # cops beyond these are stacked extras
        first = state.round == 1
        if first:
            x, y = g.vertex_at(state.robber)
            self._on_diagonal = x == y
            # work in a frame where the robber is on the low-x side, the
            # board transposed when x > y; its unit steps as index offsets
            # (index x * n + y): across (+1 in frame x) and down (+1 in frame y)
            self._across, self._down = (1, n) if x > y else (n, 1)

        across, down = self._across, self._down
        dests = list(state.cops)

        if self._on_diagonal:
            phase = "surround" if first else "close"
        else:
            phase = "split" if first else "sweep"
        self.last_annotations = {"phase": phase}
        if phase == "split":
            for j in range(strategists // 2):
                a, b = 2 * j, 2 * j + 1  # the pair that started on (2j+1, 2j+1)
                dests[a] -= across
                dests[b] += down
        elif phase == "sweep":
            for i in range(strategists):
                if dests[i] // down % n < n - 1:  # canonical y above the bottom row
                    dests[i] += down
        elif phase == "surround":  # the robber is on (x, x)
            if x == 0:
                targets = {(1, 1): [(0, 1), (1, 0)]}
            elif x == n - 1:
                targets = {(n - 2, n - 2): [(n - 2, n - 1), (n - 1, n - 2)]}
            else:
                targets = {
                    (x - 1, x - 1): [(x, x - 1), (x - 1, x)],
                    (x + 1, x + 1): [(x + 1, x), (x, x + 1)],
                }
            for src, outs in targets.items():
                src, outs = g.index(src), [g.index(v) for v in outs]
                moved = 0
                for i in range(strategists):
                    if state.cops[i] == src and moved < len(outs):
                        dests[i] = outs[moved]
                        moved += 1
        else:
            # the robber is pinned; walk one adjacent cop onto him
            for i in range(strategists):
                if g.is_edge(state.cops[i], state.robber):
                    dests[i] = state.robber
                    break
        return dests


# --------------------------------------------------------------------------
# Level blockades
# --------------------------------------------------------------------------


def blockade_3d_cop_count(n: int) -> int:
    """Blocking wall plus reserve crew for the 3D level blockade."""
    return (3 * n * n + 1) // 4 + (n + 1) // 2


def blockade_nd_cop_count(d: int, n: int) -> int:
    """Exact blockade size in d dimensions: wall at the middle level plus
    reserves for the largest slice they will ever need to cover."""
    m = d * (n - 1) // 2
    reserves = level_closed_form(d - 1, m - n, n) if d >= 2 else 0
    return level_closed_form(d, m, n) + reserves


class _LevelBlockadeCops(CopStrategy):
    """Shared machinery for the level-set blockades.

    Blocking cops occupy the full middle level set {v : sum(v) = m}; the
    robber's side of it is fixed at his placement (the mirrored side is
    handled by reflecting every coordinate).  Each phase, reserve cops walk
    lexicographic shortest paths to the next level's far slice - the
    vertices a plain downshift of the wall cannot produce - and once they
    arrive the wall shifts down one level.  The robber's coordinate sum
    stays strictly below the wall level throughout, which forces capture
    when the level reaches the corner.

    The play is worked out on the board's own vertex indices.  The round-1
    move fixes the reflection, which maps index i to V - 1 - i: it sets the
    wall's coordinate sum on the board, the floor of the shift axis, the
    wall's step, and the order in which the reserve is paired with its
    targets.  Between turns the blockade keeps only the reflection, the
    canonical wall level (the one annotated) and the reserves' targets.  The
    cops on the wall are read off their coordinate sums, at a phase start
    (every other cop is reserve) and at a shift, which runs only when no
    reserve is in transit, so that the wall is exactly the cops on the level.

    shift_axis selects which coordinate the wall decreases (and therefore
    which slice the reserves must cover at coordinate n-1).  ndim is the
    dimension count the blockade is built for, or None when it plays on
    any.  required_cops(graph) is the cop count its proof needs on graph.
    Placement checks the dimension count in one place (_validate), and the
    cop count too unless allow_understaffed.
    """

    shift_axis = 0
    ndim = None

    def __init__(self, allow_understaffed=False):
        super().__init__()
        self.allow_understaffed = allow_understaffed

    def required_cops(self, graph):
        raise NotImplementedError

    def _validate(self, graph, k):
        require(
            self.ndim is None or graph.ndim == self.ndim,
            f"{self.name} needs {self.ndim} dimensions, got {format_graph(graph)}",
        )
        require(is_box(graph, equal=True), f"blockade needs an equal-sided grid, got {format_graph(graph)}")
        n = graph.dims[0].length
        if not self.allow_understaffed:
            require(n % 2 == 1, f"blockade is only guaranteed for odd side lengths, got {n}")
            need = self.required_cops(graph)
            require(k >= need, f"blockade needs k >= {need}, got {k}")
        return n

    def place(self, graph, k):
        n = self._validate(graph, k)
        d = graph.ndim
        m = d * (n - 1) // 2
        # the wall in index order, enumerated as _slice_targets does
        positions = [graph.index(v) for v in _compositions(m, d, n - 1)][:k]
        return positions + [graph.vertex_count - 1] * (k - len(positions))  # the corner (n-1, ..., n-1)

    def _slice_targets(self, graph, level):
        """Vertices of the next level the downshift cannot reach: those with
        the shift coordinate already at n-1, in index order.  The other
        coordinates sum to level - n; they are enumerated directly, not by
        a scan of every vertex."""
        n, axis = graph.dims[0].length, self.shift_axis
        return [rest[:axis] + (n - 1,) + rest[axis:]
                for rest in _compositions(level - n, graph.ndim - 1, n - 1)]

    def move(self, state):
        g = state.graph
        n = g.dims[0].length
        stride = g.strides[self.shift_axis]
        if state.round == 1:
            # the play is reflected when the robber starts above the wall
            middle = g.ndim * (n - 1) // 2
            self._flip = sum(g.vertex_at(state.robber)) > middle
            self._level = g.ndim * (n - 1) - middle if self._flip else middle
            self._targets = {}

        flip, level = self._flip, self._level
        # the wall's coordinate sum on the board, the floor of the shift
        # axis and the wall's step
        wall, floor, step = (g.ndim * (n - 1) - level, n - 1, stride) if flip else (level, 0, -stride)
        cops = list(state.cops)
        coords = None  # the cops' coordinates, one array per axis

        if not self._targets:
            # the reserve: every cop off the wall's level, in canonical index
            # order (index order is lexicographic; a stable sort keeps
            # stacked cops in cop order, reversed or not)
            coords = np.unravel_index(cops, g.lengths)
            pool = sorted(np.flatnonzero(sum(coords) != wall).tolist(), key=cops.__getitem__, reverse=flip)
            wanted = map(g.index, self._slice_targets(g, level))
            if flip:  # reflecting every coordinate maps index t to V - 1 - t
                wanted = [g.vertex_count - 1 - t for t in wanted]
            self._targets = dict(zip(pool, wanted))

        in_transit = {
            i: t for i, t in self._targets.items() if cops[i] != t
        }
        if in_transit:
            for i, target in in_transit.items():
                cops[i] = _lex_step(g, cops[i], target)
            self.last_annotations = {"phase": "transit", "level": level}
        else:
            # shift: with no reserve in transit the wall is every cop on the
            # level; it steps down along the shift axis, cops already on the
            # axis floor hold still, and arrived reserves become wall
            if coords is None:
                coords = np.unravel_index(cops, g.lengths)
            for i in np.flatnonzero((sum(coords) == wall) & (coords[self.shift_axis] != floor)).tolist():
                cops[i] += step
            self._level = level - 1
            self._targets = {}
            self.last_annotations = {"phase": "shift", "level": level - 1, "boundary": 1}
        return cops


def _compositions(total, parts, top):
    """Every tuple of parts ints in [0, top] that sum to total, in
    lexicographic order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first, *rest)
            for first in range(max(0, total - top * (parts - 1)), min(top, total) + 1)
            for rest in _compositions(total - first, parts - 1, top)]


def _lex_step(g, src, dst):
    """One step along the lexicographic shortest path from vertex index src
    to dst: lowest differing dimension first, decreasing before increasing
    when a cycle offers both directions equally."""
    if src == dst:
        return src
    for d, stride in zip(g.dims, g.strides):
        length = d.length
        a, b = src // stride % length, dst // stride % length
        if a == b:
            continue
        if d.wrap:
            delta = (b - a) % length
            step = -1 if delta >= length - delta else 1
            return src + ((a + step) % length - a) * stride
        return src + (stride if b > a else -stride)
    return src


class Blockade3DCops(_LevelBlockadeCops):
    """Anti-diagonal blockade on an n x n x n grid (odd n), shifting along
    the third coordinate.  Wall size (3n^2+1)/4 plus (n+1)/2 reserves."""

    name = "blockade-3d"
    shift_axis = 2
    ndim = 3

    def required_cops(self, graph):
        return blockade_3d_cop_count(graph.dims[0].length)


class BlockadeNDCops(_LevelBlockadeCops):
    """Level blockade on the d-fold product of equal paths, shifting along
    the first coordinate; reserve count sized by the first slice exactly."""

    name = "blockade-ddim"
    shift_axis = 0

    def required_cops(self, graph):
        return blockade_nd_cop_count(graph.ndim, graph.dims[0].length)


# --------------------------------------------------------------------------
# Adversarial heuristics
# --------------------------------------------------------------------------


class GreedyCops(CopStrategy):
    """Every cop steps along a shortest path toward the robber.

    Placement spreads cops over evenly spaced vertex ranks.  Steps use the
    lexicographic rule: lowest differing dimension, decreasing before
    increasing when a cycle offers both directions equally.
    """

    name = "greedy"

    def place(self, graph, k):
        total = graph.vertex_count
        return [i * total // k for i in range(k)]

    def move(self, state):
        return [_lex_step(state.graph, c, state.robber) for c in state.cops]


class RandomCops(CopStrategy):
    """Independently uniform moves over each cop's closed neighborhood, in
    ascending index order.

    Each match keeps a table from a vertex to its closed neighborhood, a
    tuple, filled as the cops reach vertices and made anew by reset, so an
    instance reused on another graph never reads a stale entry.  A move
    draws its index with the rejection loop of rng.randrange, from
    rng.getrandbits directly: the same draws and moves, without
    randrange's argument handling.
    """

    name = "random"

    def reset(self, graph, k, rng):
        super().reset(graph, k, rng)
        self._options = {}

    def place(self, graph, k):
        total = graph.vertex_count
        return [self.rng.randrange(total) for _ in range(k)]

    def move(self, state):
        g, table, getrandbits = state.graph, self._options, self.rng.getrandbits
        dests = []
        for c in state.cops:
            options = table.get(c)
            if options is None:
                options = table[c] = tuple(g.closed_neighbors(c))
            n = len(options)
            bits = n.bit_length()
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            dests.append(options[r])
        return dests


COP_STRATEGIES = {
    cls.name: cls
    for cls in (
        RowSweepCops,
        DiagonalPairsCops,
        TorusTwoRowsCops,
        Blockade3DCops,
        BlockadeNDCops,
        GreedyCops,
        RandomCops,
    )
}


def make_cop_strategy(name: str) -> CopStrategy:
    try:
        return COP_STRATEGIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown cop strategy {name!r}; known: {', '.join(sorted(COP_STRATEGIES))}"
        ) from None
