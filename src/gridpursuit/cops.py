"""Cop-side strategies.

The guaranteed pursuits (row sweep, diagonal pairs, torus pincer, level
blockades) each implement a capture proof; their per-turn claims are
surfaced through trace annotations so tests can assert them.  Greedy and
random play exist as adversaries for exercising the evaders.

All tie-breaking is fixed and documented per strategy: deterministic play
is part of the trace-replay contract.  Like the engine, strategies see and
answer positions as vertex indices.
"""
from __future__ import annotations

from itertools import compress, count
from operator import ne

from .counts import level_closed_form
from .engine import CopStrategy, GameState
from .errors import ConfigurationError, require
from .grid import GraphSpec

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


def _require_grid_2d(graph):
    require(
        graph.ndim == 2 and not any(d.wrap for d in graph.dims),
        f"strategy needs a two-dimensional grid, got {graph.dims}",
    )


class RowSweepCops(CopStrategy):
    """One cop per column on the top row; the whole wall steps down each turn.

    The robber's row always exceeds the wall's row, so the wall eventually
    lands on him.  Needs k >= width; surplus cops stack on (0, 0) and ride
    along with column 0.
    """

    name = "row-sweep"

    def place(self, graph, k):
        _require_grid_2d(graph)
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

    def reset(self, graph, k, rng):
        super().reset(graph, k, rng)
        self._turns = 0

    def place(self, graph, k):
        require(
            graph.ndim == 2 and all(d.wrap for d in graph.dims),
            f"strategy needs a two-dimensional torus, got {graph.dims}",
        )
        width, height = graph.lengths
        require(k >= 2 * width, f"torus pincer needs k >= {2 * width}, got {k}")
        wall = [graph.index((x, 0)) for x in range(width)]
        wall += [graph.index((x, height - 1)) for x in range(width)]
        return wall + [0] * (k - 2 * width)

    def move(self, state):
        width, height = state.graph.lengths
        t = self._turns
        advancing = 2 * t + 2 <= height - 1  # new walls must not cross
        dests = list(state.cops)
        if advancing:
            # a step along y, the last coordinate, moves the index by one
            for i in range(width):
                dests[i] += 1
                dests[width + i] -= 1
            self._turns += 1
        self.last_annotations = {"top_row": min(t + 1, height - 1), "bottom_row": max(height - 2 - t, 0)}
        return dests


class DiagonalPairsCops(CopStrategy):
    """n-1 cops on an odd n x n grid, starting as stacked pairs on the
    even diagonal.

    After seeing the robber's side of the diagonal, the pairs split into a
    staircase hugging that side, which is a separating set; every cop above
    the bottom row then steps down once per turn, flattening the staircase
    into the corner and shrinking the robber's component each round.  A
    robber placed on the diagonal gets surrounded in place instead.  The
    mirrored (other-side) case plays the same strategy on the transposed
    board.  Surplus cops beyond n-1 stack on the first pair and never move.
    """

    name = "diagonal-pairs"

    def reset(self, graph, k, rng):
        super().reset(graph, k, rng)
        self._mode = "await"

    def place(self, graph, k):
        _require_grid_2d(graph)
        n = graph.dims[0].length
        require(n == graph.dims[1].length, "diagonal pairs needs a square grid")
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
        if self._mode == "await":
            x, y = g.vertex_at(state.robber)
            self._mode = "surround" if x == y else "split"
            # work in a frame where the robber is on the low-x side, the
            # board transposed when x > y; its unit steps as index offsets
            # (index x * n + y): across (+1 in frame x) and down (+1 in frame y)
            self._across, self._down = (1, n) if x > y else (n, 1)

        across, down = self._across, self._down
        dests = list(state.cops)

        if self._mode == "split":
            for j in range(strategists // 2):
                a, b = 2 * j, 2 * j + 1  # the pair that started on (2j+1, 2j+1)
                dests[a] -= across
                dests[b] += down
            self._mode = "sweep"
            self.last_annotations = {"phase": "split"}
        elif self._mode == "sweep":
            for i in range(strategists):
                if dests[i] // down % n < n - 1:  # canonical y above the bottom row
                    dests[i] += down
            self.last_annotations = {"phase": "sweep"}
        elif self._mode == "surround":
            d = g.vertex_at(state.robber)[0]
            if d == 0:
                targets = {(1, 1): [(0, 1), (1, 0)]}
            elif d == n - 1:
                targets = {(n - 2, n - 2): [(n - 2, n - 1), (n - 1, n - 2)]}
            else:
                targets = {
                    (d - 1, d - 1): [(d, d - 1), (d - 1, d)],
                    (d + 1, d + 1): [(d + 1, d), (d, d + 1)],
                }
            for src, outs in targets.items():
                src, outs = g.index(src), [g.index(v) for v in outs]
                moved = 0
                for i in range(strategists):
                    if state.cops[i] == src and moved < len(outs):
                        dests[i] = outs[moved]
                        moved += 1
            self._mode = "close"
            self.last_annotations = {"phase": "surround"}
        elif self._mode == "close":
            # the robber is pinned; walk one adjacent cop onto him
            for i in range(strategists):
                if g.is_edge(state.cops[i], state.robber):
                    dests[i] = state.robber
                    break
            self.last_annotations = {"phase": "close"}

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

    shift_axis selects which coordinate the wall decreases (and therefore
    which slice the reserves must cover at coordinate n-1).
    """

    shift_axis = 0

    def __init__(self, allow_understaffed=False):
        super().__init__()
        self.allow_understaffed = allow_understaffed

    def reset(self, graph, k, rng):
        super().reset(graph, k, rng)
        self._flip = None  # whether the play is reflected, fixed at the first move
        self._canon = None  # the cops' indices as the last move left them, canonical
        self._sums = None  # and their canonical coordinate sums
        self._cops = None  # and as played
        self._level = None
        self._blocking = []
        self._reserve = []
        self._targets = {}

    def required_cops(self, n):
        raise NotImplementedError

    def _validate(self, graph, k):
        require(
            len({d.length for d in graph.dims}) == 1 and not any(d.wrap for d in graph.dims),
            f"blockade needs an equal-sided grid, got {graph.dims}",
        )
        n = graph.dims[0].length
        if not self.allow_understaffed:
            require(n % 2 == 1, f"blockade is only guaranteed for odd side lengths, got {n}")
            require(
                k >= self.required_cops(n),
                f"blockade needs k >= {self.required_cops(n)}, got {k}",
            )
        return n

    def place(self, graph, k):
        n = self._validate(graph, k)
        d = graph.ndim
        m = d * (n - 1) // 2
        # the wall in index order, enumerated as _slice_targets does
        positions = [graph.index(v) for v in _compositions(m, d, n - 1)][:k]
        self._blocking = list(range(len(positions)))
        self._reserve = list(range(len(positions), k))
        positions += [graph.vertex_count - 1] * (k - len(positions))  # the corner (n-1, ..., n-1)
        self._level = m
        return positions

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
        # reflecting every coordinate maps index i to top - i
        top = g.vertex_count - 1
        if self._flip is None:
            self._flip = sum(g.vertex_at(state.robber)) > self._level
            if self._flip:
                self._level = g.ndim * (n - 1) - self._level
            self._targets = {}
            self._canon = [top - c if self._flip else c for c in state.cops]
            self._sums = [sum(g.vertex_at(c)) for c in self._canon]
            self._cops = list(state.cops)

        canon, sums = self._canon, self._sums
        dests = list(canon)

        if not self._targets:
            wanted = map(g.index, self._slice_targets(g, self._level))
            pool = sorted(self._reserve, key=canon.__getitem__)  # index order is lexicographic
            self._targets = dict(zip(pool, wanted))

        in_transit = {
            i: t for i, t in self._targets.items() if canon[i] != t
        }
        if in_transit:
            for i, target in in_transit.items():
                dests[i] = _lex_step(g, canon[i], target)
                sums[i] += 1 if dests[i] > canon[i] else -1  # one coordinate, one step
            self.last_annotations = {"phase": "transit", "level": self._level}
        else:
            # shift: the wall steps down along the shift axis; cops already
            # on the axis floor hold still, arrived reserves become wall
            for i in self._blocking:
                if canon[i] // stride % n:
                    dests[i] -= stride
                    sums[i] -= 1
            self._level -= 1
            new_wall, new_reserve = [], []
            for i, level in enumerate(sums):
                (new_wall if level == self._level else new_reserve).append(i)
            self._blocking, self._reserve = new_wall, new_reserve
            self._targets = {}
            self.last_annotations = {"phase": "shift", "level": self._level, "boundary": 1}

        # only the cops that move need mapping back
        cops = self._cops
        for i in compress(count(), map(ne, canon, dests)):
            cops[i] = top - dests[i] if self._flip else dests[i]
        self._canon = dests
        return list(cops)


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

    def required_cops(self, n):
        return blockade_3d_cop_count(n)

    def _validate(self, graph, k):
        require(graph.ndim == 3, f"blockade-3d needs three dimensions, got {graph.ndim}")
        return super()._validate(graph, k)


class BlockadeNDCops(_LevelBlockadeCops):
    """Level blockade on the d-fold product of equal paths, shifting along
    the first coordinate; reserve count sized by the first slice exactly."""

    name = "blockade-ddim"
    shift_axis = 0

    def required_cops(self, n):
        return blockade_nd_cop_count(self._ndim, n)

    def _validate(self, graph, k):
        self._ndim = graph.ndim
        return super()._validate(graph, k)


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
    instance reused on another graph never reads a stale entry.
    """

    name = "random"

    def reset(self, graph, k, rng):
        super().reset(graph, k, rng)
        self._options = {}

    def place(self, graph, k):
        total = graph.vertex_count
        return [self.rng.randrange(total) for _ in range(k)]

    def move(self, state):
        g, table, randrange = state.graph, self._options, self.rng.randrange
        dests = []
        for c in state.cops:
            options = table.get(c)
            if options is None:
                options = table[c] = tuple(g.closed_neighbors(c))
            dests.append(options[randrange(len(options))])
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
