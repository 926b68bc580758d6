"""Cop-side strategies.

The guaranteed pursuits (row sweep, diagonal pairs, torus pincer, level
blockades) each implement a capture proof; their per-turn claims are
surfaced through trace annotations so tests can assert them.  Greedy and
random play exist as adversaries for exercising the evaders.

All tie-breaking is fixed and documented per strategy: deterministic play
is part of the trace-replay contract.
"""
from __future__ import annotations

from .counts import level_closed_form
from .engine import CopStrategy, GameState
from .errors import ConfigurationError, require
from .grid import CoordMap, GraphSpec

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
        return [(x, 0) for x in range(width)] + [(0, 0)] * (k - width)

    def move(self, state):
        bottom = state.graph.dims[1].length - 1
        return [(x, y + 1 if y < bottom else y) for x, y in state.cops]


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
        wall = [(x, 0) for x in range(width)]
        wall += [(x, height - 1) for x in range(width)]
        return wall + [(0, 0)] * (k - 2 * width)

    def move(self, state):
        width, height = state.graph.lengths
        t = self._turns
        advancing = 2 * t + 2 <= height - 1  # new walls must not cross
        dests = []
        for i, (x, y) in enumerate(state.cops):
            if not advancing or i >= 2 * width:
                dests.append((x, y))
            elif i < width:
                dests.append((x, y + 1))
            else:
                dests.append((x, y - 1))
        if advancing:
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
        self._map = None

    def place(self, graph, k):
        _require_grid_2d(graph)
        n = graph.dims[0].length
        require(n == graph.dims[1].length, "diagonal pairs needs a square grid")
        require(n % 2 == 1 and n >= 3, f"diagonal pairs needs odd n >= 3, got {n}")
        require(k >= n - 1, f"diagonal pairs needs k >= {n - 1}, got {k}")
        pairs = []
        for j in range((n - 1) // 2):
            pairs += [(2 * j + 1, 2 * j + 1)] * 2
        return pairs + [(1, 1)] * (k - (n - 1))

    def move(self, state):
        g = state.graph
        n = g.dims[0].length
        strategists = n - 1  # cops beyond these are stacked extras
        if self._mode == "await":
            x, y = state.robber
            if x == y:
                self._mode = "surround"
                self._map = CoordMap(g)
            else:
                # work in coordinates where the robber is on the low-x side
                self._map = CoordMap(g, perm=(0, 1) if x < y else (1, 0))
                self._mode = "split"

        cm = self._map
        canon = [cm.apply(c) for c in state.cops]
        dests = list(canon)

        if self._mode == "split":
            for j in range(strategists // 2):
                a, b = 2 * j, 2 * j + 1  # the pair that started on (2j+1, 2j+1)
                cx, cy = canon[a]
                dests[a] = (cx - 1, cy)
                dests[b] = (cx, cy + 1)
            self._mode = "sweep"
            self.last_annotations = {"phase": "split"}
        elif self._mode == "sweep":
            for i in range(strategists):
                cx, cy = canon[i]
                if cy < n - 1:
                    dests[i] = (cx, cy + 1)
            self.last_annotations = {"phase": "sweep"}
        elif self._mode == "surround":
            d = state.robber[0]
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
                moved = 0
                for i in range(strategists):
                    if canon[i] == src and moved < len(outs):
                        dests[i] = outs[moved]
                        moved += 1
            self._mode = "close"
            self.last_annotations = {"phase": "surround"}
        elif self._mode == "close":
            # the robber is pinned; walk one adjacent cop onto him
            pinned = cm.apply(state.robber)
            for i in range(strategists):
                if g.distance(canon[i], pinned) == 1:
                    dests[i] = pinned
                    break
            self.last_annotations = {"phase": "close"}

        return [cm.invert(d) for d in dests]


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
        self._map = None
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
        wall = [v for v in graph.vertices() if sum(v) == m]
        positions = wall[:k]
        self._blocking = list(range(len(positions)))
        depot = (n - 1,) * d
        self._reserve = list(range(len(positions), k))
        positions += [depot] * (k - len(positions))
        self._level = m
        return positions

    def _slice_targets(self, graph, level):
        """Vertices of the next level the downshift cannot reach: those with
        the shift coordinate already at n-1."""
        n = graph.dims[0].length
        rest = level - 1 - (n - 1)
        if rest < 0:
            return []
        out = []
        for v in graph.vertices():
            if v[self.shift_axis] == n - 1 and sum(v) == level - 1:
                out.append(v)
        return out

    def move(self, state):
        g = state.graph
        n = g.dims[0].length
        axis = self.shift_axis
        if self._map is None:
            total = g.ndim * (n - 1)
            if sum(state.robber) > self._level:
                self._map = CoordMap(g, reflect=(True,) * g.ndim)
                self._level = total - self._level
            else:
                self._map = CoordMap(g)
            self._targets = {}

        cm = self._map
        canon = [cm.apply(c) for c in state.cops]
        dests = list(canon)

        if not self._targets:
            wanted = self._slice_targets(g, self._level)
            pool = sorted(self._reserve, key=lambda i: canon[i])
            self._targets = dict(zip(pool, sorted(wanted)))

        in_transit = {
            i: t for i, t in self._targets.items() if canon[i] != t
        }
        if in_transit:
            for i, target in in_transit.items():
                dests[i] = _lex_step(g, canon[i], target)
            self.last_annotations = {"phase": "transit", "level": self._level}
        else:
            # shift: the wall steps down along the shift axis; cops already
            # on the axis floor hold still, arrived reserves become wall
            for i in self._blocking:
                v = canon[i]
                if v[axis] >= 1:
                    dests[i] = v[:axis] + (v[axis] - 1,) + v[axis + 1 :]
            self._level -= 1
            new_wall, new_reserve = [], []
            for i in range(len(dests)):
                (new_wall if sum(dests[i]) == self._level else new_reserve).append(i)
            self._blocking, self._reserve = new_wall, new_reserve
            self._targets = {}
            self.last_annotations = {"phase": "shift", "level": self._level, "boundary": 1}

        return [cm.invert(d) for d in dests]


def _lex_step(g, src, dst):
    """One step along the lexicographic shortest path from src to dst:
    lowest differing dimension first, decreasing before increasing."""
    for i, d in enumerate(g.dims):
        a, b = src[i], dst[i]
        if a == b:
            continue
        length = d.length
        if d.wrap:
            delta = (b - a) % length
            step = -1 if delta >= length - delta else 1
        else:
            step = 1 if b > a else -1
        c = (a + step) % length if d.wrap else a + step
        return src[:i] + (c,) + src[i + 1 :]
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
        return [graph.vertex_at(i * total // k) for i in range(k)]

    def move(self, state):
        return [_lex_step(state.graph, c, state.robber) for c in state.cops]


class RandomCops(CopStrategy):
    """Independently uniform moves over each cop's closed neighborhood."""

    name = "random"

    def place(self, graph, k):
        total = graph.vertex_count
        return [graph.vertex_at(self.rng.randrange(total)) for _ in range(k)]

    def move(self, state):
        g = state.graph
        dests = []
        for c in state.cops:
            options = sorted(g.neighbors(c) | {c})
            dests.append(self.rng.choice(options))
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
