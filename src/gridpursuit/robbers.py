"""Robber-side strategies.

Each evader implements the selection rule of one evasion proof and keeps
that proof's per-turn guarantees as checkable predicates: with
check_invariants set, every turn that breaks a guarantee appends an entry
to .violations (the move emitted stays legal either way).  A strategy
asked to play outside its guarantee (too many cops, graph too small)
either refuses at construction or, when built with allow_excess_cops,
degrades to the max-component heuristic with a trace annotation.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import GameState, Phase, RobberStrategy, reachable_mask
from .errors import ConfigurationError, StrategyFault, require
from .grid import CoordMap, GraphSpec, format_graph, is_hypercube, lattice, parse_graph

__all__ = [
    "StationaryRobber",
    "RandomRobber",
    "MaxComponentRobber",
    "Grid2DEvader",
    "TorusEvader",
    "Grid3DEvader",
    "PotentialEvader",
    "RetractLift",
    "PotentialLedger",
    "potential",
    "potential_ledger",
    "potential_cop_budget",
    "grid2d_cop_budget",
    "torus_cop_budget",
    "grid3d_cop_budget",
    "clamp_retraction",
    "validate_retraction",
    "ROBBER_STRATEGIES",
    "make_robber_strategy",
]


# --------------------------------------------------------------------------
# Heuristic robbers
# --------------------------------------------------------------------------


class StationaryRobber(RobberStrategy):
    """Places on the first cop-free vertex in index order and never moves."""

    name = "stationary"

    def place(self, graph, cops):
        occupied = set(cops)
        for v in graph.vertices():
            if v not in occupied:
                return v
        raise StrategyFault("no free vertex", side="robber")

    def move(self, state):
        return state.robber


class RandomRobber(RobberStrategy):
    """Uniform choices: placement over free vertices, moves over the
    reachable component (staying put included)."""

    name = "random"

    def place(self, graph, cops):
        occupied = set(cops)
        free = [v for v in graph.vertices() if v not in occupied]
        return self.rng.choice(free)

    def move(self, state):
        reach = reachable_mask(state.graph, state.cops, state.robber)
        return self.rng.choice(lattice(state.graph).vertices_of(reach))


class MaxComponentRobber(RobberStrategy):
    """Greedy safety heuristic.

    Placement picks inside a largest cop-free component; among the
    candidate vertices (largest components at placement, the reachable
    component afterwards) it maximizes the distance to the nearest cop,
    breaking ties toward the lexicographically smallest vertex.
    """

    name = "max-component"

    @staticmethod
    def choose(graph, cops, candidate_mask):
        """Candidate farthest from the nearest cop, ties to the lowest
        vertex index (multi-source BFS over the full graph)."""
        if not candidate_mask:
            return None
        lat = lattice(graph)
        frontier = seen = lat.mask_of(cops)
        last_hit = candidate_mask if not frontier else (frontier & candidate_mask)
        while frontier:
            frontier = lat.expand(frontier) & ~seen
            seen |= frontier
            hit = frontier & candidate_mask
            if hit:
                last_hit = hit
        if not last_hit:
            last_hit = candidate_mask
        low = last_hit & -last_hit
        return graph.vertex_at(low.bit_length() - 1)

    def place(self, graph, cops):
        lat = lattice(graph)
        comps = lat.components(lat.mask_of(cops))
        if not comps:
            raise StrategyFault("no free vertex", side="robber")
        top = max(c.bit_count() for c in comps)
        candidates = 0
        for c in comps:
            if c.bit_count() == top:
                candidates |= c
        return self.choose(graph, cops, candidates)

    def move(self, state):
        mask = reachable_mask(state.graph, state.cops, state.robber)
        return self.choose(state.graph, state.cops, mask)


# --------------------------------------------------------------------------
# Two-dimensional grid evader
# --------------------------------------------------------------------------


def grid2d_cop_budget(n: int) -> int:
    return n - 2


class Grid2DEvader(RobberStrategy):
    """Evades n-2 cops on an n x n grid (n >= 4).

    Selection each turn (after the cops move):

    * sparse window: if some k in 2..n-2 consecutive boundary rows hold at
      most k-2 cops, pick the half of that window with at most
      floor((k-2)/2) cops as the sector.  With the sector's top two rows
      clean, sit on its top row; otherwise find four consecutive sector
      rows holding at most one cop and sit in their middle two rows, never
      adjacent to a cop and never in the sector's exposed column.  Columns
      are tried with the board transposed when no row window qualifies.
    * rigid case: otherwise the cops form the one-per-line pattern; sit on
      whichever of the two boundary rows is empty, away from the corners
      (transposed retry included).

    Tie-breaks, in order: rows before columns, smaller window first, top
    before bottom, right half before left, then scanning row-major from
    the low corner of the canonical frame.  The per-turn guarantees
    checked: (1) if a cop-free row is reachable so is the target, (2) the
    target has no adjacent cop, (3) after the next cop move a cop-free row
    is still reachable.
    """

    name = "grid2d-evader"

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops
        self._fallback = MaxComponentRobber()
        self.fallback_moves = 0

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 2
            and not any(d.wrap for d in graph.dims)
            and graph.dims[0].length == graph.dims[1].length,
            f"grid evader needs a square grid, got {format_graph(graph)}",
        )
        self._fallback.reset(graph, rng)
        self.fallback_moves = 0
        self._n = graph.dims[0].length
        self._degraded = self._n <= 3
        self._pending = False
        self._row_masks = _line_masks(graph, axis=1)

    def _check_budget(self, cops):
        if len(cops) > grid2d_cop_budget(self._n) and not self._degraded:
            if not self.allow_excess_cops:
                raise ConfigurationError(
                    f"{len(cops)} cops exceed the evasion budget {grid2d_cop_budget(self._n)}"
                )
            return False
        return not self._degraded

    def _free_line_reachable(self, cops, reach, masks, axis):
        taken = {c[axis] for c in cops}
        for i, m in enumerate(masks):
            if i not in taken and (reach & m):
                return True
        return False

    def place(self, graph, cops):
        in_budget = self._check_budget(cops)
        v = cert = None
        if not self._degraded:
            v, cert = self._select(graph, cops)
        if v is None:
            if in_budget and not self._degraded:
                raise StrategyFault("grid evader found no admissible target", side="robber")
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.place(graph, cops)
        self.last_annotations = cert
        if self.check_invariants and any(
            graph.distance(v, c) <= 1 for c in cops
        ):
            self.violations.append(f"placement {v} adjacent to a cop")
        self._pending = True
        return v

    def move(self, state):
        g = state.graph
        cops = state.cops
        in_budget = self._check_budget(cops)
        reach = reachable_mask(g, cops, state.robber)

        if self.check_invariants and self._pending:
            # guarantee (3) for the previous target: a cop-free row must
            # still be reachable now that the cops have answered
            if not self._free_line_reachable(cops, reach, self._row_masks, 1):
                self.violations.append(
                    f"round {state.round}: no free row reachable from {state.robber}"
                )
        self._pending = False

        v = cert = None
        if not self._degraded:
            v, cert = self._select(g, cops)
        if v is None:
            if in_budget and not self._degraded:
                raise StrategyFault("grid evader found no admissible target", side="robber")
            return self._move_fallback(state)

        if self.check_invariants:
            if any(g.distance(v, c) <= 1 for c in cops):
                self.violations.append(f"round {state.round}: target {v} adjacent to a cop")
            if self._free_line_reachable(cops, reach, self._row_masks, 1) and not (
                reach >> g.index(v) & 1
            ):
                self.violations.append(
                    f"round {state.round}: free row reachable but target {v} is not"
                )

        if not reach >> g.index(v) & 1:
            if in_budget:
                raise StrategyFault(f"selected target {v} unreachable", side="robber")
            return self._move_fallback(state)
        self.last_annotations = cert
        self._pending = True
        return v

    def _move_fallback(self, state):
        self.fallback_moves += 1
        self.last_annotations = {"fallback": 1}
        return self._fallback.move(state)

    # -- selection ---------------------------------------------------------

    def _select(self, g, cops):
        n = self._n
        c0_high = (n + 1) // 2  # first column of the upper-coordinate half
        for perm, axes_label in (((0, 1), "rows"), ((1, 0), "cols")):
            for k in range(2, n - 1):
                for flip_y in (False, True):
                    cm = CoordMap(g, perm=perm, reflect=(False, flip_y))
                    cc = [cm.apply(c) for c in cops]
                    strip = [c for c in cc if c[1] < k]
                    if len(strip) > k - 2:
                        continue
                    threshold = (k - 2) // 2
                    high = sum(1 for c in strip if c[0] >= c0_high)
                    for flip_x, count, width in (
                        (False, high, n - c0_high),
                        (True, len(strip) - high, c0_high),
                    ):
                        if count > threshold:
                            continue
                        cmf = CoordMap(g, perm=perm, reflect=(flip_x, flip_y))
                        v = _sector_pick(g, [cmf.apply(c) for c in cops], k, width)
                        if v is not None:
                            side = ("bottom" if flip_y else "top") + "-" + (
                                "left" if flip_x else "right"
                            )
                            return cmf.invert(v), {
                                "case": f"sparse-{axes_label}",
                                "window": k,
                                "sector": side,
                            }
        for perm, axes_label in (((0, 1), "rows"), ((1, 0), "cols")):
            cm = CoordMap(g, perm=perm)
            v = _rigid_pick(g, [cm.apply(c) for c in cops])
            if v is not None:
                return cm.invert(v), {"case": f"rigid-{axes_label}"}
        return None, None


def _line_masks(g, axis):
    masks = [0] * g.dims[axis].length
    for v in g.vertices():
        masks[v[axis]] |= 1 << g.index(v)
    return masks


def _sector_pick(g, cc, k, width):
    """Canonical-frame sector choice: sector = top k rows of the last
    `width` columns.  Returns None when no admissible vertex exists."""
    n = g.dims[0].length
    if width < 2:
        return None
    c0 = n - width
    in_sector = [c for c in cc if c[1] < k and c[0] >= c0]
    if not any(c[1] <= 1 for c in in_sector):
        # sector's top two rows are clean: its top row (minus the exposed
        # column) has no neighbors outside those rows
        return (c0 + 1, 0)
    if k < 4:
        return None
    occupied = set(cc)
    for r in range(k - 3):
        if sum(1 for c in in_sector if r <= c[1] <= r + 3) <= 1:
            for y in (r + 1, r + 2):
                for x in range(c0 + 1, n):
                    v = (x, y)
                    if v not in occupied and all(g.distance(v, c) > 1 for c in cc):
                        return v
    return None


def _rigid_pick(g, cc):
    """Canonical-frame choice for the one-cop-per-line configuration: the
    empty one of the two top rows, off the boundary columns."""
    n = g.dims[0].length
    top_two = [c for c in cc if c[1] <= 1]
    if len(top_two) != 1:
        return None
    empty_row = 1 - top_two[0][1]
    occupied = set(cc)
    for x in range(1, n - 1):
        v = (x, empty_row)
        if v not in occupied and all(g.distance(v, c) > 1 for c in cc):
            return v
    return None


# --------------------------------------------------------------------------
# Torus evader
# --------------------------------------------------------------------------


def torus_cop_budget(n: int) -> int:
    return 2 * n - 25


class TorusEvader(RobberStrategy):
    """Evades 2n-25 cops on an n x n torus (n >= 18).

    The rows split into six bands of floor(n/6) or ceil(n/6) consecutive
    rows; some band holds at most 2h-5 cops (h its height), which forces
    at least three nearly empty rows (at most one cop each) and three
    consecutive band-empty columns.  The target is the second of those
    columns crossed with the second nearly empty row, which is never
    adjacent to a cop.  Tie-breaks: first qualifying band from row 0, the
    lowest starting column of an empty triple, nearly empty rows in band
    order.  Guarantees mirror the grid evader's with "nearly empty row"
    in place of "cop-free row".
    """

    name = "torus-evader"

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops
        self._fallback = MaxComponentRobber()
        self.fallback_moves = 0

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 2
            and all(d.wrap for d in graph.dims)
            and graph.dims[0].length == graph.dims[1].length,
            f"torus evader needs a square torus, got {format_graph(graph)}",
        )
        self._n = graph.dims[0].length
        require(self._n >= 18, f"torus evader needs n >= 18, got {self._n}")
        self._fallback.reset(graph, rng)
        self.fallback_moves = 0
        self._pending = False
        self._row_masks = _line_masks(graph, axis=1)

    def _check_budget(self, cops):
        if len(cops) > torus_cop_budget(self._n):
            if not self.allow_excess_cops:
                raise ConfigurationError(
                    f"{len(cops)} cops exceed the evasion budget {torus_cop_budget(self._n)}"
                )
            return False
        return True

    def _nearly_empty_reachable(self, cops, reach):
        counts = Counter(c[1] for c in cops)
        return any(
            counts[y] <= 1 and (reach & m) for y, m in enumerate(self._row_masks)
        )

    def place(self, graph, cops):
        in_budget = self._check_budget(cops)
        v, cert = self._select(graph, cops)
        if v is None:
            if in_budget:
                raise StrategyFault("torus evader found no admissible target", side="robber")
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.place(graph, cops)
        if self.check_invariants and any(graph.distance(v, c) <= 1 for c in cops):
            self.violations.append(f"placement {v} adjacent to a cop")
        self.last_annotations = cert
        self._pending = True
        return v

    def move(self, state):
        g = state.graph
        cops = state.cops
        in_budget = self._check_budget(cops)
        reach = reachable_mask(g, cops, state.robber)
        if self.check_invariants and self._pending:
            if not self._nearly_empty_reachable(cops, reach):
                self.violations.append(
                    f"round {state.round}: no nearly empty row reachable from {state.robber}"
                )
        self._pending = False

        v, cert = self._select(g, cops)
        if v is None:
            if in_budget:
                raise StrategyFault("torus evader found no admissible target", side="robber")
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.move(state)

        if self.check_invariants:
            if any(g.distance(v, c) <= 1 for c in cops):
                self.violations.append(f"round {state.round}: target {v} adjacent to a cop")
            if self._nearly_empty_reachable(cops, reach) and not reach >> g.index(v) & 1:
                self.violations.append(
                    f"round {state.round}: nearly empty row reachable but target {v} is not"
                )

        if not reach >> g.index(v) & 1:
            if in_budget:
                raise StrategyFault(f"selected target {v} unreachable", side="robber")
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.move(state)
        self.last_annotations = cert
        self._pending = True
        return v

    def _select(self, g, cops):
        n = self._n
        d, r = divmod(n, 6)
        heights = [d + 1] * r + [d] * (6 - r)
        row_count = Counter(c[1] for c in cops)
        start = 0
        band = None
        for h in heights:
            if sum(row_count[y] for y in range(start, start + h)) <= 2 * h - 5:
                band = (start, h)
                break
            start += h
        if band is None:
            return None, None
        start, h = band
        nearly = [y for y in range(start, start + h) if row_count[y] <= 1]
        if len(nearly) < 3:
            return None, None
        band_cols = {c[0] for c in cops if start <= c[1] < start + h}
        col = None
        for s in range(n):
            if all((s + j) % n not in band_cols for j in range(3)):
                col = (s + 1) % n
                break
        if col is None:
            return None, None
        v = (col, nearly[1])
        return v, {"case": "band", "band_start": start, "band_height": h}


# --------------------------------------------------------------------------
# Three-dimensional grid evader
# --------------------------------------------------------------------------


def grid3d_cop_budget(n: int) -> int:
    return int(0.7172 * n * n)


_HALVES_ORDER = (
    ("top", 2, 1),
    ("bottom", 2, 0),
    ("front", 1, 1),
    ("back", 1, 0),
    ("right", 0, 1),
    ("left", 0, 0),
)


@dataclass
class RegionChain:
    """The nested sparse regions one selection walks through."""

    half: str
    quadrant: str
    octant: str
    octant_ranges: dict
    octant_cops: int
    plane_group: tuple
    plane_group_cops: int
    sparse_block: tuple
    sparse_block_cops: int
    empty_block: tuple | None


class Grid3DEvader(RobberStrategy):
    """Targets 0.7172*n^2 cops on an n x n x n grid, n divisible by 10.

    Each turn: descend sparsest half -> sparsest quadrant inside it ->
    sparsest octant inside that (ties in the fixed order top/bottom,
    front/back, right/left); inside the octant pick the sparsest group of
    five consecutive planes, then the sparsest width-5 slab across it, and
    finally scan for a cop-free 3x5x5 block; the target is that block's
    center, which has no adjacent cop.  When no cop-free block exists (the
    guarantee is asymptotic; small boards can run out of room) the move
    degrades to the max-component heuristic with a `fallback` annotation
    rather than faulting.

    Checked per turn: the octant holds at most one eighth of the cops, the
    plane group at most 0.8965n when the budget is respected, the chosen
    block is cop-free, and (after the cops answer) the robber is still in
    a largest cop-free component.
    """

    name = "grid3d-evader"

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops
        self._fallback = MaxComponentRobber()
        self.fallback_moves = 0
        self.component_failures = 0

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 3
            and not any(d.wrap for d in graph.dims)
            and len({d.length for d in graph.dims}) == 1,
            f"3d evader needs a cubic grid, got {format_graph(graph)}",
        )
        self._n = graph.dims[0].length
        require(self._n % 10 == 0, f"3d evader needs n divisible by 10, got {self._n}")
        self._fallback.reset(graph, rng)
        self.fallback_moves = 0
        self.component_failures = 0
        self._pending = False

    def _check_budget(self, cops):
        if len(cops) > grid3d_cop_budget(self._n):
            if not self.allow_excess_cops:
                raise ConfigurationError(
                    f"{len(cops)} cops exceed the target budget {grid3d_cop_budget(self._n)}"
                )
            return False
        return True

    def place(self, graph, cops):
        self._check_budget(cops)
        v = self._pick(graph, cops, reach=None)
        self._pending = v is not None
        if v is None:
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.place(graph, cops)
        return v

    def move(self, state):
        g = state.graph
        cops = state.cops
        self._check_budget(cops)
        lat = lattice(g)
        blocked = lat.mask_of(cops)
        reach = lat.component(g.index(state.robber), blocked)

        if self.check_invariants and self._pending:
            sizes = [c.bit_count() for c in lat.components(blocked)]
            if reach.bit_count() < max(sizes):
                self.component_failures += 1
                self.violations.append(
                    f"round {state.round}: {state.robber} not in a largest component"
                )
        self._pending = False

        v = self._pick(g, cops, reach)
        if v is None:
            self.fallback_moves += 1
            self.last_annotations = {"fallback": 1}
            return self._fallback.move(state)
        self._pending = True
        return v

    def _pick(self, g, cops, reach):
        chain = self._chain(g, cops)
        self._record_chain_checks(chain, len(cops))
        if chain.empty_block is None:
            return None
        x0, y0, z0 = chain.empty_block
        v = (x0 + 1, y0 + 2, z0 + 2)
        if self.check_invariants and any(g.distance(v, c) <= 1 for c in cops):
            self.violations.append(f"target {v} adjacent to a cop")
        if reach is not None and not reach >> g.index(v) & 1:
            # target sits in another component: degrade rather than fault
            return None
        self.last_annotations = {
            "case": "region-chain",
            "half": chain.half,
            "quadrant": chain.quadrant,
            "octant": chain.octant,
            "block": f"{chain.empty_block}",
        }
        return v

    def _record_chain_checks(self, chain, total):
        if not self.check_invariants:
            return
        if 8 * chain.octant_cops > total:
            self.violations.append(
                f"octant {chain.octant} holds {chain.octant_cops} of {total} cops"
            )
        if total <= grid3d_cop_budget(self._n) and chain.plane_group_cops > 0.8965 * self._n:
            self.violations.append(
                f"plane group {chain.plane_group} holds {chain.plane_group_cops} cops"
            )

    def _chain(self, g, cops):
        n = self._n
        split = (n + 1) // 2  # == n/2 for the even sides used here

        def in_ranges(c, ranges):
            return all(ranges[a][0] <= c[a] <= ranges[a][1] for a in range(3))

        def count(ranges):
            return sum(1 for c in cops if in_ranges(c, ranges))

        def sparsest(options):
            best = None
            for label, ranges in options:
                k = count(ranges)
                if best is None or k < best[2]:
                    best = (label, ranges, k)
            return best

        full = {0: (0, n - 1), 1: (0, n - 1), 2: (0, n - 1)}
        halves = []
        for name, axis, side in _HALVES_ORDER:
            ranges = dict(full)
            ranges[axis] = (split, n - 1) if side else (0, split - 1)
            halves.append((name, ranges))
        h_name, h_ranges, _ = sparsest(halves)
        used_axis = next(a for a in (2, 1, 0) if h_ranges[a] != full[a])

        quadrants = []
        for name, axis, side in _HALVES_ORDER:
            if axis == used_axis:
                continue
            ranges = dict(h_ranges)
            ranges[axis] = (split, n - 1) if side else (0, split - 1)
            quadrants.append((f"{h_name}-{name}", ranges))
        q_name, q_ranges, _ = sparsest(quadrants)
        q_axes = {a for a in range(3) if q_ranges[a] != full[a]}

        octants = []
        for name, axis, side in _HALVES_ORDER:
            if axis in q_axes:
                continue
            ranges = dict(q_ranges)
            ranges[axis] = (split, n - 1) if side else (0, split - 1)
            octants.append((f"{q_name}-{name}", ranges))
        o_name, o_ranges, o_count = sparsest(octants)

        # sparsest group of five consecutive planes (z windows)
        zlo, _ = o_ranges[2]
        groups = []
        for i in range(n // 10):
            ranges = dict(o_ranges)
            ranges[2] = (zlo + 5 * i, zlo + 5 * i + 4)
            groups.append((ranges[2], ranges))
        g_label, g_ranges, g_count = sparsest(groups)

        # sparsest width-5 slab across the group (y windows)
        ylo, _ = g_ranges[1]
        slabs = []
        for i in range(n // 10):
            ranges = dict(g_ranges)
            ranges[1] = (ylo + 5 * i, ylo + 5 * i + 4)
            slabs.append((ranges[1], ranges))
        s_label, s_ranges, s_count = sparsest(slabs)

        # first cop-free 3x5x5 block scanning along x
        xlo, xhi = s_ranges[0]
        block = None
        for x0 in range(xlo, xhi - 1):
            ranges = dict(s_ranges)
            ranges[0] = (x0, x0 + 2)
            if count(ranges) == 0:
                block = (x0, s_ranges[1][0], s_ranges[2][0])
                break
        return RegionChain(
            half=h_name,
            quadrant=q_name,
            octant=o_name,
            octant_ranges=o_ranges,
            octant_cops=o_count,
            plane_group=g_label,
            plane_group_cops=g_count,
            sparse_block=s_label,
            sparse_block_cops=s_count,
            empty_block=block,
        )


# --------------------------------------------------------------------------
# Hypercube potential evader
# --------------------------------------------------------------------------


def potential_cop_budget(n: int) -> int:
    return int(2 ** (n - 3) / (n * math.log(n))) - 1


def potential(g: GraphSpec, cops, v) -> Fraction:
    """Total pressure the cops exert on vertex v of a hypercube.

    A cop on v counts 1; a cop at distance d counts 1 / C(n, d-1).  Exact
    rational arithmetic: the 1/2 threshold the evader plays against is
    sharp.
    """
    require(is_hypercube(g), "potential is defined on hypercubes only")
    n = g.ndim
    total = Fraction(0)
    for c in cops:
        d = g.distance(c, v)
        total += Fraction(1) if d == 0 else Fraction(1, math.comb(n, d - 1))
    return total


@dataclass(frozen=True)
class PotentialLedger:
    """Per-cop potential decomposition at one vertex."""

    per_cop: tuple
    total: Fraction


def potential_ledger(g: GraphSpec, cops, v) -> PotentialLedger:
    require(is_hypercube(g), "potential is defined on hypercubes only")
    n = g.ndim
    per = []
    for c in cops:
        d = g.distance(c, v)
        per.append(Fraction(1) if d == 0 else Fraction(1, math.comb(n, d - 1)))
    return PotentialLedger(tuple(per), sum(per, Fraction(0)))


class PotentialEvader(RobberStrategy):
    """Keeps the cops' total potential below 1/2 on the hypercube.

    Every placement and move goes to the reachable vertex of minimal
    potential (ties to the lexicographically smallest vertex); the proof
    guarantees a below-1/2 choice exists against the stated budget, so a
    turn where the minimum is >= 1/2 is recorded as a violation and
    annotated, but the move (that same minimizer) is still played.

    Potentials are compared exactly: every weight is an integer after
    scaling by lcm(C(n,0..n-1)), so numpy int64 score vectors decide the
    argmin and the 1/2 test without rounding.
    """

    name = "cube-potential"

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(is_hypercube(graph), f"potential evader needs a hypercube, got {format_graph(graph)}")
        n = graph.ndim
        self._n = n
        size = 1 << n
        idx = np.arange(size, dtype=np.int64)
        pop = np.zeros(size, dtype=np.int64)
        for bit in range(n):
            pop += (idx >> bit) & 1
        self._idx = idx
        self._pop = pop
        self._lcm = math.lcm(*(math.comb(n, k) for k in range(n)))
        weights = [self._lcm]  # distance 0: full weight
        weights += [self._lcm // math.comb(n, d - 1) for d in range(1, n + 1)]
        self._weights = np.array(weights, dtype=np.int64)
        # int64 headroom check: max score = k * lcm must not overflow
        if self._lcm >= (1 << 48):
            raise ConfigurationError(f"hypercube dimension {n} too large for exact scoring")

    def _check_budget(self, cops):
        budget = max(potential_cop_budget(self._n), 0)
        if len(cops) > budget and not self.allow_excess_cops:
            raise ConfigurationError(
                f"{len(cops)} cops exceed the evasion budget {budget}"
            )

    def _scores(self, graph, cops):
        total = np.zeros(len(self._idx), dtype=np.int64)
        stacks = Counter(graph.index(c) for c in cops)  # cops often co-locate
        for ci, count in stacks.items():
            total += count * self._weights[self._pop[self._idx ^ ci]]
        return total

    def _pick(self, graph, cops, allowed_mask):
        scores = self._scores(graph, cops)
        allowed = lattice(graph).bits_of(allowed_mask)
        blocked_score = self._lcm * (len(cops) + 1) + 1
        scores = np.where(allowed, scores, blocked_score)
        i = int(np.argmin(scores))
        score = int(scores[i])
        phi = Fraction(score, self._lcm)
        self.last_annotations = {"phi": str(phi)}
        if 2 * score >= self._lcm:
            self.last_annotations["phi_fallback"] = 1
            if self.check_invariants:
                self.violations.append(f"minimum potential {phi} is not below 1/2")
        return graph.vertex_at(i)

    def place(self, graph, cops):
        self._check_budget(cops)
        lat = lattice(graph)
        free = lat.full & ~lat.mask_of(cops)
        return self._pick(graph, cops, free)

    def move(self, state):
        self._check_budget(state.cops)
        reach = reachable_mask(state.graph, state.cops, state.robber)
        return self._pick(state.graph, state.cops, reach)


# --------------------------------------------------------------------------
# Retraction lift
# --------------------------------------------------------------------------


def clamp_retraction(outer: GraphSpec, inner: GraphSpec):
    """Coordinatewise clamp onto a lower corner subgrid of the same arity."""
    require(outer.ndim == inner.ndim, "clamp needs matching dimension counts")
    require(
        not any(d.wrap for d in outer.dims) and not any(d.wrap for d in inner.dims),
        "clamp retraction applies to products of paths",
    )
    require(
        all(i.length <= o.length for i, o in zip(inner.dims, outer.dims)),
        "inner graph must fit inside the outer graph",
    )
    tops = tuple(d.length - 1 for d in inner.dims)
    return lambda v: tuple(min(c, t) for c, t in zip(v, tops))


def validate_retraction(phi, outer: GraphSpec, inner: GraphSpec, sample_limit=20000, seed=0):
    """Check phi is a retraction: maps into the subgraph, fixes it
    pointwise, and sends edges to edges or single vertices.  Exhaustive up
    to sample_limit outer vertices, seeded sampling beyond."""
    import random as _random

    if outer.vertex_count <= sample_limit:
        vertices = list(outer.vertices())
    else:
        rng = _random.Random(seed)
        total = outer.vertex_count
        vertices = [outer.vertex_at(rng.randrange(total)) for _ in range(sample_limit)]
    for v in vertices:
        image = phi(v)
        if not inner.contains(image):
            raise ConfigurationError(f"phi({v}) = {image} leaves the inner graph")
        if inner.contains(v) and image != v:
            raise ConfigurationError(f"phi moves inner vertex {v} to {image}")
        for w in outer.neighbors(v):
            iw = phi(w)
            if iw != image and inner.distance(image, iw) != 1:
                raise ConfigurationError(
                    f"edge {v}-{w} maps to non-edge {image}-{iw}"
                )


class RetractLift(RobberStrategy):
    """Plays an inner-graph evasion strategy on a larger graph.

    Cop positions are mapped through the retraction before the inner
    strategy sees them; the inner strategy's chosen vertex is played
    directly (the robber never leaves the subgraph, and any cop-free path
    between subgraph vertices avoiding the cop images avoids the cops).
    """

    def __init__(self, inner_strategy: RobberStrategy, outer: GraphSpec, inner: GraphSpec, phi=None):
        super().__init__()
        self.inner_strategy = inner_strategy
        self.outer = outer
        self.inner = inner
        self.phi = phi if phi is not None else clamp_retraction(outer, inner)
        validate_retraction(self.phi, outer, inner)
        self.name = f"retract:{inner_strategy.name}/{format_graph(inner)}"

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(graph == self.outer, "retract lift bound to a different graph")
        self.inner_strategy.reset(self.inner, rng)
        self.inner_strategy.check_invariants = self.check_invariants
        self._prev_images = None
        self._inner_seen = 0

    def _images(self, cops):
        images = tuple(self.phi(c) for c in cops)
        if self.check_invariants and self._prev_images is not None:
            for i, (a, b) in enumerate(zip(self._prev_images, images)):
                if a != b and self.inner.distance(a, b) != 1:
                    self.violations.append(f"cop {i} image jumped {a} -> {b}")
        self._prev_images = images
        return images

    def _pull_inner_violations(self):
        new = self.inner_strategy.violations[self._inner_seen :]
        self.violations.extend(new)
        self._inner_seen = len(self.inner_strategy.violations)

    def place(self, graph, cops):
        self.inner_strategy.check_invariants = self.check_invariants
        v = self.inner_strategy.place(self.inner, self._images(cops))
        self._pull_inner_violations()
        self.last_annotations = dict(self.inner_strategy.last_annotations)
        if self.check_invariants and not self.inner.contains(v):
            self.violations.append(f"lifted robber left the subgraph: {v}")
        return v

    def move(self, state):
        shadow = GameState(
            self.inner,
            self._images(state.cops),
            state.robber,
            Phase.ROBBER_TURN,
            state.round,
        )
        v = self.inner_strategy.move(shadow)
        self._pull_inner_violations()
        self.last_annotations = dict(self.inner_strategy.last_annotations)
        if self.check_invariants and not self.inner.contains(v):
            self.violations.append(f"lifted robber left the subgraph: {v}")
        return v


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

ROBBER_STRATEGIES = {
    cls.name: cls
    for cls in (
        Grid2DEvader,
        TorusEvader,
        Grid3DEvader,
        PotentialEvader,
        MaxComponentRobber,
        StationaryRobber,
        RandomRobber,
    )
}


def make_robber_strategy(name: str, graph: GraphSpec | None = None) -> RobberStrategy:
    """Build a robber strategy from its registry name.

    The form ``retract:<inner>/<graph-spec>`` lifts <inner> (a plain
    registry name) from the clamp target onto the match graph, which must
    be supplied.
    """
    if name.startswith("retract:"):
        inner_name, sep, clamp_spec = name[len("retract:") :].partition("/")
        if not sep:
            raise ConfigurationError(
                f"retract strategy needs the form retract:<inner>/<graph>, got {name!r}"
            )
        if inner_name.startswith("retract:"):
            raise ConfigurationError("nested retract strategies are not supported")
        if graph is None:
            raise ConfigurationError("retract strategy needs the match graph")
        inner_graph = parse_graph(clamp_spec)
        return RetractLift(make_robber_strategy(inner_name), graph, inner_graph)
    try:
        return ROBBER_STRATEGIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown robber strategy {name!r}; known: "
            f"{', '.join(sorted(ROBBER_STRATEGIES))} and retract:<inner>/<graph>"
        ) from None
