"""Robber-side strategies.

Each evader implements the selection rule of one evasion proof and keeps
that proof's per-turn guarantees as checkable predicates: with
check_invariants set, every turn that breaks a guarantee appends an entry
to .violations (the move emitted stays legal either way).

The grid, torus and 3D evaders share one turn loop, which builds one board
of the cops per turn (see _ProofEvader): select(board) reads the proof's
window counts off it, and board.near, the bitboard of the cops' closed
neighbourhoods, tests a target for an adjacent cop in one bit.  The grid
and torus board holds per-line cop counts, built in one pass over the cops
(_LineBoard); the 3D board holds the cop counts as a numpy array shaped
like the graph (_Board).  A row guarantee applies the evader's _safe_rows
rule to per-row counts.  They share one contract for turns outside their
guarantee:

* more cops than the proof's budget raise ConfigurationError, unless the
  evader is built with allow_excess_cops; a 2D board with n <= 3 has no
  guarantee, never raises and always falls back;
* outside the budget, a turn whose selection finds no target, or a target
  the robber cannot reach, is played by the max-component heuristic with a
  `fallback` annotation and counted in fallback_moves;
* within the budget such a turn is a StrategyFault for the grid and torus
  evaders; the 3D guarantee is asymptotic, so the 3D evader falls back;
* after the cops answer one of the proof's moves, the grid evader checks
  that a cop-free row is reachable, the torus evader a nearly empty row,
  and the 3D evader that the robber is in a largest cop-free component
  (its misses also count in component_failures).

The hypercube potential evader refuses excess cops the same way but has no
fallback: it always plays its minimizer.

Like the engine, strategies see and answer positions as vertex indices;
the evaders select in coordinates where their proofs do, and violations
name vertices by their coordinates.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .engine import GameState, Phase, RobberStrategy, reachable_mask
from .errors import ConfigurationError, StrategyFault, require
from .grid import GraphSpec, format_graph, is_hypercube, lattice, parse_graph

__all__ = [
    "StationaryRobber",
    "RandomRobber",
    "MaxComponentRobber",
    "Grid2DEvader",
    "TorusEvader",
    "Grid3DEvader",
    "PotentialEvader",
    "RetractLift",
    "potential",
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


def _free_mask(graph, cops):
    """Bitboard of the cop-free vertices; a robber placed with none faults."""
    lat = lattice(graph)
    free = lat.full & ~lat.mask_of(cops)
    if not free:
        raise StrategyFault("no free vertex", side="robber")
    return free


class StationaryRobber(RobberStrategy):
    """Places on the first cop-free vertex in index order (the lowest free
    bit) and never moves."""

    name = "stationary"

    def place(self, graph, cops):
        free = _free_mask(graph, cops)
        return (free & -free).bit_length() - 1

    def move(self, state):
        return state.robber


class RandomRobber(RobberStrategy):
    """Uniform choices: placement over free vertices, moves over the
    reachable component (staying put included)."""

    name = "random"

    def place(self, graph, cops):
        return self._draw(graph, _free_mask(graph, cops))

    def move(self, state):
        return self._draw(state.graph, reachable_mask(state.graph, state.cops, state.robber))

    def _draw(self, graph, mask):
        # randrange(count) is the draw rng.choice makes over the members in
        # index order
        i = self.rng.randrange(mask.bit_count())
        return int(np.flatnonzero(lattice(graph).bits_of(mask))[i])


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
        vertex index; a candidate on a cop is at distance 0.

        A multi-source BFS from the cops, confined to the union of the
        cop-free components that hold a free candidate, and ended once
        every candidate has been reached.  It is exact: a shortest path
        from a free vertex to its nearest cop runs through free vertices
        joined to it, so inside its component, up to the cop.  The region
        is found by component from each component's lowest free candidate;
        for move's reachable set that is the component the lattice kept
        from reachable_mask's flood, so no new flood is made."""
        if not candidate_mask:
            return None
        lat = lattice(graph)
        frontier = blocked = lat.mask_of(cops)
        last_hit = blocked & candidate_mask
        left, rest = 0, candidate_mask & ~blocked
        while rest:
            comp = lat.component((rest & -rest).bit_length() - 1, blocked)
            left |= comp
            rest &= ~comp
        while frontier and candidate_mask & left:
            frontier = lat.expand(frontier) & left
            left ^= frontier
            hit = frontier & candidate_mask
            if hit:
                last_hit = hit
        if not last_hit:
            last_hit = candidate_mask
        low = last_hit & -last_hit
        return low.bit_length() - 1

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
# Proof-evader scaffold
# --------------------------------------------------------------------------


def _within_budget(cops, budget, allow_excess_cops):
    """Whether len(cops) is within the proof's budget; over it, refuse
    unless allow_excess_cops."""
    if len(cops) <= budget:
        return True
    if not allow_excess_cops:
        raise ConfigurationError(f"{len(cops)} cops exceed the evasion budget {budget}")
    return False


def _cop_counts(graph, cops):
    """The number of cops on each vertex, in vertex index order."""
    return np.bincount(np.fromiter(cops, dtype=np.intp, count=len(cops)),
                       minlength=graph.vertex_count)


class _Board(NamedTuple):
    """The 3D evader's board: occ counts one turn's cops on each vertex, an
    array of shape graph.lengths (window counts are its slice sums), and
    near is the bitboard of the cops' closed neighbourhoods.  With hundreds
    of cops on thousands of vertices, the array costs less than per-line
    counts built cop by cop."""

    occ: np.ndarray
    near: int


class _LineBoard(NamedTuple):
    """The grid and torus evaders' board: one turn's cops on an n x n board
    as per-line counts, with no per-vertex array.

    rows[y] counts the cops on row y (the vertices (x, y)) and cols[x]
    those on column x; rows_high and cols_high count only the cops whose
    other coordinate is on the high half, at least (n + 1) // 2.  cops
    lists the cop coordinates, and near is the bitboard of the cops' closed
    neighbourhoods, in which vertex (x, y) is bit x * n + y.
    """

    rows: list
    cols: list
    rows_high: list
    cols_high: list
    cops: list
    near: int

    def lines(self, transposed):
        """(per-line totals, high-half counts) of the rows, or of the
        columns when transposed."""
        return (self.cols, self.cols_high) if transposed else (self.rows, self.rows_high)

    def near_cop(self, v):
        """Whether a cop stands on v = (x, y) or next to it (1 or 0)."""
        x, y = v
        return self.near >> x * len(self.rows) + y & 1


class _ProofEvader(RobberStrategy):
    """Turn loop of the grid, torus and 3D evaders (see the module doc).

    A subclass gives the proof's cop budget (budget: n -> cops), its
    selection rule (select(board) -> (target or None, annotations)) and the
    guarantee it checks after the cops answer a proof move
    (post_move_check(state, board, reach)).  Every turn builds one board of
    the cops and tests the target's bit in board.near.  The board kind is
    fixed per class: by default a _LineBoard of per-line counts, built in
    one pass over the cops, which the grid and torus evaders read; the 3D
    evader builds the numpy _Board instead.  Either board's near is the
    lattice's expand of the cops' mask, which mask_of keeps for the turn's
    reachable_mask call on the same cops.

    The default post-move check is the row guarantee of the 2D and torus
    evaders: some row y (the vertices (x, y)) that `_safe_rows` admits,
    given its cop count, is reachable, and while one is, the target is
    reachable too.  Reach meets row y where it meets the row's bitboard,
    bits x * n + y, built at reset.
    """

    _row = None
    _safe_rows = None

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops
        self._fallback = MaxComponentRobber()
        self.fallback_moves = 0

    def reset(self, graph, rng):
        super().reset(graph, rng)
        n = self._n = graph.dims[0].length
        self._lat = lattice(graph)
        if self._safe_rows is not None:
            row0 = sum(1 << x * n for x in range(n))
            self._row_bits = [row0 << y for y in range(n)]
        self._fallback.reset(graph, rng)
        self.fallback_moves = 0
        self._pending = False  # the last move was the proof's: check it

    def _in_budget(self, cops):
        return _within_budget(cops, self.budget(self._n), self.allow_excess_cops)

    def _near(self, cops):
        """Bitboard of the cops' closed neighbourhoods."""
        lat = self._lat
        mask = lat.mask_of(cops)
        return mask | lat.expand(mask)

    def _board(self, cops):
        n = self._n
        half = (n + 1) // 2
        rows, cols, rows_high, cols_high = [0] * n, [0] * n, [0] * n, [0] * n
        near = self._near(cops)
        cops = [divmod(c, n) for c in cops]  # (x, y): index x * n + y
        for x, y in cops:
            rows[y] += 1
            cols[x] += 1
            if x >= half:
                rows_high[y] += 1
            if y >= half:
                cols_high[x] += 1
        return _LineBoard(rows, cols, rows_high, cols_high, cops, near)

    def _give_up(self, in_budget, why):
        """A turn without a usable target: a fault within the budget, where
        the proof rules it out; otherwise a fallback move follows."""
        if in_budget:
            raise StrategyFault(why, side="robber")
        self.fallback_moves += 1
        self.last_annotations = {"fallback": 1}

    def place(self, graph, cops):
        in_budget = self._in_budget(cops)
        board = self._board(cops)
        v, cert = self.select(board)
        if v is None:
            self._give_up(in_budget, f"{self.name} found no admissible target")
            return self._fallback.place(graph, cops)
        target = graph.index(v)
        if self.check_invariants and board.near >> target & 1:
            self.violations.append(f"placement {v} adjacent to a cop")
        self.last_annotations = cert
        self._pending = True
        return target

    def move(self, state):
        g, cops = state.graph, state.cops
        in_budget = self._in_budget(cops)
        board = self._board(cops)
        reach = reachable_mask(g, cops, state.robber)
        if self.check_invariants and self._pending:
            self.post_move_check(state, board, reach)
        self._pending = False

        v, cert = self.select(board)
        if v is None:
            self._give_up(in_budget, f"{self.name} found no admissible target")
            return self._fallback.move(state)
        target = g.index(v)
        reached = reach >> target & 1
        if self.check_invariants:
            if board.near >> target & 1:
                self.violations.append(f"round {state.round}: target {v} adjacent to a cop")
            if not reached and self._row_reachable(board, reach):
                self.violations.append(
                    f"round {state.round}: {self._row} reachable but target {v} is not"
                )
        if not reached:
            self._give_up(in_budget, f"selected target {v} unreachable")
            return self._fallback.move(state)
        self.last_annotations = cert
        self._pending = True
        return target

    def post_move_check(self, state, board, reach):
        if not self._row_reachable(board, reach):
            self.violations.append(
                f"round {state.round}: no {self._row} reachable from "
                f"{state.graph.vertex_at(state.robber)}"
            )

    def _row_reachable(self, board, reach):
        """Whether a row the proof keeps safe meets reach (an evader whose
        guarantee is not a row has none)."""
        if self._safe_rows is None:
            return False
        safe = self._safe_rows
        return any(reach & bits for bits, count in zip(self._row_bits, board.rows) if safe(count))


# --------------------------------------------------------------------------
# Two-dimensional grid evader
# --------------------------------------------------------------------------


def grid2d_cop_budget(n: int) -> int:
    return n - 2


class Grid2DEvader(_ProofEvader):
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

    Each case reads a canonical frame of the per-line counts (_Frame:
    columns for rows when transposed, an axis reversed per reflection),
    whose pick maps back to a board vertex by arithmetic; window totals are
    differences of prefix sums.  Tie-breaks, in order: rows before columns,
    smaller window first, top before bottom, right half before left, then
    scanning row-major from the low corner of the canonical frame.  The
    per-turn guarantees checked: (1) if a cop-free row is reachable so is
    the target, (2) the target has no adjacent cop, (3) after the next cop
    move a cop-free row is still reachable.
    """

    name = "grid2d-evader"
    budget = staticmethod(grid2d_cop_budget)
    _row = "free row"
    _safe_rows = staticmethod(lambda count: count == 0)

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 2
            and not any(d.wrap for d in graph.dims)
            and graph.dims[0].length == graph.dims[1].length,
            f"grid evader needs a square grid, got {format_graph(graph)}",
        )
        self._degraded = self._n <= 3

    def _in_budget(self, cops):
        # boards with n <= 3 have no guarantee: every turn falls back
        return not self._degraded and super()._in_budget(cops)

    # -- selection ---------------------------------------------------------

    def select(self, board):
        if self._degraded:
            return None, None
        n = self._n
        half = (n + 1) // 2  # first line of the upper-coordinate half
        for transposed, axes_label in ((False, "rows"), (True, "cols")):
            # cops on the lines before line i, in all and on the high half
            total_to, high_to = ([0, *accumulate(c)] for c in board.lines(transposed))
            for k in range(2, n - 1):
                for flip_y in (False, True):
                    lo, hi = (n - k, n) if flip_y else (0, k)
                    total = total_to[hi] - total_to[lo]
                    if total > k - 2:
                        continue
                    threshold = (k - 2) // 2
                    high = high_to[hi] - high_to[lo]
                    for flip_x, count, width in (
                        (False, high, n - half),
                        (True, total - high, half),
                    ):
                        if count > threshold:
                            continue
                        v = _sector_pick(board, _Frame(n, transposed, flip_x, flip_y), k, width)
                        if v is not None:
                            side = ("bottom" if flip_y else "top") + "-" + (
                                "left" if flip_x else "right"
                            )
                            return v, {
                                "case": f"sparse-{axes_label}",
                                "window": k,
                                "sector": side,
                            }
        for transposed, axes_label in ((False, "rows"), (True, "cols")):
            v = _rigid_pick(board, _Frame(n, transposed))
            if v is not None:
                return v, {"case": f"rigid-{axes_label}"}
        return None, None


class _Frame(NamedTuple):
    """A canonical orientation of an n x n board: rows are the board's
    columns when transposed, and each canonical axis runs backwards when
    its flip is set."""

    n: int
    transposed: bool
    flip_x: bool = False
    flip_y: bool = False

    def vertex(self, a, b):
        """The board vertex at canonical position (a, b)."""
        if self.flip_x:
            a = self.n - 1 - a
        if self.flip_y:
            b = self.n - 1 - b
        return (b, a) if self.transposed else (a, b)


def _sector_pick(board, frame, k, width):
    """Sector choice in a canonical frame: sector = top k rows of the last
    `width` columns, the high half of each line, or its low half when the
    frame is flipped in x.  Returns the board vertex, or None when no
    admissible vertex exists."""
    n = frame.n
    c0 = n - width
    lines, highs = board.lines(frame.transposed)
    rows = []  # cops per sector row
    for r in range(k):
        y = n - 1 - r if frame.flip_y else r
        rows.append(lines[y] - highs[y] if frame.flip_x else highs[y])
    if not rows[0] and not rows[1]:
        # sector's top two rows are clean: its top row (minus the exposed
        # column) has no neighbors outside those rows
        return frame.vertex(c0 + 1, 0)
    for r in range(k - 3):
        if sum(rows[r : r + 4]) <= 1:
            for y in (r + 1, r + 2):
                for x in range(c0 + 1, n):
                    v = frame.vertex(x, y)
                    if not board.near_cop(v):
                        return v
    return None


def _rigid_pick(board, frame):
    """Choice in a canonical frame for the one-cop-per-line configuration:
    the empty one of the two top rows, off the boundary columns."""
    lines, _ = board.lines(frame.transposed)
    if lines[0] + lines[1] != 1:
        return None
    empty_row = lines[0]  # row 1 when the cop is in row 0
    for x in range(1, frame.n - 1):
        v = frame.vertex(x, empty_row)
        if not board.near_cop(v):
            return v
    return None


# --------------------------------------------------------------------------
# Torus evader
# --------------------------------------------------------------------------


def torus_cop_budget(n: int) -> int:
    return 2 * n - 25


class TorusEvader(_ProofEvader):
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
    budget = staticmethod(torus_cop_budget)
    _row = "nearly empty row"
    _safe_rows = staticmethod(lambda count: count <= 1)

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 2
            and all(d.wrap for d in graph.dims)
            and graph.dims[0].length == graph.dims[1].length,
            f"torus evader needs a square torus, got {format_graph(graph)}",
        )
        require(self._n >= 18, f"torus evader needs n >= 18, got {self._n}")

    def select(self, board):
        n = self._n
        d, r = divmod(n, 6)
        rows = board.rows
        start = 0
        for h in [d + 1] * r + [d] * (6 - r):
            if sum(rows[start : start + h]) <= 2 * h - 5:
                break
            start += h
        else:
            return None, None
        # both picks exist: at most 2h-5 cops leave at most h-3 rows with
        # two or more, and meet at most 2h-5 < n/3 columns, each of which
        # blocks three of the n column triples (which wrap around)
        nearly = [y for y in range(start, start + h) if rows[y] <= 1]
        held = {x for x, y in board.cops if start <= y < start + h}
        ring = [*range(n), 0, 1]  # a column triple from s is ring[s:s + 3]
        s = next(s for s in range(n) if held.isdisjoint(ring[s : s + 3]))
        v = (ring[s + 1], nearly[1])
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


class Grid3DEvader(_ProofEvader):
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
    budget = staticmethod(grid3d_cop_budget)
    component_failures = 0

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(
            graph.ndim == 3
            and not any(d.wrap for d in graph.dims)
            and len({d.length for d in graph.dims}) == 1,
            f"3d evader needs a cubic grid, got {format_graph(graph)}",
        )
        require(self._n % 10 == 0, f"3d evader needs n divisible by 10, got {self._n}")
        self.component_failures = 0

    def _board(self, cops):
        g = self._lat.graph
        return _Board(_cop_counts(g, cops).reshape(g.lengths), self._near(cops))

    def _give_up(self, in_budget, why):
        # the guarantee is asymptotic: within the budget too, a board can
        # run out of cop-free blocks, so the turn falls back
        super()._give_up(False, why)

    def post_move_check(self, state, board, reach):
        lat = self._lat
        components = lat.components(lat.mask_of(state.cops))
        if reach.bit_count() < max(c.bit_count() for c in components):
            self.component_failures += 1
            self.violations.append(
                f"round {state.round}: {state.graph.vertex_at(state.robber)} not in a largest component"
            )

    def select(self, board):
        occ = board.occ
        n = self._n
        half = n // 2

        # sparsest half, then the sparsest quadrant inside it, then octant;
        # min keeps the first of equal counts
        box, names = [slice(0, n)] * 3, []
        for _ in range(3):
            options = []
            for name, axis, side in _HALVES_ORDER:
                if box[axis] == slice(0, n):  # an axis not split yet
                    sub = list(box)
                    sub[axis] = slice(half, n) if side else slice(0, half)
                    options.append((int(occ[tuple(sub)].sum()), name, sub))
            o_count, name, box = min(options, key=lambda option: option[0])
            names.append(name)
        h_name, q_name, o_name = ("-".join(names[:i]) for i in (1, 2, 3))
        x, y, z = box

        # sparsest group of five consecutive planes (z windows), then the
        # sparsest width-5 slab across it (y windows)
        groups = occ[x, y].sum(axis=(0, 1))[z].reshape(-1, 5).sum(axis=1)
        i = int(np.argmin(groups))
        g_count = int(groups[i])
        z = slice(z.start + 5 * i, z.start + 5 * i + 5)
        slabs = occ[x, :, z].sum(axis=(0, 2))[y].reshape(-1, 5).sum(axis=1)
        j = int(np.argmin(slabs))
        y = slice(y.start + 5 * j, y.start + 5 * j + 5)

        if self.check_invariants:
            total = int(occ.sum())
            if 8 * o_count > total:
                self.violations.append(f"octant {o_name} holds {o_count} of {total} cops")
            if total <= self.budget(n) and g_count > 0.8965 * n:
                self.violations.append(
                    f"plane group {(z.start, z.stop - 1)} holds {g_count} cops"
                )

        # first cop-free 3x5x5 block scanning along x; the target is its center
        per_x = occ[x, y, z].sum(axis=(1, 2))
        empty = np.flatnonzero(per_x[:-2] + per_x[1:-1] + per_x[2:] == 0)
        if not empty.size:
            return None, None
        block = (x.start + int(empty[0]), y.start, z.start)
        return (block[0] + 1, block[1] + 2, block[2] + 2), {
            "case": "region-chain",
            "half": h_name,
            "quadrant": q_name,
            "octant": o_name,
            "block": f"{block}",
        }


# --------------------------------------------------------------------------
# Hypercube potential evader
# --------------------------------------------------------------------------


def potential_cop_budget(n: int) -> int:
    """floor(2^(n-3) / (n ln n)) - 1, negative (no cops) for small n; the
    formula's ln 1 = 0 makes n = 1 a special case."""
    if n < 2:
        return -1
    return int(2 ** (n - 3) / (n * math.log(n))) - 1


def potential(g: GraphSpec, cops, v) -> Fraction:
    """Total pressure the cops exert on vertex v of a hypercube (cops and v
    are vertex indices).

    A cop on v counts 1; a cop at distance d counts 1 / C(n, d-1).  Exact
    rational arithmetic: the 1/2 threshold the evader plays against is
    sharp.
    """
    require(is_hypercube(g), "potential is defined on hypercubes only")
    n = g.ndim
    total = Fraction(0)
    for c in cops:
        d = (c ^ v).bit_count()  # on a hypercube an index is its coordinate bits
        total += 1 if d == 0 else Fraction(1, math.comb(n, d - 1))
    return total


class PotentialEvader(RobberStrategy):
    """Keeps the cops' total potential below 1/2 on the hypercube.

    Every placement and move goes to the reachable vertex of minimal
    potential (ties to the lexicographically smallest vertex); the proof
    guarantees a below-1/2 choice exists against the stated budget, so a
    turn where the minimum is >= 1/2 is recorded as a violation and
    annotated, but the move (that same minimizer) is still played.

    Potentials are compared exactly: every weight is an integer after
    scaling by lcm = lcm(C(n,0..n-1)), w[d] = lcm * (1 if d == 0 else
    1 / C(n, d-1)).  The scaled potential of every vertex at once is the
    XOR convolution score[v] = sum_c cnt[c] * w[pop(v ^ c)] of the cop
    counts with w[pop(.)], computed with two fast Walsh-Hadamard
    transforms, WHT(WHT(cnt) * WHT(w[pop(.)])) = 2^n * score, in O(n 2^n)
    time whatever the cop count (Fino and Algazi, IEEE Trans. Computers
    1976).  The arithmetic is uint64: it wraps modulo 2^64, but the true
    result 2^n * score is below 2^64 whenever k * lcm < 2^(64-n), so the
    shift by n recovers every score exactly.  Each call checks that
    condition and raises ConfigurationError when it fails.
    """

    name = "cube-potential"

    def __init__(self, allow_excess_cops=False):
        super().__init__()
        self.allow_excess_cops = allow_excess_cops

    def reset(self, graph, rng):
        super().reset(graph, rng)
        require(is_hypercube(graph), f"potential evader needs a hypercube, got {format_graph(graph)}")
        n = self._n = graph.ndim
        self._lcm = math.lcm(*(math.comb(n, k) for k in range(n)))
        weights = [self._lcm]  # distance 0: full weight
        weights += [self._lcm // math.comb(n, d - 1) for d in range(1, n + 1)]
        pop = np.zeros(1 << n, dtype=np.intp)
        for bit in range(n):
            pop[1 << bit:2 << bit] = pop[:1 << bit] + 1
        # two ping-pong buffers and each one's butterfly operands (see _wht)
        self._bufs = a, b = np.empty((2, 1 << n), dtype=np.uint64)
        half = len(a) >> 1
        self._stages = ((a[:half], a[half:], b[0::2], b[1::2]),
                        (b[:half], b[half:], a[0::2], a[1::2]))
        self._kernel = self._wht(np.array(weights, dtype=np.uint64)[pop]).copy()
        self._budget = max(potential_cop_budget(n), 0)

    def _wht(self, x):
        """Unnormalized Walsh-Hadamard transform of x modulo 2^64; the
        result is one of the two buffers, overwritten by the next call.

        Constant-geometry order: every stage combines the two halves and
        interleaves the sums and differences, which transforms the top bit
        and rotates the index bits by one, so n stages transform every bit
        and leave the order as it was; all reads are contiguous.
        """
        self._bufs[0] = x
        for stage in range(self._n):
            lo, hi, even, odd = self._stages[stage & 1]
            np.add(lo, hi, even)
            np.subtract(lo, hi, odd)
        return self._bufs[self._n & 1]

    def _scores(self, graph, cops):
        """Each vertex's potential times lcm, as an int64 array in vertex
        index order."""
        n = self._n
        if len(cops) * self._lcm >= 1 << (64 - n):
            raise ConfigurationError(
                f"{len(cops)} cops on cube:{n} exceed exact scoring (k * lcm < 2^{64 - n})"
            )
        spectrum = self._wht(_cop_counts(graph, cops))
        spectrum *= self._kernel
        return (self._wht(spectrum) >> n).view(np.int64)

    def _minimizer(self, graph, cops, allowed_mask):
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
        return i

    def place(self, graph, cops):
        _within_budget(cops, self._budget, self.allow_excess_cops)
        lat = lattice(graph)
        return self._minimizer(graph, cops, lat.full & ~lat.mask_of(cops))

    def move(self, state):
        _within_budget(state.cops, self._budget, self.allow_excess_cops)
        reach = reachable_mask(state.graph, state.cops, state.robber)
        return self._minimizer(state.graph, state.cops, reach)


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


_RETRACTION_SAMPLES = 20000
_RETRACTION_SEED = 0


def validate_retraction(phi, outer: GraphSpec, inner: GraphSpec):
    """Check phi is a retraction: maps into the subgraph, fixes it
    pointwise, and sends edges to edges or single vertices.  Exhaustive up
    to _RETRACTION_SAMPLES outer vertices, seeded sampling beyond."""
    import random as _random

    if outer.vertex_count <= _RETRACTION_SAMPLES:
        vertices = list(outer.vertices())
    else:
        rng = _random.Random(_RETRACTION_SEED)
        total = outer.vertex_count
        vertices = [outer.vertex_at(rng.randrange(total)) for _ in range(_RETRACTION_SAMPLES)]
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
    The inner strategy sees and answers inner-graph vertex indices; phi
    maps coordinates, and the lift converts between the two graphs'
    indices through them.
    """

    def __init__(self, inner_strategy: RobberStrategy, outer: GraphSpec, inner: GraphSpec):
        super().__init__()
        self.inner_strategy = inner_strategy
        self.outer = outer
        self.inner = inner
        self.phi = clamp_retraction(outer, inner)
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
        inner = self.inner
        images = tuple(inner.index(self.phi(self.outer.vertex_at(c))) for c in cops)
        if self.check_invariants and self._prev_images is not None:
            for i, (a, b) in enumerate(zip(self._prev_images, images)):
                if a != b and not inner.is_edge(a, b):
                    a, b = inner.vertex_at(a), inner.vertex_at(b)
                    self.violations.append(f"cop {i} image jumped {a} -> {b}")
        self._prev_images = images
        return images

    def _lift(self, v):
        """The inner strategy's answer as an outer vertex index, or as it is
        when it is no inner vertex index (the engine rejects it)."""
        inner = self.inner
        if type(v) is int and 0 <= v < inner.vertex_count:
            return self.outer.index(inner.vertex_at(v))
        if self.check_invariants:
            self.violations.append(f"lifted robber left the subgraph: {v!r}")
        return v

    def _pull_inner_violations(self):
        new = self.inner_strategy.violations[self._inner_seen :]
        self.violations.extend(new)
        self._inner_seen = len(self.inner_strategy.violations)

    def place(self, graph, cops):
        self.inner_strategy.check_invariants = self.check_invariants
        v = self.inner_strategy.place(self.inner, self._images(cops))
        self._pull_inner_violations()
        self.last_annotations = dict(self.inner_strategy.last_annotations)
        return self._lift(v)

    def move(self, state):
        shadow = GameState(
            self.inner,
            self._images(state.cops),
            self.inner.index(self.outer.vertex_at(state.robber)),
            Phase.ROBBER_TURN,
            state.round,
        )
        v = self.inner_strategy.move(shadow)
        self._pull_inner_violations()
        self.last_annotations = dict(self.inner_strategy.last_annotations)
        return self._lift(v)


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
