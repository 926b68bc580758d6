"""Implicit Cartesian products of paths and cycles.

Graphs are described by per-dimension (length, wrap) pairs and are never
materialized: adjacency, distance, and subgrid queries are coordinate
arithmetic, or index arithmetic on vertex indices (a vertex's mixed-radix
rank, the form positions take inside the library).  Vertex *sets* are
manipulated as arbitrary-precision integer bitboards (one bit per vertex,
mixed-radix index order).  A flood fill
fills whole free runs along one axis at a time by prefix doubling, so a
pass over an axis of length L costs about 2 log2(L) big-integer shifts,
whatever the component's radius.  Bitboards convert to and from vertex
lists in one numpy pass over their bytes; only mask_of of a few vertices
sets their bits one at a time.

All operations here are pure functions of immutable values and safe for
concurrent use.  A lattice keeps two caches, mask_of's last answer and
component's fill masks with the last component found for them, and
replaces each in a single attribute store, so a reader never pairs one
call's key with another call's value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle
from itertools import product as _iproduct

import numpy as np

from .errors import GraphFormatError, InvalidVertexError, ResourceLimitError

Vertex = tuple  # coordinate tuple, one non-negative int per dimension; its index is GraphSpec.index


@dataclass(frozen=True)
class Dim:
    """One factor of the product: a path (wrap=False) or cycle (wrap=True)."""

    length: int
    wrap: bool = False


@dataclass(frozen=True)
class GraphSpec:
    """A Cartesian product of paths and cycles.

    Wrapped dimensions must have length >= 3 so that +1 and -1 steps are
    distinct edges (no multi-edges).
    """

    dims: tuple[Dim, ...]

    def __post_init__(self):
        if not self.dims:
            raise GraphFormatError("graph needs at least one dimension")
        for d in self.dims:
            if d.length < 1:
                raise GraphFormatError(f"dimension length must be >= 1, got {d.length}")
            if d.wrap and d.length < 3:
                raise GraphFormatError(
                    f"wrapped dimension needs length >= 3, got {d.length}"
                )

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(d.length for d in self.dims)

    @cached_property
    def vertex_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d.length
        return n

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Per dimension, how much a vertex index grows when that coordinate
        grows by one."""
        out, s = [], 1
        for d in reversed(self.dims):
            out.append(s)
            s *= d.length
        return tuple(reversed(out))

    @cached_property
    def moves(self) -> dict:
        """Every edge as index arithmetic: index offset -> (stride, length,
        low, high).  A vertex i has the neighbor i + offset exactly when its
        coordinate i // stride % length lies in [low, high].  On a cycle the
        steps across the seam are offsets of -(length - 1) and length - 1
        strides.  Offsets never repeat: a step along a dimension moves the
        index by less than one stride of any earlier dimension."""
        out = {}
        for d, s in zip(self.dims, self.strides):
            n = d.length
            if n > 1:
                out[s], out[-s] = (s, n, 0, n - 2), (s, n, 1, n - 1)
                if d.wrap:
                    out[(1 - n) * s], out[(n - 1) * s] = (s, n, n - 1, n - 1), (s, n, 0, 0)
        return out

    def is_edge(self, a: int, b: int) -> bool:
        """Whether the vertices of indices a and b share an edge.  a must be
        a vertex index; b may be any int, and a true answer makes it one."""
        move = self.moves.get(b - a)
        return move is not None and move[2] <= a // move[0] % move[1] <= move[3]

    def closed_neighbors(self, i: int) -> list:
        """The index i and its neighbors' indices, ascending.  i must be a
        vertex index: nothing is validated."""
        return sorted([i] + [i + offset for offset, (s, n, low, high) in self.moves.items()
                             if low <= i // s % n <= high])

    def vertices(self):
        """Iterate all vertices in lexicographic (index) order."""
        return _iproduct(*(range(d.length) for d in self.dims))

    def contains(self, v) -> bool:
        """Whether v is a vertex: a tuple of in-range Python ints (a float
        or a bool coordinate is not one, as in a trace)."""
        if not (isinstance(v, tuple) and len(v) == len(self.dims)):
            return False
        for c, d in zip(v, self.dims):
            if type(c) is not int or not 0 <= c < d.length:
                return False
        return True

    def check_vertex(self, v):
        if not self.contains(v):
            raise InvalidVertexError(f"{v!r} is not a vertex of {format_graph(self)}")

    def neighbors(self, v) -> set:
        """All vertices differing from v in one coordinate by +-1 (mod length
        on wrapped dimensions)."""
        self.check_vertex(v)
        out = set()
        for i, d in enumerate(self.dims):
            c = v[i]
            if d.wrap:
                out.add(v[:i] + ((c + 1) % d.length,) + v[i + 1 :])
                out.add(v[:i] + ((c - 1) % d.length,) + v[i + 1 :])
            else:
                if c + 1 < d.length:
                    out.add(v[:i] + (c + 1,) + v[i + 1 :])
                if c > 0:
                    out.add(v[:i] + (c - 1,) + v[i + 1 :])
        return out

    def distance(self, u, v) -> int:
        """Graph distance: per-dimension path/cycle distances summed."""
        self.check_vertex(u)
        self.check_vertex(v)
        total = 0
        for a, b, d in zip(u, v, self.dims):
            gap = abs(a - b)
            total += min(gap, d.length - gap) if d.wrap else gap
        return total

    def index(self, v) -> int:
        """Mixed-radix rank of v; ranks follow lexicographic tuple order."""
        i = 0
        for c, d in zip(v, self.dims):
            i = i * d.length + c
        return i

    def vertex_at(self, index: int):
        coords = []
        for d in reversed(self.dims):
            index, c = divmod(index, d.length)
            coords.append(c)
        return tuple(reversed(coords))


def grid(*lengths: int) -> GraphSpec:
    """Product of paths, e.g. grid(5, 5) or grid(10, 10, 10)."""
    return GraphSpec(tuple(Dim(n, False) for n in lengths))


def torus(*lengths: int) -> GraphSpec:
    """Product of cycles."""
    return GraphSpec(tuple(Dim(n, True) for n in lengths))


def cube(d: int) -> GraphSpec:
    """The d-dimensional hypercube: d factors of length 2."""
    if d < 1:
        raise GraphFormatError("cube dimension must be >= 1")
    return GraphSpec(tuple(Dim(2, False) for _ in range(d)))


def product(dims) -> GraphSpec:
    """General mixed product from (length, wrap) pairs."""
    return GraphSpec(tuple(Dim(int(n), bool(w)) for n, w in dims))


def is_hypercube(g: GraphSpec) -> bool:
    return all(d.length == 2 and not d.wrap for d in g.dims)


# --------------------------------------------------------------------------
# Graph description grammar: grid:5x5, torus:18x18, cube:10, product:5w,5w,4
# --------------------------------------------------------------------------


def parse_graph(text: str) -> GraphSpec:
    """Parse a graph description string.

    Grammar: ``grid:AxBx...``, ``torus:AxBx...``, ``cube:D``, and
    ``product:P1,P2,...`` where each Pi is an integer with an optional ``w``
    suffix marking a wrapped dimension.

    The GraphSpec returned for a str is shared: every call with the same
    text returns the same immutable object (the 256 texts used last are
    kept), so its cached vertex_count, strides and moves are derived once per
    process.  Any other argument, a str subclass included, is parsed on
    every call and raises as it always has: a list or a dict has no ':',
    and a number, None or bytes is a TypeError.  A text that does not
    parse is never kept and raises again on every call.
    """
    return _parse_text(text) if type(text) is str else _parse(text)


def _parse(text) -> GraphSpec:
    """parse_graph, without the shared answers."""
    if ":" not in text:
        raise GraphFormatError(f"missing ':' in graph spec {text!r}")
    family, _, rest = text.partition(":")
    if family == "grid":
        return grid(*(_parse_int(p, text) for p in rest.split("x")))
    if family == "torus":
        return torus(*(_parse_int(p, text) for p in rest.split("x")))
    if family == "cube":
        return cube(_parse_int(rest, text))
    if family == "product":
        dims = []
        for part in rest.split(","):
            part = part.strip()
            wrap = part.endswith("w")
            dims.append((_parse_int(part[:-1] if wrap else part, text), wrap))
        return product(dims)
    raise GraphFormatError(f"unknown graph family {family!r} in {text!r}")


# the one GraphSpec of each description text, sized like lattice's cache
_parse_text = lru_cache(maxsize=256)(_parse)


def _is_digits(text: str) -> bool:
    """Whether text is an unsigned decimal int in ASCII digits.

    str.isdigit also takes "²" (which int() rejects) and "٣" (which int()
    reads as 3), and int() takes "1_0"; 640 digits is the lowest int-string
    limit Python allows, past which int() raises."""
    return text.isascii() and text.isdigit() and len(text) <= 640


def _parse_int(part: str, whole: str) -> int:
    part = part.strip()
    if _is_digits(part):
        return int(part)
    raise GraphFormatError(f"bad dimension {part!r} in graph spec {whole!r}")


def format_graph(g: GraphSpec) -> str:
    """Canonical description string; parse_graph(format_graph(g)) == g."""
    if is_hypercube(g):
        return f"cube:{g.ndim}"
    if not any(d.wrap for d in g.dims):
        return "grid:" + "x".join(str(d.length) for d in g.dims)
    if all(d.wrap for d in g.dims):
        return "torus:" + "x".join(str(d.length) for d in g.dims)
    return "product:" + ",".join(
        f"{d.length}w" if d.wrap else str(d.length) for d in g.dims
    )


# --------------------------------------------------------------------------
# Bitboard vertex sets
# --------------------------------------------------------------------------


# Largest graph a lattice is built for, so the largest graph run_match
# accepts.  Every turn floods bitboards of one bit per vertex, and the
# lattice holds a mask of that size per dimension, so cost grows with the
# vertex count: at the cap (grid:1024x1024 or cube:20) one round takes about
# 1-3 s and a random robber's move decode about 400 MiB, and cube:30 would
# need 8 GiB before the first move.  The largest graph the tests, demos and
# benchmark play is cube:14 (16384).
MAX_MATCH_VERTICES = 1 << 20

# Below this many vertices mask_of sets bits one at a time.  A bit costs
# the loop one OR as wide as its index, numpy a fixed 4-10 us per call plus
# a pass over the lattice; on a 2-core Xeon VM (best of 30) the loop takes
# 1.9 us against numpy's 4.7 for 18 cops on grid:20x20, 5.3 against 6.2
# for 48 on 1,600 vertices, ties with it at 54 on cube:14 and takes 103 us
# against 15 for 342 on 21^3.
_NUMPY_MIN_VERTICES = 48


class BitLattice:
    """Vertex-set arithmetic over one graph, sets encoded as Python ints.

    Bit i corresponds to the vertex with mixed-radix index i.  expand, one
    breadth-first layer, is a constant number of shift/mask operations per
    dimension, and farthest runs a whole breadth-first search confined to
    a region.  component fills whole free runs along one axis per pass by
    Kogge-Stone doubling, O(log L) operations for an axis of length L, and
    repeats passes until every axis is closed; the fill masks depend only
    on the blocked set and are built once per cop configuration.
    """

    def __init__(self, g: GraphSpec):
        self.graph = g
        self.size = g.vertex_count
        self.full = (1 << self.size) - 1
        self._last = ((), 0)  # mask_of's last (tuple of indices, mask)
        self._flood = (None, [], 0)  # component's last (blocked, fill masks, component)
        self._steps = []
        # farthest's stride along the first axis with an edge, and for every
        # other shift (shift, the vertices a shift up may reach, those a
        # shift down may reach)
        self._lead, self._folds = 0, []
        index = np.arange(self.size)
        for d, stride in zip(g.dims, g.strides):
            length = d.length
            if length == 1:
                continue
            not_hi = self._pack(index // stride % length < length - 1)
            wrap_shift = (length - 1) * stride
            hi_mask = self.full & ~not_hi if d.wrap else 0
            if self._steps:
                self._folds.append((stride, self.full & (not_hi << stride), not_hi))
            else:
                self._lead = stride
            if d.wrap:
                self._folds.append((wrap_shift, hi_mask, hi_mask >> wrap_shift))
            self._steps.append((stride, not_hi, d.wrap, wrap_shift, hi_mask))

    @staticmethod
    def _pack(bits) -> int:
        """Bitboard of a boolean array over vertex indices."""
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def expand(self, mask: int) -> int:
        """Union of open neighborhoods of the set."""
        out = 0
        for stride, not_hi, wrap, wrap_shift, hi_mask in self._steps:
            out |= (mask & not_hi) << stride
            out |= (mask >> stride) & not_hi
            if wrap:
                out |= (mask & hi_mask) >> wrap_shift
                out |= (mask << wrap_shift) & hi_mask
        return out

    def farthest(self, sources: int, region: int, targets: int) -> int:
        """The members of targets farthest from sources through region.

        Breadth-first layers grow from sources (layer 0) through region, a
        set that holds no source, until every member of targets in region
        is reached; the answer is the part in targets of the last layer
        that meets them, or 0 when none does.  A layer is the expand of
        the one before, with the lattice's boundary masks folded into
        region once per call: a shift by one stride keeps region's
        vertices whose coordinate it can reach (above 0 going up, below
        length - 1 going down), a cycle's seam those at coordinate
        length - 1 and 0.  The first axis with an edge shifts with no
        mask: every axis before it has length 1, so a step off its ends
        also leaves the lattice, and the AND with region's unvisited part
        that ends each layer drops it.
        """
        last, left, lead = sources & targets, region, self._lead
        todo = targets & left
        folded = [(shift, left & up, left & down) for shift, up, down in self._folds]
        frontier = sources
        while frontier and todo:
            layer = frontier << lead | frontier >> lead
            for shift, up, down in folded:
                layer |= (frontier << shift) & up | (frontier >> shift) & down
            frontier = layer & left
            left ^= frontier
            hit = frontier & todo
            if hit:
                last = hit
                todo ^= hit
        return last

    def mask_of(self, vertices) -> int:
        """Bitboard of a collection of vertex indices; repeats are allowed.

        The last tuple converted is kept with its mask and recognised by
        identity, so the calls one turn makes on the same cop configuration
        convert it once.  Only a tuple is kept: a list can change after the
        call.
        """
        last = self._last
        if vertices is last[0]:
            return last[1]
        given, vertices = vertices, tuple(vertices)
        if len(vertices) < _NUMPY_MIN_VERTICES:
            mask = 0
            for i in vertices:
                mask |= 1 << i
        else:
            bits = np.zeros(self.size, dtype=bool)
            bits[np.fromiter(vertices, dtype=np.intp, count=len(vertices))] = True
            mask = self._pack(bits)
        if vertices is given:
            # one attribute, so a concurrent reader never pairs a tuple
            # with another tuple's mask
            self._last = (vertices, mask)
        return mask

    def bits_of(self, mask: int) -> np.ndarray:
        """Boolean array over vertex indices, true at the members of mask."""
        raw = np.frombuffer(mask.to_bytes((self.size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.size, bitorder="little").view(bool)

    def vertices_of(self, mask: int) -> list:
        """Indices of the members of the set, ascending."""
        return np.flatnonzero(self.bits_of(mask)).tolist()

    def set_of(self, mask: int) -> set:
        return set(self.vertices_of(mask))

    def component(self, start_index: int, blocked: int, stop: int = 0) -> int:
        """Connected component of the graph-minus-blocked containing start,
        or 0 when start is blocked.

        Each pass fills, along one axis, every free run that holds a bit of
        the component (see _fill_masks); a wrapped axis also steps across
        its seam and fills again.  A pass leaves the component closed along
        its axis, so the passes cycle through the axes until as many passes
        in a row as there are axes add nothing, or the component is every
        free vertex.  With a nonzero stop mask the fill ends as soon as it
        meets stop, returning the part of the component found by then.

        The fill masks of the last blocked set are kept with the last whole
        component found for it, in one attribute replaced in a single store;
        a start inside that component returns it at once, even with stop.
        """
        start = 1 << start_index
        if blocked & start:
            return 0
        kept_blocked, axes, kept = self._flood
        free = self.full & ~blocked
        if blocked != kept_blocked:
            axes, kept = self._fill_masks(free), 0
        elif kept & start:
            return kept
        comp, quiet = start, 0
        for steps, wrap_shift, seam in cycle(axes):
            if quiet == len(axes) or comp == free:
                break
            if comp & stop:
                self._flood = (blocked, axes, kept)
                return comp
            before = comp
            while True:
                for shift, fwd, bwd in steps:
                    comp |= fwd & (comp << shift)
                    comp |= bwd & (comp >> shift)
                if not seam:
                    break
                crossed = comp | comp >> wrap_shift & seam | (comp & seam) << wrap_shift
                if crossed == comp:
                    break
                comp = crossed
            quiet = quiet + 1 if comp == before else 1
        self._flood = (blocked, axes, comp)
        return comp

    def _fill_masks(self, free: int) -> list:
        """Per axis that has a free edge, (steps, wrap_shift, seam).

        Step j of a run fill is (s * 2**j, fwd_j, bwd_j) for the axis
        stride s: fwd_j holds every x whose segment from x - s * 2**j up to
        x lies in one free run, and bwd_j = fwd_j >> s * 2**j the mirror
        image.  fwd_{j+1} = fwd_j & (fwd_j << s * 2**j), so taking
        comp |= fwd_j & (comp << s * 2**j) and its mirror for j = 0, 1, ...
        (Kogge-Stone doubling) reaches every vertex of a run that holds a
        bit of comp; the steps end at the first empty fwd_j, when no run is
        longer than 2**j.  seam holds the vertices at coordinate 0 of a
        wrapped axis whose neighbor across the seam is also free (0 on a
        path).
        """
        axes = []
        for stride, not_hi, _, wrap_shift, hi_mask in self._steps:
            run = free & ((free & not_hi) << stride)
            steps, shift = [], stride
            while run:
                steps.append((shift, run, run >> shift))
                run &= run << shift
                shift <<= 1
            seam = free & ((free & hi_mask) >> wrap_shift)
            if steps or seam:
                axes.append((steps, wrap_shift, seam))
        return axes

    def components(self, blocked: int) -> list[int]:
        """All connected components of the graph minus the blocked set."""
        rest = self.full & ~blocked
        out = []
        while rest:
            low = rest & -rest
            comp = self.component(low.bit_length() - 1, blocked)
            out.append(comp)
            rest &= ~comp
        return out


@lru_cache(maxsize=256)
def lattice(g: GraphSpec) -> BitLattice:
    """The graph's lattice, made once per graph; ResourceLimitError, before
    any allocation, above MAX_MATCH_VERTICES vertices."""
    if g.vertex_count > MAX_MATCH_VERTICES:
        raise ResourceLimitError(
            f"{format_graph(g)} has {g.vertex_count} vertices; vertex sets are "
            f"capped at {MAX_MATCH_VERTICES}",
            estimate=g.vertex_count,
            cap=MAX_MATCH_VERTICES,
        )
    return BitLattice(g)


# --------------------------------------------------------------------------
# Coordinate transforms (reflections / axis swaps)
# --------------------------------------------------------------------------


class CoordMap:
    """An automorphism of a product graph: permute axes, then reflect some.

    It maps coordinate tuples; no library code uses it (the strategies
    reduce mirrored cases to one orientation by index arithmetic).
    """

    def __init__(self, g: GraphSpec, perm=None, reflect=None):
        self.graph = g
        self.perm = tuple(perm) if perm is not None else tuple(range(g.ndim))
        self.reflect = tuple(reflect) if reflect is not None else (False,) * g.ndim
        self.identity = self.perm == tuple(range(g.ndim)) and not any(self.reflect)
        lengths = g.lengths
        if tuple(sorted(self.perm)) != tuple(range(g.ndim)):
            raise InvalidVertexError(f"bad axis permutation {self.perm}")
        for i, j in enumerate(self.perm):
            if lengths[i] != lengths[j]:
                raise InvalidVertexError("axis permutation must preserve lengths")

    def apply(self, v):
        if self.identity:
            return tuple(v)
        # image coordinate i comes from source axis perm[i], then reflects
        out = []
        for i, src in enumerate(self.perm):
            c = v[src]
            if self.reflect[i]:
                c = self.graph.dims[i].length - 1 - c
            out.append(c)
        return tuple(out)

    def invert(self, v):
        if self.identity:
            return tuple(v)
        out = [0] * len(v)
        for i, src in enumerate(self.perm):
            c = v[i]
            if self.reflect[i]:
                c = self.graph.dims[i].length - 1 - c
            out[src] = c
        return tuple(out)
