"""Implicit Cartesian products of paths and cycles.

Graphs are described by per-dimension (length, wrap) pairs and are never
materialized: adjacency, distance, and subgrid queries are coordinate
arithmetic.  Vertex *sets* are manipulated as arbitrary-precision integer
bitboards (one bit per vertex, mixed-radix index order), which keeps flood
fills on thousand-vertex products down to a handful of big-integer shifts
per frontier layer.  Bitboards convert to and from vertex lists in one
numpy pass over their bytes, never one bit at a time.

All operations here are pure functions of immutable values and safe for
concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain as _chain
from itertools import product as _iproduct

import numpy as np

from .errors import GraphFormatError, InvalidVertexError

Vertex = tuple  # coordinate tuple, one non-negative int per dimension


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

    @property
    def vertex_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d.length
        return n

    def vertices(self):
        """Iterate all vertices in lexicographic (index) order."""
        return _iproduct(*(range(d.length) for d in self.dims))

    def contains(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == len(self.dims)
            and all(0 <= c < d.length for c, d in zip(v, self.dims))
        )

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

    def adjacent(self, u, v) -> bool:
        """Whether u and v share an edge.  Both must already be known to be
        vertices: nothing is validated."""
        moved = False
        for a, b, d in zip(u, v, self.dims):
            if a != b:
                gap = abs(a - b)
                if moved or (gap != 1 and not (d.wrap and gap == d.length - 1)):
                    return False
                moved = True
        return moved

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
    """
    if ":" not in text:
        raise GraphFormatError(f"missing ':' in graph spec {text!r}")
    family, _, rest = text.partition(":")
    try:
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
    except GraphFormatError:
        raise
    raise GraphFormatError(f"unknown graph family {family!r} in {text!r}")


def _parse_int(part: str, whole: str) -> int:
    part = part.strip()
    if not part.isdigit():
        raise GraphFormatError(f"bad dimension {part!r} in graph spec {whole!r}")
    return int(part)


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
# Axis-aligned subgrids
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Inclusive axis-aligned subgrid [lo, hi]."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InvalidVertexError("box corners must have equal arity")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise InvalidVertexError(f"box corners out of order: {self.lo} > {self.hi}")

    def contains(self, v) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, v, self.hi))

    @property
    def size(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n


def check_box(g: GraphSpec, b: Box):
    g.check_vertex(b.lo)
    g.check_vertex(b.hi)


def box_vertices(g: GraphSpec, b: Box):
    """Yield the box's vertices in lexicographic order."""
    check_box(g, b)
    return _iproduct(*(range(a, c + 1) for a, c in zip(b.lo, b.hi)))


def interior(g: GraphSpec, b: Box):
    """Strip the box's boundary vertices (those with neighbors outside it).

    Each side shrinks by one unless it is flush against a non-wrapped graph
    boundary; a box spanning less than a full wrapped cycle shrinks on both
    sides of that dimension.  Returns None when any dimension collapses.
    """
    check_box(g, b)
    lo, hi = [], []
    for a, c, d in zip(b.lo, b.hi, g.dims):
        if d.wrap:
            if c - a + 1 == d.length:
                pass  # full cycle: no boundary in this dimension
            else:
                a, c = a + 1, c - 1
        else:
            if a > 0:
                a += 1
            if c < d.length - 1:
                c -= 1
        if a > c:
            return None
        lo.append(a)
        hi.append(c)
    return Box(tuple(lo), tuple(hi))


# --------------------------------------------------------------------------
# Bitboard vertex sets
# --------------------------------------------------------------------------


# Below this many vertices mask_of sets bits one at a time: numpy's fixed
# cost of about 7 us per call loses to a Python loop there (4 cops on 4x4:
# 3 us against 8 us), and wins above it (342 cops on 21^3: 60 us against
# 350 us).
_NUMPY_MIN_VERTICES = 8


class BitLattice:
    """Vertex-set arithmetic over one graph, sets encoded as Python ints.

    Bit i corresponds to the vertex with mixed-radix index i.  A frontier
    expansion is a constant number of shift/mask operations per dimension,
    so flood fills cost O(diameter) big-integer operations.
    """

    def __init__(self, g: GraphSpec):
        self.graph = g
        self.size = g.vertex_count
        self.full = (1 << self.size) - 1
        self._shape = g.lengths
        strides = []
        s = 1
        for d in reversed(g.dims):
            strides.append(s)
            s *= d.length
        strides.reverse()
        self._strides = np.array(strides, dtype=np.intp)
        self._steps = []
        index = np.arange(self.size)
        for d, stride in zip(g.dims, strides):
            length = d.length
            if length == 1:
                continue
            not_hi = self._pack(index // stride % length < length - 1)
            wrap_shift = (length - 1) * stride
            hi_mask = self.full & ~not_hi if d.wrap else 0
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

    def mask_of(self, vertices) -> int:
        """Bitboard of a collection of vertices; repeats are allowed."""
        vertices = tuple(vertices)
        if len(vertices) < _NUMPY_MIN_VERTICES:
            mask = 0
            for v in vertices:
                mask |= 1 << self.graph.index(v)
            return mask
        flat = np.fromiter(_chain.from_iterable(vertices), dtype=np.intp)
        coords = flat.reshape(-1, len(self._shape))
        bits = np.zeros(self.size, dtype=bool)
        bits[coords @ self._strides] = True
        return self._pack(bits)

    def bits_of(self, mask: int) -> np.ndarray:
        """Boolean array over vertex indices, true at the members of mask."""
        raw = np.frombuffer(mask.to_bytes((self.size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.size, bitorder="little").view(bool)

    def vertices_of(self, mask: int) -> list:
        """Members of the set in index order, which is lexicographic order."""
        index = np.flatnonzero(self.bits_of(mask))
        return list(zip(*(c.tolist() for c in np.unravel_index(index, self._shape))))

    def set_of(self, mask: int) -> set:
        return set(self.vertices_of(mask))

    def component(self, start_index: int, blocked: int, stop: int = 0) -> int:
        """Connected component of the graph-minus-blocked containing start.

        With a nonzero stop mask the flood fill ends as soon as it meets
        stop, returning the part of the component found by then.
        """
        comp = frontier = 1 << start_index
        free = self.full & ~blocked
        while frontier and not comp & stop:
            frontier = self.expand(frontier) & free & ~comp
            comp |= frontier
        return comp

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
    return BitLattice(g)


# --------------------------------------------------------------------------
# Coordinate transforms (reflections / axis swaps used by strategies)
# --------------------------------------------------------------------------


class CoordMap:
    """An automorphism of a product graph: permute axes, then reflect some.

    Strategies use these to reduce mirrored cases (bottom sector, robber on
    the high side of a blockade, ...) to one canonical orientation.
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
