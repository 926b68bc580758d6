"""Exact winner determination by backward induction on the full game tree.

States are (cop multiset, robber vertex, side to move): cop identity never
matters for the game value, so configurations are canonicalized to sorted
index tuples, dividing the space by up to k!.  A configuration's index is
its rank in the lexicographic order of sorted tuples, computed with the
combinatorial number system, so no array of V^k entries is ever built.
The fixed point is computed attractor-style with per-component safe-move
counters, so each state is settled exactly once:

* a cops-to-move state wins when some joint move captures or reaches a
  settled robber-to-move state;
* all robber-to-move states sharing one cop-free component settle together,
  when their last safe destination disappears.

The table is held in numpy arrays.  The successors of every configuration
form one int32 CSR table (sorted rows, no repeats), built in one pass over
chunks of CHUNK_MOVES joint moves: each chunk is ranked once and its rows
are written into a buffer sized by an upper bound on the row lengths.  An
instance whose bound passes SUCCESSOR_CAP entries is refused before the
component pass.
Per-state arrays use a (robber vertex, configuration) layout, so the column
of one robber vertex over all configurations is contiguous.  A cop-free
component of G - configs[ci] is named by the state ci * V + r0 of its
smallest vertex r0, the label min-label propagation settles on; its
members are the vertices r whose comp_id[r, ci] equals that name.  The
queue is first in, first out and is relaxed a block of items at a time: a
block gathers the predecessor lists of its items (at most CHUNK_MOVES
entries, unless one item alone has more) and settles them with a few array
operations and no sort over its keys.  Everything a block queues lands
after it, so the settle order, the flips and the queue are those of a
one-state-at-a-time loop.

Settling order doubles as a progress measure: along table-optimal cop play
the order strictly decreases every half-move, which bounds capture time and
makes witness replay terminate.  The computation is one sequential pass;
results are deterministic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .engine import CopStrategy, RobberStrategy, run_match
from .errors import ConfigurationError, ReplayError, ResourceLimitError, StrategyFault
from .grid import GraphSpec, format_graph

__all__ = ["SolveResult", "CopNumberResult", "solve_game", "cop_number", "extract_policies"]

DEFAULT_STATE_CAP = 100_000_000
# tables index states with int32, so no instance may have more states
INDEX_STATE_LIMIT = 2 * (2**31 - 1)
# joint moves (or configuration-vertex cells) handled per chunk of the
# table build: bounds its temporaries to a few MiB whatever V and k are
CHUNK_MOVES = 1 << 16
# joint moves per configuration, |N|max^k for the widest closed
# neighbourhood |N|max: the table build ranks them all for every
# configuration, so an instance with more is refused before any
# configuration array is built (grid:3x3 with k=9 would rank 5^9 per
# configuration over 437,580 states)
JOINT_MOVE_CAP = 1 << 16
# int32 entries of the successor table's buffer, as _row_bound sizes it
# (2 GiB): grid:6x6 with k=5 passes both caps above with 47,376,576 states
# and 3,125 joint moves, yet would allocate 820,384,032 entries (3.06 GiB)
SUCCESSOR_CAP = 1 << 29
# comp_key of a component with an unsettled member
_UNSETTLED = np.int64(np.iinfo(np.int64).max)


@dataclass
class _Table:
    """Solved game table for one (graph, k) instance.

    Arrays indexed [r, ci] hold the state (configuration ci, robber vertex r).
    A component is named by the state ci * V + r0 of its smallest member
    vertex r0; comp_id is the sentinel n_cfg * V (comp_id.size) where a cop
    stands on r.  A component's members are the r whose comp_id[r, ci] is
    its name.
    """

    graph: GraphSpec
    k: int
    configs: np.ndarray  # (n_cfg, k) sorted vertex indices, lexicographic order
    index: object  # coordinate columns of sorted configurations -> their ranks
    nbhd: list  # closed neighborhood index lists, sorted, per vertex
    padded: np.ndarray  # (V, max |nbhd|) the same, padded with the vertex itself
    cop_win: np.ndarray  # [r, ci] bool: the cops-to-move state is won
    cop_rank: np.ndarray  # [r, ci] settle order from 1, 0 where unsettled
    comp_id: np.ndarray  # [r, ci] component of r in G - configs[ci]
    witness: int | None  # first configuration winning against every robber start
    transitions: int = 0

    def config_index(self, cops):
        return int(self.index(sorted(cops)))

    @cached_property
    def comp_key(self):
        """Per component, the settle order of its robber-to-move state: the
        largest settle order among its members, or _UNSETTLED when one of
        them is unsettled, since the robber then has a surviving move."""
        key = np.zeros(self.comp_id.size + 1, dtype=np.int64)  # last slot: the sentinel
        rank = np.where(self.cop_rank > 0, self.cop_rank, _UNSETTLED)
        np.maximum.at(key, self.comp_id.ravel(), rank.ravel())
        return key


@dataclass
class SolveResult:
    graph: GraphSpec
    k: int
    cops_win: bool
    witness_placement: tuple | None
    states_explored: int
    transitions: int
    elapsed: float
    table: _Table = field(repr=False, default=None)
    witness_verified: bool = False  # the witness replay ran and captured


@dataclass
class CopNumberResult:
    graph: GraphSpec
    k_max: int
    cop_number: int | None
    witness_placement: tuple | None
    states_explored: int
    transitions: int
    elapsed: float
    per_k: list = field(default_factory=list, repr=False)


def _state_estimate(vertex_count: int, k: int) -> int:
    return comb(vertex_count + k - 1, k) * vertex_count * 2


def _config_ranker(n_vertices, k):
    """Lexicographic ranks of sorted configurations given as their k
    coordinate columns (a sorted tuple, or a (k, ...) array): with
    n = V + k - 1, rank = C(n, k) - 1 - sum_i C(n - 1 - (a_i + i), k - i)."""
    n = n_vertices + k - 1
    top = comb(n, k) - 1
    weights = [np.array([comb(n - 1 - (a + i), k - i) for a in range(n_vertices)], dtype=np.int32)
               for i in range(k)]

    def index(columns):
        rank = top
        for column, weight in zip(columns, weights):
            rank = rank - weight.take(column)
        return rank

    return index


def _closed_neighborhoods(g: GraphSpec):
    """Sorted closed neighborhoods, and the same padded with the vertex itself
    to a (V, max size) array.  They come from the coordinate adjacency
    (GraphSpec.neighbors), not from the index arithmetic the engine checks
    moves with, so a witness replay through the engine checks the two
    against each other."""
    nbhd = [sorted(map(g.index, g.neighbors(v) | {v})) for v in g.vertices()]
    width = max(len(nb) for nb in nbhd)
    padded = np.array([nb + [i] * (width - len(nb)) for i, nb in enumerate(nbhd)], dtype=np.int32)
    return nbhd, padded


def _chunks(total, per_item):
    step = max(1, CHUNK_MOVES // per_item)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _runs(starts, lengths):
    """Indices start, ..., start + length - 1 of each run, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _row_bound(configs, padded):
    """An upper bound on the successor table's total size: m cops stacked
    on a vertex a reach at most C(|N[a]| + m - 1, m) sorted joint moves
    (multisets of size m from the closed neighbourhood N[a]), and stacks on
    distinct vertices move independently, so a row has at most the product
    of these over its distinct vertices.  The bound is 3-17% above the true
    size on the benchmark's instances."""
    n_cfg, k = configs.shape
    # walk the sorted columns with a running multiplicity m: the row bound
    # grows by (|N[a]| + m - 1) / m per column, and every partial product is
    # an integer.  |N[a]|: a padded row holds a once, its other neighbours,
    # then copies of a
    sizes = (padded != np.arange(len(padded))[:, None]).sum(axis=1) + 1
    bound = np.ones(n_cfg, dtype=np.int64)
    stack = np.ones(n_cfg, dtype=np.int64)
    for i in range(k):
        if i:
            stack = np.where(configs[:, i] == configs[:, i - 1], stack + 1, 1)
        bound = bound * (sizes[configs[:, i]] + stack - 1) // stack
    return int(bound.sum())


def _sort_columns(columns):
    """Sort k coordinate columns elementwise with an odd-even transposition
    network (k rounds of compare-exchange between neighbours), so that
    columns[0] <= ... <= columns[k - 1] at every position afterwards.  The
    list is updated and returned; the arrays in it are replaced, never
    written, and may broadcast against each other."""
    k = len(columns)
    for step in range(k):
        for i in range(step % 2, k - 1, 2):
            a, b = columns[i], columns[i + 1]
            columns[i], columns[i + 1] = np.minimum(a, b), np.maximum(a, b)
    return columns


def _successors(configs, padded, index, size):
    """CSR table of each configuration's successors: sorted, no repeats.

    One pass over chunks of configurations ranks each chunk's joint moves
    once and writes its deduplicated rows straight into one int32 buffer of
    size entries, at least the table's size (_row_bound).  The filled
    prefix is returned as a view: the unused tail is never written, so it
    never becomes resident, while a copy would hold two tables at once.
    """
    n_cfg, k = configs.shape
    width = padded.shape[1]
    moves = width**k
    ptr = np.zeros(n_cfg + 1, dtype=np.int64)
    flat = np.empty(size, dtype=np.int32)
    for lo, hi in _chunks(n_cfg, moves):
        m = hi - lo
        columns = []
        for i in range(k):
            shape = [m] + [1] * k
            shape[i + 1] = width
            columns.append(padded[configs[lo:hi, i]].reshape(shape))
        succ = index(_sort_columns(columns)).reshape(m, moves)
        succ.sort(axis=1)
        first = np.ones(succ.shape, dtype=bool)
        np.not_equal(succ[:, 1:], succ[:, :-1], out=first[:, 1:])
        ptr[lo + 1:hi + 1] = ptr[lo] + np.cumsum(first.sum(axis=1))
        flat[ptr[lo]:ptr[hi]] = succ[first]
    return ptr, flat[:ptr[-1]]


def _components(configs, padded):
    """Component of every robber vertex in G minus every configuration.

    Returns comp_id [r, ci]: the state ci * V + r0 of the component's
    smallest member vertex r0, or the sentinel n_cfg * V under a cop.
    Components come from min-label propagation with pointer jumping, so
    each label settles on its component's smallest vertex.
    """
    n_cfg, _ = configs.shape
    n_vertices, width = padded.shape
    comp_id = np.empty((n_vertices, n_cfg), dtype=np.int32)
    vertices = np.arange(n_vertices + 1, dtype=np.int32)  # label n_vertices: under a cop
    for lo, hi in _chunks(n_cfg, n_vertices * width):
        m = hi - lo
        blocked = np.zeros((m, n_vertices + 1), dtype=bool)
        blocked[np.arange(m)[:, None], configs[lo:hi]] = True
        blocked[:, n_vertices] = True
        label = np.where(blocked, n_vertices, vertices).astype(np.int32)
        while True:
            nxt = label.copy()
            for j in range(width):
                np.minimum(nxt[:, :n_vertices], label[:, padded[:, j]], out=nxt[:, :n_vertices])
            nxt[blocked] = n_vertices
            nxt = np.take_along_axis(nxt, nxt, axis=1)
            if np.array_equal(nxt, label):
                break
            label = nxt
        # ci * V + label, and n_cfg * V under a cop: at most 2**31 - 1 by
        # INDEX_STATE_LIMIT, so int32 holds it
        state = label[:, :n_vertices] + np.arange(lo, hi, dtype=np.int32)[:, None] * n_vertices
        comp_id[:, lo:hi] = np.where(blocked[:, :n_vertices], n_cfg * n_vertices, state).T
    return comp_id


def solve_game(g: GraphSpec, k: int, cap: int = DEFAULT_STATE_CAP, verify_witness: bool = True) -> SolveResult:
    """Decide whether k cops capture an infinitely fast robber on g.

    When the cops win, witness_placement is the first (lexicographic)
    winning initial configuration, checked by replaying the table-optimal
    cop policy against the table-optimal robber from that placement.
    Raises ResourceLimitError, before any table is built, when the state
    estimate passes cap, a configuration has more than JOINT_MOVE_CAP joint
    moves, or the successor table's buffer would pass SUCCESSOR_CAP entries.
    """
    if k < 0:
        raise ConfigurationError(f"cop count must be >= 0, got {k}")
    start = time.perf_counter()
    n_vertices = g.vertex_count
    if k == 0:
        return SolveResult(g, 0, n_vertices == 0, None, 0, 0, time.perf_counter() - start)
    estimate = _state_estimate(n_vertices, k)
    limit = min(cap, INDEX_STATE_LIMIT)
    if estimate > limit:
        raise ResourceLimitError(
            f"state estimate {estimate} exceeds cap {limit} for k={k}", estimate=estimate, cap=limit
        )

    nbhd, padded = _closed_neighborhoods(g)
    moves = padded.shape[1] ** k
    if moves > JOINT_MOVE_CAP:
        raise ResourceLimitError(
            f"{moves} joint moves per configuration exceed cap {JOINT_MOVE_CAP} for k={k}",
            estimate=moves, cap=JOINT_MOVE_CAP,
        )
    n_cfg = comb(n_vertices + k - 1, k)
    cells = combinations_with_replacement(range(n_vertices), k)
    configs = np.fromiter(chain.from_iterable(cells), dtype=np.int32, count=n_cfg * k)
    configs = configs.reshape(n_cfg, k)
    size = _row_bound(configs, padded)
    if size > SUCCESSOR_CAP:
        raise ResourceLimitError(
            f"successor table of up to {size} entries exceeds cap {SUCCESSOR_CAP} for k={k}",
            estimate=size, cap=SUCCESSOR_CAP,
        )
    index = _config_ranker(n_vertices, k)
    comp_id = _components(configs, padded)
    taken = n_cfg * n_vertices  # the component id under a cop
    ptr, succ = _successors(configs, padded, index, size)

    # safe destinations left per component; the sentinel never reaches zero
    safe = np.bincount(comp_id.ravel(), minlength=taken + 1).astype(np.int32)
    safe[taken] = np.iinfo(np.int32).max

    # every robber-to-move state enters the queue at most once: the capture
    # states first, each configuration's in the iteration order of set(cfg)
    queue = np.empty(n_cfg * n_vertices, dtype=np.int32)
    seeds = np.fromiter((ci * n_vertices + r
                         for ci, cfg in enumerate(combinations_with_replacement(range(n_vertices), k))
                         for r in set(cfg)), dtype=np.int32)
    queue[:len(seeds)] = seeds
    head, tail = 0, len(seeds)

    cop_rank = np.zeros((n_vertices, n_cfg), dtype=np.int32)
    # flat views keyed r * n_cfg + ci: keys stay below V * n_cfg <= 2**31 - 1
    # (INDEX_STATE_LIMIT), so they fit int32
    rank_flat, comp_flat = cop_rank.reshape(-1), comp_id.reshape(-1)
    degree = np.diff(ptr)
    # queued items read per block: about twice what the mean degree fits in
    # CHUNK_MOVES entries.  A block may be any prefix of the queue, so this
    # only trades a short block against a long read
    window = max(1, 2 * CHUNK_MOVES * n_cfg // int(ptr[-1]))
    order = 0
    while head < tail:
        # a block: the read items whose predecessor lists add up to at most
        # CHUNK_MOVES entries, and at least one item.  What it queues lands
        # after it, so relaxing it at once keeps the one-at-a-time order
        ci, r = np.divmod(queue[head:min(tail, head + window)], n_vertices)
        lens = degree[ci]
        size = max(1, int(np.searchsorted(np.cumsum(lens), CHUNK_MOVES, side="right")))
        ci, r, lens = ci[:size], r[:size], lens[:size]
        head += size
        # joint moves are reversible, so predecessors of a configuration
        # are exactly its successors
        keys = np.repeat(r * n_cfg, lens) + succ[_runs(ptr[ci], lens)]
        keys = keys[rank_flat[keys] == 0]
        # a state settles at its first occurrence in the block: each
        # unsettled state (rank 0) takes the least of its negative positions.
        # A block holds at most max(CHUNK_MOVES, one item's degree) keys, and
        # a degree is at most n_cfg < 2**31 - 1 (INDEX_STATE_LIMIT), so the
        # positions fit int32 and stay below zero
        pos = np.arange(-(2**31 - 1), len(keys) - (2**31 - 1), dtype=np.int32)
        np.minimum.at(rank_flat, keys, pos)
        new = keys[rank_flat[keys] == pos]
        rank_flat[new] = np.arange(order + 1, order + 1 + len(new))
        order += len(new)
        # each touched component loses one safe destination per new state;
        # those reaching zero flip in the order of their last loss, which is
        # descending first index in the reversed sequence
        comps = comp_flat[new]
        # an int32 operand keeps ufunc.at on its fast path; a Python 1 makes
        # it cast per element, about 15 times slower
        np.subtract.at(safe, comps, np.int32(1))
        backwards = comps[::-1]
        backwards = backwards[safe[backwards] == 0]
        if len(backwards):
            flipped, from_end = np.unique(backwards, return_index=True)
            flipped = flipped[np.argsort(-from_end)]
            # members in (flip order, r ascending)
            flip_ci = flipped // n_vertices
            which, member = np.nonzero((comp_id[:, flip_ci] == flipped).T)
            added = flip_ci[which] * n_vertices + member
            queue[tail:tail + len(added)] = added
            tail += len(added)
    transitions = int(degree[queue[:tail] // n_vertices].sum())
    # the witness replay below builds comp_key, one int64 per state: the
    # fixed point's arrays are not needed by then
    del queue, safe, ptr, succ, degree

    winning = ((cop_rank > 0) | (comp_id == taken)).all(axis=0)
    witness_ci = int(winning.argmax()) if winning.any() else None

    table = _Table(
        graph=g,
        k=k,
        configs=configs,
        index=index,
        nbhd=nbhd,
        padded=padded,
        cop_win=cop_rank > 0,
        cop_rank=cop_rank,
        comp_id=comp_id,
        witness=witness_ci,
        transitions=transitions,
    )
    witness = None
    if witness_ci is not None:
        witness = tuple(configs[witness_ci].tolist())

    result = SolveResult(
        graph=g,
        k=k,
        cops_win=witness_ci is not None,
        witness_placement=witness,
        states_explored=2 * n_cfg * n_vertices,
        transitions=transitions,
        elapsed=time.perf_counter() - start,
        table=table,
    )
    if result.cops_win and verify_witness:
        _verify_witness(result)
        result.witness_verified = True
        result.elapsed = time.perf_counter() - start
    return result


def _verify_witness(result: SolveResult):
    cop_policy, robber_policy = extract_policies(result)
    limit = result.states_explored + 4
    trace = run_match(
        result.graph, cop_policy, robber_policy, result.k, max_rounds=limit, record_events=False
    )
    if trace.outcome != "capture":
        placement = tuple(map(result.graph.vertex_at, result.witness_placement))
        raise ReplayError(f"witness replay failed: {trace.outcome} from {placement}")


def cop_number(g: GraphSpec, k_max: int | None = None, cap: int = DEFAULT_STATE_CAP,
               verify_witness: bool = True) -> CopNumberResult:
    """Smallest k <= k_max winning for the cops, or None if none does.

    Searches upward from k=1 (cop ability is monotone in k, so the first
    win is the cop number).  k_max defaults to the vertex count, which
    always suffices.
    """
    start = time.perf_counter()
    if k_max is None:
        k_max = g.vertex_count
    elif k_max < 1:
        raise ConfigurationError(f"k_max must be >= 1, got {k_max}")
    states = transitions = 0
    per_k = []
    answer = None
    witness = None
    for k in range(1, k_max + 1):
        res = solve_game(g, k, cap=cap, verify_witness=verify_witness)
        per_k.append(res)
        states += res.states_explored
        transitions += res.transitions
        if res.cops_win:
            answer = k
            witness = res.witness_placement
            break
    return CopNumberResult(
        graph=g,
        k_max=k_max,
        cop_number=answer,
        witness_placement=witness,
        states_explored=states,
        transitions=transitions,
        elapsed=time.perf_counter() - start,
        per_k=per_k,
    )


# --------------------------------------------------------------------------
# Policies read off the solved table
# --------------------------------------------------------------------------


# entries of the _local_columns cache: every size tuple of a 2D grid with
# four cops (3^4 = 81) fits
LOCAL_COLUMNS_CACHE = 128


@lru_cache(maxsize=LOCAL_COLUMNS_CACHE)
def _local_columns(sizes):
    """(k, J) int8, J = prod(sizes): row i holds cop i's option (a position
    in its sorted closed neighbourhood, of sizes[i]) in each joint move, in
    itertools.product order.  int8 holds positions up to 127: a closed
    neighbourhood of 128 vertices needs a graph of at least 3^63 vertices,
    far past INDEX_STATE_LIMIT."""
    local = np.indices(sizes, dtype=np.int8).reshape(len(sizes), -1)
    local.flags.writeable = False
    return local


class TableCops(CopStrategy):
    """Plays the solved table: the first capturing joint move, otherwise the
    joint move whose successor robber-state settled earliest, otherwise
    (from a losing state) standing still.  Joint moves are ordered as
    itertools.product over the cops, in state order, of their sorted closed
    neighbourhoods; "first" is in that order.

    A capture turn builds no joint move: when the cops' first options
    already hold the robber they are the move, and otherwise the first
    capturing move is theirs with the last cop whose neighbourhood holds
    the robber stepping onto it.  Any other turn gathers every joint move
    from per-cop columns of local option indices, sorts each move's
    coordinates with the solver's network, ranks the configurations and
    takes the first minimum of comp_key.  The columns are cached per tuple
    of neighbourhood sizes (_local_columns), at most LOCAL_COLUMNS_CACHE =
    128 entries of J x k int8 for J <= JOINT_MOVE_CAP joint moves: at most
    JOINT_MOVE_CAP x k bytes (64 KiB per cop) an entry, and 8 MiB per cop
    for a full cache.  reset raises ConfigurationError on a graph or cop
    count the table was not solved for."""

    name = "table-optimal-cops"

    def __init__(self, table: _Table):
        super().__init__()
        self.table = table

    def reset(self, graph, k, rng):
        t = self.table
        if graph != t.graph or k != t.k:
            raise ConfigurationError(f"table solved for k={t.k} on {format_graph(t.graph)}, "
                                     f"not for k={k} on {format_graph(graph)}")
        super().reset(graph, k, rng)

    def place(self, graph, k):
        t = self.table
        return t.configs[t.witness if t.witness is not None else 0].tolist()

    def move(self, state):
        t = self.table
        cops, r = state.cops, state.robber
        best = [t.nbhd[c][0] for c in cops]
        if r in best:
            return best
        for i in range(len(cops) - 1, -1, -1):
            if r in t.nbhd[cops[i]]:
                best[i] = r
                return best
        local = _local_columns(tuple(len(t.nbhd[c]) for c in cops))
        joints = [t.padded[c].take(options) for c, options in zip(cops, local)]
        succ = t.index(_sort_columns(list(joints)))
        # settle order of the successor robber-to-move state
        key = t.comp_key.take(t.comp_id[r].take(succ))
        i = int(key.argmin())
        if key[i] == _UNSETTLED:
            return list(cops)
        return [column.item(i) for column in joints]


class TableRobber(RobberStrategy):
    """Plays the solved table: any surviving destination (first in index
    order), otherwise the destination that settled last (slowest loss).
    reset raises ConfigurationError on a graph the table was not solved
    on."""

    name = "table-optimal-robber"

    def __init__(self, table: _Table):
        super().__init__()
        self.table = table

    def _pick(self, cfg_i, options):
        """options: candidate vertices, ascending."""
        t = self.table
        won = t.cop_win[options, cfg_i]
        if not won.all():
            return int(options[won.argmin()])
        return int(options[t.cop_rank[options, cfg_i].argmax()])

    def reset(self, graph, rng):
        t = self.table
        if graph != t.graph:
            raise ConfigurationError(f"table solved on {format_graph(t.graph)}, "
                                     f"not on {format_graph(graph)}")
        super().reset(graph, rng)

    def place(self, graph, cops):
        t = self.table
        ci = t.config_index(cops)
        options = np.flatnonzero(t.comp_id[:, ci] != t.comp_id.size)
        if not len(options):
            raise StrategyFault("no free vertex", side="robber")
        return self._pick(ci, options)

    def move(self, state):
        t = self.table
        ci = t.config_index(state.cops)
        column = t.comp_id[:, ci]
        options = np.flatnonzero(column == column[state.robber])
        return self._pick(ci, options)


def extract_policies(result: SolveResult):
    """Table-optimal cop and robber strategies for a solved instance."""
    if result.table is None:
        raise ValueError("solve result carries no table (k=0?)")
    return TableCops(result.table), TableRobber(result.table)
