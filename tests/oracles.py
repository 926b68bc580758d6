"""Independent reference implementations used to check the library.

Everything here is deliberately naive and derived from first principles:
explicit adjacency built by pairwise coordinate comparison, plain BFS, and
set-based flood fill, a trace parser that decodes every line whole, and
the 2D evaders' target selection read off per-vertex numpy arrays.
Nothing imports the library's graph arithmetic.
"""
import json
from collections import deque
from itertools import combinations_with_replacement, product

import numpy as np


def all_vertices(dims):
    """dims: sequence of (length, wrap) pairs."""
    return list(product(*(range(length) for length, _ in dims)))


def adjacent(u, v, dims):
    """Adjacency test straight from the product definition: the two tuples
    differ in exactly one coordinate, by 1 on a path or by 1 mod length on a
    cycle."""
    diff = [i for i in range(len(dims)) if u[i] != v[i]]
    if len(diff) != 1:
        return False
    i = diff[0]
    length, wrap = dims[i]
    gap = abs(u[i] - v[i])
    if wrap:
        return gap == 1 or gap == length - 1
    return gap == 1


def neighbours(v, dims):
    """The vertices adjacent to v, built from the product definition one
    coordinate at a time: moved by 1, mod length on a cycle, and dropped
    past the end of a path."""
    out = set()
    for i, (length, wrap) in enumerate(dims):
        for c in (v[i] - 1, v[i] + 1):
            if wrap:
                c %= length
            if 0 <= c < length and c != v[i]:
                out.add(v[:i] + (c,) + v[i + 1 :])
    return out


def explicit_adjacency(dims):
    verts = all_vertices(dims)
    adj = {v: set() for v in verts}
    for a in verts:
        for b in verts:
            if a != b and adjacent(a, b, dims):
                adj[a].add(b)
    return adj


def bfs_distance(adj, src, dst):
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        v, d = queue.popleft()
        for w in adj[v]:
            if w == dst:
                return d + 1
            if w not in seen:
                seen.add(w)
                queue.append((w, d + 1))
    return None


def distances_from(adj, sources):
    """Multi-source BFS: each vertex's distance to the nearest source."""
    dist = {v: 0 for v in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def flood(adj, blocked, src):
    """Connected component of src after deleting the blocked vertices."""
    assert src not in blocked
    comp = {src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in comp and w not in blocked:
                comp.add(w)
                queue.append(w)
    return comp


def all_components(adj, blocked):
    rest = set(adj) - set(blocked)
    comps = []
    while rest:
        comp = flood(adj, blocked, next(iter(rest)))
        comps.append(comp)
        rest -= comp
    return comps


def dims_of(graph_spec):
    """Convert a library GraphSpec into plain (length, wrap) pairs."""
    return [(d.length, d.wrap) for d in graph_spec.dims]


def cops_win_naive(dims, k):
    """Whether k cops catch an infinitely fast robber, by a plain least fixed
    point over ordered cop tuples.

    win[C] is the set of robber vertices r from which the cops, at C and to
    move, capture.  The cops win at (C, r) when some joint move C' lands on r
    or leaves r's component of G - C' inside win[C'].  Sets are bitmasks over
    the lexicographic vertex list.
    """
    adj = explicit_adjacency(dims)
    verts = all_vertices(dims)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    full = (1 << len(verts)) - 1
    configs = list(product(verts, repeat=k))
    occupied = {C: sum(bit[v] for v in set(C)) for C in configs}
    comps = {C: [sum(bit[v] for v in comp) for comp in all_components(adj, set(C))]
             for C in configs}
    moves = {C: list(product(*([v] + sorted(adj[v]) for v in C))) for C in configs}
    win = dict.fromkeys(configs, 0)
    changed = True
    while changed:
        # robber-to-move at C: lost on the cops' vertices and in every
        # component all of whose vertices are cop wins
        lost = {C: occupied[C] | sum(m for m in comps[C] if m & ~win[C] == 0) for C in configs}
        changed = False
        for C in configs:
            w = 0
            for D in moves[C]:
                w |= lost[D]
            if w != win[C]:
                win[C] = w
                changed = True
    return any(win[C] | occupied[C] == full for C in configs)


# comp_key of a component with an unsettled member: the robber survives there
UNSETTLED = np.iinfo(np.int64).max


def table_cops_reference(table, cops, robber):
    """The joint move table-optimal cops make, by brute force.

    Walks itertools.product over the cops' sorted closed neighbourhoods,
    built with `neighbours` (a vertex's index is its position in the
    lexicographic vertex list), and returns the first move that lands on
    the robber.  Otherwise it returns the first move with the least
    table.comp_key of its successor robber-to-move state (configurations
    ranked with table.config_index), or the cops as they stand when every
    successor is unsettled.
    """
    dims = dims_of(table.graph)
    verts = all_vertices(dims)
    at = {v: i for i, v in enumerate(verts)}
    closed = [sorted(at[u] for u in neighbours(verts[c], dims) | {verts[c]}) for c in cops]
    moves = list(product(*closed))
    for move in moves:
        if robber in move:
            return list(move)
    best, best_key = list(cops), UNSETTLED
    for move in moves:
        key = table.comp_key[table.comp_id[robber, table.config_index(move)]]
        if key < best_key:
            best, best_key = list(move), key
    return best


def robber_certificate_violations(dims, k, safe):
    """Check a claimed robber win: `safe` is a set of cops-to-move states
    (sorted cop tuple, robber vertex), robber off the cops.  It proves k
    cops lose when it is closed:

    * every placement of the cops leaves the robber a start in `safe`;
    * from every state in `safe`, no joint move lands on the robber, and
      every joint move C' leaves some r2 in the robber's component of
      G - C' with (sorted C', r2) in `safe`.

    Returns the violations found (empty when the certificate holds).
    """
    adj = explicit_adjacency(dims)
    verts = all_vertices(dims)
    configs = list(combinations_with_replacement(verts, k))
    violations = []
    # per configuration: each free vertex's component, and whether that
    # component holds a safe state
    comp_of = {}
    for C in configs:
        lookup = {}
        for comp in all_components(adj, set(C)):
            holds_safe = any((C, r) in safe for r in comp)
            for r in comp:
                lookup[r] = holds_safe
        comp_of[C] = lookup
    for C in configs:
        if not any((C, r) in safe for r in verts if r not in C):
            violations.append(f"placement {C} leaves no safe start")
    for C, r in safe:
        if r in C:
            violations.append(f"state {(C, r)} has the robber on a cop")
            continue
        for D in product(*([v] + sorted(adj[v]) for v in C)):
            if r in D:
                violations.append(f"state {(C, r)}: joint move {D} captures")
                break
            if not comp_of[tuple(sorted(D))][r]:
                violations.append(f"state {(C, r)}: joint move {D} leaves no safe state")
                break
    return violations


class TraceLineError(Exception):
    """A trace line that parse_trace rejects; line_no counts non-blank lines
    from 1, the header."""

    def __init__(self, line_no):
        super().__init__(f"trace line {line_no}")
        self.line_no = line_no


def _is_point(value):
    return type(value) is list and all(type(c) is int for c in value)


def parse_trace(text):
    """(header, events) of a JSON-lines trace, each line decoded on its own
    by json.loads and each event checked field by field, with nothing
    shared between lines.  Positions become tuples.

    Raises TraceLineError at the first line json.loads cannot decode (also
    one nested too deeply or holding too long an integer); when every line
    decodes, at the header (line 1) if it lacks a string graph or an integer
    k, max_rounds or version, and then at the first event that lacks a field
    or has one of the wrong type.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    records = []
    for line_no, ln in enumerate(lines, 1):
        try:
            records.append(json.loads(ln))
        except (ValueError, RecursionError):
            raise TraceLineError(line_no) from None
    header = records[0]
    if not (
        type(header) is dict
        and type(header.get("graph")) is str
        and all(type(header.get(key)) is int for key in ("k", "max_rounds", "version"))
    ):
        raise TraceLineError(1)
    fields = ("round", "phase", "event", "cops", "robber", "annotations")
    events = []
    for line_no, ev in enumerate(records[1:], 2):
        if not (
            type(ev) is dict
            and all(key in ev for key in fields)
            and type(ev["round"]) is int
            and type(ev["phase"]) is str
            and (ev["event"] is None or type(ev["event"]) is str)
            and type(ev["cops"]) is list
            and all(_is_point(c) for c in ev["cops"])
            and (ev["robber"] is None or _is_point(ev["robber"]))
            and type(ev["annotations"]) is dict
            and all(type(v) is str for v in ev["annotations"].values())
        ):
            raise TraceLineError(line_no)
        ev["cops"] = tuple(tuple(c) for c in ev["cops"])
        if ev["robber"] is not None:
            ev["robber"] = tuple(ev["robber"])
        events.append(ev)
    return header, events


# --------------------------------------------------------------------------
# 2D evader selection on per-vertex arrays
# --------------------------------------------------------------------------


def cop_board(dims, cops):
    """(occ, near), two arrays shaped like the graph: occ counts the cops on
    each vertex, near marks each vertex that holds a cop or neighbours one."""
    occ = np.zeros([length for length, _ in dims], dtype=np.intp)
    near = np.zeros(occ.shape, dtype=bool)
    for c in cops:
        occ[c] += 1
        for v in neighbours(c, dims) | {c}:
            near[v] = True
    return occ, near


def grid2d_select(occ, near):
    """Grid2DEvader's (target, annotations) on an n x n grid, n >= 4.

    Every window count is a slice sum over a view of occ: transposed for
    columns, then reflected per sector.  The pick in that canonical frame
    maps back through the same view of the vertex numbers x * n + y.
    """
    n = len(occ)
    number = np.arange(n * n).reshape(n, n)
    c0_high = (n + 1) // 2  # first column of the upper-coordinate half
    for perm, axes_label in (((0, 1), "rows"), ((1, 0), "cols")):
        o, nr, num = (a.transpose(perm) for a in (occ, near, number))
        for k in range(2, n - 1):
            for flip_y in (False, True):
                sy = -1 if flip_y else 1
                strip = o[:, ::sy][:, :k]
                total = int(strip.sum())
                if total > k - 2:
                    continue
                threshold = (k - 2) // 2
                high = int(strip[c0_high:].sum())
                for flip_x, count, width in (
                    (False, high, n - c0_high),
                    (True, total - high, c0_high),
                ):
                    if count > threshold:
                        continue
                    sx = -1 if flip_x else 1
                    v = _sector_pick(o[::sx, ::sy], nr[::sx, ::sy], k, width)
                    if v is not None:
                        side = ("bottom" if flip_y else "top") + "-" + (
                            "left" if flip_x else "right"
                        )
                        return divmod(int(num[::sx, ::sy][v]), n), {
                            "case": f"sparse-{axes_label}",
                            "window": k,
                            "sector": side,
                        }
    for perm, axes_label in (((0, 1), "rows"), ((1, 0), "cols")):
        o, nr, num = (a.transpose(perm) for a in (occ, near, number))
        v = _rigid_pick(o, nr)
        if v is not None:
            return divmod(int(num[v]), n), {"case": f"rigid-{axes_label}"}
    return None, None


def _sector_pick(occ, near, k, width):
    """Canonical-frame sector choice: sector = top k rows of the last
    `width` columns.  Returns None when no admissible vertex exists."""
    n = len(occ)
    if width < 2:
        return None
    c0 = n - width
    rows = occ[c0:, :k].sum(axis=0)  # cops per sector row
    if not rows[:2].any():
        return (c0 + 1, 0)
    for r in range(k - 3):
        if rows[r : r + 4].sum() <= 1:
            for y in (r + 1, r + 2):
                free = np.flatnonzero(~near[c0 + 1 :, y])
                if free.size:
                    return (c0 + 1 + int(free[0]), y)
    return None


def _rigid_pick(occ, near):
    """Canonical-frame choice for the one-cop-per-line configuration: the
    empty one of the two top rows, off the boundary columns."""
    top_two = occ[:, :2].sum(axis=0)
    if top_two.sum() != 1:
        return None
    empty_row = int(top_two[0])
    free = np.flatnonzero(~near[1:-1, empty_row])
    return (1 + int(free[0]), empty_row) if free.size else None


def torus_select(occ):
    """TorusEvader's (target, annotations) on an n x n torus, n >= 18: the
    first of six bands with at most 2h - 5 cops, its second nearly empty
    row and the middle of its first band-empty column triple."""
    n = len(occ)
    d, r = divmod(n, 6)
    row_count = occ.sum(axis=0)
    start = 0
    for h in [d + 1] * r + [d] * (6 - r):
        if row_count[start : start + h].sum() <= 2 * h - 5:
            break
        start += h
    else:
        return None, None
    nearly = np.flatnonzero(row_count[start : start + h] <= 1)
    free = ~occ[:, start : start + h].any(axis=1)
    free = np.concatenate((free, free[:2]))  # triples wrap around
    s = int(np.flatnonzero(free[:-2] & free[1:-1] & free[2:])[0])
    v = ((s + 1) % n, start + int(nearly[1]))
    return v, {"case": "band", "band_start": start, "band_height": h}
