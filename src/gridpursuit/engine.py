"""Rules of the game against an infinitely fast evader.

A round is a cop turn (each cop steps to a vertex in her closed
neighborhood, all moves applied jointly) followed by a robber turn (the
robber relocates anywhere within the cop-free connected component of his
current vertex).  Capture is co-location only: a cop must land on the
robber; the robber may never end a move on an occupied vertex.

GameState values are immutable; run_match keeps all mutable strategy
memory inside the strategy instances, so distinct matches can run
concurrently as long as they do not share instances.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain as _chain
from itertools import compress, count
from operator import countOf, is_, is_not, ne

from .errors import (
    ConfigurationError,
    InvalidVertexError,
    ReplayError,
    ResourceLimitError,
    RuleViolation,
    StrategyFault,
    TraceFormatError,
)
from .grid import GraphSpec, format_graph, lattice, parse_graph

TRACE_VERSION = 1

# Largest graph run_match accepts.  Every turn floods bitboards of one bit
# per vertex, and the lattice behind them holds a mask of that size per
# dimension, so cost grows with the vertex count: at the cap (grid:1024x1024
# or cube:20) one round takes about 1-3 s and a random robber's move decode
# about 400 MiB, and cube:30 would need 8 GiB before the first move.  The
# largest graph the tests, demos and benchmark play is cube:14 (16384).
MAX_MATCH_VERTICES = 1 << 20
# Largest cop count run_match and replay_trace accept.  Placement lists
# every cop and every turn checks each cop's move, so cost grows with k: at
# the cap one round on grid:3x3 takes about 1-2 s and 300 MiB.  The largest
# count played anywhere is a 3D blockade's 2581 cops in the acceptance tests.
MAX_MATCH_COPS = 1 << 20


class Phase(Enum):
    COP_PLACEMENT = "cop-placement"
    ROBBER_PLACEMENT = "robber-placement"
    COP_TURN = "cop-turn"
    ROBBER_TURN = "robber-turn"
    OVER = "over"


@dataclass(frozen=True)
class GameState:
    """Snapshot between actions.

    round is 0 during placement, then counts completed-or-running rounds;
    it increments exactly when play passes from a robber turn back to a cop
    turn.  winner is set ("cops") only on capture; a timeout is a property
    of the match runner, not of the state.
    """

    graph: GraphSpec
    cops: tuple
    robber: tuple | None
    phase: Phase
    round: int = 0
    winner: str | None = None


def initial_state(g: GraphSpec) -> GameState:
    return GameState(g, (), None, Phase.COP_PLACEMENT)


def reachable_mask(g: GraphSpec, cops, frm, stop: int = 0) -> int:
    """Bitboard of the vertices the robber at frm can reach through cop-free
    paths: the connected component of frm after deleting every cop-occupied
    vertex, frm included.

    This is the engine's one reachability primitive.  frm must be a free
    vertex.  With a nonzero stop mask the flood fill ends as soon as it
    meets stop: the result is then a part of the component, or the whole
    component when the lattice kept it from an earlier flood of the same
    cops, and it meets stop exactly when the whole component does.
    """
    g.check_vertex(frm)
    lat = lattice(g)
    blocked = lat.mask_of(cops)
    start = g.index(frm)
    if blocked >> start & 1:
        raise RuleViolation(f"source {frm} is occupied by a cop")
    return lat.component(start, blocked, stop)


def reachable_set(g: GraphSpec, cops, frm) -> set:
    """Vertices the robber at frm can reach (see reachable_mask)."""
    return lattice(g).set_of(reachable_mask(g, cops, frm))


_INT, _SEQ, _TUPLE = {int}, {list, tuple}, {tuple}


def _is_points(value) -> bool:
    """Whether value is a list or tuple of lists or tuples of Python ints."""
    return (
        type(value) in _SEQ
        and _SEQ.issuperset(map(type, value))
        and _INT.issuperset(map(type, _chain.from_iterable(value)))
    )


def _int_tuples(points: list) -> bool:
    """Whether every entry of points is a tuple of Python ints."""
    return _TUPLE.issuperset(map(type, points)) and _INT.issuperset(
        map(type, _chain.from_iterable(points))
    )


def _vertices(answer) -> tuple:
    """A strategy's answer as a tuple of coordinate tuples, or
    InvalidVertexError.  Ranges are check_vertex's job.  apply_cop_move
    checks a long answer's changed entries alone (see _changed) and calls
    this only when that check does not pass, for the full check's error or
    to convert lists."""
    if not _is_points(answer):
        raise InvalidVertexError(f"not a list of int coordinate tuples: {answer!r}")
    return tuple(map(tuple, answer))


def _changed(answer, known) -> list | None:
    """The indices at which answer holds another object than known does,
    or None unless answer is a list or tuple as long as known and its
    entries at those indices are tuples of Python ints."""
    if type(answer) in _SEQ and len(answer) == len(known):
        changed = list(compress(count(), map(is_not, answer, known)))
        if _int_tuples(list(map(answer.__getitem__, changed))):
            return changed
    return None


def place_cops(state: GameState, positions) -> GameState:
    if state.phase is not Phase.COP_PLACEMENT:
        raise RuleViolation(f"cannot place cops during {state.phase.value}")
    positions = _vertices(positions)
    for p in positions:
        state.graph.check_vertex(p)
    return replace(state, cops=positions, phase=Phase.ROBBER_PLACEMENT)


def place_robber(state: GameState, v) -> GameState:
    if state.phase is not Phase.ROBBER_PLACEMENT:
        raise RuleViolation(f"cannot place robber during {state.phase.value}")
    (v,) = _vertices((v,))
    state.graph.check_vertex(v)
    if v in state.cops:
        raise RuleViolation(f"robber placement {v} is cop-occupied")
    return replace(state, robber=v, phase=Phase.COP_TURN, round=1)


# A configuration of at least this many cops is compared entry by entry
# with the one before it, by identity: apply_cop_move checks only the
# entries that are not the state's own tuples, and trace_to_jsonl reuses
# the texts of the shared ones.  On short configurations the index pass
# costs more than it saves: in apply_cop_move, with 15-20% of the entries
# unchanged it broke even at 18-23 cops and cost 5% at 8-12 (best of 31),
# while the level blockades, 252-342 cops with 93-96% unchanged, check
# about 3x faster.
_SHARE_MIN_COPS = 16


def apply_cop_move(state: GameState, dests) -> GameState:
    """Joint cop move: dests[i] must lie in the closed neighborhood of cop i.

    An answer of at least _SHARE_MIN_COPS entries is checked only where it
    holds another object than the state: an entry that is the very tuple
    state.cops holds at its index was checked when it entered the state (a
    GameState's positions are those the engine checked), and a tuple of
    ints cannot change, so it is neither type-checked again nor a move.  An
    equal entry that is another object, such as a fresh tuple, a list or a
    tuple holding a float or a bool, is checked as before.  Errors, their
    order (type, then the number of entries, then the first bad step) and
    their cop_index are those of the full check.
    """
    if state.phase is not Phase.COP_TURN:
        raise RuleViolation(f"not a cop turn: {state.phase.value}")
    g, cops = state.graph, state.cops
    if len(cops) < _SHARE_MIN_COPS or (changed := _changed(dests, cops)) is None:
        dests = _vertices(dests)
        if len(dests) != len(cops):
            raise RuleViolation(f"expected {len(cops)} destinations, got {len(dests)}")
        changed = compress(count(), map(ne, cops, dests))
    else:
        dests = tuple(dests)
    # only the cops whose entry changed are checked, and an equal entry is
    # no move: an int tuple equal to a vertex is one, and adjacent() is
    # true only of a neighbor in range, so the vertex check runs on a failed
    # step alone, to raise InvalidVertexError ahead of RuleViolation
    for i in changed:
        if not g.adjacent(cops[i], dests[i]) and cops[i] != dests[i]:
            g.check_vertex(dests[i])
            raise RuleViolation(f"cop {i} cannot step {cops[i]} -> {dests[i]}", cop_index=i)
    # direct construction: dataclasses.replace costs twice as much per turn
    if state.robber in dests:
        return GameState(g, dests, state.robber, Phase.OVER, state.round, "cops")
    return GameState(g, dests, state.robber, Phase.ROBBER_TURN, state.round)


def apply_robber_move(state: GameState, dest) -> GameState:
    """Robber relocation along any cop-free path; staying put is always legal."""
    if state.phase is not Phase.ROBBER_TURN:
        raise RuleViolation(f"not a robber turn: {state.phase.value}")
    (dest,) = _vertices((dest,))
    g = state.graph
    g.check_vertex(dest)
    if dest in state.cops:
        raise RuleViolation(f"robber destination {dest} is cop-occupied")
    # a step to a neighbour needs no flood: dest is cop-free, and so is the
    # robber's own vertex in any robber turn
    if dest != state.robber and not g.adjacent(state.robber, dest):
        target = 1 << g.index(dest)
        if not reachable_mask(g, state.cops, state.robber, target) & target:
            raise RuleViolation(f"no cop-free path from {state.robber} to {dest}")
    return GameState(g, state.cops, dest, Phase.COP_TURN, state.round + 1)


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------


class CopStrategy:
    """Base for cop sides: a placement rule plus a per-turn joint move rule.

    Subclasses may keep arbitrary private memory; reset() is called once per
    match with a seeded RNG.  last_annotations (str -> str) is merged into
    the trace after every action.
    """

    name = "cop-strategy"

    def __init__(self):
        self.rng = random.Random(0)
        self.last_annotations = {}

    def reset(self, graph: GraphSpec, k: int, rng: random.Random):
        self.rng = rng
        self.last_annotations = {}

    def place(self, graph: GraphSpec, k: int):
        raise NotImplementedError

    def move(self, state: GameState):
        raise NotImplementedError


class RobberStrategy:
    """Base for robber sides.

    The placement rule sees the graph and the cop configuration; the move
    rule sees the full state.  When check_invariants is set, strategies
    append human-readable entries to .violations whenever one of their
    per-turn guarantees fails (they still emit a legal move).
    """

    name = "robber-strategy"

    def __init__(self):
        self.rng = random.Random(0)
        self.last_annotations = {}
        self.check_invariants = False
        self.violations = []

    def reset(self, graph: GraphSpec, rng: random.Random):
        self.rng = rng
        self.last_annotations = {}
        self.violations = []

    def place(self, graph: GraphSpec, cops):
        raise NotImplementedError

    def move(self, state: GameState):
        raise NotImplementedError


# --------------------------------------------------------------------------
# Match orchestration and traces
# --------------------------------------------------------------------------


@dataclass
class MatchTrace:
    """Replayable record of one match.

    outcome is "capture", "timeout", or "fault"; rounds is the capture round
    (0 when the robber had no free placement vertex) or the number of
    completed rounds otherwise.

    Events hold positions as GameState does: "cops" is a tuple of
    coordinate tuples and "robber" a tuple or None.  Consecutive events
    with the same cop configuration share one "cops" tuple (a robber turn
    repeats the cop turn's), in traces that run_match records and in those
    trace_from_jsonl parses.  In a parsed trace, equal coordinates of the
    cops texts that went through its coordinate memo (those longer than
    _MEMO_MIN_CHARS characters) also share one tuple.  In a recorded one, a
    cop whose strategy answered with the tuple it stood on keeps that
    tuple in the next configuration (the blockades and the random cops do
    so).  A coordinate tuple kept this way, the same object at the same
    index, is what apply_cop_move does not check again and trace_to_jsonl
    does not encode again.
    """

    header: dict
    events: list = field(default_factory=list)
    outcome: str = "timeout"
    rounds: int = 0
    fault_side: str | None = None
    final_state: GameState | None = None
    robber_violations: int = 0


def _event(state: GameState, phase: Phase, round_no: int, tag=None, notes=None):
    """One trace event, holding the state's own position tuples."""
    return {
        "round": round_no,
        "phase": phase.value,
        "cops": state.cops,
        "robber": state.robber,
        "event": tag,
        "annotations": {str(k): str(v) for k, v in (notes or {}).items()},
    }


def _check_size(graph: GraphSpec, k: int):
    if k > MAX_MATCH_COPS:
        raise ResourceLimitError(
            f"{k} cops; matches are capped at {MAX_MATCH_COPS}", estimate=k, cap=MAX_MATCH_COPS
        )
    if graph.vertex_count > MAX_MATCH_VERTICES:
        raise ResourceLimitError(
            f"{format_graph(graph)} has {graph.vertex_count} vertices; matches are "
            f"capped at {MAX_MATCH_VERTICES}",
            estimate=graph.vertex_count,
            cap=MAX_MATCH_VERTICES,
        )


def _play(graph, cop_side, robber_side, k, max_rounds, emit):
    """The placement and turn sequence of one match, shared by run_match and
    replay_trace.

    Calls emit(state, phase, round_no, tag, notes) once per event, in trace
    order, and returns (outcome, rounds, fault_side, final_state).  A side's
    RuleViolation, StrategyFault or InvalidVertexError ends the match in a
    fault event that holds the state before the failed action.  k and
    max_rounds are not checked here.
    """
    state = initial_state(graph)
    phase, round_no = Phase.COP_PLACEMENT, 0
    try:
        # placement: cops first, then the robber in response
        placed = place_cops(state, cop_side.place(graph, k))
        if len(placed.cops) != k:
            raise StrategyFault(f"cop placement returned {len(placed.cops)} != k={k}")
        state = placed
        emit(state, phase, 0, None, cop_side.last_annotations)
        if len(set(state.cops)) >= graph.vertex_count:
            # every vertex is occupied: the robber cannot be placed
            state = replace(state, phase=Phase.OVER, winner="cops")
            emit(state, Phase.ROBBER_PLACEMENT, 0, "capture", {"reason": "no-free-vertex"})
            return "capture", 0, None, state
        phase = Phase.ROBBER_PLACEMENT
        state = place_robber(state, robber_side.place(graph, state.cops))
        emit(state, phase, 0, None, robber_side.last_annotations)

        while state.round <= max_rounds:
            round_no, phase = state.round, Phase.COP_TURN
            state = apply_cop_move(state, cop_side.move(state))
            if state.winner:
                emit(state, phase, round_no, "capture", cop_side.last_annotations)
                return "capture", round_no, None, state
            emit(state, phase, round_no, None, cop_side.last_annotations)
            phase = Phase.ROBBER_TURN
            state = apply_robber_move(state, robber_side.move(state))
            tag = "timeout" if round_no == max_rounds else None
            emit(state, phase, round_no, tag, robber_side.last_annotations)
        return "timeout", max_rounds, None, state
    except (RuleViolation, StrategyFault, InvalidVertexError) as err:
        side = "cops" if phase in (Phase.COP_PLACEMENT, Phase.COP_TURN) else "robber"
        emit(state, phase, round_no, "fault", {"side": side, "error": str(err)})
        return "fault", round_no, side, state


def run_match(
    graph: GraphSpec,
    cop_strategy: CopStrategy,
    robber_strategy: RobberStrategy,
    k: int,
    *,
    max_rounds: int | None = None,
    seed: int = 0,
    check_invariants: bool = False,
    record_events: bool = True,
) -> MatchTrace:
    """Play one match to capture, timeout, or strategy fault.

    Checks k, max_rounds and the graph size, resets both strategies from
    seed, then plays the turn sequence that replay_trace also drives.
    Deterministic given the strategies and seed.  max_rounds defaults to
    4 * vertex_count: every guaranteed pursuit here finishes within a small
    multiple of the vertex count, so a timeout signals evader success.
    """
    if k < 1:
        raise ConfigurationError(f"cop count must be >= 1, got {k}")
    _check_size(graph, k)
    if max_rounds is None:
        max_rounds = 4 * graph.vertex_count
    if max_rounds < 1:
        raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")

    cop_strategy.reset(graph, k, random.Random(2 * seed))
    robber_strategy.check_invariants = check_invariants
    robber_strategy.reset(graph, random.Random(2 * seed + 1))

    trace = MatchTrace(
        header={
            "graph": format_graph(graph),
            "cop_strategy": cop_strategy.name,
            "robber_strategy": robber_strategy.name,
            "k": k,
            "max_rounds": max_rounds,
            "seed": seed,
            "version": TRACE_VERSION,
        }
    )

    def record(state, phase, round_no, tag, notes):
        if record_events:
            trace.events.append(_event(state, phase, round_no, tag, notes))

    trace.outcome, trace.rounds, trace.fault_side, trace.final_state = _play(
        graph, cop_strategy, robber_strategy, k, max_rounds, record
    )
    trace.robber_violations = len(robber_strategy.violations)
    return trace


# --------------------------------------------------------------------------
# JSON-lines serialization and replay
# --------------------------------------------------------------------------


_HEADER_FIELDS = {"graph": str, "k": int, "max_rounds": int, "version": int}
_EVENT_FIELDS = {"round", "phase", "event", "cops", "robber", "annotations"}
_TERMINAL = ("capture", "timeout", "fault")

# json.dumps(obj, sort_keys=True, separators=(",", ":")), without building
# an encoder per call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _cops_json(cops, last, last_json, pieces):
    """The JSON text of cops, given the last configuration written (last),
    its text and, when known, its per-coordinate texts: (text, pieces of
    cops or None).

    When cops has at least _SHARE_MIN_COPS entries, at least half of them
    are the very objects at the same index in last, and every entry of
    last and every other entry of cops is a tuple of Python ints, the
    shared entries reuse last's texts and the others are encoded together
    by one _encode call, split on "],[".  An int tuple's text is "[" + its
    ints + "]", with no "],[" inside, so the joined text is the one _encode
    gives for the whole.  Otherwise cops is encoded whole.
    """
    if (
        type(cops) in _SEQ
        and type(last) in _SEQ
        and len(last) >= _SHARE_MIN_COPS
        and 2 * countOf(map(is_, cops, last), True) >= len(cops)
        and (changed := _changed(cops, last)) is not None
        and (pieces is not None or _int_tuples(last))
    ):
        # the identity count first: it is cheaper than _changed's type
        # check, which a configuration that keeps less than half skips
        pieces = last_json[2:-2].split("],[") if pieces is None else pieces.copy()
        if changed:
            fresh = list(map(cops.__getitem__, changed))
            for i, text in zip(changed, _encode(fresh)[2:-2].split("],[")):
                pieces[i] = text
        return "[[" + "],[".join(pieces) + "]]", pieces
    return _encode(cops), None


def trace_to_jsonl(trace: MatchTrace) -> str:
    """Serialize header + events, one JSON object per line, byte-stable.

    Each line is json.dumps(record, sort_keys=True, separators=(",", ":")).
    An event with exactly the six fields _event writes is assembled from
    its encoded parts, and "cops" shared with the event before (the same
    object) is encoded once for both.  A new "cops" that keeps at least
    half of the previous one's coordinate tuples, the same objects at the
    same index, reuses their texts and encodes only the others (see
    _cops_json): a level blockade's wall stands still while a few reserves
    walk.  The writer's state lives in the call.
    """
    if not trace.events:
        raise ValueError("trace has no recorded events (record_events=False?)")
    lines = [_encode(trace.header)]
    cops, cops_json, pieces = None, "null", None  # a pair _encode agrees with
    for ev in trace.events:
        if type(ev) is not dict or ev.keys() != _EVENT_FIELDS:
            lines.append(_encode(ev))
            continue
        if ev["cops"] is not cops:
            cops_json, pieces = _cops_json(ev["cops"], cops, cops_json, pieces)
            cops = ev["cops"]
        # sorted keys: annotations, cops, then the rest in one object
        rest = _encode({"event": ev["event"], "phase": ev["phase"],
                        "robber": ev["robber"], "round": ev["round"]})
        lines.append(f'{{"annotations":{_encode(ev["annotations"])},"cops":{cops_json},{rest[1:]}')
    return "\n".join(lines) + "\n"


def _check_event(ev, line_no, checked):
    """Raise TraceFormatError unless ev has the fields and types _event writes.

    A "cops" value that is the list checked, the same object, or a tuple
    (only the coordinate memo makes one, already checked) is not checked
    again.
    """
    if type(ev) is not dict:
        raise TraceFormatError(f"trace line {line_no}: event is not a JSON object")
    if not ev.keys() >= _EVENT_FIELDS:
        missing = ", ".join(sorted(_EVENT_FIELDS - ev.keys()))
        raise TraceFormatError(f"trace line {line_no}: event lacks {missing}")
    if not (
        type(ev["round"]) is int
        and type(ev["phase"]) is str
        and (ev["event"] is None or type(ev["event"]) is str)
        and (ev["cops"] is checked or type(ev["cops"]) is tuple or _is_points(ev["cops"]))
        and (ev["robber"] is None or _is_points([ev["robber"]]))
        and type(ev["annotations"]) is dict
        and all(type(note) is str for note in ev["annotations"].values())
    ):
        raise TraceFormatError(f"trace line {line_no}: event field of the wrong type")


def _load(ln, line_no):
    """json.loads of one trace line, or TraceFormatError."""
    try:
        return json.loads(ln)
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"trace line {line_no} is not JSON: {err}") from None
    except (RecursionError, ValueError) as err:
        # nested past the recursion limit, or an integer past the int-string
        # digit limit
        raise TraceFormatError(f"trace line {line_no} cannot be decoded: {err}") from None


# the scanner json.loads runs (the C one where built): scan(text, at) gives
# the JSON value that starts at text[at] and the index after it
_scan = json.JSONDecoder().scan_once
_TAIL_FIELDS = _EVENT_FIELDS - {"annotations", "cops"}

# A new "cops" text longer than this many characters is decoded through the
# parse's coordinate memo, a shorter one by the scanner whole.  A coordinate
# the memo holds costs a dict lookup, a new one about twice its share of a
# whole scan, so the memo wins on long texts whose coordinates repeat.  On
# traces of random cops where about 90% of a new configuration's coordinates
# had appeared before, a line parsed in 0.95-1.02x the scan's time from 28 to
# 84 characters and in 0.84-0.92x from 98 to 165 characters, crossing near
# 90; on the 25-40 character lines of solver witnesses, where half repeat,
# it took 1.3x.
_MEMO_MIN_CHARS = 128


def _memo_points(text, memo):
    """A "cops" text as a tuple of coordinate tuples taken from memo, or
    None when it is not the canonical JSON of a list of int lists.

    memo maps a piece of text, the inside of one coordinate's brackets, to
    the int tuple _encode writes as "[" + piece + "]".  The pieces of a text
    "[[...]]" are its inside split on "],[".  The pieces memo lacks are
    decoded together in one scan and stored only if they are int lists that
    _encode gives back as the very text scanned.  When every piece maps,
    text is the canonical JSON of those tuples, so json.loads would give
    the same ints.  A scan error propagates.
    """
    if not (text.startswith("[[") and text.endswith("]]")):
        return None
    pieces = text[2:-2].split("],[")
    missing = [piece for piece in pieces if piece not in memo]
    if missing:
        joined = "[[" + "],[".join(missing) + "]]"
        points = _scan(joined, 0)[0]
        if not _is_points(points) or _encode(points) != joined:
            return None
        memo.update(zip(missing, map(tuple, points)))
    return tuple(map(memo.__getitem__, pieces))


def _load_written(ln, last, memo):
    """An event line laid out as trace_to_jsonl writes it, decoded in parts:
    (event, (its "cops" text, the value it decoded to)), or None for a line
    of any other layout.

    A "cops" text equal to the one in last is not decoded again: the event
    holds last's value, since equal text decodes to an equal value, types
    included.  A new text longer than _MEMO_MIN_CHARS ends at the first
    ',"event":' after it (canonical text holds no quote) and is looked up
    coordinate by coordinate in memo, a dict that lives for one parse (see
    _memo_points): the event then holds a tuple of memo's tuples, checked
    and converted.  Any other text is scanned whole into a list.  The parts
    give json.loads(ln): the line must be "annotations", then "cops", then
    an object of exactly the other four fields, and a JSON value ends where
    its text does.
    """
    if not ln.startswith('{"annotations":'):
        return None
    notes, at = _scan(ln, 15)
    if not ln.startswith(',"cops":', at):
        return None
    at += 8
    if last and ln.startswith(last[0], at) and ln.startswith(',"event":', at + len(last[0])):
        cops, end = last[1], at + len(last[0])
    else:
        end = ln.find(',"event":', at)
        cops = _memo_points(ln[at:end], memo) if end - at > _MEMO_MIN_CHARS else None
        if cops is None:
            cops, end = _scan(ln, at)
            if not ln.startswith(',"event":', end):
                return None
        last = ln[at:end], cops
    tail, stop = _scan("{" + ln[end + 1:], 0)
    if stop != len(ln) - end or tail.keys() != _TAIL_FIELDS:
        return None
    return {"annotations": notes, "cops": cops, **tail}, last


def trace_from_jsonl(text: str) -> MatchTrace:
    """Parse a JSON-lines trace: a header line, then one line per event.

    Raises TraceFormatError when a line is not JSON (or nests deeper than
    the recursion limit, or holds an integer longer than Python's int-string
    limit) or a record lacks a field or has one of the wrong type; every
    line is decoded before any record is checked.  Positions become tuples,
    as in the events run_match records, and consecutive equal cop
    configurations share one tuple.  Legality is replay_trace's job.

    An event line in trace_to_jsonl's layout is decoded in parts, and a
    "cops" text that repeats the line before (a robber turn repeats the cop
    turn's) is decoded, checked and converted once.  A new "cops" text
    longer than _MEMO_MIN_CHARS characters (on a 3D grid, about 15 cops
    or more) is read through a coordinate memo local to the call: each
    distinct coordinate text is decoded, checked and converted once per
    parse, and equal coordinates share one tuple.  A text takes the memo
    only when it is the canonical JSON of its coordinates, which json.loads
    decodes to the same ints, so results and error precedence are
    unchanged; any other text is scanned whole.  Any other line goes
    through json.loads whole, with the same result.  No state outlives the
    call, so parses may run concurrently.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ReplayError("empty trace")
    records = [_load(lines[0], 1)]
    last = None  # the text and value of the last "cops" decoded in parts
    memo = {}  # coordinate text -> int tuple, for this parse only
    for line_no, ln in enumerate(lines[1:], 2):
        try:
            parsed = _load_written(ln, last, memo)
        except (StopIteration, ValueError, RecursionError):
            parsed = None  # json.loads raises the error, or decodes the line
        ev, last = parsed or (_load(ln, line_no), None)
        records.append(ev)
    header = records[0]
    if type(header) is not dict or any(
        type(header.get(key)) is not kind for key, kind in _HEADER_FIELDS.items()
    ):
        raise TraceFormatError(
            f"trace header needs {', '.join(_HEADER_FIELDS)} (string graph, integer rest)"
        )
    trace = MatchTrace(header=header)
    raw, cops = [], ()  # the last cops value checked and its tuple
    for line_no, ev in enumerate(records[1:], 2):
        # a value taken over from the line before was checked there.  An
        # equal list is shared only after its check: 1.0 == 1 and
        # True == 1, so it may still hold a float or a bool coordinate.
        # A tuple came from the memo, checked and converted
        _check_event(ev, line_no, raw)
        if type(ev["cops"]) is tuple:
            cops = ev["cops"]
        elif ev["cops"] != raw:
            cops = tuple(map(tuple, ev["cops"]))
        raw = ev["cops"]
        ev["cops"] = cops
        if ev["robber"] is not None:
            ev["robber"] = tuple(ev["robber"])
        trace.events.append(ev)
        if ev["event"] in _TERMINAL:
            trace.outcome = ev["event"]
            trace.rounds = ev["round"]
            if ev["event"] == "fault":
                trace.fault_side = ev["annotations"].get("side")
    return trace


def _where(ev) -> str:
    return f"round {ev['round']} ({ev['phase']})"


class _Replay:
    """Checks each event the match loop emits against the next recorded one:
    the round, the phase, the tag and every position."""

    def __init__(self, trace: MatchTrace):
        self.events = trace.events
        self.header = trace.header
        self.at = 0  # index of the next recorded event

    def check(self, state, phase, round_no, tag, notes):
        ev = self.events[self.at]
        self.at += 1
        recorded = ev["event"]
        if recorded == "capture" != tag:
            raise ReplayError(
                f"trace records capture at {_where(ev)}, but a free vertex is left to the robber"
            )
        if tag == "fault" and (recorded != tag or ev["annotations"].get("side") != notes["side"]):
            raise ReplayError(
                f"illegal action at {_where(ev)} on {self.header['graph']}: {notes['error']}"
            )
        if (ev["round"], ev["phase"], recorded) != (round_no, phase.value, tag):
            raise ReplayError(
                f"trace has {_where(ev)} with event {recorded!r}, the engine plays round "
                f"{round_no} ({phase.value}) with event {tag!r} under "
                f"max_rounds={self.header['max_rounds']}"
            )
        if (state.cops, state.robber) != (ev["cops"], ev["robber"]):
            raise ReplayError(
                f"replay diverged at {_where(ev)}: engine {state.cops}/{state.robber} "
                f"vs trace {list(map(list, ev['cops']))}/{ev['robber']}"
            )


class _Script:
    """A recorded side: answers with the positions and annotations of the
    event the match loop emits next, or raises that event's fault when the
    trace records one for this side ("cops" or "robber", also the field its
    positions are in)."""

    def __init__(self, replay: _Replay, side: str):
        self.replay, self.side = replay, side
        self.last_annotations = {}

    def move(self, *_):
        replay = self.replay
        # in range: replay_trace checked that the last event ends the match,
        # and check() raises unless the loop ends exactly there
        ev = replay.events[replay.at]
        notes = ev["annotations"]
        if ev["event"] == "fault" and notes.get("side") == self.side:
            raise StrategyFault(notes.get("error"))
        self.last_annotations = notes
        return ev[self.side]

    place = move


def replay_trace(trace: MatchTrace) -> GameState:
    """Re-drive the match loop with the recorded actions, checking every event.

    Both sides answer from the trace and run_match's own turn sequence
    plays them, so replay applies the same rules as play.  Every position
    of every event is compared with the recorded tuples, so events must
    hold positions as run_match records them and trace_from_jsonl parses
    them.  Raises ReplayError at the first event the loop does not emit as
    recorded: an illegal move, a state, round, phase or tag the engine does
    not reach (including events past the header's max_rounds, a fault
    whose side is not the acting one, and a cop count other than the
    header's k), an event after the match ended, a header version other
    than TRACE_VERSION, or a trace that does not end in a capture, timeout
    or fault event.  A header graph or k above the match caps raises
    ResourceLimitError.  Returns the final state.
    """
    header = trace.header
    if header["version"] != TRACE_VERSION:
        raise ReplayError(f"trace version {header['version']}, expected {TRACE_VERSION}")
    events = trace.events
    if not events or events[-1]["event"] not in _TERMINAL:
        raise ReplayError("trace does not end in a capture, timeout or fault event")
    graph = parse_graph(header["graph"])
    _check_size(graph, header["k"])
    replay = _Replay(trace)
    *_, state = _play(graph, _Script(replay, "cops"), _Script(replay, "robber"),
                      header["k"], header["max_rounds"], replay.check)
    if replay.at < len(events):
        raise ReplayError(f"unexpected event at {_where(events[replay.at])}: the match ended before it")
    return state


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def render_ascii(state: GameState) -> str:
    """Draw a state: C cop, R robber, X both, middle dot empty.

    2D graphs render as a grid (row y on line y); 3D graphs render
    plane-by-plane over the third coordinate; anything else lists
    coordinates.
    """
    g = state.graph
    cops = set(state.cops)

    def cell(v):
        if v in cops:
            return "X" if v == state.robber else "C"
        return "R" if v == state.robber else "·"

    if g.ndim == 1:
        return "".join(cell((x,)) for x in range(g.dims[0].length))
    if g.ndim == 2:
        w, h = g.dims[0].length, g.dims[1].length
        return "\n".join("".join(cell((x, y)) for x in range(w)) for y in range(h))
    if g.ndim == 3:
        w, h, depth = (d.length for d in g.dims)
        blocks = []
        for z in range(depth):
            rows = "\n".join(
                "".join(cell((x, y, z)) for x in range(w)) for y in range(h)
            )
            blocks.append(f"z={z}\n{rows}")
        return "\n\n".join(blocks)
    lines = [f"cop {i}: {c}" for i, c in enumerate(state.cops)]
    lines.append(f"robber: {state.robber}")
    return "\n".join(lines)
