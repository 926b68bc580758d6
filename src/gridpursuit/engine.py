"""Rules of the game against an infinitely fast evader.

A round is a cop turn (each cop steps to a vertex in her closed
neighborhood, all moves applied jointly) followed by a robber turn (the
robber relocates anywhere within the cop-free connected component of his
current vertex).  Capture is co-location only: a cop must land on the
robber; the robber may never end a move on an occupied vertex.

Positions are vertex indices (GraphSpec.index, the mixed-radix rank of a
vertex's coordinates): a state's cops are a tuple of ints, the robber an
int or None, and strategies answer the same way.  Coordinates appear only
at the boundary: in traces, in rendering and in the text of errors,
violations and annotations.

GameState values are immutable; run_match keeps all mutable strategy
memory inside the strategy instances, so distinct matches can run
concurrently as long as they do not share instances.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import compress, count
from operator import ne

from .errors import (
    ConfigurationError,
    InvalidVertexError,
    ReplayError,
    ResourceLimitError,
    RuleViolation,
    StrategyFault,
    TraceFormatError,
)
from .grid import MAX_MATCH_VERTICES, GraphSpec, format_graph, lattice, parse_graph

TRACE_VERSION = 1

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

    cops is a tuple of vertex indices, robber a vertex index or None before
    his placement; graph.vertex_at gives their coordinates.  round is 0
    during placement, then counts completed-or-running rounds; it
    increments exactly when play passes from a robber turn back to a cop
    turn.  winner is set ("cops") only on capture; a timeout is a property
    of the match runner, not of the state.
    """

    graph: GraphSpec
    cops: tuple
    robber: int | None
    phase: Phase
    round: int = 0
    winner: str | None = None


def initial_state(g: GraphSpec) -> GameState:
    return GameState(g, (), None, Phase.COP_PLACEMENT)


def _point(g: GraphSpec, v):
    """The coordinates of vertex index v; any other value as it is."""
    return g.vertex_at(v) if type(v) is int and 0 <= v < g.vertex_count else v


def _points(g: GraphSpec, vertices):
    """_point of each entry of a list or tuple; any other value as it is."""
    return [_point(g, v) for v in vertices] if type(vertices) in _SEQ else vertices


def _check_vertex(g: GraphSpec, v):
    if type(v) is not int or not 0 <= v < g.vertex_count:
        raise InvalidVertexError(f"{v!r} is not a vertex of {format_graph(g)}")


_INT, _STR, _SEQ = {int}, {str}, {list, tuple}


def _vertices(g: GraphSpec, answer) -> tuple:
    """A strategy's answer as a tuple of vertex indices, or
    InvalidVertexError at its first entry that is no vertex index: it must
    be a list or tuple of Python ints (a bool is not one) in
    range(vertex_count)."""
    if type(answer) not in _SEQ:
        raise InvalidVertexError(f"not a list of vertices: {answer!r}")
    for v in answer:
        _check_vertex(g, v)
    return tuple(answer)


def reachable_mask(g: GraphSpec, cops, frm: int, stop: int = 0) -> int:
    """Bitboard of the vertices the robber at index frm can reach through
    cop-free paths: the connected component of frm after deleting every
    cop-occupied vertex (cops: vertex indices), frm included.

    This is the engine's one reachability primitive.  frm must be a free
    vertex.  With a nonzero stop mask the flood fill ends as soon as it
    meets stop: the result is then a part of the component, or the whole
    component when the lattice kept it from an earlier flood of the same
    cops, and it meets stop exactly when the whole component does.
    """
    _check_vertex(g, frm)
    lat = lattice(g)
    blocked = lat.mask_of(cops)
    if blocked >> frm & 1:
        raise RuleViolation(f"source {g.vertex_at(frm)} is occupied by a cop")
    return lat.component(frm, blocked, stop)


def reachable_set(g: GraphSpec, cops, frm: int) -> set:
    """Indices of the vertices the robber at frm can reach (see
    reachable_mask)."""
    return lattice(g).set_of(reachable_mask(g, cops, frm))


def place_cops(state: GameState, positions) -> GameState:
    if state.phase is not Phase.COP_PLACEMENT:
        raise RuleViolation(f"cannot place cops during {state.phase.value}")
    return replace(state, cops=_vertices(state.graph, positions), phase=Phase.ROBBER_PLACEMENT)


def place_robber(state: GameState, v) -> GameState:
    if state.phase is not Phase.ROBBER_PLACEMENT:
        raise RuleViolation(f"cannot place robber during {state.phase.value}")
    _check_vertex(state.graph, v)
    if v in state.cops:
        raise RuleViolation(f"robber placement {state.graph.vertex_at(v)} is cop-occupied")
    return replace(state, robber=v, phase=Phase.COP_TURN, round=1)


def apply_cop_move(state: GameState, dests) -> GameState:
    """Joint cop move: dests[i], a vertex index, must lie in the closed
    neighborhood of cop i.

    dests must be a list or tuple of Python ints as long as state.cops.
    Only the cops whose entry differs from the state's are checked, each
    by index arithmetic (GraphSpec.is_edge): an entry equal to the state's
    is a vertex already.  Errors come in this order: a value that is no
    list of ints (InvalidVertexError), the number of entries, then the
    first cop in order whose step fails, as InvalidVertexError when its
    destination is off the graph and otherwise as RuleViolation with that
    cop's cop_index.
    """
    if state.phase is not Phase.COP_TURN:
        raise RuleViolation(f"not a cop turn: {state.phase.value}")
    g, cops = state.graph, state.cops
    if type(dests) not in _SEQ or not _INT.issuperset(map(type, dests)):
        _vertices(g, dests)  # raises the type error
    if len(dests) != len(cops):
        raise RuleViolation(f"expected {len(cops)} destinations, got {len(dests)}")
    for i in compress(count(), map(ne, cops, dests)):
        if not g.is_edge(cops[i], dests[i]):
            _check_vertex(g, dests[i])
            raise RuleViolation(f"cop {i} cannot step {g.vertex_at(cops[i])} -> "
                                f"{g.vertex_at(dests[i])}", cop_index=i)
    dests = tuple(dests)
    # direct construction: dataclasses.replace costs twice as much per turn
    if state.robber in dests:
        return GameState(g, dests, state.robber, Phase.OVER, state.round, "cops")
    return GameState(g, dests, state.robber, Phase.ROBBER_TURN, state.round)


def apply_robber_move(state: GameState, dest) -> GameState:
    """Robber relocation to the vertex index dest along any cop-free path;
    staying put is always legal."""
    if state.phase is not Phase.ROBBER_TURN:
        raise RuleViolation(f"not a robber turn: {state.phase.value}")
    g = state.graph
    _check_vertex(g, dest)
    if dest in state.cops:
        raise RuleViolation(f"robber destination {g.vertex_at(dest)} is cop-occupied")
    # a step to a neighbour needs no flood: dest is cop-free, and so is the
    # robber's own vertex in any robber turn
    if dest != state.robber and not g.is_edge(state.robber, dest):
        target = 1 << dest
        if not reachable_mask(g, state.cops, state.robber, target) & target:
            raise RuleViolation(
                f"no cop-free path from {g.vertex_at(state.robber)} to {g.vertex_at(dest)}")
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

    Events hold positions as GameState does: "cops" is a tuple of vertex
    indices and "robber" an index or None.  Consecutive events with the
    same cop configuration share one "cops" tuple (a robber turn repeats
    the cop turn's), in traces that run_match records and in those
    trace_from_jsonl parses.  A parsed trace may also hold a coordinate
    that is no vertex of its graph (out of range, or of another arity) as
    a tuple of ints, which replay rejects as an illegal action.
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
# _encode of the "event" and "phase" values met most, None and strings
_memo = lru_cache(maxsize=64)(_encode)


def _text(value) -> str:
    """_encode(value), from _memo for None and strings."""
    return _memo(value) if value is None or type(value) is str else _encode(value)


class _Codec:
    """One graph's vertex texts in traces: a vertex's coordinates as
    _encode writes them, without the brackets ("3,0,12").

    text maps a vertex index to its text and index a text to its vertex
    index.  Both fill as vertices are written or read, never ahead, so the
    table holds only the vertices met and nothing sized by the vertex
    count; an entry's text is one string shared by both maps.  Entries are
    added whole and never change, so concurrent writes and parses may
    share the table.
    """

    def __init__(self, graph: GraphSpec):
        self.graph, self.text, self.index = graph, {}, {}

    def _add(self, text: str, v: int):
        self.index[text] = v
        self.text[v] = text

    def _text_of(self, v: int) -> str:
        """The text of vertex index v (in range), added on first use."""
        if v not in self.text:
            self._add(",".join(map(str, self.graph.vertex_at(v))), v)
        return self.text[v]

    def _admit(self, text: str) -> bool:
        """Whether text is the canonical text of a vertex, which is then
        in the table: one int per dimension, in range, each as str(int)
        writes it (int() alone would also take signs, spaces and leading
        zeros)."""
        try:
            coords = tuple(map(int, text.split(",")))
        except ValueError:
            return False
        if ",".join(map(str, coords)) != text or not self.graph.contains(coords):
            return False
        self._add(text, self.graph.index(coords))
        return True

    def cops_json(self, cops) -> str:
        """The JSON text of a cop configuration, joined from the texts of
        its vertices, or _encode's text of its coordinates when an entry
        is no vertex index."""
        if type(cops) in _SEQ and _INT.issuperset(map(type, cops)):
            try:
                return "[[" + "],[".join(map(self.text.__getitem__, cops)) + "]]" if cops else "[]"
            except KeyError:
                if 0 <= min(cops) and max(cops) < self.graph.vertex_count:
                    return "[[" + "],[".join(map(self._text_of, cops)) + "]]"
        return _encode(_points(self.graph, cops))

    def point_json(self, v) -> str:
        """The JSON text of a robber position: its vertex's text in
        brackets, or _encode's text of a value that is no vertex index."""
        if type(v) is int and 0 <= v < self.graph.vertex_count:
            return "[" + self._text_of(v) + "]"
        return _encode(v)

    def cops_of(self, text: str):
        """The vertex indices of a "cops" text as a tuple, or None unless
        the text is the canonical JSON of a list of vertices, which
        json.loads decodes to the same coordinates."""
        if text == "[]":
            return ()
        if text[:2] != "[[" or text[-2:] != "]]":
            return None
        pieces = text[2:-2].split("],[")
        try:
            return tuple(map(self.index.__getitem__, pieces))
        except KeyError:
            if all(piece in self.index or self._admit(piece) for piece in pieces):
                return tuple(map(self.index.__getitem__, pieces))
        return None

    def index_of(self, text: str):
        """The vertex index of a canonical coordinate text, or None."""
        return self.index[text] if text in self.index or self._admit(text) else None

    def vertex(self, coords):
        """The vertex index of a list of ints, or the ints as a tuple when
        they are no vertex of the graph."""
        v = self.index_of(",".join(map(str, coords)))
        return tuple(coords) if v is None else v


# the codec table of each graph, made on first use
_codec = lru_cache(maxsize=256)(_Codec)


def trace_to_jsonl(trace: MatchTrace) -> str:
    """Serialize header + events, one JSON object per line, byte-stable.

    Each line is json.dumps(record, sort_keys=True, separators=(",", ":"))
    of the record with its positions as coordinate lists (graph.vertex_at
    of each index; a value that is no vertex index is written as it is).
    An event with exactly the six fields _event writes is assembled field
    by field: its "cops" text joins the texts the graph's codec table keeps
    per vertex, and "cops" shared with the event before (the same object)
    is joined once for both; its robber is its vertex's text in brackets;
    empty annotations are "{}", an int round is str(round), and "event"
    and "phase" come from a memo of their texts.  A field of any other
    type is written by the JSON encoder alone.  The header's graph must
    parse.
    """
    if not trace.events:
        raise ValueError("trace has no recorded events (record_events=False?)")
    codec = _codec(parse_graph(trace.header["graph"]))
    g = codec.graph
    lines = [_encode(trace.header)]
    cops, cops_json = None, "null"  # a pair _encode agrees with
    for ev in trace.events:
        if type(ev) is not dict or ev.keys() != _EVENT_FIELDS:
            if type(ev) is dict:  # positions as coordinates, where it has them
                ev = {**ev, **{key: (_points if key == "cops" else _point)(g, ev[key])
                               for key in ("cops", "robber") if key in ev}}
            lines.append(_encode(ev))
            continue
        if ev["cops"] is not cops:
            cops, cops_json = ev["cops"], codec.cops_json(ev["cops"])
        notes, round_no = ev["annotations"], ev["round"]
        notes = "{}" if type(notes) is dict and not notes else _encode(notes)
        round_no = str(round_no) if type(round_no) is int else _encode(round_no)
        # the six fields in sorted key order, as _encode writes them
        lines.append(f'{{"annotations":{notes},"cops":{cops_json},"event":{_text(ev["event"])},'
                     f'"phase":{_text(ev["phase"])},"robber":{codec.point_json(ev["robber"])},'
                     f'"round":{round_no}}}')
    return "\n".join(lines) + "\n"


def _is_point(value) -> bool:
    """Whether a decoded JSON value is a list of ints (a bool is not one)."""
    return type(value) is list and _INT.issuperset(map(type, value))


def _check_event(ev, line_no):
    """Raise TraceFormatError unless ev, as json.loads decodes a line, has
    the fields and types _event writes."""
    if type(ev) is not dict:
        raise TraceFormatError(f"trace line {line_no}: event is not a JSON object")
    if not ev.keys() >= _EVENT_FIELDS:
        missing = ", ".join(sorted(_EVENT_FIELDS - ev.keys()))
        raise TraceFormatError(f"trace line {line_no}: event lacks {missing}")
    if not (
        type(ev["round"]) is int
        and type(ev["phase"]) is str
        and (ev["event"] is None or type(ev["event"]) is str)
        and type(ev["cops"]) is list and all(map(_is_point, ev["cops"]))
        and (ev["robber"] is None or _is_point(ev["robber"]))
        and type(ev["annotations"]) is dict
        and _STR.issuperset(map(type, ev["annotations"].values()))
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
# the fields after "cops" in a form whose groups give what json.loads
# decodes: "event" null or a string, "phase" a string, each with no escape
# or control character; "robber" null or a list of digits and commas (the
# codec table decides whether it is canonical); "round" an int with fewer
# digits than any int-string limit
_TAIL = re.compile(r',"event":(?:null|"([^"\\\x00-\x1f]*)"),"phase":"([^"\\\x00-\x1f]*)",'
                   r'"robber":(?:null|\[([0-9,]*)\]),"round":(-?(?:0|[1-9][0-9]{0,99}))\}')


def _load_written(ln, last, codec):
    """An event line laid out as trace_to_jsonl writes it, decoded in parts
    with its positions as vertex indices: (event, (its "cops" text, the
    tuple it maps to)), or None for a line of any other layout, whose
    positions are not canonical coordinate lists, or with a field of
    another type or form.

    Annotations "{}" are read as they are; others are scanned, and must be
    an object of strings.  A "cops" text equal to the one in last is not
    decoded again: the event holds last's tuple.  A new text ends at the
    first ',"event":' after it (canonical text holds no quote) and maps
    coordinate by coordinate through codec.  The rest of the line must
    match _TAIL whole, and the robber's text map through codec.  An event
    decoded in parts equals json.loads(ln), with the types _check_event
    asks for.
    """
    if not ln.startswith('{"annotations":'):
        return None
    notes, at = ({}, 17) if ln.startswith("{}", 15) else _scan(ln, 15)
    if not (ln.startswith(',"cops":', at) and type(notes) is dict
            and _STR.issuperset(map(type, notes.values()))):
        return None
    at += 8
    if last and ln.startswith(last[0], at) and ln.startswith(',"event":', at + len(last[0])):
        cops, end = last[1], at + len(last[0])
    else:
        end = ln.find(',"event":', at)
        cops = codec.cops_of(ln[at:end]) if end > at else None
        if cops is None:
            return None
        last = ln[at:end], cops
    tail = _TAIL.fullmatch(ln, end)
    if tail is None:
        return None
    tag, phase, robber, round_no = tail.groups()
    if robber is not None and (robber := codec.index_of(robber)) is None:
        return None
    return {"annotations": notes, "cops": cops, "event": tag, "phase": phase, "robber": robber,
            "round": int(round_no)}, last


def trace_from_jsonl(text: str) -> MatchTrace:
    """Parse a JSON-lines trace: a header line, then one line per event.

    Raises TraceFormatError when a line is not JSON (or nests deeper than
    the recursion limit, or holds an integer longer than Python's int-string
    limit) or a record lacks a field or has one of the wrong type; every
    line is decoded before any record is checked.  Then the header's graph
    must parse (GraphFormatError).  Positions become vertex indices, as in
    the events run_match records, and consecutive equal cop configurations
    share one tuple.  A coordinate list that is no vertex of the graph (out
    of range, or of another arity) stays a tuple of ints, which replay
    rejects.  Legality is replay_trace's job.

    An event line in trace_to_jsonl's layout is decoded in parts
    (_load_written): each canonical coordinate text maps to its index
    through the graph's codec table, a "cops" text that repeats the line
    before (a robber turn repeats the cop turn's) is mapped once, and the
    other fields are read by one regular expression that admits only the
    types _check_event asks for.  Any other line, and one whose fields are
    not all in that form, goes through json.loads whole and _check_event,
    with the same result.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ReplayError("empty trace")
    records, whole = [header := _load(lines[0], 1)], []
    try:
        codec = _codec(parse_graph(header["graph"]))
    except (TypeError, KeyError, ValueError):  # GraphFormatError is a ValueError
        codec = None  # every line is decoded whole, and the header's error follows
    last = None  # the text and tuple of the last "cops" decoded in parts
    for line_no, ln in enumerate(lines[1:], 2):
        try:
            parsed = codec and _load_written(ln, last, codec)
        except (StopIteration, ValueError, RecursionError):
            parsed = None  # json.loads raises the error, or decodes the line
        ev, last = parsed or (_load(ln, line_no), None)
        if not parsed:
            whole.append((line_no, ev))
        records.append(ev)
    if type(header) is not dict or any(
        type(header.get(key)) is not kind for key, kind in _HEADER_FIELDS.items()
    ):
        raise TraceFormatError(
            f"trace header needs {', '.join(_HEADER_FIELDS)} (string graph, integer rest)"
        )
    for line_no, ev in whole:
        _check_event(ev, line_no)
    codec = codec or _codec(parse_graph(header["graph"]))
    trace = MatchTrace(header=header)
    cops = None
    for ev in records[1:]:
        if type(ev["cops"]) is list:  # decoded whole: coordinate lists
            ev["cops"] = tuple(map(codec.vertex, ev["cops"]))
            if ev["robber"] is not None:
                ev["robber"] = codec.vertex(ev["robber"])
        if ev["cops"] == cops:
            ev["cops"] = cops
        cops = ev["cops"]
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
            g = state.graph
            raise ReplayError(
                f"replay diverged at {_where(ev)}: engine {_points(g, state.cops)}/"
                f"{_point(g, state.robber)} vs trace {_points(g, ev['cops'])}/{_point(g, ev['robber'])}"
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
    of every event is compared with the recorded vertex indices, so events
    must hold positions as run_match records them and trace_from_jsonl
    parses them.  Raises ReplayError at the first event the loop does not emit as
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
    mark = dict.fromkeys(state.cops, "C")
    if state.robber is not None:
        mark[state.robber] = "X" if state.robber in mark else "R"
    if g.ndim > 3:
        lines = [f"cop {i}: {_point(g, c)}" for i, c in enumerate(state.cops)]
        return "\n".join(lines + [f"robber: {_point(g, state.robber)}"])
    # x runs along a line, y down the lines, z over the planes
    (w, h, depth), (sx, sy, sz) = (*g.lengths, 1, 1)[:3], (*g.strides, 0, 0)[:3]
    planes = ["\n".join("".join(mark.get(x * sx + y * sy + z * sz, "·") for x in range(w))
                        for y in range(h)) for z in range(depth)]
    return "\n\n".join(f"z={z}\n{plane}" for z, plane in enumerate(planes)) if g.ndim == 3 else planes[0]
