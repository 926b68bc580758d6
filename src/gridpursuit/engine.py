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

    def validate(self):
        for c in self.cops:
            self.graph.check_vertex(c)
        if self.robber is not None:
            self.graph.check_vertex(self.robber)
        captured = self.robber is not None and self.robber in self.cops
        if captured != (self.phase is Phase.OVER and self.winner == "cops"):
            # capture-at-placement (no free vertex) also parks phase at OVER
            if not (self.phase is Phase.OVER and self.robber is None):
                raise RuleViolation("state capture flag inconsistent with positions")


def initial_state(g: GraphSpec) -> GameState:
    return GameState(g, (), None, Phase.COP_PLACEMENT)


def reachable_mask(g: GraphSpec, cops, frm, stop: int = 0) -> int:
    """Bitboard of the vertices the robber at frm can reach through cop-free
    paths: the connected component of frm after deleting every cop-occupied
    vertex, frm included.

    This is the engine's one reachability primitive.  frm must be a free
    vertex.  With a nonzero stop mask the flood fill ends as soon as it
    meets stop: the result is then only the part found so far, but it meets
    stop exactly when the whole component does.
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


def place_cops(state: GameState, positions) -> GameState:
    if state.phase is not Phase.COP_PLACEMENT:
        raise RuleViolation(f"cannot place cops during {state.phase.value}")
    positions = tuple(map(tuple, positions))
    for p in positions:
        state.graph.check_vertex(p)
    return replace(state, cops=positions, phase=Phase.ROBBER_PLACEMENT)


def place_robber(state: GameState, v) -> GameState:
    if state.phase is not Phase.ROBBER_PLACEMENT:
        raise RuleViolation(f"cannot place robber during {state.phase.value}")
    v = tuple(v)
    state.graph.check_vertex(v)
    if v in state.cops:
        raise RuleViolation(f"robber placement {v} is cop-occupied")
    return replace(state, robber=v, phase=Phase.COP_TURN, round=1)


def apply_cop_move(state: GameState, dests) -> GameState:
    """Joint cop move: dests[i] must lie in the closed neighborhood of cop i."""
    if state.phase is not Phase.COP_TURN:
        raise RuleViolation(f"not a cop turn: {state.phase.value}")
    dests = tuple(map(tuple, dests))
    if len(dests) != len(state.cops):
        raise RuleViolation(
            f"expected {len(state.cops)} destinations, got {len(dests)}"
        )
    g = state.graph
    for i, (src, dst) in enumerate(zip(state.cops, dests)):
        # a cop that stays put needs no check: its position is a vertex
        if dst != src:
            g.check_vertex(dst)
            if not g.adjacent(src, dst):
                raise RuleViolation(f"cop {i} cannot step {src} -> {dst}", cop_index=i)
    # direct construction: dataclasses.replace costs twice as much per turn
    if state.robber in dests:
        return GameState(g, dests, state.robber, Phase.OVER, state.round, "cops")
    return GameState(g, dests, state.robber, Phase.ROBBER_TURN, state.round)


def apply_robber_move(state: GameState, dest) -> GameState:
    """Robber relocation along any cop-free path; staying put is always legal."""
    if state.phase is not Phase.ROBBER_TURN:
        raise RuleViolation(f"not a robber turn: {state.phase.value}")
    dest = tuple(dest)
    g = state.graph
    g.check_vertex(dest)
    if dest in state.cops:
        raise RuleViolation(f"robber destination {dest} is cop-occupied")
    if dest != state.robber:
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
    """

    header: dict
    events: list = field(default_factory=list)
    outcome: str = "timeout"
    rounds: int = 0
    fault_side: str | None = None
    final_state: GameState | None = None
    robber_violations: int = 0


def _event(state: GameState, phase: Phase, round_no: int, tag=None, notes=None):
    return {
        "round": round_no,
        "phase": phase.value,
        "cops": list(map(list, state.cops)),
        "robber": list(state.robber) if state.robber is not None else None,
        "event": tag,
        "annotations": {str(k): str(v) for k, v in (notes or {}).items()},
    }


def _check_size(graph: GraphSpec):
    if graph.vertex_count > MAX_MATCH_VERTICES:
        raise ResourceLimitError(
            f"{format_graph(graph)} has {graph.vertex_count} vertices; matches are "
            f"capped at {MAX_MATCH_VERTICES}",
            estimate=graph.vertex_count,
            cap=MAX_MATCH_VERTICES,
        )


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

    Deterministic given the strategies and seed.  max_rounds defaults to
    4 * vertex_count: every guaranteed pursuit here finishes within a small
    multiple of the vertex count, so a timeout signals evader success.
    """
    if k < 1:
        raise ConfigurationError(f"cop count must be >= 1, got {k}")
    _check_size(graph)
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

    def record(state, phase, round_no, tag=None, notes=None):
        if record_events:
            trace.events.append(_event(state, phase, round_no, tag, notes))

    def fault(state, phase, round_no, side, err):
        record(state, phase, round_no, "fault", {"side": side, "error": str(err)})
        trace.outcome = "fault"
        trace.fault_side = side
        trace.rounds = round_no
        trace.final_state = state
        trace.robber_violations = len(robber_strategy.violations)
        return trace

    state = initial_state(graph)

    # placement: cops first, then the robber in response
    try:
        positions = cop_strategy.place(graph, k)
        if len(positions) != k:
            raise StrategyFault(f"cop placement returned {len(positions)} != k={k}")
        state = place_cops(state, positions)
    except (RuleViolation, StrategyFault, InvalidVertexError) as err:
        return fault(state, Phase.COP_PLACEMENT, 0, "cops", err)
    record(state, Phase.COP_PLACEMENT, 0, notes=cop_strategy.last_annotations)

    if len(set(state.cops)) >= graph.vertex_count:
        # every vertex is occupied: the robber cannot be placed
        state = replace(state, phase=Phase.OVER, winner="cops")
        record(state, Phase.ROBBER_PLACEMENT, 0, "capture", {"reason": "no-free-vertex"})
        trace.outcome = "capture"
        trace.rounds = 0
        trace.final_state = state
        return trace

    try:
        v0 = robber_strategy.place(graph, state.cops)
        state = place_robber(state, v0)
    except (RuleViolation, StrategyFault, InvalidVertexError) as err:
        return fault(state, Phase.ROBBER_PLACEMENT, 0, "robber", err)
    record(state, Phase.ROBBER_PLACEMENT, 0, notes=robber_strategy.last_annotations)

    while state.round <= max_rounds:
        acting_round = state.round
        try:
            dests = cop_strategy.move(state)
            state = apply_cop_move(state, dests)
        except (RuleViolation, StrategyFault, InvalidVertexError) as err:
            return fault(state, Phase.COP_TURN, acting_round, "cops", err)
        if state.winner == "cops":
            record(state, Phase.COP_TURN, acting_round, "capture",
                   cop_strategy.last_annotations)
            trace.outcome = "capture"
            trace.rounds = acting_round
            break
        record(state, Phase.COP_TURN, acting_round, notes=cop_strategy.last_annotations)

        try:
            dest = robber_strategy.move(state)
            state = apply_robber_move(state, dest)
        except (RuleViolation, StrategyFault, InvalidVertexError) as err:
            return fault(state, Phase.ROBBER_TURN, acting_round, "robber", err)
        tag = "timeout" if acting_round == max_rounds else None
        record(state, Phase.ROBBER_TURN, acting_round, tag,
               robber_strategy.last_annotations)
        if tag:
            trace.outcome = "timeout"
            trace.rounds = max_rounds

    trace.final_state = state
    trace.robber_violations = len(robber_strategy.violations)
    return trace


# --------------------------------------------------------------------------
# JSON-lines serialization and replay
# --------------------------------------------------------------------------


def trace_to_jsonl(trace: MatchTrace) -> str:
    """Serialize header + events, one JSON object per line, byte-stable."""
    if not trace.events:
        raise ValueError("trace has no recorded events (record_events=False?)")
    lines = [json.dumps(trace.header, sort_keys=True, separators=(",", ":"))]
    for ev in trace.events:
        lines.append(json.dumps(ev, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


_HEADER_FIELDS = {"graph": str, "k": int, "max_rounds": int, "version": int}
_EVENT_FIELDS = {"round", "phase", "event", "cops", "robber", "annotations"}
_TERMINAL = ("capture", "timeout", "fault")
_PHASES = {p.value: p for p in Phase}
_INT, _LIST = {int}, {list}


def _is_point(value) -> bool:
    return type(value) is list and _INT.issuperset(map(type, value))


def _is_points(value) -> bool:
    return (
        type(value) is list
        and _LIST.issuperset(map(type, value))
        and _INT.issuperset(map(type, _chain.from_iterable(value)))
    )


def _check_event(ev, line_no):
    """Raise TraceFormatError unless ev has the fields and types _event writes."""
    if type(ev) is not dict:
        raise TraceFormatError(f"trace line {line_no}: event is not a JSON object")
    if not ev.keys() >= _EVENT_FIELDS:
        missing = ", ".join(sorted(_EVENT_FIELDS - ev.keys()))
        raise TraceFormatError(f"trace line {line_no}: event lacks {missing}")
    if not (
        type(ev["round"]) is int
        and type(ev["phase"]) is str
        and (ev["event"] is None or type(ev["event"]) is str)
        and _is_points(ev["cops"])
        and (ev["robber"] is None or _is_point(ev["robber"]))
        and type(ev["annotations"]) is dict
    ):
        raise TraceFormatError(f"trace line {line_no}: event field of the wrong type")


def trace_from_jsonl(text: str) -> MatchTrace:
    """Parse a JSON-lines trace: a header line, then one line per event.

    Raises TraceFormatError when a line is not JSON or a record lacks a
    field or has one of the wrong type.  Legality is replay_trace's job.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ReplayError("empty trace")
    records = []
    for line_no, ln in enumerate(lines, 1):
        try:
            records.append(json.loads(ln))  # events stay in list-of-lists form, byte-stable
        except json.JSONDecodeError as err:
            raise TraceFormatError(f"trace line {line_no} is not JSON: {err}") from None
    header = records[0]
    if type(header) is not dict or any(
        type(header.get(key)) is not kind for key, kind in _HEADER_FIELDS.items()
    ):
        raise TraceFormatError(
            f"trace header needs {', '.join(_HEADER_FIELDS)} (string graph, integer rest)"
        )
    trace = MatchTrace(header=header)
    for line_no, ev in enumerate(records[1:], 2):
        _check_event(ev, line_no)
        trace.events.append(ev)
        if ev["event"] in _TERMINAL:
            trace.outcome = ev["event"]
            trace.rounds = ev["round"]
            if ev["event"] == "fault":
                trace.fault_side = ev["annotations"].get("side")
    return trace


def replay_trace(trace: MatchTrace) -> GameState:
    """Re-drive the engine with the recorded actions, checking every state.

    Raises ReplayError on the first divergence: an illegal move, a state or
    round the engine does not reach, a header whose version, k or graph
    disagrees with the events, or a trace that does not end in exactly one
    capture, timeout or fault event.  A header graph above the match cap
    raises ResourceLimitError.  Returns the final state.
    """
    header = trace.header
    if header["version"] != TRACE_VERSION:
        raise ReplayError(f"trace version {header['version']}, expected {TRACE_VERSION}")
    events = trace.events
    if not events or events[-1]["event"] not in _TERMINAL:
        raise ReplayError("trace does not end in a capture, timeout or fault event")
    graph = parse_graph(header["graph"])
    _check_size(graph)
    k = header["k"]
    last = len(events) - 1
    state = initial_state(graph)
    for i, ev in enumerate(events):
        phase, tag = _PHASES.get(ev["phase"]), ev["event"]
        cops = tuple(map(tuple, ev["cops"]))
        robber = tuple(ev["robber"]) if ev["robber"] is not None else None
        where = f"round {ev['round']} ({ev['phase']})"
        if phase is None:
            raise ReplayError(f"unknown phase at {where}")
        if tag is not None and (tag not in _TERMINAL or i != last):
            raise ReplayError(f"unexpected {tag!r} event at {where}")
        if ev["round"] != state.round:
            raise ReplayError(f"{where} recorded, engine is at round {state.round}")
        if tag == "fault":
            # positions on a fault line are the pre-fault state
            if state.cops != cops or state.robber != robber:
                raise ReplayError(f"fault at {where} records positions the engine never reached")
            break
        if len(cops) != k:
            raise ReplayError(f"{where} has {len(cops)} cops, header says k={k}")
        try:
            if phase is Phase.COP_PLACEMENT:
                state = place_cops(state, cops)
            elif phase is Phase.ROBBER_PLACEMENT:
                if tag == "capture":  # no free vertex existed
                    if state.phase is not Phase.ROBBER_PLACEMENT or (
                        len(set(state.cops)) < graph.vertex_count
                    ):
                        raise ReplayError(f"{where} records capture, but a free vertex exists")
                    state = replace(state, phase=Phase.OVER, winner="cops")
                else:
                    state = place_robber(state, robber)
            elif phase is Phase.COP_TURN:
                state = apply_cop_move(state, cops)
            elif phase is Phase.ROBBER_TURN:
                state = apply_robber_move(state, robber)
            else:
                raise ReplayError(f"no action is recorded in phase {phase.value} at {where}")
        except (RuleViolation, InvalidVertexError) as err:
            raise ReplayError(f"illegal action at {where} on {header['graph']}: {err}") from None
        if state.cops != cops or state.robber != robber:
            raise ReplayError(
                f"replay diverged at {where}: "
                f"engine {state.cops}/{state.robber} vs trace {cops}/{robber}"
            )
        if tag == "capture" and state.winner != "cops":
            raise ReplayError(f"trace records capture at round {ev['round']}, engine disagrees")
        if tag == "timeout" and (phase is not Phase.ROBBER_TURN
                                 or ev["round"] != header["max_rounds"]):
            raise ReplayError(f"timeout at {where}, header says max_rounds={header['max_rounds']}")
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
