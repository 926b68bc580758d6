"""Command-line front end.

Subcommands: match, solve, copnum, count, bound, table, render, replay.
Outputs are single JSON objects (JSON-lines for traces); seeds always
appear in outputs, defaulted or not, so every run can be reproduced.

Exit codes: 0 completed (either side may have won); 1 replay mismatch: a
trace, or a solver's witness, that does not replay through the match loop
(an illegal or divergent move, a header whose version, k or graph disagrees
with the events, an event past the header's max_rounds, a fault whose side
is not the one acting in its phase, or no final capture/timeout/fault
event); 2 strategy fault, including a strategy answer that is not a
vertex index (or a list of them); 3 configuration/usage error, including
an error in the command line itself (an unknown subcommand, a missing
argument, an integer argument that is not ASCII digits after an optional
'-'), a negative --k or --cops and a malformed trace (a line that is not
JSON, is nested past the recursion limit or holds an integer past the
int-string digit limit, or a record missing a field); 4 resource cap
exceeded (the solver's state cap, its joint-move cap
solver.JOINT_MOVE_CAP or its successor-table cap solver.SUCCESSOR_CAP, a
graph above grid.MAX_MATCH_VERTICES,
a match or replay cop count above the engine's cop cap, or a count or
bound box past the level-count step cap).
"""
from __future__ import annotations

import argparse
import json
import sys

from .cops import make_cop_strategy
from .counts import best_level_bound, level_counts, min_large_component_bound
from .engine import (
    GameState,
    Phase,
    render_ascii,
    replay_trace,
    run_match,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .errors import ConfigurationError, GridPursuitError, ReplayError, ResourceLimitError
from .grid import _is_digits, format_graph, parse_graph
from .robbers import make_robber_strategy
from .solver import DEFAULT_STATE_CAP, cop_number, solve_game

EXIT_OK = 0
EXIT_REPLAY = 1
EXIT_FAULT = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _coords(graph, vertices):
    """Vertex indices as coordinate lists."""
    return [list(graph.vertex_at(v)) for v in vertices]


def _solved(res):
    """The fields a solver result reports: its witness placement as
    coordinate lists (or None), its state and transition counts, and its
    wall time in milliseconds."""
    return {
        "witness": None if res.witness_placement is None else _coords(res.graph, res.witness_placement),
        "states": res.states_explored,
        "transitions": res.transitions,
        "millis": round(res.elapsed * 1000, 3),
    }


def _replayed(path):
    """The trace in a file, and the final state its replay reaches."""
    with open(path, encoding="utf-8") as fh:
        trace = trace_from_jsonl(fh.read())
    return trace, replay_trace(trace)


def _int(text):
    """An int argument: ASCII digits after an optional '-', by the rule
    graph specs use (int() also takes "٣", "1_0" and other forms)."""
    text = text.strip()
    if _is_digits(text.removeprefix("-")):
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_dims(text):
    try:
        dims = tuple(_int(p) for p in text.split(","))
    except argparse.ArgumentTypeError:
        raise ConfigurationError(f"bad dims {text!r}; expected e.g. 5,5,5") from None
    if not dims or any(d < 1 for d in dims):
        raise ConfigurationError(f"dims must be positive integers, got {text!r}")
    return dims


def cmd_match(args) -> int:
    graph = parse_graph(args.graph)
    cops = make_cop_strategy(args.cop)
    robber = make_robber_strategy(args.robber, graph)
    trace = run_match(
        graph,
        cops,
        robber,
        args.k,
        max_rounds=args.max_rounds,
        seed=args.seed,
        check_invariants=args.check_invariants,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace_to_jsonl(trace))
    summary = {
        "graph": format_graph(graph),
        "cop_strategy": cops.name,
        "robber_strategy": robber.name,
        "k": args.k,
        "seed": args.seed,
        "outcome": trace.outcome,
        "round": trace.rounds,
        "trace": args.trace,
    }
    if args.check_invariants:
        summary["robber_violations"] = trace.robber_violations
    if trace.outcome == "fault":
        summary["fault_side"] = trace.fault_side
    _emit(summary)
    return EXIT_FAULT if trace.outcome == "fault" else EXIT_OK


def cmd_solve(args) -> int:
    graph = parse_graph(args.graph)
    res = solve_game(graph, args.k, cap=args.cap)
    _emit({"graph": format_graph(graph), "k": args.k, "cops_win": res.cops_win, **_solved(res)})
    return EXIT_OK


def cmd_copnum(args) -> int:
    graph = parse_graph(args.graph)
    res = cop_number(graph, k_max=args.k_max, cap=args.cap)
    _emit({"graph": format_graph(graph), "k_range": [1, res.k_max], "cop_number": res.cop_number,
           **_solved(res)})
    return EXIT_OK


def cmd_count(args) -> int:
    dims = _parse_dims(args.dims)
    lc = level_counts(dims, args.level)
    _emit({"dims": list(dims), "level": args.level, "c": lc.c, "s": lc.s, "l": lc.l})
    return EXIT_OK


def cmd_bound(args) -> int:
    dims = _parse_dims(args.dims)
    level, level_bound = best_level_bound(args.cops, dims)
    bound = min_large_component_bound(args.cops, dims)
    _emit(
        {
            "dims": list(dims),
            "cops": args.cops,
            # the level is only a witness when the box's own cut gives the bound
            "best_m": level if bound == level_bound else None,
            "large_component_lb": bound,
        }
    )
    return EXIT_OK


TABLE_ROWS = (
    ("grid:1x1", "= 1"),
    ("grid:2x2", "= 2"),
    ("grid:3x3", "= 2"),
    ("grid:4x4", "in {3, 4}"),
    ("torus:3x3", "-"),
    ("cube:1", "-"),
    ("cube:2", "-"),
    ("cube:3", "-"),
)


def cmd_table(args) -> int:
    rows = []
    for spec, predicted in TABLE_ROWS:
        graph = parse_graph(spec)
        res = cop_number(graph, cap=args.cap)
        solved = _solved(res)
        rows.append(
            {
                "graph": spec,
                "predicted": predicted,
                "cop_number": res.cop_number,
                "witness": solved["witness"],
                "replay_verified": bool(res.per_k) and res.per_k[-1].witness_verified,
                "millis": solved["millis"],
            }
        )
    if args.json:
        _emit({"rows": rows})
    else:
        header = f"{'graph':<10} {'predicted':<10} {'solved':<7} {'verified':<9} witness"
        print(header)
        print("-" * len(header))
        for row in rows:
            witness = " ".join(str(tuple(v)) for v in row["witness"] or [])
            print(
                f"{row['graph']:<10} {row['predicted']:<10} {row['cop_number']:<7} "
                f"{'yes' if row['replay_verified'] else 'no':<9} {witness}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_render(args) -> int:
    trace, final = _replayed(args.trace)
    if args.all:
        for ev in trace.events:
            snapshot = GameState(final.graph, ev["cops"], ev["robber"], Phase.COP_TURN, ev["round"])
            print(f"-- round {ev['round']} {ev['phase']}" + (f" [{ev['event']}]" if ev["event"] else ""))
            print(render_ascii(snapshot))
            print()
    else:
        print(render_ascii(final))
    return EXIT_OK


def cmd_replay(args) -> int:
    trace, final = _replayed(args.trace)
    _emit(
        {
            "trace": args.trace,
            "events": len(trace.events),
            "outcome": trace.outcome,
            "round": trace.rounds,
            "final_cops": _coords(final.graph, final.cops),
            "final_robber": None if final.robber is None else list(final.graph.vertex_at(final.robber)),
            "replayed": True,
        }
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported under exit code 3, not 2 (which
    means a strategy fault here); --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridpursuit",
        description="Pursuit games against an infinitely fast evader on grid-like graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="run one match and write its trace")
    p.add_argument("--graph", required=True, help="e.g. grid:9x9, torus:18x18, cube:10")
    p.add_argument("--cop", required=True, help="cop strategy name")
    p.add_argument("--robber", required=True, help="robber strategy name")
    p.add_argument("--k", type=_int, required=True, help="number of cops")
    p.add_argument("--max-rounds", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--check-invariants", action="store_true")
    p.add_argument("--trace", help="write the JSON-lines trace here")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("solve", help="decide whether k cops win")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--cap", type=_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("copnum", help="exact cop number by ascending search")
    p.add_argument("--graph", required=True)
    p.add_argument("--k-max", type=_int, default=None)
    p.add_argument("--cap", type=_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(fn=cmd_copnum)

    p = sub.add_parser("count", help="level-set counts on a box")
    p.add_argument("--dims", required=True, help="comma-separated side lengths")
    p.add_argument("--level", type=_int, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bound", help="largest-component lower bound against cops")
    p.add_argument("--dims", required=True)
    p.add_argument("--cops", type=_int, required=True)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("table", help="reproduction table of solved cop numbers")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="also write the JSON table to this path")
    p.add_argument("--cap", type=_int, default=DEFAULT_STATE_CAP)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("render", help="draw a recorded trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--all", action="store_true", help="every event, not just the end")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("replay", help="verify a trace reproduces under the engine")
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ReplayError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REPLAY
    except (GridPursuitError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
