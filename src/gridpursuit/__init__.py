"""Pursuit games on products of paths and cycles, against an infinitely
fast evader: game engine, proven cop/robber strategies, an exact solver,
and level-set counting."""

from .grid import (
    Dim,
    GraphSpec,
    cube,
    format_graph,
    grid,
    parse_graph,
    product,
    torus,
)
from .engine import (
    GameState,
    MatchTrace,
    Phase,
    apply_cop_move,
    apply_robber_move,
    reachable_set,
    render_ascii,
    replay_trace,
    run_match,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .cops import COP_STRATEGIES, make_cop_strategy
from .robbers import ROBBER_STRATEGIES, make_robber_strategy
from .solver import cop_number, extract_policies, solve_game

__all__ = [
    "COP_STRATEGIES",
    "Dim",
    "GameState",
    "GraphSpec",
    "MatchTrace",
    "Phase",
    "ROBBER_STRATEGIES",
    "apply_cop_move",
    "apply_robber_move",
    "cop_number",
    "cube",
    "extract_policies",
    "format_graph",
    "grid",
    "make_cop_strategy",
    "make_robber_strategy",
    "parse_graph",
    "product",
    "reachable_set",
    "render_ascii",
    "replay_trace",
    "run_match",
    "solve_game",
    "torus",
    "trace_from_jsonl",
    "trace_to_jsonl",
]
