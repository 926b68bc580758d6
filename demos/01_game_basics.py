"""A first look at the engine: graphs, reachability, and one full match.

The robber moves at unbounded speed: on his turn he may relocate anywhere
within the cop-free connected component of his current vertex, so cops win
only by walling him into a shrinking region and stepping onto him.
"""
from gridpursuit import GameState, Phase, parse_graph, reachable_set, render_ascii, run_match
from gridpursuit.cops import RowSweepCops
from gridpursuit.robbers import MaxComponentRobber

g = parse_graph("grid:5x5")
print(f"graph {g!r}: {g.vertex_count} vertices")
print("neighbors of (0, 0):", sorted(g.neighbors((0, 0))))

# inside the library a vertex is its index, the mixed-radix rank of its
# coordinates; g.index and g.vertex_at convert
print("index of (2, 3):", g.index((2, 3)), "- vertex 13:", g.vertex_at(13))

# a full column of cops is a wall: the far side is unreachable
wall = [g.index((2, y)) for y in range(5)]
component = reachable_set(g, wall, g.index((0, 0)))
print(f"\nwith cops on column 2, a robber at (0,0) can reach {len(component)} vertices:")
print(sorted(map(g.vertex_at, component)))

# one cop per column sweeping downward always catches the robber
print("\nrow sweep vs a component-maximizing robber on grid:5x5")
trace = run_match(g, RowSweepCops(), MaxComponentRobber(), k=5, seed=0)
print(f"outcome: {trace.outcome} in round {trace.rounds}")
for ev in trace.events:
    if ev["phase"] in ("robber-placement", "cop-turn"):
        print(f"\n-- round {ev['round']} {ev['phase']}"
              + (f" [{ev['event']}]" if ev["event"] else ""))
        snapshot = GameState(g, ev["cops"], ev["robber"], Phase.COP_TURN, ev["round"])
        print(render_ascii(snapshot))
