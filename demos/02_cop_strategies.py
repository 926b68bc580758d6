"""The guaranteed pursuits: diagonal pairs, the torus pincer, and the
three-dimensional level blockade.

Each strategy implements a capture proof; the trace annotations expose the
proof's bookkeeping (split/sweep phases, blockade levels) so you can watch
the invariants hold.
"""
from gridpursuit import grid, torus, run_match
from gridpursuit.cops import (
    Blockade3DCops,
    DiagonalPairsCops,
    TorusTwoRowsCops,
    blockade_3d_cop_count,
)
from gridpursuit.engine import reachable_set
from gridpursuit.robbers import MaxComponentRobber

# --- diagonal pairs: n-1 cops on an odd n x n grid -------------------------
n = 9
g = grid(n, n)
trace = run_match(g, DiagonalPairsCops(), MaxComponentRobber(), n - 1)
print(f"diagonal pairs on grid {n}x{n}: {trace.outcome} in round {trace.rounds}")
print("robber component size after each cop turn (strictly shrinking):")
sizes = []
for ev in trace.events:
    if ev["phase"] == "cop-turn" and ev["event"] is None:
        comp = reachable_set(g, ev["cops"], ev["robber"])
        sizes.append(len(comp))
print(" ", sizes)

# --- torus pincer: two full rows sweep toward each other --------------------
n = 10
trace = run_match(torus(n, n), TorusTwoRowsCops(), MaxComponentRobber(), 2 * n)
print(f"\ntorus pincer on torus {n}x{n} with {2*n} cops: "
      f"{trace.outcome} in round {trace.rounds} (walls meet after ~n/2 turns)")

# --- level blockade in three dimensions -------------------------------------
n = 5
k = blockade_3d_cop_count(n)
trace = run_match(grid(n, n, n), Blockade3DCops(), MaxComponentRobber(), k)
print(f"\nlevel blockade on grid {n}x{n}x{n} with {k} cops "
      f"((3n^2+1)/4 wall + (n+1)/2 reserves): {trace.outcome} in round {trace.rounds}")
print("wall level after each shift (the robber's coordinate sum stays below it):")
levels = [ev["annotations"]["level"] for ev in trace.events
          if ev["annotations"].get("boundary") == "1"]
print(" ", " -> ".join(levels))
