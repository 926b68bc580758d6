"""The evasion side: proof-backed robbers that survive their cop budgets.

Every evader exposes its proof's per-turn guarantees as runtime checks
(check_invariants=True): a match that ends in timeout with zero recorded
violations is a desk-scale witness of the evasion argument.
"""
from fractions import Fraction

from gridpursuit import cube, grid, run_match
from gridpursuit.cops import GreedyCops, RandomCops
from gridpursuit.robbers import (
    Grid2DEvader,
    PotentialEvader,
    RetractLift,
    grid2d_cop_budget,
    potential,
    potential_cop_budget,
)

# --- square grid: n-2 cops can never corner the robber ----------------------
n = 12
evader = Grid2DEvader()
trace = run_match(grid(n, n), GreedyCops(), evader, grid2d_cop_budget(n),
                  max_rounds=300, check_invariants=True)
print(f"grid {n}x{n}, {grid2d_cop_budget(n)} greedy cops vs sector evader: "
      f"{trace.outcome} after {trace.rounds} rounds, "
      f"{len(evader.violations)} guarantee violations")

# --- the same strategy lifted through a retraction ---------------------------
outer, inner = grid(13, 9), grid(9, 9)
lift = RetractLift(Grid2DEvader(), outer, inner)
trace = run_match(outer, RandomCops(), lift, 7, max_rounds=300, seed=1)
print(f"lifted onto grid 13x9 (clamp retraction): {trace.outcome} "
      f"after {trace.rounds} rounds vs 7 random cops")

# --- hypercube: keep the total potential below 1/2 ---------------------------
n = 10
k = potential_cop_budget(n)
evader = PotentialEvader()
trace = run_match(cube(n), GreedyCops(), evader, k, max_rounds=2000,
                  check_invariants=True, record_events=True)
print(f"\ncube({n}), {k} greedy cops vs potential evader: {trace.outcome} "
      f"after {trace.rounds} rounds, {len(evader.violations)} threshold breaches")
phis = [Fraction(ev["annotations"]["phi"]) for ev in trace.events
        if "phi" in ev["annotations"]]
print(f"max potential ever held: {max(phis)} (= {float(max(phis)):.4f} < 1/2)")
print("a cop at distance d contributes 1/C(n, d-1); e.g. adjacent cop:",
      potential(cube(n), [cube(n).index((1,) + (0,) * 9)], 0))
