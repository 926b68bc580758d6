"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Two criteria are checked where their guarantees
apply: criterion 5 asserts clean region-chain moves at n = 60, since the
3d evader's cop-free-block pigeonhole needs n >= 54 (the smaller boards
are still played and reported), and criterion 7 checks the component
bound on every box, which is why that bound combines level cuts on
equal-sided sub-boxes with the exact path bound.
"""
import itertools
import math
import time
from fractions import Fraction

import pytest

from gridpursuit.cops import (
    Blockade3DCops,
    BlockadeNDCops,
    DiagonalPairsCops,
    GreedyCops,
    RandomCops,
    RowSweepCops,
    TorusTwoRowsCops,
    blockade_3d_cop_count,
    blockade_nd_cop_count,
)
from gridpursuit.counts import (
    aggregate_potential,
    binom,
    case_box,
    count_below,
    count_level,
    harmonic,
    level_counts,
    level_closed_form,
    min_large_component_bound,
    min_large_component_exact,
    special_forms,
)
from gridpursuit.engine import reachable_set, run_match
from gridpursuit.grid import cube, grid, torus
from gridpursuit.robbers import (
    Grid2DEvader,
    Grid3DEvader,
    MaxComponentRobber,
    PotentialEvader,
    RandomRobber,
    RetractLift,
    TorusEvader,
    grid2d_cop_budget,
    grid3d_cop_budget,
    potential_cop_budget,
    torus_cop_budget,
)
from gridpursuit.solver import cop_number, solve_game


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def solved_small():
    """Shared solver results for the small instances (criteria 1 and 2)."""
    t0 = time.perf_counter()
    results = {
        "1x1": cop_number(grid(1, 1)),
        "2x2": cop_number(grid(2, 2)),
        "3x3": cop_number(grid(3, 3)),
        "3x4": cop_number(grid(3, 4)),
        "4x4": cop_number(grid(4, 4)),
    }
    return results, time.perf_counter() - t0


def test_criterion_1_small_cop_numbers(solved_small):
    results, elapsed = solved_small
    values = {k: r.cop_number for k, r in results.items()}
    ok = (
        values["1x1"] == 1
        and values["2x2"] == 2
        and values["3x3"] == 2
        and values["3x4"] in (2, 3)
        and values["4x4"] in (3, 4)
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"cop numbers {values} (ranges: 3x4 in {{2,3}}, 4x4 in {{3,4}}); "
        f"solver time {elapsed:.1f}s < 60s",
    )


def test_criterion_2_resolves_4x4_in_table(solved_small):
    results, _ = solved_small
    t0 = time.perf_counter()
    from gridpursuit.cli import main
    import io
    import json
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["table", "--json"])
    elapsed = time.perf_counter() - t0
    rows = {r["graph"]: r for r in json.loads(buf.getvalue())["rows"]}
    row = rows.get("grid:4x4", {})
    ok = (
        code == 0
        and row.get("cop_number") in (3, 4)
        and row.get("cop_number") == results["4x4"].cop_number
        and row.get("replay_verified") is True
        and row.get("witness")
        and elapsed < 600.0
    )
    report(
        2,
        ok,
        f"grid(4,4) cop number resolved to {row.get('cop_number')} "
        f"(witness {row.get('witness')}, replay-verified), table in {elapsed:.1f}s < 600s",
    )


# -- criterion 3: cop strategies ---------------------------------------------------


def _robber_pool(include_grid_evader, seeds=20):
    pool = [("max-component", MaxComponentRobber(), 0)]
    pool += [("random", RandomRobber(), s) for s in range(seeds)]
    if include_grid_evader:
        pool.append(("grid2d-evader", Grid2DEvader(allow_excess_cops=True), 0))
    return pool


def test_criterion_3_cop_strategy_guarantees():
    faults = 0
    problems = []

    for n in range(3, 13):
        for label, robber, seed in _robber_pool(True):
            trace = run_match(grid(n, n), RowSweepCops(), robber, n, seed=seed)
            faults += trace.outcome == "fault"
            if trace.outcome != "capture" or trace.rounds > n:
                problems.append(f"row-sweep n={n} vs {label}/{seed}: {trace.outcome}@{trace.rounds}")

    for n in range(3, 14, 2):
        for label, robber, seed in _robber_pool(True):
            g = grid(n, n)
            trace = run_match(g, DiagonalPairsCops(), robber, n - 1, seed=seed)
            faults += trace.outcome == "fault"
            if trace.outcome != "capture":
                problems.append(f"diagonal-pairs n={n} vs {label}/{seed}: {trace.outcome}")
                continue
            sizes = []
            for ev in trace.events:
                if (
                    ev["phase"] == "cop-turn"
                    and ev["event"] is None
                    and ev["annotations"].get("phase") in ("split", "sweep")
                ):
                    comp = reachable_set(g, ev["cops"], ev["robber"])
                    sizes.append(len(comp))
            if not all(a > b for a, b in zip(sizes, sizes[1:])):
                problems.append(f"diagonal-pairs n={n} vs {label}/{seed}: component sizes {sizes}")

    for n in range(4, 13):
        for label, robber, seed in _robber_pool(False):
            trace = run_match(torus(n, n), TorusTwoRowsCops(), robber, 2 * n, seed=seed)
            faults += trace.outcome == "fault"
            if trace.outcome != "capture" or trace.rounds > math.ceil(n / 2) + 1:
                problems.append(f"torus-two-rows n={n} vs {label}/{seed}: {trace.outcome}@{trace.rounds}")

    boundary_checks = 0
    for n in (3, 5, 7, 9):
        g = grid(n, n, n)
        for label, robber, seed in [("max-component", MaxComponentRobber(), 0)] + [
            ("random", RandomRobber(), s) for s in range(3)
        ]:
            trace = run_match(g, Blockade3DCops(), robber, blockade_3d_cop_count(n), seed=seed)
            faults += trace.outcome == "fault"
            if trace.outcome != "capture":
                problems.append(f"blockade-3d n={n} vs {label}/{seed}: {trace.outcome}")
                continue
            top = 3 * (n - 1)
            for ev in trace.events:
                if ev["phase"] == "cop-turn" and ev["annotations"].get("boundary") == "1":
                    level = int(ev["annotations"]["level"])
                    cops_set = set(map(g.vertex_at, ev["cops"]))
                    wall = {v for v in g.vertices() if sum(v) == level}
                    mirrored = {v for v in g.vertices() if sum(v) == top - level}
                    boundary_checks += 1
                    if not (wall <= cops_set or mirrored <= cops_set):
                        problems.append(f"blockade-3d n={n}: level {level} not fully occupied")

    for n in (3, 5, 7):
        if blockade_nd_cop_count(3, n) != (3 * n * n + 1) // 4 + (n - 1) // 2:
            problems.append(f"blockade-ddim d=3 n={n}: blocking count mismatch")
    for d, n in ((4, 3), (4, 5), (2, 7)):
        g = grid(*([n] * d))
        trace = run_match(g, BlockadeNDCops(), MaxComponentRobber(), blockade_nd_cop_count(d, n))
        faults += trace.outcome == "fault"
        if trace.outcome != "capture":
            problems.append(f"blockade-ddim d={d} n={n}: {trace.outcome}")

    ok = not problems and faults == 0
    report(
        3,
        ok,
        f"sweep/diagonal/pincer/blockade captures with invariants "
        f"({boundary_checks} blockade boundary checks), {faults} faults"
        + (f"; problems: {problems[:4]}" if problems else ""),
    )


# -- criterion 4: robber proof invariants -------------------------------------------


def test_criterion_4_evader_proof_invariants():
    problems = []
    captures = violations = matches = 0

    # square grids: full seed sweep for the stochastic cop, one run for the
    # deterministic greedy cop (identical matches otherwise)
    for n in range(5, 21):
        g = grid(n, n)
        k = grid2d_cop_budget(n)
        for cop_factory, seeds in ((RandomCops, range(50)), (GreedyCops, range(1))):
            for seed in seeds:
                evader = Grid2DEvader()
                trace = run_match(g, cop_factory(), evader, k, max_rounds=500,
                                  seed=seed, check_invariants=True, record_events=False)
                matches += 1
                if trace.outcome != "timeout":
                    captures += 1
                    problems.append(f"grid2d n={n} {cop_factory.name}/{seed}: {trace.outcome}")
                if evader.violations:
                    violations += len(evader.violations)
                    problems.append(f"grid2d n={n} {cop_factory.name}/{seed}: {evader.violations[:2]}")

    for n in (18, 24, 30):
        g = torus(n, n)
        k = torus_cop_budget(n)
        for cop_factory, seeds in ((RandomCops, range(20)), (GreedyCops, range(1))):
            for seed in seeds:
                evader = TorusEvader()
                trace = run_match(g, cop_factory(), evader, k, max_rounds=400,
                                  seed=seed, check_invariants=True, record_events=False)
                matches += 1
                if trace.outcome != "timeout":
                    captures += 1
                    problems.append(f"torus n={n} {cop_factory.name}/{seed}: {trace.outcome}")
                if evader.violations:
                    violations += len(evader.violations)
                    problems.append(f"torus n={n} {cop_factory.name}/{seed}: {evader.violations[:2]}")

    for n in (10, 12, 14):
        g = cube(n)
        k = potential_cop_budget(n)
        evader = PotentialEvader()
        trace = run_match(g, GreedyCops(), evader, k, max_rounds=10_000,
                          check_invariants=True, record_events=False)
        matches += 1
        if trace.outcome != "timeout":
            captures += 1
            problems.append(f"cube n={n}: {trace.outcome} at {trace.rounds}")
        if evader.violations:
            violations += len(evader.violations)
            problems.append(f"cube n={n}: potential >= 1/2 on {len(evader.violations)} turns")

    ok = captures == 0 and violations == 0
    report(
        4,
        ok,
        f"{matches} matches: {captures} captures, {violations} guarantee violations "
        f"(grids n=5..20, tori n=18/24/30, cubes n=10/12/14 over 10^4 rounds)"
        + (f"; problems: {problems[:4]}" if problems else ""),
    )


# -- criterion 5: 3d evader mechanics -----------------------------------------------


def test_criterion_5_grid3d_mechanics():
    hard_problems = []
    stats = {}

    def blockade_understaffed():
        return Blockade3DCops(allow_understaffed=True)

    def play(n, label, cop_factory, max_rounds):
        evader = Grid3DEvader()
        trace = run_match(grid(n, n, n), cop_factory(), evader, grid3d_cop_budget(n),
                          max_rounds=max_rounds, seed=1, check_invariants=True,
                          record_events=False)
        hard = [v for v in evader.violations
                if "octant" in v or "plane group" in v or "adjacent" in v]
        if hard:
            hard_problems.append(f"n={n} {label}: {hard[:2]}")
        if trace.outcome == "fault":
            hard_problems.append(f"n={n} {label}: fault")
        stats[(n, label)] = (evader.fallback_moves, evader.component_failures)

    for n in (10, 20):
        for label, cop_factory in (("random", RandomCops), ("greedy", GreedyCops),
                                   ("blockade", blockade_understaffed)):
            play(n, label, cop_factory, max_rounds=200)

    # the cop-free-block pigeonhole needs floor(n/6) > 8, i.e. n >= 54:
    # n = 60 is the first side the evader accepts (a multiple of 10) where
    # the region chain is guaranteed to find a block every turn
    for label, cop_factory in (("random", RandomCops), ("greedy", GreedyCops)):
        play(60, label, cop_factory, max_rounds=30)

    detail = (
        f"octant/8 bound and block cop-freeness held every turn; "
        f"fallbacks/component-failures per (n, cop): "
        + ", ".join(f"{key}={val}" for key, val in sorted(stats.items()))
    )
    print(f"[info] criterion 5 detail: {detail}", flush=True)
    assert not hard_problems, hard_problems

    # zero fallbacks and zero membership failures against greedy/random
    # cops, where the evader's guarantee applies.  At n=20 the slab has
    # only floor(20/6) = 3 block windows but may hold 8 cops, so evenly
    # spread cops can block every window and fallbacks there are expected;
    # the n=20 counts are reported, not asserted.
    clean_at_60 = all(stats[(60, c)] == (0, 0) for c in ("random", "greedy"))
    report(
        5,
        clean_at_60,
        f"n=60 greedy/random fallbacks+component-failures {stats[(60, 'greedy')]}, "
        f"{stats[(60, 'random')]} (expected (0, 0)); n=20 (below the pigeonhole "
        f"range n >= 54): {stats[(20, 'greedy')]}, {stats[(20, 'random')]}",
    )


# -- criterion 6: counting formulas --------------------------------------------------


def test_criterion_6_counting_formulas():
    import random as _random

    t0 = time.perf_counter()
    problems = []

    # inclusion-exclusion closed form across the blockade's whole descent
    for a in (2, 3, 4):
        for n in range(3, 10):
            m = a * (n - 1) // 2
            for b in range(0, m + 1):
                if level_closed_form(a, b, n) != count_level((n,) * a, b):
                    problems.append(f"closed form a={a} n={n} b={b}")

    # special boxes, both readings, against their enumerating oracles; the
    # printed case-(b) expression loses the both-coordinates-high add-back
    # above m = n-3, where the discrepancy must equal that omitted term
    for n in range(3, 22):
        cases = ["a", "d"] + (["b", "c"] if n % 2 == 0 and n >= 6 else [])
        for case in cases:
            dims = case_box(case, n)
            top = (3 * (n - 1)) // 2 if case == "d" else n - 1
            low = (n - 1 + 1) // 2 if case in ("b", "c") else 1
            for m in range(low, top + 1):
                level = special_forms(case, n, m, "level")
                strict = special_forms(case, n, m, "below", "strict")
                inclusive = special_forms(case, n, m, "below", "paper-proof")
                if case == "b" and m > n - 3:
                    if count_level(dims, m) - level != binom(m - n + 4, 2):
                        problems.append(f"case b level discrepancy n={n} m={m}")
                    if count_below(dims, m + 1) - inclusive != binom(m - n + 5, 3):
                        problems.append(f"case b below discrepancy n={n} m={m}")
                    continue
                if level != count_level(dims, m):
                    problems.append(f"case {case} level n={n} m={m}")
                if inclusive != count_below(dims, m + 1):
                    problems.append(f"case {case} inclusive-below n={n} m={m}")
                if case == "b" and m - 1 > n - 3:
                    if count_below(dims, m) - strict != binom(m - n + 4, 3):
                        problems.append(f"case b strict discrepancy n={n} m={m}")
                elif strict != count_below(dims, m):
                    problems.append(f"case {case} strict-below n={n} m={m}")

    for n in range(3, 22, 2):
        if count_level((n, n, n), 3 * (n - 1) // 2) != (3 * n * n + 1) // 4:
            problems.append(f"middle level size n={n}")

    rng = _random.Random(2024)
    for _ in range(10_000):
        dims = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        top = sum(d - 1 for d in dims)
        m = rng.randint(-2, top + 2)
        lc = level_counts(dims, m)
        if lc.c + lc.s + lc.l != math.prod(dims):
            problems.append(f"partition {dims} {m}")
        if count_level(dims, m) != count_level(dims, top - m):
            problems.append(f"reflection {dims} {m}")
        shuffled = list(dims)
        rng.shuffle(shuffled)
        if count_level(dims, m) != count_level(tuple(shuffled), m):
            problems.append(f"permutation {dims} {m}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    report(
        6,
        ok,
        f"closed forms = enumeration (blockade range, special boxes n<=21, both readings), "
        f"middle-level sizes, 10^4 identity fuzz cases in {elapsed:.1f}s < 30s"
        + (f"; problems: {problems[:4]}" if problems else ""),
    )


# -- criterion 7: isoperimetric soundness --------------------------------------------


def _boxes_up_to(max_vertices):
    seen = set()
    for arity in (1, 2, 3, 4):
        for dims in itertools.combinations_with_replacement(range(2, max_vertices + 1), arity):
            if math.prod(dims) <= max_vertices:
                seen.add(dims)
    return sorted(seen)


def test_criterion_7_isoperimetric_soundness():
    failures = []
    checks = 0
    for dims in _boxes_up_to(16):
        for c in range(5):
            checks += 1
            exact = min_large_component_exact(c, dims)
            bound = min_large_component_bound(c, dims)
            if exact < bound:
                failures.append(f"dims={dims} c={c}: exact {exact} < bound {bound}")
    for c in range(4):
        checks += 1
        exact = min_large_component_exact(c, (2, 2, 2))
        bound = min_large_component_bound(c, (2, 2, 2))
        if exact < bound:
            failures.append(f"dims=(2,2,2) c={c}: exact {exact} < bound {bound}")

    # level cuts are only isoperimetrically optimal on equal-sided boxes of
    # dimension >= 2; thin boxes admit cheaper cross-section cuts, so on
    # them the bound must come from equal-sided sub-boxes and longest lines
    report(
        7,
        not failures,
        f"exact >= component bound on {checks} (box, c) pairs"
        + (
            f"; {len(failures)} counterexamples, e.g. {failures[:3]}"
            if failures
            else ""
        ),
    )


def test_criterion_7_scope_equal_sided_boxes_sound():
    # the sound core of the level-cut bound: equal sides, dimension >= 2
    failures = []
    for dims in [(2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 2, 2, 2)]:
        for c in range(5):
            if min_large_component_exact(c, dims) < min_large_component_bound(c, dims):
                failures.append((dims, c))
    print(f"[info] criterion 7 scoped check (equal-sided, k>=2): "
          f"{'clean' if not failures else failures}", flush=True)
    assert not failures


# -- criterion 8: potential identity -------------------------------------------------


def test_criterion_8_potential_identity():
    ok = True
    details = []
    for n in range(1, 65):
        if aggregate_potential(n) != 1 - n + (n + 1) * harmonic(n):
            ok = False
            details.append(f"identity fails at n={n}")
    for n in range(3, 65):
        if float(aggregate_potential(n)) > 2 * n * math.log(n) + 1e-9:
            ok = False
            details.append(f"log bound fails at n={n}")
    report(
        8,
        ok,
        "aggregate potential equals 1-n+(n+1)H_n exactly for n=1..64 and stays "
        "under 2n*ln(n) for n=3..64" + (f"; {details[:3]}" if details else ""),
    )


# -- criterion 9: retraction lift ----------------------------------------------------


def test_criterion_9_retraction_lift_evasion():
    outer, inner = grid(9, 7), grid(7, 7)
    captures = matches = 0
    problems = []
    for cop_factory in (RandomCops, GreedyCops):
        for seed in range(20):
            lift = RetractLift(Grid2DEvader(), outer, inner)
            trace = run_match(outer, cop_factory(), lift, 5, max_rounds=500,
                              seed=seed, check_invariants=True, record_events=False)
            matches += 1
            if trace.outcome != "timeout":
                captures += 1
                problems.append(f"{cop_factory.name}/{seed}: {trace.outcome}@{trace.rounds}")
            if lift.violations:
                problems.append(f"{cop_factory.name}/{seed}: {lift.violations[:2]}")
    ok = captures == 0 and not problems
    report(
        9,
        ok,
        f"lifted square-grid evader survived 5 cops in all {matches} matches on grid(9,7)"
        + (f"; problems: {problems[:4]}" if problems else ""),
    )
