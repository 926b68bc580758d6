"""Smoke-size self-test of the benchmark's own checks.

    python3 bench/selftest.py

It proves that the checks fire: a corrupted expected trace hash and a
corrupted expected verdict must each fail the pass, while the true ones
pass.  It also checks that golden.json names exactly the traces the
workloads write at the default seed, and that the tracer changes no output
and restores the library when removed.  Exits 1 if any check misbehaves.
"""
import json
import sys

import layers
import run
import workloads
from workloads import Matchup, SolveCase

SMOKE = {
    "solve": dict(solves=(
        SolveCase("grid3x4", "grid:3x4", None, 3),
        SolveCase("torus3x3_k3", "torus:3x3", 3, "win"),
        SolveCase("grid4x4_k2", "grid:4x4", 2, "loss"),
    )),
    "evade": dict(matchups=(
        Matchup("grid2d", "grid:8x8", "random", "grid2d-evader", 6, 2, 30),
        Matchup("cube", "cube:10", "greedy", "cube-potential", 4, 1, 30),
    )),
    "capture": dict(matchups=(
        Matchup("rowsweep", "grid:6x6", "row-sweep", "max-component", 6),
        Matchup("diagonal", "grid:7x7", "diagonal-pairs", "random", 6),
    )),
}


def main():
    sys.path.insert(0, str(run.SRC))
    gp = run.import_library()
    results = []

    def check(label, ok, detail=""):
        results.append(ok)
        print(f"[{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail and not ok else ""))

    golden = json.loads(run.GOLDEN.read_text())
    for name in ("solve", "evade", "capture"):
        ctx = workloads.setup(gp, name, run.GOLDEN_SEED)
        ops = {op for op, *_ in ctx.plays}
        ops |= {f"witness {c.key}" for c, _ in ctx.solves if c.expect != "loss"}
        check(f"golden.json covers every {name} trace", set(golden[name]) == ops,
              sorted(ops ^ set(golden[name])))

    for name, sizes in SMOKE.items():
        ctx = workloads.setup(gp, name, 7, **sizes)
        first = workloads.run_pass(ctx)
        check(f"{name}: true outputs pass", not first.failures, first.failures)

        ctx.expected_hashes = dict(first.hashes)
        again = workloads.run_pass(ctx)
        check(f"{name}: true expected hashes pass", not again.failures, again.failures)

        op = sorted(first.hashes)[0]
        ctx.expected_hashes[op] = "0" * 64
        bad = workloads.run_pass(ctx)
        check(f"{name}: a corrupted expected hash fails its trace", bad.failed_ops == {op},
              bad.failures)
        ctx.expected_hashes[op] = first.hashes[op]

        tracer = layers.Tracer(gp)
        index = gp.grid.GraphSpec.index
        tracer.install()
        try:
            traced = workloads.run_pass(ctx, tracer)
        finally:
            tracer.uninstall()
        check(f"{name}: tracing changes no trace or verdict",
              traced.hashes == first.hashes and traced.verdicts == first.verdicts
              and not traced.failures, traced.failures)
        check(f"{name}: the tracer restores the library", gp.grid.GraphSpec.index is index)
        check(f"{name}: the tracer counted calls", tracer.calls["grid.index"] > 0)

    for i, case in enumerate(SMOKE["solve"]["solves"]):
        if isinstance(case.expect, int):
            wrong = case.expect + 1
        else:
            wrong = {"win": "loss", "loss": "win"}[case.expect]
        cases = list(SMOKE["solve"]["solves"])
        cases[i] = SolveCase(case.key, case.graph, case.k, wrong)
        bad = workloads.run_pass(workloads.setup(gp, "solve", 7, solves=cases))
        check(f"solve: a corrupted expected verdict for {case.key} fails it",
              bad.failed_ops == {f"solve {case.key}"}, bad.failures)

    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
