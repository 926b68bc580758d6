"""Benchmark of the gridpursuit library: solve, evade and capture workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload solve|evade|capture --seed N --seconds S --trace 0|1

One process, one thread, closed loop: set-up runs SETUP_REPEATS times, then
passes of the workload (one fixed batch of library calls, see workloads.py)
repeat until --seconds have elapsed.  Every output is checked; a failed
check counts in "failed".  With --trace 0 the last line of standard output
carries the end-to-end metrics of BENCHMARK.json, each a median over the
passes, with times normalized by the host-speed probe (hostspeed.py).
With --trace 1 untraced and traced passes alternate; the traced
ones give the per-layer metrics and must produce the same traces and
verdicts as the untraced ones.  The line before the last is a report with
the machine, the trace hashes and every failure.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """A fresh import of gridpursuit from this checkout's src/, as a
    namespace of its modules."""
    for name in [m for m in sys.modules if m == "gridpursuit" or m.startswith("gridpursuit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("gridpursuit")
    if Path(pkg.__file__).resolve().parent != SRC / "gridpursuit":
        raise ImportError(f"gridpursuit imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"gridpursuit.{name}")
                              for name in ("grid", "engine", "cops", "robbers", "solver")})


def set_up(name, seed, expected):
    """Time SETUP_REPEATS fresh set-ups; the last one is used."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        gp = import_library()
        ctx = workloads.setup(gp, name, seed, expected)
        times.append(perf_counter() - t0)
    return ctx, times


def machine():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gridpursuit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "memory_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def rate(count, seconds):
    """count / seconds, or 0 when nothing was timed (every call failed)."""
    return count / seconds if seconds else 0.0


def passes_until(seconds, one_pass):
    """Run one_pass at least once and again while time remains."""
    out = []
    start = perf_counter()
    while not out or perf_counter() - start < seconds:
        out.append(one_pass())
    return out


def check_same(reference, results, why):
    """Each result must write the reference's traces and reach its verdicts."""
    for r in results:
        for table in ("hashes", "verdicts"):
            ours, theirs = getattr(r, table), getattr(reference, table)
            for op in ours.keys() | theirs.keys():
                if ours.get(op) != theirs.get(op):
                    r.fail(op, why)


def times(results, factors, setup_s):
    """Medians over passes of the timed end-to-end metrics, each pass's
    times scaled by its host-speed factor."""
    pairs = list(zip(results, factors))
    median = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": median(r.wall_s * f for r, f in pairs),
        "rounds_per_s": median(rate(r.rounds, r.play_s * f) for r, f in pairs),
        "replay_events_per_s": median(rate(r.events, r.replay_s * f) for r, f in pairs),
    }


def measure(ctx, seconds, setup_times, probe, setup_mark):
    """Untraced passes; times are normalized by the host-speed probe."""
    results, factors = [], []

    def one_pass():
        mark = probe.mark()
        results.append(workloads.run_pass(ctx))
        factors.append(probe.factor(mark))

    passes_until(seconds, one_pass)
    check_same(results[0], results[1:], "differs from the run's first pass")
    setup_s = statistics.median(setup_times)
    metrics = times(results, factors, setup_s * probe.factor(0, setup_mark))
    metrics["peak_rss_mb"] = peak_rss_mib()
    raw = times(results, [1.0] * len(results), setup_s)
    raw["host_speed_factors"] = factors
    return results, metrics, raw


def measure_traced(ctx, seconds):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    tracer = layers.Tracer(ctx.gp)
    plain, traced, per_pass = [], [], []

    def pair():
        plain.append(workloads.run_pass(ctx))
        tracer.clear()
        tracer.install()
        try:
            traced.append(workloads.run_pass(ctx, tracer))
        finally:
            tracer.uninstall()
        values = tracer.metrics()
        values.update(traced[-1].layer)
        values["trace_overhead_ratio"] = rate(traced[-1].wall_s, plain[-1].wall_s)
        per_pass.append(values)

    passes_until(seconds, pair)
    check_same(plain[0], plain[1:], "differs from the run's first pass")
    check_same(plain[0], traced, "tracing changed the output")
    return plain + traced, per_pass


def layer_metrics(per_pass, declared, traced):
    """Medians over traced passes of the declared per-layer metrics.

    A metric of a layer the workload never calls reads 0.  Counts must
    repeat exactly from pass to pass.
    """
    out = {}
    for m in declared:
        values = [p.get(m["name"], 0) for p in per_pass]
        if m["unit"] == "count" and len(set(values)) > 1:
            traced.fail(m["name"], f"per-layer count differs between passes: {values}")
        out[m["name"]] = statistics.median(values)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "evade", "capture"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gridpursuit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no library at {SRC / 'gridpursuit'} or no {spec_path.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    expected = None
    if args.seed == GOLDEN_SEED or args.workload not in workloads.SEED_DRIVEN:
        expected = json.loads(GOLDEN.read_text())[args.workload]
    if args.trace:
        ctx, setup_times = set_up(args.workload, args.seed, expected)
        results, per_pass = measure_traced(ctx, args.seconds)
        values = layer_metrics(per_pass, spec["per_layer"], results[-1])
        declared, raw = spec["per_layer"], None
    else:
        with hostspeed.HostSpeed() as probe:
            ctx, setup_times = set_up(args.workload, args.seed, expected)
            results, values, raw = measure(ctx, args.seconds, setup_times, probe, probe.mark())
        declared = spec["end_to_end"]

    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failed_ops) for r in results)
    failures = [f for r in results for f in r.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(results),
        "setup_s": setup_times,
        "pass_wall_s": [r.wall_s for r in results],
        "rounds": results[0].rounds,
        "events": results[0].events,
        "failed_ops_ratio": failed / attempted,
        "failures": failures,
        "verdicts": results[0].verdicts,
        "trace_sha256": results[0].hashes,
        "golden_checked": expected is not None,
        "raw": raw,
        "machine": machine(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
