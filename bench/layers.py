"""Per-layer tracing for the benchmark's traced run.

The tracer wraps, from outside the library, the public functions and
methods of the `grid`, `engine`, `cops`, `robbers` and `solver` modules.
Two kinds of wrapper exist:

* a span records calls, total time and self time (total minus the time
  spent in spans nested inside it), and per-call durations where asked;
* a counter only counts calls.  The hottest coordinate helpers
  (`check_vertex`, `distance`, `index`, `expand`, `CoordMap`) get counters,
  because timing them would cost more than they do.

Spans are kept in memory and turned into metrics after the pass.
`install` patches the live modules and `uninstall` restores every patched
attribute, so an untraced pass after it runs the original code.
"""
from __future__ import annotations

import math
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

_MISSING = object()

# tail percentiles tried from the highest down; the tail is the highest one
# with at least TAIL_MIN_BEYOND calls above it
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Span and counter wrappers over one imported copy of the library."""

    def __init__(self, gp):
        self.gp = gp
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.strategy_s = defaultdict(float)  # time in direct strategy children
        self.samples = defaultdict(list)
        self._stack = []
        self._undo = []
        self._misses0 = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, key, fn, strategy=False, keep_samples=False):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        total_s, strategy_s, samples = self.total_s, self.strategy_s, self.samples
        key_of = key if callable(key) else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]  # child time, strategy-child time
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                k = key_of(*args, **kwargs) if key_of else key
                calls[k] += 1
                self_s[k] += dur - frame[0]
                total_s[k] += dur
                strategy_s[k] += frame[1]
                if keep_samples:
                    samples[k].append(dur)
                if stack:
                    stack[-1][0] += dur
                    if strategy:
                        stack[-1][1] += dur

        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_function(self, orig, wrapper):
        """Replace orig in every library module that binds it by name."""
        for name, mod in list(sys.modules.items()):
            if name == "gridpursuit" or name.startswith("gridpursuit."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)

    def install(self):
        gp = self.gp
        grid, engine, solver = gp.grid, gp.engine, gp.solver

        for cls, attr in ((grid.GraphSpec, "check_vertex"), (grid.GraphSpec, "distance"),
                          (grid.GraphSpec, "index"), (grid.BitLattice, "expand")):
            self._set(cls, attr, self._count(f"grid.{attr}", getattr(cls, attr)))
        for attr in ("apply", "invert"):
            self._set(grid.CoordMap, attr, self._count("grid.coordmap", getattr(grid.CoordMap, attr)))
        for attr in ("component", "components"):
            self._set(grid.BitLattice, attr, self._span(f"grid.{attr}", getattr(grid.BitLattice, attr)))
        self._misses0 = grid.lattice.cache_info().misses

        for name in ("run_match", "apply_cop_move", "apply_robber_move",
                     "trace_to_jsonl", "trace_from_jsonl", "replay_trace"):
            fn = getattr(engine, name)
            self._patch_function(fn, self._span(f"engine.{name}", fn))
        fn = engine.reachable_mask
        self._patch_function(fn, self._count("engine.reachable_mask", fn))

        fn = solver.solve_game
        self._patch_function(fn, self._span(
            lambda g, k, *a, **kw: f"solver.solve_game:{grid.format_graph(g)}:{k}", fn))

        # strategies are wrapped per class, so a fallback strategy used
        # inside an evader shows as its own nested span
        classes = [("cops", c) for c in gp.cops.COP_STRATEGIES.values()]
        classes += [("robbers", c) for c in gp.robbers.ROBBER_STRATEGIES.values()]
        classes += [("cops", solver.TableCops), ("robbers", solver.TableRobber)]
        for layer, cls in classes:
            for attr in ("reset", "place", "move"):
                key = f"{layer}.{cls.name}.{attr}"
                self._set(cls, attr, self._span(key, getattr(cls, attr), strategy=True,
                                                keep_samples=attr == "move"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def clear(self):
        for table in (self.calls, self.self_s, self.total_s, self.strategy_s, self.samples):
            table.clear()

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded since the last clear."""
        calls, self_s = self.calls, self.self_s
        out = {
            "grid.lattice.cache_misses": self.gp.grid.lattice.cache_info().misses - self._misses0,
            "engine.self_s": self.total_s["engine.run_match"] - self.strategy_s["engine.run_match"],
        }
        for key in ("check_vertex", "distance", "index", "expand", "coordmap"):
            out[f"grid.{key}.calls"] = calls[f"grid.{key}"]
        for key in ("grid.component", "grid.components", "engine.apply_cop_move",
                    "engine.apply_robber_move"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = self_s[key]
        out["engine.reachable_mask.calls"] = calls["engine.reachable_mask"]
        for key in ("trace_to_jsonl", "trace_from_jsonl", "replay_trace"):
            out[f"engine.{key}.s"] = self_s[f"engine.{key}"]
        for key in list(calls):
            layer, _, rest = key.partition(".")
            if layer in ("cops", "robbers") and rest.endswith(".move"):
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.s"] = self_s[key]
                p50, pct, tail = latency_summary(self.samples[key])
                out[f"{key}.p50_us"] = p50
                out[f"{key}.tail_us"] = tail
                out[f"{key}.tail_pct"] = pct
        return out

    def solve_self_s(self, graph_text, k):
        """Self time of solve_game calls on one instance (grid spans excluded)."""
        return self.self_s[f"solver.solve_game:{graph_text}:{k}"]


def latency_summary(samples):
    """(p50, tail percentile, tail) of per-call durations, in microseconds.

    The tail is the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND calls above it, or the maximum (percentile 100) when
    there are too few calls for any.
    """
    if not samples:
        return 0.0, 0.0, 0.0
    s = sorted(samples)
    n = len(s)

    def at(pct):
        return s[max(math.ceil(pct / 100 * n) - 1, 0)] * 1e6

    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= TAIL_MIN_BEYOND:
            return at(50), pct, at(pct)
    return at(50), 100.0, s[-1] * 1e6
