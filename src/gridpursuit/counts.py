"""Exact counting of coordinate-sum level sets on boxes.

A "box" here is the vertex set {0..n_1-1} x ... x {0..n_k-1}.  The level
set at m collects vertices whose coordinates sum to exactly m; the sets
below/above collect strict inequalities.  Cop blockades occupy level sets,
so these counts size blockades and bound surviving component sizes.

Everything uses exact integer (or rational) arithmetic; binomials with a
negative upper index evaluate to 0, matching the inclusion-exclusion
convention used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import ConfigurationError, ResourceLimitError
from .grid import grid, lattice

BoxDims = tuple  # side lengths, one positive int per dimension

# Most steps one call may spend on level distributions: a box's
# distribution costs d * (sum(n_i - 1) + 1) steps of pure-Python dynamic
# programming, about a second at the cap.  The largest box the tests and
# demos count is 21 x 21 x 21 (183 steps)
MAX_LEVEL_WORK = 10**7


def binom(n: int, k: int) -> int:
    """C(n, k) with out-of-range arguments (including n < 0) counting 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_level_work(work: int, what: str):
    if work > MAX_LEVEL_WORK:
        raise ResourceLimitError(
            f"level counts of {what} take {work} steps; capped at {MAX_LEVEL_WORK}",
            estimate=work,
            cap=MAX_LEVEL_WORK,
        )


@lru_cache(maxsize=4096)
def level_distribution(dims: BoxDims) -> tuple:
    """Count of box vertices at every coordinate sum 0..sum(n_i - 1).

    Dynamic programming: convolve the uniform distributions of the
    individual coordinates, one dimension at a time.  Raises
    ResourceLimitError, before allocating, past MAX_LEVEL_WORK steps.
    """
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"box dims must be positive, got {dims}")
    total = sum(n - 1 for n in dims)
    _check_level_work(len(dims) * (total + 1), f"a {len(dims)}-dimensional box")
    ways = [1] + [0] * total
    filled = 0
    for n in dims:
        filled += n - 1
        new = [0] * (total + 1)
        running = 0
        for s in range(filled + 1):
            running += ways[s]
            if s - n >= 0:
                running -= ways[s - n]
            new[s] = running
        ways = new
    return tuple(ways)


def count_level(dims: BoxDims, m: int) -> int:
    """Vertices of the box whose coordinates sum to exactly m."""
    dist = level_distribution(tuple(dims))
    if m < 0 or m >= len(dist):
        return 0
    return dist[m]


def count_below(dims: BoxDims, m: int) -> int:
    """Vertices with coordinate sum strictly below m."""
    dist = level_distribution(tuple(dims))
    return sum(dist[: max(0, min(m, len(dist)))])


def count_above(dims: BoxDims, m: int) -> int:
    """Vertices with coordinate sum strictly above m."""
    dist = level_distribution(tuple(dims))
    if m < 0:
        return sum(dist)
    return sum(dist[m + 1 :])


@dataclass(frozen=True)
class LevelCounts:
    """Exact partition of a box by comparison with level m."""

    m: int
    c: int  # at level
    s: int  # strictly below
    l: int  # strictly above


def level_counts(dims: BoxDims, m: int) -> LevelCounts:
    dims = tuple(dims)
    return LevelCounts(m, count_level(dims, m), count_below(dims, m), count_above(dims, m))


def level_closed_form(a: int, b: int, n: int) -> int:
    """Inclusion-exclusion count of {x in {0..n-1}^a : sum x = b}, truncated.

    The alternating sum stops at k = floor(a/2); omitted terms vanish
    whenever b < n*(floor(a/2)+1), which covers every level a descending
    blockade visits.  Outside that range the truncation is wrong (e.g.
    a=3, n=3, b=6 yields -2 while the true count is 1) and callers should
    fall back to count_level.
    """
    if a < 1:
        raise ValueError("dimension count must be >= 1")
    return sum(
        (-1) ** k * binom(a, k) * binom(b - k * n + a - 1, a - 1)
        for k in range(a // 2 + 1)
    )


# --------------------------------------------------------------------------
# Closed forms for the special boxes used by the sweep/blockade analyses
# --------------------------------------------------------------------------

_CASES = ("a", "b", "c", "d")


def case_box(case: str, n: int) -> BoxDims:
    """The box each closed-form case refers to."""
    if case == "a":
        return (n, n)
    if case == "b":
        return (n // 2 - 1, n // 2 - 1, n)
    if case == "c":
        return (n // 2 - 1, n, n)
    if case == "d":
        return (n, n, n)
    raise ValueError(f"unknown case {case!r}; expected one of {_CASES}")


def special_forms(case: str, n: int, m: int, which: str = "level", reading: str = "paper-proof") -> int:
    """Binomial closed forms for the level/below counts of the special boxes.

    which:   "level" for the count at exactly m, "below" for the cumulative
             count.
    reading: the two conventions the cumulative count is quoted in --
             "paper-proof" counts sums <= m, "strict" counts sums < m (the
             convention level_counts uses), obtained by shifting m down by
             one.

    Each case is only defined on its stated parameter window (in terms of
    c = m/(n-1)): (a) c <= 1; (b), (c) n even and 0.5 <= c <= 1;
    (d) c <= 1.5.  Case (b) additionally overcounts its subtraction near
    the top of its window (m > n-3): the printed expression omits the
    add-back for points violating both short dimensions at once.
    """
    if which not in ("level", "below"):
        raise ValueError(f"which must be 'level' or 'below', got {which!r}")
    if reading not in ("paper-proof", "strict"):
        raise ValueError(f"unknown reading {reading!r}")
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {_CASES}")

    if m < 1 or m > ((3 * (n - 1)) // 2 if case == "d" else n - 1):
        raise ValueError(f"m={m} outside case ({case}) range for n={n}")
    if case in ("b", "c"):
        if n % 2 or n < 6:
            raise ValueError(f"case ({case}) needs even n >= 6, got n={n}")
        if 2 * m < n - 1:
            raise ValueError(f"m={m} below case ({case}) range for n={n}")

    # "below" in the strict reading counts sums < m == sums <= m-1
    t = m if which == "level" or reading == "paper-proof" else m - 1

    if case == "a":
        return t + 1 if which == "level" else binom(t + 2, 2)
    if case == "b":
        if which == "level":
            return binom(t + 2, 2) - 2 * binom(t - n // 2 + 3, 2)
        return binom(t + 3, 3) - 2 * binom(t - n // 2 + 4, 3)
    if case == "c":
        if which == "level":
            return binom(t + 2, 2) - binom(t - n // 2 + 3, 2)
        return binom(t + 3, 3) - binom(t - n // 2 + 4, 3)
    # case (d): below n the constraints never bite; above, subtract the
    # single-coordinate violations (double violations need sums >= 2n)
    if which == "level":
        return binom(t + 2, 2) - 3 * binom(t - n + 2, 2)
    return binom(t + 3, 3) - 3 * binom(t - n + 3, 3)


# --------------------------------------------------------------------------
# Component-size bounds against a fixed number of removed vertices
# --------------------------------------------------------------------------


def best_level_bound(c: int, dims: BoxDims) -> tuple:
    """(level, bound): the coordinate-sum level whose cut yields the best
    lower bound on the largest surviving component, and that bound.

    Removing at most count_level(dims, m) vertices leaves a component of at
    least count_above(dims, m) vertices when level cuts are the optimal
    separators; maximizing over admissible m gives the strongest claim.
    m = -1 covers the removal-free case.  Returns (None, 0) when no level
    is wide enough for c removals.

    Level cuts are the optimal separators on equal-sided boxes [k]^d with
    d >= 2 (vertex isoperimetry in the grid, Bollobas and Leader 1991), so
    only there is the bound proven.  On other boxes a short cross-section
    cut can be cheaper and the value may overshoot the true optimum: on
    (5, 2) with c = 2 it claims 7, while removing the middle column leaves
    two components of 4.  min_large_component_bound is sound on every box.
    """
    if c < 0:
        raise ConfigurationError(f"cop count must be >= 0, got {c}")
    dist = level_distribution(tuple(dims))
    above = sum(dist)
    best_m, best = (-1, above) if c == 0 else (None, 0)
    for m, at_level in enumerate(dist):
        above -= at_level
        if c <= at_level and (above > best or best_m is None):
            best_m, best = m, above
    return best_m, best


def _path_bound(c: int, n: int) -> int:
    """Exact minimum, over c removals from a path of n vertices, of the
    largest surviving piece: the n - c survivors fall into at most c + 1
    runs, and evenly spaced removals attain ceil((n - c) / (c + 1))."""
    return max(0, -((c - n) // (c + 1)))


def min_large_component_bound(c: int, dims: BoxDims) -> int:
    """Lower bound, proven on every box, on the largest component left after
    removing at most c vertices.

    With no removals it is the whole box.  Otherwise it is the maximum of
    bounds for induced sub-boxes B' of the box B.  That is sound because a
    component of B' minus S stays connected in B minus S, and every bound
    used is nonincreasing in c:

    * the exact path bound on a longest line of the box;
    * the level-cut bound of the equal-sided sub-box [s_j]^j for each
      j >= 2, where s_j is the j-th largest side (level cuts are optimal
      on equal-sided boxes; see best_level_bound).

    Level-cut values grow with the equal-sided box they are taken on, so
    [s_j]^j dominates every smaller [m]^j, and on an equal-sided box of
    dimension >= 2 the maximum is that box's own level-cut value.
    """
    if c < 0:
        raise ConfigurationError(f"cop count must be >= 0, got {c}")
    sides = sorted(dims, reverse=True)
    total = sum(level_distribution(tuple(sides)))
    if c == 0:
        return total  # the box itself is connected
    # each [s_j]^j is within the cap when the box is, but d of them together
    # may not be
    work = sum(j * (j * (sides[j - 1] - 1) + 1) for j in range(2, len(sides) + 1))
    _check_level_work(work, f"the equal-sided sub-boxes of a {len(sides)}-dimensional box")
    bounds = [_path_bound(c, sides[0])]
    bounds += [best_level_bound(c, (sides[j - 1],) * j)[1] for j in range(2, len(sides) + 1)]
    return max(bounds)


def min_large_component_exact(c: int, dims: BoxDims, cap: int = 10_000_000) -> int:
    """Exact minimum over all <= c removals of the largest component size.

    Brute force over all c-subsets of the box (removing fewer vertices never
    helps, so only exact-size subsets are enumerated).
    """
    if c < 0:
        raise ConfigurationError(f"cop count must be >= 0, got {c}")
    g = grid(*dims)
    n_vertices = g.vertex_count
    if c >= n_vertices:
        return 0
    n_subsets = math.comb(n_vertices, c)
    if n_subsets > cap:
        raise ResourceLimitError(
            f"{n_subsets} subsets exceeds cap {cap}", estimate=n_subsets, cap=cap
        )
    lat = lattice(g)
    best = n_vertices
    for subset in combinations(range(n_vertices), c):
        blocked = 0
        for i in subset:
            blocked |= 1 << i
        largest = max((comp.bit_count() for comp in lat.components(blocked)), default=0)
        if largest < best:
            best = largest
    return best


# --------------------------------------------------------------------------
# Hypercube potential bookkeeping
# --------------------------------------------------------------------------


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def aggregate_potential(n: int) -> Fraction:
    """Total potential one pursuer exerts across all 2^n hypercube vertices.

    Evaluates 1 + sum_{k=1..n} C(n,k)/C(n,k-1) exactly and checks it against
    the closed form 1 - n + (n+1)*H_n before returning.
    """
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    direct = 1 + sum(
        (Fraction(binom(n, k), binom(n, k - 1)) for k in range(1, n + 1)), Fraction(0)
    )
    closed = 1 - n + (n + 1) * harmonic(n)
    if direct != closed:
        raise AssertionError(f"aggregate potential identity failed at n={n}")
    return direct
