import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpursuit.counts import (
    aggregate_potential,
    best_level_bound,
    binom,
    case_box,
    count_above,
    count_below,
    count_level,
    harmonic,
    level_closed_form,
    level_counts,
    min_large_component_bound,
    min_large_component_exact,
    special_forms,
)
from gridpursuit.errors import ResourceLimitError

import oracles


def enumerate_level(dims, m):
    return sum(1 for v in product(*(range(n) for n in dims)) if sum(v) == m)


def enumerate_below(dims, m):
    return sum(1 for v in product(*(range(n) for n in dims)) if sum(v) < m)


# -- binomial convention -------------------------------------------------------


def test_binom_matches_comb_in_range():
    for n in range(10):
        for k in range(n + 1):
            assert binom(n, k) == math.comb(n, k)


def test_binom_out_of_range_is_zero():
    assert binom(-1, 0) == 0  # negative top counts nothing
    assert binom(-3, 2) == 0
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


# -- level counts --------------------------------------------------------------


def test_count_level_examples():
    assert count_level((5, 5), 3) == 4
    assert count_level((3, 3, 3), 3) == 7
    assert count_level((7, 2, 9), 0) == 1
    assert count_level((4, 4), -2) == 0
    assert count_level((4, 4), 99) == 0


def test_count_below_above_examples():
    assert count_below((5, 5), 3) == 6
    assert level_counts((2, 2), 1) == level_counts((2, 2), 1).__class__(1, 2, 1, 1)
    lc = level_counts((2, 2), 1)
    assert (lc.c, lc.s, lc.l) == (2, 1, 1)
    assert count_above((3, 3, 3), 3) == 27 - 7 - 10
    assert count_below((3, 3, 3), 3) == 10


@pytest.mark.parametrize("dims", [(2,), (5, 5), (3, 4), (3, 3, 3), (2, 2, 2, 2)])
def test_counts_match_enumeration(dims):
    top = sum(n - 1 for n in dims)
    for m in range(-1, top + 2):
        assert count_level(dims, m) == enumerate_level(dims, m)
        assert count_below(dims, m) == enumerate_below(dims, m)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(-2, 24))
@settings(max_examples=200)
def test_partition_identity(dims, m):
    dims = tuple(dims)
    lc = level_counts(dims, m)
    assert lc.c + lc.s + lc.l == math.prod(dims)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 24))
@settings(max_examples=200)
def test_reflection_symmetry(dims, m):
    dims = tuple(dims)
    top = sum(n - 1 for n in dims)
    assert count_level(dims, m) == count_level(dims, top - m)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.integers(0, 24), st.integers(0, 100))
@settings(max_examples=200)
def test_permutation_invariance(dims, m, seed):
    shuffled = dims[:]
    random.Random(seed).shuffle(shuffled)
    assert count_level(tuple(dims), m) == count_level(tuple(shuffled), m)


# -- inclusion-exclusion closed form -------------------------------------------


def test_level_closed_form_examples():
    assert level_closed_form(3, 3, 3) == 7
    assert level_closed_form(2, 4, 5) == 5
    assert level_closed_form(3, 1, 3) == 3
    assert level_closed_form(1, -1, 5) == 0


@pytest.mark.parametrize("n", range(3, 23, 2))
def test_level_closed_form_blockade_size_3d(n):
    m = 3 * (n - 1) // 2
    assert level_closed_form(3, m, n) == (3 * n * n + 1) // 4
    assert count_level((n, n, n), m) == (3 * n * n + 1) // 4


def test_level_closed_form_exact_below_truncation_threshold():
    # truncation at floor(a/2) is exact whenever b < n*(floor(a/2)+1)
    for a in (1, 2, 3, 4):
        for n in (3, 4, 5):
            for b in range(0, min(a * (n - 1), n * (a // 2 + 1) - 1) + 1):
                assert level_closed_form(a, b, n) == count_level((n,) * a, b)


def test_level_closed_form_known_failure_beyond_range():
    # the truncated sum is NOT the true count once b >= n*(floor(a/2)+1);
    # pin one documented discrepancy so the limitation stays visible
    assert count_level((3, 3, 3), 6) == 1
    assert level_closed_form(3, 6, 3) == -2


# -- special-box closed forms ---------------------------------------------------


def test_special_forms_case_a_examples():
    assert special_forms("a", 7, 4, "level") == 5
    assert special_forms("a", 7, 4, "below", "paper-proof") == binom(6, 2)
    assert special_forms("a", 7, 4, "below", "strict") == binom(5, 2)


def test_special_forms_case_d_example():
    assert special_forms("d", 5, 6, "level") == 28 - 9 == 19
    assert count_level((5, 5, 5), 6) == 19


def test_special_forms_case_b_boundary_overcount():
    # printed expression evaluates to 1 at (n=6, m=5) but the box holds 4
    # level-5 points; the gap is the omitted both-coordinates-high add-back
    assert special_forms("b", 6, 5, "level") == 1
    assert enumerate_level(case_box("b", 6), 5) == 4
    assert enumerate_level(case_box("b", 6), 5) - special_forms("b", 6, 5, "level") == binom(5 - 6 + 4, 2)


def _case_valid_ms(case, n):
    if case == "a":
        return range(1, n)
    if case in ("b", "c"):
        return range((n - 1 + 1) // 2, n)  # c >= 0.5
    return range(1, (3 * (n - 1)) // 2 + 1)


@pytest.mark.parametrize("case", ["a", "c", "d"])
def test_special_forms_exact_everywhere_on_stated_range(case):
    for n in range(3, 22):
        if case in ("b", "c") and (n % 2 or n < 6):
            continue
        dims = case_box(case, n)
        for m in _case_valid_ms(case, n):
            assert special_forms(case, n, m, "level") == count_level(dims, m)
            assert special_forms(case, n, m, "below", "strict") == count_below(dims, m)
            assert special_forms(case, n, m, "below", "paper-proof") == count_below(dims, m + 1)


def test_special_forms_case_b_exact_until_near_top():
    for n in range(6, 22, 2):
        dims = case_box("b", n)
        for m in _case_valid_ms("b", n):
            level = special_forms("b", n, m, "level")
            below_strict = special_forms("b", n, m, "below", "strict")
            below_paper = special_forms("b", n, m, "below", "paper-proof")
            if m <= n - 3:
                assert level == count_level(dims, m)
                assert below_paper == count_below(dims, m + 1)
            else:
                # overcounted subtraction: printed value falls short by the
                # both-high add-back term
                assert count_level(dims, m) - level == binom(m - n + 4, 2)
                assert count_below(dims, m + 1) - below_paper == binom(m - n + 5, 3)
            if m - 1 <= n - 3:
                assert below_strict == count_below(dims, m)


def test_special_forms_rejects_out_of_range():
    with pytest.raises(ValueError):
        special_forms("a", 7, 9)
    with pytest.raises(ValueError):
        special_forms("b", 7, 4)  # odd n
    with pytest.raises(ValueError):
        special_forms("b", 8, 2)  # c < 0.5
    with pytest.raises(ValueError):
        special_forms("d", 5, 7)  # c > 1.5
    with pytest.raises(ValueError):
        special_forms("e", 5, 2)


# -- component bounds ------------------------------------------------------------


def test_bound_no_cops_is_whole_box():
    assert min_large_component_bound(0, (3, 4)) == 12
    assert min_large_component_exact(0, (3, 4)) == 12


def test_bound_3x3_three_cops():
    # only level m=2 holds >= 3 vertices; above it lie exactly 3
    assert min_large_component_bound(3, (3, 3)) == 3


def test_exact_4x4_four_cops_meets_bound():
    assert min_large_component_bound(4, (4, 4)) == 6
    assert min_large_component_exact(4, (4, 4)) == 6


def test_exact_cube_three_cops():
    # the best three removals cut off a corner: components of sizes 1 and 4
    assert min_large_component_exact(3, (2, 2, 2)) == 4


def test_exact_dominates_bound_on_equal_sided_boxes():
    # level cuts are isoperimetrically optimal on equal-sided boxes with
    # at least two dimensions, so there the bound is sound
    for dims in [(2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 2, 2, 2)]:
        for c in range(5):
            assert min_large_component_exact(c, dims) >= min_large_component_bound(c, dims)


def test_bound_unsound_on_thin_boxes():
    # on anisotropic boxes a short cross-section cut beats every level cut,
    # so the level-cut value overshoots the true optimum; pin two
    # counterexamples so the limitation stays documented, and check that
    # the component bound stays below the optimum there
    assert min_large_component_exact(1, (5,)) == 2
    assert best_level_bound(1, (5,))[1] == 4
    assert min_large_component_bound(1, (5,)) <= min_large_component_exact(1, (5,))
    assert min_large_component_exact(2, (5, 2)) == 4
    assert best_level_bound(2, (5, 2))[1] == 7
    assert min_large_component_bound(2, (5, 2)) <= min_large_component_exact(2, (5, 2))


def test_exact_cap():
    with pytest.raises(ResourceLimitError):
        min_large_component_exact(8, (4, 4, 4), cap=1000)


@pytest.mark.parametrize("dims", [(1025, 1024), (10**5, 10**5)], ids=["just-over", "10^10"])
def test_exact_on_a_box_over_the_vertex_cap_is_a_resource_error(dims):
    # no removal leaves one subset to try, but the lattice is refused
    with pytest.raises(ResourceLimitError) as err:
        min_large_component_exact(0, dims)
    assert err.value.cap == 2**20


def test_exact_against_independent_flood():
    # re-derive the c=2 answer on a 2x3 box with the oracle machinery
    dims = [(2, False), (3, False)]
    adj = oracles.explicit_adjacency(dims)
    verts = oracles.all_vertices(dims)
    best = len(verts)
    import itertools

    for blocked in itertools.combinations(verts, 2):
        comps = oracles.all_components(adj, set(blocked))
        largest = max((len(c) for c in comps), default=0)
        best = min(best, largest)
    assert min_large_component_exact(2, (2, 3)) == best


# -- hypercube potential ----------------------------------------------------------


def test_aggregate_potential_small_values():
    assert aggregate_potential(1) == 2
    assert aggregate_potential(3) == Fraction(16, 3)


def test_aggregate_potential_identity_range():
    for n in range(1, 65):
        value = aggregate_potential(n)
        assert value == 1 - n + (n + 1) * harmonic(n)


def test_aggregate_potential_log_bound():
    for n in range(3, 65):
        assert float(aggregate_potential(n)) <= 2 * n * math.log(n) + 1e-9
