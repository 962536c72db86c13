"""Exact expectation formulas against enumeration, plus the Monte Carlo estimator."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from hamlabels import (
    abelian_groups_in_range,
    asymptotic_residual,
    count_constrained_cycles,
    expectation,
    expected_distinct_diffs,
    expected_distinct_sums,
    group,
    monte_carlo_estimate,
    monte_carlo_estimates,
)
from hamlabels.expectation import (
    RESIDUAL_BOUND,
    McEstimate,
    _cycles_containing_diff,
    _cycles_containing_sum,
    _off_by_one_free_cycles,
    format_rational,
)

from oracles import (
    diff_free_subset_count,
    raw_constrained_cycle_count,
    raw_cycles_containing_diff,
    raw_monte_carlo,
    raw_order,
    raw_scan,
    raw_subsets_without_coset,
    raw_subsets_without_sum,
    sum_free_subset_count,
)


# -- subset counts for the difference side ----------------------------------------

def test_diff_free_subset_count_examples():
    assert diff_free_subset_count(4, 4, 2) == 6
    assert diff_free_subset_count(4, 2, 3) == 0
    assert diff_free_subset_count(4, 2, 1) == 4


def test_diff_free_subset_count_matches_enumeration():
    for n in range(3, 9):
        for d in range(2, n + 1):
            if n % d:
                continue
            for j in range(1, n):
                assert diff_free_subset_count(n, d, j) == \
                    raw_subsets_without_coset(n, d, j), (n, d, j)


def test_diff_free_subset_count_rejects_bad_divisor():
    with pytest.raises(ValueError):
        diff_free_subset_count(6, 4, 2)
    with pytest.raises(ValueError):
        diff_free_subset_count(6, 1, 2)


# -- cycles containing a fixed difference --------------------------------------------

def test_count_cycles_with_diff_examples():
    # in Z4, (1,) has order 4 and (2,) order 2; in Z3, (1,) has order 3
    assert _cycles_containing_diff(4, 4, _off_by_one_free_cycles(4)) == 5
    assert _cycles_containing_diff(4, 2, _off_by_one_free_cycles(4)) == 4
    assert _cycles_containing_diff(3, 3, _off_by_one_free_cycles(3)) == 1


def test_count_cycles_with_diff_matches_enumeration():
    # the count the expectation uses, by the order of g alone, against
    # enumeration for every nonzero g
    for G in abelian_groups_in_range(3, 8):
        fs = G.invariant_factors
        a = _off_by_one_free_cycles(G.order)
        for g in G.elements():
            if g == G.zero():
                continue
            assert _cycles_containing_diff(G.order, raw_order(fs, g), a) == \
                raw_cycles_containing_diff(fs, g), (G, g)


def _double_sum_cycles_containing_diff(n, d):
    """The inclusion-exclusion double sum over subset sizes j and fully
    included cosets i, in the order that defines it."""
    tau = 1 if d == n else 0
    total = sum(
        (-1) ** (j + 1) * factorial(n - j - 1) * diff_free_subset_count(n, d, j)
        for j in range(1, n)
    )
    return total + (-1) ** (n + 1) * tau


def test_swapped_sum_matches_the_double_sum():
    for n in range(3, 121):
        a = _off_by_one_free_cycles(n)
        for d in range(2, n + 1):
            if n % d == 0:
                assert _cycles_containing_diff(n, d, a) == \
                    _double_sum_cycles_containing_diff(n, d), (n, d)


def test_off_by_one_free_recurrence_matches_its_sum():
    a = _off_by_one_free_cycles(300)
    assert a[:10] == [1, 0, 0, 1, 1, 8, 36, 229, 1625, 13208]
    for N in range(1, 301):
        direct = (-1) ** N + sum(
            (-1) ** k * comb(N, k) * factorial(N - k - 1) for k in range(N)
        )
        assert a[N] == direct, N


# -- expected distinct differences ------------------------------------------------------

def test_expected_diffs_examples():
    assert expected_distinct_diffs(group(3)) == Fraction(1)
    assert expected_distinct_diffs(group(4)) == Fraction(7, 3)
    assert expected_distinct_diffs(group(2)) == Fraction(1)


def test_expected_diffs_equals_enumeration_mean():
    for G in abelian_groups_in_range(3, 8):
        got = expected_distinct_diffs(G)
        assert got == raw_scan(G.invariant_factors)["mean_diffs"], G


def test_expectations_reject_trivial_group():
    with pytest.raises(ValueError):
        expected_distinct_diffs(group(1))
    with pytest.raises(ValueError):
        expected_distinct_sums(group(1))


def test_format_rational_writes_integers_past_the_str_digit_limit():
    # str() refuses an int of more than 4,300 digits by default
    q = Fraction(1, 10**4301)
    assert format_rational(q) == "1/1" + "0" * 4301
    assert format_rational(-q) == "-1/1" + "0" * 4301


def test_format_rational_equals_str_below_the_digit_limit():
    rng = random.Random(2006)
    for _ in range(200):
        p = rng.randrange(-10**rng.randint(1, 4300), 10**rng.randint(1, 4300))
        q = rng.randrange(1, 10**rng.randint(1, 4300))
        f = Fraction(p, q)
        assert format_rational(f) == f"{f.numerator}/{f.denominator}"


def test_exact_expectations_refuse_orders_above_the_ceiling_before_any_work(monkeypatch):
    calls = []
    for name in ("_off_by_one_free_cycles", "_cycles_containing_sum"):
        real = getattr(expectation, name)
        monkeypatch.setattr(expectation, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    G = group(expectation.MAX_EXACT_ORDER + 1)
    for fn in (expected_distinct_diffs, expected_distinct_sums):
        with pytest.raises(ValueError, match="ceiling"):
            fn(G)
    for mode in ("diff", "sum"):
        with pytest.raises(ValueError, match="ceiling"):
            asymptotic_residual(G, mode)
    assert calls == []
    # below the ceiling both helpers run
    expected_distinct_diffs(group(5))
    expected_distinct_sums(group(5))
    assert calls == ["_off_by_one_free_cycles", "_cycles_containing_sum"]


# -- subset counts for the sum side ----------------------------------------------------

def test_sum_free_subset_count_examples():
    assert sum_free_subset_count(4, 2, 1, g_in_doubled=False) == 4
    assert sum_free_subset_count(4, 2, 1, g_in_doubled=True) == 2
    assert sum_free_subset_count(4, 2, 2, g_in_doubled=True) == 0


def test_sum_free_subset_count_parity_precondition():
    with pytest.raises(ValueError):
        sum_free_subset_count(5, 1, 1, g_in_doubled=False)


def test_sum_free_subset_count_matches_enumeration():
    for G in [group(4), group(2, 2), group(6), group(5), group(2, 4), group(7)]:
        fs = G.invariant_factors
        n = G.order
        n0 = G.two_torsion_count()
        doubled = {G.scalar_mul(2, t) for t in G.elements()}
        for g in G.elements():
            in2g = g in doubled
            for j in range(1, n // 2 + 2):
                assert sum_free_subset_count(n, n0, j, in2g) == \
                    raw_subsets_without_sum(fs, g, j), (G, g, j)


# -- expected distinct sums --------------------------------------------------------------

def test_expected_sums_examples():
    assert expected_distinct_sums(group(3)) == Fraction(3)
    assert expected_distinct_sums(group(4)) == Fraction(8, 3)
    assert expected_distinct_sums(group(2)) == Fraction(1)


def test_expected_sums_equals_enumeration_mean():
    for G in abelian_groups_in_range(3, 8):
        got = expected_distinct_sums(G)
        assert got == raw_scan(G.invariant_factors)["mean_sums"], G


def test_running_terms_match_the_subset_count_sum():
    # reference: the inclusion-exclusion spelled term by term from the
    # oracle subset counts, for labels inside 2G and (even order) outside it
    for G in abelian_groups_in_range(3, 64):
        n, n0 = G.order, G.two_torsion_count()
        cases = [(True, (n - n0) // 2)] + ([(False, n // 2)] if n % 2 == 0 else [])
        for in_doubled, pairs in cases:
            ref = sum(
                (-1) ** (j + 1) * factorial(n - j - 1)
                * sum_free_subset_count(n, n0, j, g_in_doubled=in_doubled)
                for j in range(1, n // 2 + 1)
            )
            assert _cycles_containing_sum(n, pairs) == ref, (G, in_doubled)


# -- residuals ------------------------------------------------------------------------------

def test_residual_examples():
    assert float(asymptotic_residual(group(3), "diff")) == pytest.approx(-0.896361676, abs=1e-8)
    assert float(asymptotic_residual(group(4), "diff")) == pytest.approx(-0.195148902, abs=1e-8)
    assert float(asymptotic_residual(group(4), "sum")) == pytest.approx(0.138184431, abs=1e-8)


def test_residual_bound_at_large_order():
    for G in (group(2000), group(2, 1000)):
        for mode in ("diff", "sum"):
            assert abs(float(asymptotic_residual(G, mode))) <= RESIDUAL_BOUND, (G, mode)


def test_residual_mode_validation():
    with pytest.raises(ValueError):
        asymptotic_residual(group(4), "mean")


@pytest.mark.parametrize("digits", [True, 1.5], ids=repr)
def test_residual_refuses_digits_that_are_not_a_positive_int(digits):
    with pytest.raises(ValueError, match="digits must be a positive integer"):
        asymptotic_residual(group(4), "diff", digits)


def test_residual_regression_bound_through_32():
    worst = 0.0
    for G in abelian_groups_in_range(3, 32):
        for mode in ("sum", "diff"):
            worst = max(worst, abs(float(asymptotic_residual(G, mode))))
    assert worst <= 2.0
    # frozen: the true worst case in this range is ~1.1036 (odd order 3)
    assert worst == pytest.approx(1.103638323, abs=1e-6)


# -- Monte Carlo ------------------------------------------------------------------------------

def test_monte_carlo_identical_seed_identical_result():
    a = monte_carlo_estimate(group(4), "sum", 5000, seed=42)
    b = monte_carlo_estimate(group(4), "sum", 5000, seed=42)
    assert a == b
    c = monte_carlo_estimate(group(4), "sum", 5000, seed=43)
    assert c != a


def test_monte_carlo_degenerate_group_is_exact():
    est = monte_carlo_estimate(group(3), "diff", 10, seed=1)
    assert est.mean == 1.0 and est.std_error == 0.0
    est = monte_carlo_estimate(group(3), "sum", 10, seed=1)
    assert est.mean == 3.0


def test_monte_carlo_close_to_exact_value():
    exact = float(Fraction(8, 3))
    est = monte_carlo_estimate(group(4), "sum", 100_000, seed=7)
    assert abs(est.mean - exact) <= 3 * est.std_error
    est = monte_carlo_estimate(group(2, 4), "diff", 50_000, seed=11)
    exact = float(expected_distinct_diffs(group(2, 4)))
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_monte_carlo_replays_the_whole_shard_stream():
    # one shard, two shards, and a partial shard after full ones, on seeds
    # that wrap modulo 2**64 from both sides; the one-pass estimates of
    # both modes equal the one-mode ones.  Both modes' labels fit one
    # 64-bit mask up to order 32 (Z31, Z32, Z2xZ16) and are flagged in a
    # table above it (Z33, Z34); one mode's fit up to order 64 (Z64, in
    # blocks of 512 cycles), not at Z65
    both_modes = [*abelian_groups_in_range(3, 24), group(31), group(32),
                  group(2, 16), group(33), group(34)]
    cases = [(G, True) for G in both_modes] + [(group(64), False), (group(65), False)]
    for G, both_at_once in cases:
        for trials in (1, 1025, 4097):
            for seed in (0, -5, 2**64 + 3):
                if both_at_once:
                    both = monte_carlo_estimates(G, trials, seed)
                    assert list(both) == ["diff", "sum"]
                for mode in ("sum", "diff"):
                    est = monte_carlo_estimate(G, mode, trials, seed)
                    want = raw_monte_carlo(G, mode, trials, seed)
                    assert (est.mean, est.std_error) == want, (G, mode, trials, seed)
                    if both_at_once:
                        assert both[mode] == est, (G, mode, trials, seed)


@pytest.mark.parametrize("factors, mode, trials, seed, mean, std_error", [
    # n * n > 2**15: the flat edge index no longer fits int16
    ((200,), "diff", 4097, 0, 126.18818647791066, 0.06940475174447036),
    ((2, 2, 32), "sum", 5000, 7, 81.111, 0.04907929864526473),
    ((128,), "diff", 1, 2**64 + 3, 77.0, 0.0),
])
def test_monte_carlo_pinned_estimates(factors, mode, trials, seed, mean, std_error):
    assert monte_carlo_estimate(group(*factors), mode, trials, seed) == McEstimate(
        mean=mean, std_error=std_error, trials=trials, seed=seed)


def test_monte_carlo_works_in_row_blocks():
    # a kernel holding a whole shard of pointer-sized rows peaks above 20 MB
    G = group(400)
    G.indexed.diff
    tracemalloc.start()
    try:
        monte_carlo_estimate(G, "diff", 5000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_monte_carlo_reads_the_label_tables_without_copying_them():
    # a scaled copy of each n x n table would peak at twice one table
    G = group(2000)
    G.indexed.add, G.indexed.diff
    tracemalloc.start()
    try:
        monte_carlo_estimates(G, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.indexed.add.nbytes


def test_monte_carlo_validates_input():
    with pytest.raises(ValueError):
        monte_carlo_estimate(group(2), "sum", 10, seed=0)
    for trials in (0, True, 2.5):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_estimate(group(4), "sum", trials, seed=0)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_estimate(group(4), "sum", 10, seed=seed)
    # one mode of Z4 fits one mask word, of Z100 it does not
    for n in (4, 100):
        with pytest.raises(ValueError, match="mode must be 'sum' or 'diff'"):
            monte_carlo_estimate(group(n), "median", 10, seed=0)


def test_monte_carlo_estimates_validate_input():
    with pytest.raises(ValueError, match=r"\|G\| >= 3"):
        monte_carlo_estimates(group(2), 10, seed=0)
    for trials in (0, True, 2.5):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_estimates(group(4), trials, seed=0)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_estimates(group(4), 10, seed=seed)


# -- forced-step cycle counts ------------------------------------------------------------------

def test_count_constrained_cycles_examples():
    G = group(4)
    assert count_constrained_cycles(G, (1,), [(0,)]) == 2
    assert count_constrained_cycles(G, (2,), [(0,), (2,)]) == 0
    assert count_constrained_cycles(G, (1,), G.elements()) == 1


def test_count_constrained_cycles_rejects_zero_step():
    with pytest.raises(ValueError):
        count_constrained_cycles(group(4), (0,), [])


@pytest.mark.parametrize("g, message", [([0], "nonzero"), ((0.0,), "not an element")],
                         ids=repr)
def test_count_constrained_cycles_validates_the_step_before_comparing_it(g, message):
    # [0] is the zero step as a list; (0.0,) equals (0,) but is no element
    with pytest.raises(ValueError, match=message):
        count_constrained_cycles(group(5), g, [])


def test_count_constrained_cycles_matches_enumeration():
    for G in abelian_groups_in_range(3, 6):
        fs = G.invariant_factors
        els = G.elements()
        for g in els:
            if g == G.zero():
                continue
            for size in range(0, 4):
                for A in itertools.combinations(els, size):
                    assert count_constrained_cycles(G, g, A) == \
                        raw_constrained_cycle_count(fs, g, A), (G, g, A)
