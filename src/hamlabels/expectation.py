"""Exact expected distinct-label counts over a uniform random Hamiltonian cycle.

The expectation of the number of distinct differences (or sums) along a
random cycle decomposes over labels g into counts of cycles containing g,
which inclusion-exclusion reduces to alternating factorial sums weighted
by subset counts.  For differences the sum over subset sizes j is taken
inside the sum over fully included cosets i; with N = n - i*d points
left it collapses to (-1)^N - a(N), where a is OEIS A000757 (cyclic
permutations of N points with no i followed by i + 1), built once per
call by its three-term recurrence.  A group of order n then costs
O(sigma(n)) big-integer steps: n for the table, n/d per divisor d.
For sums the count depends only on the number of complementary pairs
{a, g - a} of the label and costs O(n) big-integer steps.
Everything on the exact path is big-integer/rational;
floats only ever appear in the Monte Carlo estimator and in residual
reports against the (1 - 1/e)|G| reference line.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .groups import (
    Element,
    GroupSpec,
    _distinct_per_row,
    _divisors,
    _element_set,
    span,
)

__all__ = [
    "McEstimate",
    "diff_free_subset_count",
    "count_cycles_with_diff",
    "expected_distinct_diffs",
    "sum_free_subset_count",
    "expected_distinct_sums",
    "asymptotic_residual",
    "monte_carlo_estimate",
    "count_constrained_cycles",
    "RESIDUAL_BOUND",
    "format_rational",
]

# Frozen regression bound: |exact - (1 - 1/e)n| stays below this for every
# abelian group of order 3..32 (established by exact computation; the
# worst case in that range is about 1.104).
RESIDUAL_BOUND = 2.0

_MC_SHARD = 4096


def format_rational(q: Fraction) -> str:
    """An exact rational as "p/q", denominator always shown (e.g. "1/1")."""
    return f"{q.numerator}/{q.denominator}"


def diff_free_subset_count(n: int, d: int, j: int) -> int:
    """Number of j-subsets of an n-element group containing no coset of
    the order-d cyclic subgroup generated by an order-d element.

    Inclusion-exclusion over which of the n/d cosets are fully included:
    sum over i of (-1)^i * C(n/d, i) * C(n - i*d, j - i*d).
    """
    if d < 2 or n % d != 0:
        raise ValueError(f"d must be a divisor >= 2 of n, got d={d}, n={n}")
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, n-1], got {j}")
    return sum(
        (-1) ** i * comb(n // d, i) * comb(n - i * d, j - i * d)
        for i in range(0, j // d + 1)
    )


def _off_by_one_free_cycles(n: int) -> list[int]:
    """a(0..n) of OEIS A000757: cyclic permutations of n points in which no
    i is followed by i + 1 (mod n)."""
    a = [1, 0, 0, 1][: n + 1]
    for N in range(4, n + 1):
        a.append((N - 3) * a[N - 1] + (N - 2) * (2 * a[N - 2] + a[N - 3]))
    return a


def _cycles_containing_diff(n: int, d: int, a: list[int]) -> int:
    """|{cycles C : some fixed order-d element appears in D(C)}|.

    ``a`` is ``_off_by_one_free_cycles(n)``.  Swapping the j- and i-sums
    of the inclusion-exclusion leaves an inner sum that depends only on
    N = n - i*d and equals b(N) = (-1)^N - a(N), so the count is
    (n-1)! + b(n) + sum over 1 <= i < n/d of (-1)^(i(d+1)) C(n/d, i) b(n - i*d).
    """
    m = n // d
    total = factorial(n - 1) + (-1) ** n - a[n]
    c = 1
    for i in range(1, m):
        c = c * (m - i + 1) // i
        N = n - i * d
        total += (-1) ** (i * (d + 1)) * c * ((-1) ** N - a[N])
    if d == n:
        total += (-1) ** (n + 1)
    return total


def count_cycles_with_diff(G: GroupSpec, g: Element) -> int:
    """Number of Hamiltonian cycles whose difference set contains g.

    Depends on g only through its order; 0 <= result <= (|G|-1)!.
    """
    if g == G.zero():
        raise ValueError("the zero element never occurs as a difference")
    n = G.order
    return _cycles_containing_diff(n, G.element_order(g), _off_by_one_free_cycles(n))


def expected_distinct_diffs(G: GroupSpec) -> Fraction:
    """Exact expectation of |D(C)| for C uniform over all (|G|-1)! cycles.

    >>> expected_distinct_diffs(GroupSpec((4,)))
    Fraction(7, 3)
    """
    n = G.order
    if n < 2:
        raise ValueError("expectation undefined for the trivial group")
    if n == 2:
        return Fraction(1)
    a = _off_by_one_free_cycles(n)
    total = 0
    for d in _divisors(n):
        if d < 2:
            continue
        k_d = G.count_by_order(d)
        if k_d:
            total += k_d * _cycles_containing_diff(n, d, a)
    return Fraction(total, factorial(n - 1))


def sum_free_subset_count(n: int, n0: int, j: int, g_in_doubled: bool) -> int:
    """Number of j-subsets A with no a' + a'' equal to the target label g
    (repetition allowed), for |G| = n with n0 two-torsion elements.

    When g is outside the doubled subgroup 2G the group splits into n/2
    complementary pairs and A may take at most one element per pair; when
    g = 2c has n0 such roots c, those roots are forbidden outright and the
    rest pair up, leaving (n - n0)/2 usable pairs.
    """
    if j < 0:
        raise ValueError("subset size must be >= 0")
    if not g_in_doubled:
        if n % 2 != 0:
            raise ValueError("labels outside 2G only exist for even order")
        pairs = n // 2
    else:
        pairs = (n - n0) // 2
    if j > pairs:
        return 0
    return comb(pairs, j) * 2**j


def _cycles_containing_sum(n: int, pairs: int) -> int:
    """|{cycles C on n points : a fixed label g appears in S(C)}|, where
    ``pairs`` counts the complementary pairs {a, g - a} with a != g - a.

    Inclusion-exclusion over the j pairs forced to be edges: the sum over
    1 <= j <= pairs of (-1)^(j+1) (n-j-1)! C(pairs, j) 2^j, each term taken
    from the one before by one multiplication and one exact division.
    """
    total = 0
    term = factorial(n - 2) * pairs * 2  # j = 1
    for j in range(1, pairs + 1):
        total += term if j % 2 else -term
        term = term * (pairs - j) * 2 // ((n - j - 1) * (j + 1))
    return total


def expected_distinct_sums(G: GroupSpec) -> Fraction:
    """Exact expectation of |S(C)| for C uniform over all cycles.

    >>> expected_distinct_sums(GroupSpec((4,)))
    Fraction(8, 3)
    """
    n = G.order
    if n < 2:
        raise ValueError("expectation undefined for the trivial group")
    if n == 2:
        return Fraction(1)
    n0 = G.two_torsion_count()
    # n/n0 labels lie in 2G, each with n0 roots c (g = 2c) that pair with
    # themselves; for even n the other n - n/n0 labels split G into n/2 pairs
    total = (n // n0) * _cycles_containing_sum(n, (n - n0) // 2)
    if n % 2 == 0:
        total += (n - n // n0) * _cycles_containing_sum(n, n // 2)
    return Fraction(total, factorial(n - 1))


def asymptotic_residual(G: GroupSpec, mode: str, digits: int = 12) -> Decimal:
    """Exact expectation minus (1 - 1/e)|G|, to the given significant digits.

    Report-only: never feeds back into any exact computation.
    """
    if mode == "diff":
        exact = expected_distinct_diffs(G)
    elif mode == "sum":
        exact = expected_distinct_sums(G)
    else:
        raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")
    return _residual(exact, G.order, digits)


def _residual(exact: Fraction, n: int, digits: int = 12) -> Decimal:
    """``exact`` minus (1 - 1/e)n, to the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        e_inv = Decimal(1) / Decimal(1).exp()
        val = Decimal(exact.numerator) / Decimal(exact.denominator) - (1 - e_inv) * n
        ctx.prec = digits
        return +val


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


def monte_carlo_estimate(G: GroupSpec, mode: str, trials: int, seed: int) -> McEstimate:
    """Sample mean of the distinct-label count over uniform random cycles.

    A random cycle is vertex 0 followed by a uniform permutation of the
    remaining elements.  Trials are processed in fixed-size shards, shard
    i drawing from a counter-based Philox stream keyed by (seed, i) and
    shuffled by numpy's Fisher-Yates (Generator.permuted), so results are
    identical across platforms and independent of any worker scheduling.
    Per-trial counts are integers, so the accumulated moments are exact.
    """
    n = G.order
    if n < 3:
        raise ValueError("need |G| >= 3")
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode not in ("sum", "diff"):
        raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")
    table = G.indexed.add if mode == "sum" else G.indexed.diff
    total = 0
    total_sq = 0
    done = 0
    shard = 0
    while done < trials:
        k = min(_MC_SHARD, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, shard], dtype=np.uint64))
        )
        perms = rng.permuted(
            np.tile(np.arange(1, n, dtype=np.int16), (k, 1)), axis=1
        )
        verts = np.concatenate(
            [np.zeros((k, 1), dtype=np.int16), perms], axis=1
        )
        counts = _distinct_per_row(table[verts, np.roll(verts, -1, axis=1)])
        total += int(counts.sum())
        total_sq += int((counts.astype(np.int64) ** 2).sum())
        done += k
        shard += 1
    mean = total / trials
    if trials > 1:
        var = (total_sq - total * total / trials) / (trials - 1)
        std_error = (max(var, 0.0) / trials) ** 0.5
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, trials=trials, seed=seed)


def count_constrained_cycles(G: GroupSpec, g: Element, A) -> int:
    """Number of cycles in which every a in A is immediately followed by a + g.

    The forced edges chain G into |G| - |A| segments when A avoids every
    coset of the subgroup generated by g, giving (|G| - |A| - 1)! cycles;
    a fully forced coset is impossible unless A is the whole group and g
    generates it, which leaves the single cycle stepped out by g.
    """
    if g == G.zero():
        raise ValueError("the step element must be nonzero")
    A = _element_set(G, A)
    n = G.order
    H = span(G, [g])
    if len(A) == n:
        return 1 if len(H) == n else 0
    # does A contain a full coset of <g>?
    seen: set[Element] = set()
    for a in A:
        if a in seen:
            continue
        coset = {G.add(a, h) for h in H}
        seen |= coset
        if coset <= A:
            return 0
    return factorial(n - len(A) - 1)
