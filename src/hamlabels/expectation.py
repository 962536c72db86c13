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
The Monte Carlo stream is keyed by seed and shard, never by the mode, so
``monte_carlo_estimates`` shuffles each random cycle once and counts its
differences and its sums from that one draw.  The counts are label-major:
label l of row r of a block is flagged at l * rows + r, so one sum over
the labels counts every row of the block at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

from .groups import (
    Element,
    GroupSpec,
    _check_count,
    _check_order,
    _divisors,
    _element_set,
)

__all__ = [
    "McEstimate",
    "expected_distinct_diffs",
    "expected_distinct_sums",
    "asymptotic_residual",
    "monte_carlo_estimate",
    "monte_carlo_estimates",
    "count_constrained_cycles",
    "RESIDUAL_BOUND",
    "format_rational",
]

# Frozen regression bound: |exact - (1 - 1/e)n| stays below this for every
# abelian group of order 3..32 (established by exact computation; the
# worst case in that range is about 1.104).
RESIDUAL_BOUND = 2.0

_MC_SHARD = 4096
# a shard is shuffled and counted in blocks of about this many vertices,
# 256 KB per pointer-sized array: smaller blocks spend more time in Python
# per trial, larger ones more memory and more cache misses
_MC_BLOCK = 1 << 15


def format_rational(q: Fraction) -> str:
    """An exact rational as "p/q", denominator always shown (e.g. "1/1")."""
    return f"{q.numerator}/{q.denominator}"


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


def expected_distinct_diffs(G: GroupSpec) -> Fraction:
    """Exact expectation of |D(C)| for C uniform over all (|G|-1)! cycles.

    >>> expected_distinct_diffs(GroupSpec((4,)))
    Fraction(7, 3)
    """
    _check_order(G, 2)
    n = G.order
    a = _off_by_one_free_cycles(n)
    total = 0
    for d in _divisors(n):
        if d < 2:
            continue
        k_d = G.count_by_order(d)
        if k_d:
            total += k_d * _cycles_containing_diff(n, d, a)
    return Fraction(total, factorial(n - 1))


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
    _check_order(G, 2)
    n = G.order
    if n == 2:
        # the inclusion-exclusion below divides by n - j - 1, which is 0 here
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
    ``digits`` must be a positive int (a bool is not one).
    """
    _check_count("digits", digits)
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
    A shard is shuffled in blocks of rows, one ``permuted`` call each on
    the shard's one generator.  ``permuted`` shuffles rows in order, and
    each row takes the same draws whatever its dtype and however many rows
    share the call, so the blocks consume the stream exactly as one call
    on the whole shard does.  The rows are pointer-sized because numpy's
    shuffle has a fast path for that item size only.
    Per-trial counts are integers, so the accumulated moments are exact.
    ``trials`` must be a positive int and ``seed`` an int (a bool is
    neither); anything else is a ValueError before the first shard.
    """
    return _monte_carlo(G, (mode,), trials, seed)[mode]


def monte_carlo_estimates(G: GroupSpec, trials: int, seed: int) -> dict[str, McEstimate]:
    """``monte_carlo_estimate`` for "diff" and for "sum", from one pass.

    The stream is keyed by (seed, shard) and not by the mode, so both
    estimates count the labels of the same cycles: each cycle is drawn
    once and its differences and sums are counted from the one draw.
    Each value equals ``monte_carlo_estimate(G, mode, trials, seed)``,
    and the same arguments are refused with the same ValueErrors.
    """
    return _monte_carlo(G, ("diff", "sum"), trials, seed)


def _monte_carlo(G: GroupSpec, modes: tuple[str, ...], trials: int,
                 seed: int) -> dict[str, McEstimate]:
    """The shard loop behind both entry points: each block of rows is
    shuffled and turned into edge indices once, then its labels are
    gathered and counted once per mode.

    The flags are label-major: label l of row r is marked at
    l * rows + r of an (n, rows) table, and each row's count is one
    ``np.add.reduce`` over axis 0, where a count along each short row
    would cost a reduction per row.  So each label table is scaled by
    ``rows`` once per call, and a block adds only the row's own index.
    ``rows * n`` is at most 32768 up to order 32,768, so the largest
    mark, n * rows - 1, fits the int16 the tables hold there.  ``take``
    gathers into a label buffer of its own, never into its own index,
    which would make numpy copy."""
    import numpy as np

    _check_order(G, 3)
    n = G.order
    _check_count("trials", trials)
    if type(seed) is bool or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    for mode in modes:
        if mode not in ("sum", "diff"):
            raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")
    rows = min(_MC_SHARD, trials, max(1, _MC_BLOCK // n))
    flats = [np.multiply(table.reshape(-1), rows, dtype=table.dtype)
             for table in (G.indexed.add if mode == "sum" else G.indexed.diff
                           for mode in modes)]
    tail = np.arange(1, n, dtype=np.intp)
    row = np.arange(rows, dtype=np.intp)[:, None]
    # every block reuses these buffers (fresh ones cost a page fault per
    # 4 KB); each row of verts is 0, perm, 0, so edge j runs from verts[j]
    # to verts[j + 1] and the last one back to vertex 0
    verts = np.zeros((rows, n + 1), dtype=np.intp)
    edges = np.empty((rows, n), dtype=np.intp)
    # one mode turns the edge index into flat label positions in place;
    # a second mode needs the index kept in a buffer of its own
    index = edges if len(modes) == 1 else np.empty((rows, n), dtype=np.intp)
    labels = np.empty((rows, n), dtype=flats[0].dtype)
    seen = np.empty((n, rows), dtype=bool)  # seen[l, r]: label l is in row r
    total = [0] * len(modes)
    total_sq = [0] * len(modes)
    done = 0
    shard = 0
    while done < trials:
        k = min(_MC_SHARD, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, shard], dtype=np.uint64))
        )
        for r in (min(rows, k - i) for i in range(0, k, rows)):
            v, x, e = verts[:r], index[:r], edges[:r]
            rng.permuted(np.broadcast_to(tail, (r, n - 1)), axis=1, out=v[:, 1:n])
            np.multiply(v[:, :-1], n, out=x)
            x += v[:, 1:]
            for m, flat in enumerate(flats):
                np.add(flat.take(x, out=labels[:r]), row[:r], out=e)
                seen.fill(False)
                seen.reshape(-1)[e] = True
                counts = np.add.reduce(seen[:, :r], axis=0)
                total[m] += int(counts.sum())
                total_sq[m] += int((counts.astype(np.int64) ** 2).sum())
        done += k
        shard += 1
    return {mode: _estimate(total[m], total_sq[m], trials, seed)
            for m, mode in enumerate(modes)}


def _estimate(total: int, total_sq: int, trials: int, seed: int) -> McEstimate:
    """Mean and standard error from the exact sums of the counts and of
    their squares."""
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
    (g,) = _element_set(G, [g])
    if g == G.zero():
        raise ValueError("the step element must be nonzero")
    A = _element_set(G, A)
    n = G.order
    gi = G.indexed
    index = gi.index
    H = gi.closure([index[g]])
    if len(A) == n:
        return 1 if len(H) == n else 0
    # does A contain a full coset of <g>?  each coset is walked by steps of
    # g along one translation row
    step = gi.shift(index[g])
    inside = bytearray(n)
    for a in A:
        inside[index[a]] = 1
    seen = bytearray(n)
    for a in A:
        x = index[a]
        if seen[x]:
            continue
        full = True
        for _ in H:
            seen[x] = 1
            full = full and inside[x]
            x = step[x]
        if full:
            return 0
    return factorial(n - len(A) - 1)
