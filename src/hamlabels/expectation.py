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
differences and its sums from that one draw.  A block of cycles is held
vertex-major, one cycle per column, so edge j of every cycle is one row.
Where the modes fit one word of ``GroupIndex.label_masks``, the mask
layout it owns for this and the scan (n <= 32 for both modes, n <= 64 for
one), a cycle's labels are the OR of one mask per edge and each count is
a popcount; larger groups flag each cycle's labels and sum the flags.
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
    _element_indices,
    _label_counts,
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
    "MAX_EXACT_ORDER",
    "format_rational",
]

# Frozen regression bound: |exact - (1 - 1/e)n| stays below this for every
# abelian group of order 3..32 (established by exact computation; the
# worst case in that range is about 1.104).
RESIDUAL_BOUND = 2.0

# The exact expectations refuse larger orders: the differences keep every
# a(N) up to n, Theta(n^2 log n) bits, and Z10000 takes about 3 s and
# 100 MB for both modes.
MAX_EXACT_ORDER = 10_000

# Significant digits of a residual, and of the decimals in expect reports.
DIGITS = 12

_MC_SHARD = 4096
# a shard is shuffled and counted in blocks of about this many vertices,
# 256 KB per pointer-sized array: smaller blocks spend more time in Python
# per trial, larger ones more memory and more cache misses
_MC_BLOCK = 1 << 15


def format_rational(q: Fraction) -> str:
    """An exact rational as "p/q", denominator always shown (e.g. "1/1").

    Each integer is written through ``Decimal``, which has no digit limit,
    where ``str`` refuses one of more than ``sys.get_int_max_str_digits()``
    digits (Z1561's mean has a 4,302-digit denominator)."""
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _check_exact_order(G: GroupSpec, least: int = 2) -> None:
    """Refuse a group below ``least`` or above ``MAX_EXACT_ORDER``, before
    any work."""
    _check_order(G, least)
    if G.order > MAX_EXACT_ORDER:
        raise ValueError(f"order {G.order} is above the exact-expectation "
                         f"ceiling {MAX_EXACT_ORDER}")


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
    _check_exact_order(G)
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
    _check_exact_order(G)
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


def asymptotic_residual(G: GroupSpec, mode: str, digits: int = DIGITS) -> Decimal:
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


def _residual(exact: Fraction, n: int, digits: int = DIGITS) -> Decimal:
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
    The stream is defined by one ``permuted`` call along ``axis=1`` on the
    whole shard, one row per cycle.  A shard is shuffled in blocks of
    columns instead, one cycle per column and one ``permuted`` call along
    ``axis=0`` each, on the shard's one generator.  ``permuted`` shuffles
    the 1-d slices along its axis one after another, and each slice takes
    the same draws whatever its dtype, its stride and however many slices
    share the call, so column c of a block takes the draws of row c of
    the shard and the blocks consume the stream exactly as one call does.
    The vertices are pointer-sized because numpy's shuffle has a fast
    path for that item size only.
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
    """The shard loop behind both entry points: each block of cycles is
    shuffled and turned into edge indices once, then its labels are
    counted for every mode.

    A block is vertex-major: column c of the (n + 1, rows) ``verts`` is
    0, cycle c's permutation, 0, so edge j of every cycle is row j of
    ``verts[:-1] * n + verts[1:]``, and every step below works on whole
    rows of the block (see ``monte_carlo_estimate`` for why ``axis=0``
    keeps the stream).

    Where ``GroupIndex.label_masks(modes)`` gives one word per edge, a
    block is one ``take`` of a mask per edge, one OR down the columns and
    one ``_label_counts``.  Where it gives None, each mode's labels are
    gathered from its ``GroupIndex.label_table``, and label l of column c
    is flagged at ``c * n + l`` of a (rows, n) table, so each cycle's
    count is one sum along its row of flags.

    A shard's shorter last block shuffles only its first r columns, but
    it is counted whole, its other columns still holding earlier cycles,
    and only the first r counts are kept: every step then runs on whole
    contiguous buffers, where numpy copies a strided index or ``out``.
    For the same reason ``take`` runs in mode "clip", every index being
    in range anyway: under the default mode numpy copies ``out`` before
    it writes."""
    import numpy as np

    _check_order(G, 3)
    n = G.order
    _check_count("trials", trials)
    if type(seed) is bool or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rows = min(_MC_SHARD, trials, max(1, _MC_BLOCK // n))
    masks = G.indexed.label_masks(modes)
    tail = np.arange(1, n, dtype=np.intp)
    # every block reuses these buffers (fresh ones cost a page fault per
    # 4 KB); rows 0 and n of verts stay 0
    verts = np.zeros((n + 1, rows), dtype=np.intp)
    edges = np.empty((n, rows), dtype=np.intp)
    if masks is not None:
        words = np.empty((n, rows), dtype=masks.dtype)
    else:
        tables = [G.indexed.label_table(mode) for mode in modes]
        # one mode turns the edge index into flag positions in place; a
        # second mode needs the index kept in a buffer of its own
        index = edges if len(modes) == 1 else np.empty((n, rows), dtype=np.intp)
        labels = np.empty((n, rows), dtype=tables[0].dtype)
        column = np.arange(0, rows * n, n, dtype=np.intp)
        seen = np.empty((rows, n), dtype=bool)  # seen[c, l]: label l is in column c
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
            rng.permuted(np.broadcast_to(tail[:, None], (n - 1, r)), axis=0,
                         out=verts[1:n, :r])
            np.multiply(verts[:-1], n, out=edges)
            edges += verts[1:]
            if masks is not None:
                masks.take(edges, out=words, mode="clip")
                counts = _label_counts(np.bitwise_or.reduce(words, 0), n, len(modes))
            else:
                counts = []
                for table in tables:
                    table.take(edges, out=labels, mode="clip")
                    np.add(labels, column, out=index)
                    seen.fill(False)
                    seen.reshape(-1)[index] = True
                    counts.append(np.add.reduce(seen, axis=1))
            for m, c in enumerate(counts):
                c = c[:r]
                total[m] += int(c.sum())
                total_sq[m] += int((c.astype(np.int64) ** 2).sum())
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
    (g,) = _element_indices(G, [g])
    if g == 0:
        raise ValueError("the step element must be nonzero")
    A = _element_indices(G, A)
    n = G.order
    gi = G.indexed
    H = gi.closure([g])
    if len(A) == n:
        return 1 if len(H) == n else 0
    # does A contain a full coset of <g>?  each coset is walked by steps of
    # g along one translation row
    step = gi.shift(g)
    inside = bytearray(n)
    for a in A:
        inside[a] = 1
    seen = bytearray(n)
    for a in A:
        if seen[a]:
            continue
        x, full = a, True
        for _ in H:
            seen[x] = 1
            full = full and inside[x]
            x = step[x]
        if full:
            return 0
    return factorial(n - len(A) - 1)
