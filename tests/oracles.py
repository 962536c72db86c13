"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw residue tuples with its own modular
arithmetic, deliberately avoiding the package's group machinery so the
two sides of each comparison stay independent.
"""

import itertools
from fractions import Fraction


def raw_elements(factors):
    return list(itertools.product(*[range(m) for m in factors]))


def raw_add(factors, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, factors))


def raw_sub(factors, a, b):
    return tuple((x - y) % m for x, y, m in zip(a, b, factors))


def raw_order(factors, g):
    k = 1
    cur = g
    zero = tuple(0 for _ in factors)
    while cur != zero:
        cur = raw_add(factors, cur, g)
        k += 1
    return k


def raw_cycles(factors):
    """All directed Hamiltonian cycles anchored at the zero tuple."""
    els = raw_elements(factors)
    zero, rest = els[0], els[1:]
    for perm in itertools.permutations(rest):
        yield (zero,) + perm


def raw_sum_labels(factors, verts, cyclic=True):
    k = len(verts)
    edges = range(k) if cyclic else range(k - 1)
    return [raw_add(factors, verts[i], verts[(i + 1) % k]) for i in edges]


def raw_diff_labels(factors, verts, cyclic=True):
    k = len(verts)
    edges = range(k) if cyclic else range(k - 1)
    return [raw_sub(factors, verts[(i + 1) % k], verts[i]) for i in edges]


def raw_scan(factors):
    """Exhaustive extremal and mean distinct-label statistics."""
    dmin = smin = 10**9
    dmax = smax = -1
    dtot = stot = count = 0
    for verts in raw_cycles(factors):
        nd = len(set(raw_diff_labels(factors, verts)))
        ns = len(set(raw_sum_labels(factors, verts)))
        dmin, dmax = min(dmin, nd), max(dmax, nd)
        smin, smax = min(smin, ns), max(smax, ns)
        dtot += nd
        stot += ns
        count += 1
    return {
        "dmin": dmin, "dmax": dmax, "smin": smin, "smax": smax,
        "mean_diffs": Fraction(dtot, count),
        "mean_sums": Fraction(stot, count),
        "count": count,
    }


def raw_cycles_containing_diff(factors, g):
    """|{cycles : g appears among consecutive differences}| by enumeration."""
    total = 0
    for verts in raw_cycles(factors):
        if g in raw_diff_labels(factors, verts):
            total += 1
    return total


def raw_subsets_without_coset(n, d, j):
    """j-subsets of Z_n containing no coset of the order-d subgroup <n/d>."""
    step = n // d
    cosets = [frozenset((r + k * step) % n for k in range(d)) for r in range(step)]
    count = 0
    for A in itertools.combinations(range(n), j):
        sA = set(A)
        if not any(c <= sA for c in cosets):
            count += 1
    return count


def raw_subsets_without_sum(factors, g, j):
    """j-subsets A with no a' + a'' = g, repetition allowed."""
    els = raw_elements(factors)
    count = 0
    for A in itertools.combinations(els, j):
        if not any(raw_add(factors, a, b) == g for a in A for b in A):
            count += 1
    return count


def raw_constrained_cycle_count(factors, g, A):
    """Cycles in which each a in A is immediately followed by a + g."""
    A = set(A)
    total = 0
    for verts in raw_cycles(factors):
        n = len(verts)
        succ = {verts[i]: verts[(i + 1) % n] for i in range(n)}
        if all(succ[a] == raw_add(factors, a, g) for a in A):
            total += 1
    return total


def raw_first_hamiltonian_cycle(factors, S):
    """The first cycle of raw_cycles whose sums all lie in S, or None."""
    S = set(S)
    for verts in raw_cycles(factors):
        n = len(verts)
        if all(raw_add(factors, verts[i], verts[(i + 1) % n]) in S for i in range(n)):
            return verts
    return None
