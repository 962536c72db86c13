"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw residue tuples with its own modular
arithmetic, deliberately avoiding the package's group machinery so the
two sides of each comparison stay independent; only
``raw_minimum_connection_size`` leaves each Hamiltonicity question to the
package's public ``is_hamiltonian_cayley``, as it checks the candidate
walk around it.  The two subset-count
formulas after the oracles are the terms the expectation tests spell
their inclusion-exclusion double sums from.  ``raw_monte_carlo`` replays
the Monte Carlo stream with one int16 shuffle per whole shard and a sort
count, on a label table built from the tuples.  ``trail_from_json_dict``,
at the end, is the reader of the package's JSON trail form: only the
tests read a trail back.
"""

import functools
import itertools
from fractions import Fraction
from math import comb

import numpy as np

from hamlabels import (
    GroupSpec,
    MinConnectionResult,
    SearchBudgetExceeded,
    Trail,
    is_hamiltonian_cayley,
)


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
    """Exhaustive extremal and mean distinct-label statistics.

    ``witnesses`` holds, for each extreme, the first cycle of raw_cycles
    that attains it (only a strict improvement replaces a witness).
    """
    dmin = smin = 10**9
    dmax = smax = -1
    dtot = stot = count = 0
    wit = {}
    for verts in raw_cycles(factors):
        nd = len(set(raw_diff_labels(factors, verts)))
        ns = len(set(raw_sum_labels(factors, verts)))
        if nd < dmin:
            dmin, wit["min_diffs"] = nd, verts
        if nd > dmax:
            dmax, wit["max_diffs"] = nd, verts
        if ns < smin:
            smin, wit["min_sums"] = ns, verts
        if ns > smax:
            smax, wit["max_sums"] = ns, verts
        dtot += nd
        stot += ns
        count += 1
    return {
        "dmin": dmin, "dmax": dmax, "smin": smin, "smax": smax,
        "mean_diffs": Fraction(dtot, count),
        "mean_sums": Fraction(stot, count),
        "count": count,
        "witnesses": wit,
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


def raw_is_connected(factors, S):
    """Whether the addition Cayley graph with connection set S is
    connected: a BFS from the zero tuple, y a neighbour of x when x + y
    lies in S."""
    S = set(S)
    els = raw_elements(factors)
    reached = {els[0]}
    frontier = [els[0]]
    for x in frontier:  # grows while it is walked
        for y in els:
            if y not in reached and raw_add(factors, x, y) in S:
                reached.add(y)
                frontier.append(y)
    return len(reached) == len(els)


@functools.lru_cache(maxsize=None)
def _raw_doubles(factors):
    """The nonzero elements of 2G."""
    els = raw_elements(factors)
    return frozenset(raw_add(factors, g, g) for g in els) - {els[0]}


def raw_is_canonical(factors, S):
    """Whether the sorted tuple of elements S sorts at or below each of its
    translates by the nonzero elements of 2G, every one of them tried."""
    return not any(sorted(raw_add(factors, s, h) for s in S) < list(S)
                   for h in _raw_doubles(factors))


def raw_minimum_connection_size(G, budget=None):
    """The least Hamiltonian connection set with no connectivity pruning:
    every k-subset in combination order from the rank bracket up, skipping
    a set that ``raw_is_canonical`` refuses, asked through the public
    ``is_hamiltonian_cayley``."""
    factors = G.invariant_factors
    els = raw_elements(factors)
    r = len(factors)
    lower = r if factors[0] == 2 else r + 1
    upper = lower if G.order % 2 == 0 else 2 * r + 1
    for k in range(lower, upper + 1):
        for S in itertools.combinations(els, k):
            if not raw_is_canonical(factors, S):
                continue
            try:
                ok, cycle = is_hamiltonian_cayley(G, S, budget=budget)
            except SearchBudgetExceeded:
                return MinConnectionResult(G, "interval", None, k, upper, None, None)
            if ok:
                return MinConnectionResult(G, "exact", k, k, k, S, cycle)
    raise AssertionError(f"no Hamiltonian connection set of size <= {upper} on {G}")


class _OutOfBudget(Exception):
    pass


def raw_rainbow_search(factors, kind, budget=None):
    """(status, nodes, vertices) of the first rainbow ordering in the walk
    order of the package's rainbow searches, on plain tuples.

    ``kind`` is "diff_path" (every element, open, differences),
    "sum_cycle" (every element, cyclic, sums) or "diff_cycle_nonzero"
    (the nonzero elements, cyclic, differences).  The first vertex is the
    least one; each step tries the other vertices in ascending order and
    counts one node per vertex placed; with a budget the walk stops as
    "exhausted" at the node past it.
    """
    els = raw_elements(factors)
    if kind == "diff_cycle_nonzero":
        els = els[1:]
    if kind == "sum_cycle":
        def label(a, b):
            return raw_add(factors, a, b)
    else:
        def label(a, b):
            return raw_sub(factors, b, a)
    cyclic = kind != "diff_path"
    first = els[0]
    # per vertex: every other vertex, ascending, with the edge's label
    steps = {a: [(b, label(a, b)) for b in els if b != a] for a in els}
    path, used = [first], set()
    nodes = 0

    def extend():
        nonlocal nodes
        if len(path) == len(els):
            return not cyclic or label(path[-1], first) not in used
        for v, lab in steps[path[-1]]:
            if v in path or lab in used:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise _OutOfBudget
            path.append(v)
            used.add(lab)
            if extend():
                return True
            path.pop()
            used.remove(lab)
        return False

    try:
        found = extend()
    except _OutOfBudget:
        return "exhausted", nodes, None
    return ("found", nodes, tuple(path)) if found else ("nonexistent", nodes, None)


def raw_automorphism_orbits(factors):
    """The orbits of Aut(G) on the element tuples, as a set of frozensets.

    A homomorphism is fixed by the images g_i of the unit vectors e_i,
    each with m_i * g_i = 0; every choice of images is tried, and the
    bijective maps x -> sum x_i * g_i are the automorphisms.
    """
    els = raw_elements(factors)
    zero = tuple(0 for _ in factors)

    def scale(k, a):
        return tuple(k * x % m for x, m in zip(a, factors))

    images = [[g for g in els if scale(m, g) == zero] for m in factors]
    orbit = {x: set() for x in els}
    for gens in itertools.product(*images):
        phi = [functools.reduce(functools.partial(raw_add, factors),
                                (scale(c, g) for c, g in zip(x, gens)), zero)
               for x in els]
        if len(set(phi)) == len(els):
            for x, y in zip(els, phi):
                orbit[x].add(y)
    return {frozenset(o) for o in orbit.values()}


def cycle_edges(verts, n):
    """The flat index v * n + w of every edge v -> w of each row of vertex
    indices, read as a cycle: the last edge returns to the row's first
    vertex.  The result indexes an n x n label table read flat."""
    # int16 holds every flat index while n * n <= 2**15
    edges = np.multiply(verts, n, dtype=np.int16 if n * n <= 1 << 15 else np.int64)
    edges[:, :-1] += verts[:, 1:]
    edges[:, -1] += verts[:, 0]
    return edges


def distinct_per_row(labels):
    """The number of distinct values in each row of a label array."""
    srt = np.sort(labels, axis=1)
    return (np.diff(srt, axis=1) != 0).sum(axis=1) + 1


@functools.lru_cache(maxsize=None)
def _raw_label_table(factors, mode):
    """table[i, j] numbers the label of edge els[i] -> els[j], els in
    lexicographic order: only equality of labels matters to a count."""
    els = raw_elements(factors)
    index = {a: i for i, a in enumerate(els)}
    op = raw_add if mode == "sum" else lambda f, a, b: raw_sub(f, b, a)
    return np.array([[index[op(factors, a, b)] for b in els] for a in els])


def raw_monte_carlo(G, mode, trials, seed):
    """(mean, std_error) of the distinct-label count over ``trials`` cycles:
    shard i tiles the int16 vertices 1..n-1 into one array, shuffles every
    row with one ``permuted`` call on Philox keyed by (seed, i), prepends
    vertex 0 and counts each row's sorted labels.  Shards hold 4096 trials."""
    n = G.order
    flat = _raw_label_table(G.invariant_factors, mode).reshape(-1)
    total = total_sq = 0
    for shard, done in enumerate(range(0, trials, 4096)):
        k = min(4096, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, shard], dtype=np.uint64)))
        perms = rng.permuted(np.tile(np.arange(1, n, dtype=np.int16), (k, 1)), axis=1)
        verts = np.concatenate([np.zeros((k, 1), dtype=np.int16), perms], axis=1)
        counts = distinct_per_row(flat[cycle_edges(verts, n)])
        total += int(counts.sum())
        total_sq += int((counts.astype(np.int64) ** 2).sum())
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    var = (total_sq - total * total / trials) / (trials - 1)
    return mean, (max(var, 0.0) / trials) ** 0.5


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


def trail_from_json_dict(d: dict) -> Trail:
    """The trail ``trail_to_json_dict`` wrote; ValueError on a kind other
    than "cyclic" or "open"."""
    kind = d["kind"]
    if kind not in ("cyclic", "open"):
        raise ValueError(f'trail kind must be "cyclic" or "open", got {kind!r}')
    G = GroupSpec(tuple(d["group"]))
    verts = tuple(tuple(v) for v in d["vertices"])
    return Trail(G, verts, cyclic=kind == "cyclic")
