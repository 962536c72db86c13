"""Exhaustive and pruned combinatorial search.

Covers full Hamiltonian-cycle enumeration with extremal statistics,
backtracking witness searches for rainbow trails, addition Cayley graphs
with connectivity and Hamiltonicity tests, and the exact minimum size of
a connection set giving a Hamiltonian addition Cayley graph.
Hamiltonicity has one backtracking search: up to ``DEFAULT_DP_LIMIT``
vertices it is exact and unbudgeted and remembers dead states, above it
it is budgeted.

Budgets are node counts, never wall time, so results are reproducible.
A search only ever reports "nonexistent" after exhausting its whole
space; running out of budget is a distinct outcome.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .expectation import format_rational
from .groups import Element, GroupSpec, _distinct_per_row, _element_set, span
from .trails import Trail, sum_labels, trail_to_json_dict

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_DP_LIMIT",
    "SearchBudgetExceeded",
    "SearchResult",
    "FOUND",
    "NONEXISTENT",
    "EXHAUSTED",
    "ExtremalReport",
    "enumerate_cycles",
    "extremal_scan",
    "find_rainbow_diff_path",
    "find_rainbow_sum_cycle",
    "find_rainbow_diff_cycle_nonzero",
    "CayleyGraph",
    "build_cayley",
    "is_connected_cayley",
    "is_hamiltonian_cayley",
    "classify_small_connection_set",
    "MinConnectionResult",
    "minimum_connection_size",
]

DEFAULT_ENUMERATION_CAP = 12

# Up to this many vertices the Hamiltonicity search runs without a budget
# and remembers dead (visited, vertex) states, at most 2^(n-1)*n of them;
# beyond it the search is budgeted and keeps no memo.  Also the largest
# gate is_hamiltonian_cayley accepts, so the memo stays small.
DEFAULT_DP_LIMIT = 16

_CHUNK_ROWS = 200_000

FOUND = "found"
NONEXISTENT = "nonexistent"
EXHAUSTED = "exhausted"


class SearchBudgetExceeded(RuntimeError):
    """A backtracking search ran out of its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass
class SearchResult:
    status: str  # found | nonexistent | exhausted
    trail: Trail | None
    nodes: int


# ---------------------------------------------------------------------------
# cycle enumeration
# ---------------------------------------------------------------------------

def enumerate_cycles(G: GroupSpec, *, cap: int = DEFAULT_ENUMERATION_CAP,
                     second: Element | None = None):
    """Yield every directed Hamiltonian cycle exactly once, anchored at 0.

    Cycles are emitted in lexicographic order of the remaining vertex
    permutation; with ``second`` fixed, only the cycles whose second
    vertex matches are produced, which partitions the space into |G|-1
    independent shards for parallel workers.
    """
    n = G.order
    if n < 2:
        raise ValueError("cycle enumeration needs |G| >= 2")
    if n > cap:
        raise ValueError(f"order {n} exceeds enumeration cap {cap}")
    els = G.elements()
    head = els[:1]
    if second is not None:
        if second not in els[1:]:
            raise ValueError(f"{second} is not a nonzero element of {G}")
        head += (second,)
    for perm in itertools.permutations(e for e in els if e not in head):
        yield Trail(G, head + perm, cyclic=True)


@dataclass
class ExtremalReport:
    """Exact extremal and average distinct-label counts over all cycles."""

    group: GroupSpec
    min_distinct_diffs: int
    max_distinct_diffs: int
    min_distinct_sums: int
    max_distinct_sums: int
    cycle_count: int
    mean_distinct_diffs: Fraction
    mean_distinct_sums: Fraction
    witnesses: dict[str, Trail] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "group": str(self.group),
            "invariant_factors": list(self.group.invariant_factors),
            "order": self.group.order,
            "rank": self.group.rank,
            "min_distinct_diffs": self.min_distinct_diffs,
            "max_distinct_diffs": self.max_distinct_diffs,
            "min_distinct_sums": self.min_distinct_sums,
            "max_distinct_sums": self.max_distinct_sums,
            "cycle_count": self.cycle_count,
            "mean_distinct_diffs": format_rational(self.mean_distinct_diffs),
            "mean_distinct_sums": format_rational(self.mean_distinct_sums),
            "witnesses": {
                k: trail_to_json_dict(t) for k, t in sorted(self.witnesses.items())
            },
        }

    # columns of the CSV rendering, named as in to_json_dict
    CSV_HEADER = (
        "group,order,rank,min_distinct_diffs,max_distinct_diffs,"
        "min_distinct_sums,max_distinct_sums,cycle_count,"
        "mean_distinct_diffs,mean_distinct_sums"
    )


def _scan_shard(n: int, second: int, addt: np.ndarray,
                subt: np.ndarray) -> tuple[dict, int, int, int]:
    """The best (count, cycle) of each extreme, the diff and sum totals and
    the number of cycles, over the cycles whose second vertex is ``second``."""
    remaining = [k for k in range(1, n) if k != second]
    best = {"dmin": (n + 1, ()), "dmax": (-1, ()), "smin": (n + 1, ()), "smax": (-1, ())}
    diff_total = sum_total = rows = 0
    perm_iter = itertools.permutations(remaining)
    while True:
        chunk = list(itertools.islice(perm_iter, _CHUNK_ROWS))
        if not chunk:
            break
        k = len(chunk)
        verts = np.empty((k, n), dtype=np.int16)
        verts[:, 0] = 0
        verts[:, 1] = second
        verts[:, 2:] = np.array(chunk, dtype=np.int16)
        nxt = np.roll(verts, -1, axis=1)
        dcounts = _distinct_per_row(subt[verts, nxt])
        scounts = _distinct_per_row(addt[verts, nxt])
        diff_total += int(dcounts.sum())
        sum_total += int(scounts.sum())
        rows += k
        for key, counts, lower_is_better in (
            ("dmin", dcounts, True),
            ("dmax", dcounts, False),
            ("smin", scounts, True),
            ("smax", scounts, False),
        ):
            cur = best[key][0]
            val = int(counts.min() if lower_is_better else counts.max())
            if (val < cur) if lower_is_better else (val > cur):
                r = int(np.argmin(counts) if lower_is_better else np.argmax(counts))
                best[key] = (val, tuple(int(x) for x in verts[r]))
    return best, diff_total, sum_total, rows


def extremal_scan(G: GroupSpec, *, cap: int = DEFAULT_ENUMERATION_CAP,
                  threads: int = 1) -> ExtremalReport:
    """Scan all (|G|-1)! cycles for exact extremal and mean label counts.

    The space is sharded by the second vertex; shards are vectorized and
    may be evaluated by a thread pool, but the merge runs in fixed shard
    order so the report (witnesses included) never depends on the thread
    count.
    """
    n = G.order
    if n < 2:
        raise ValueError("extremal scan needs |G| >= 2")
    if n > cap:
        raise ValueError(f"order {n} exceeds enumeration cap {cap}")
    gi = G.indexed
    addt, subt = gi.add, gi.diff
    seconds = list(range(1, n))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shard_stats = list(pool.map(
                lambda s: _scan_shard(n, s, addt, subt), seconds))
    else:
        shard_stats = [_scan_shard(n, s, addt, subt) for s in seconds]

    best: dict[str, tuple[int, tuple[int, ...]]] = {
        "dmin": (n + 1, ()), "dmax": (-1, ()), "smin": (n + 1, ()), "smax": (-1, ()),
    }
    diff_total = sum_total = rows = 0
    # fixed order merge: lowest second vertex wins ties
    for shard_best, shard_diffs, shard_sums, shard_rows in shard_stats:
        for key, lower in (("dmin", True), ("dmax", False),
                           ("smin", True), ("smax", False)):
            val, wit = shard_best[key]
            cur = best[key][0]
            if (val < cur) if lower else (val > cur):
                best[key] = (val, wit)
        diff_total += shard_diffs
        sum_total += shard_sums
        rows += shard_rows
    assert rows == factorial(n - 1)

    els = gi.els

    def as_trail(idx_seq: tuple[int, ...]) -> Trail:
        return Trail(G, tuple(els[i] for i in idx_seq), cyclic=True)

    return ExtremalReport(
        group=G,
        min_distinct_diffs=best["dmin"][0],
        max_distinct_diffs=best["dmax"][0],
        min_distinct_sums=best["smin"][0],
        max_distinct_sums=best["smax"][0],
        cycle_count=rows,
        mean_distinct_diffs=Fraction(diff_total, rows),
        mean_distinct_sums=Fraction(sum_total, rows),
        witnesses={
            "min_diffs": as_trail(best["dmin"][1]),
            "max_diffs": as_trail(best["dmax"][1]),
            "min_sums": as_trail(best["smin"][1]),
            "max_sums": as_trail(best["smax"][1]),
        },
    )


# ---------------------------------------------------------------------------
# rainbow witness searches
# ---------------------------------------------------------------------------

def _rainbow_backtrack(G: GroupSpec, vertices: list[int], labels: np.ndarray,
                       cyclic: bool, budget: int | None) -> SearchResult:
    """Depth-first search for an ordering with pairwise-distinct edge labels.

    Vertices are element indices and ``labels[a, b]`` is the label of the
    edge a -> b.  The first vertex stays pinned to vertices[0] (a valid
    quotient: by rotation for cycles, by translation for paths on a full
    group), and candidates are tried in ascending element order, so the
    first witness is deterministic.  The stack is explicit, so the depth
    is not bounded by the recursion limit.
    """
    n = len(vertices)
    first = min(vertices) if cyclic else vertices[0]
    rest = sorted(v for v in vertices if v != first)
    path = [first]
    on_path = bytearray(G.order)
    on_path[first] = 1
    used = bytearray(G.order)
    resume = [0]  # per depth: the position in rest to try next
    row = labels[first].tolist()  # labels of the edges leaving path[-1]
    nodes = 0
    while True:
        if len(path) == n:
            if not cyclic or not used[row[first]]:
                els = G.indexed.els
                trail = Trail(G, tuple(els[v] for v in path), cyclic=cyclic)
                return SearchResult(FOUND, trail, nodes)
        else:
            for pos in range(resume[-1], len(rest)):
                v = rest[pos]
                if not on_path[v] and not used[row[v]]:
                    break
            else:
                v = None
            if v is not None:
                nodes += 1
                if budget is not None and nodes > budget:
                    return SearchResult(EXHAUSTED, None, nodes)
                resume[-1] = pos + 1
                used[row[v]] = 1
                on_path[v] = 1
                path.append(v)
                resume.append(0)
                row = labels[v].tolist()
                continue
        if len(path) == 1:
            return SearchResult(NONEXISTENT, None, nodes)
        resume.pop()
        v = path.pop()
        on_path[v] = 0
        row = labels[path[-1]].tolist()
        used[row[v]] = 0


def find_rainbow_diff_path(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a Hamiltonian path on G with all differences distinct.

    Start vertex is pinned to 0: translating a path leaves its difference
    labels unchanged, so every witness has a representative starting at 0.
    """
    if G.order < 2:
        raise ValueError("need |G| >= 2")
    return _rainbow_backtrack(G, list(range(G.order)), G.indexed.diff, cyclic=False,
                              budget=budget)


def find_rainbow_sum_cycle(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a Hamiltonian cycle on G with all sums distinct."""
    if G.order < 2:
        raise ValueError("need |G| >= 2")
    return _rainbow_backtrack(G, list(range(G.order)), G.indexed.add, cyclic=True,
                              budget=budget)


def find_rainbow_diff_cycle_nonzero(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a cycle on the nonzero elements with all differences distinct."""
    if G.order < 3:
        raise ValueError("need |G| >= 3")
    return _rainbow_backtrack(G, list(range(1, G.order)), G.indexed.diff, cyclic=True,
                              budget=budget)


# ---------------------------------------------------------------------------
# addition Cayley graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CayleyGraph:
    """Graph on G with g' adjacent to g'' iff g' + g'' lies in the connection set.

    Self-loop vertices (2g in S) are tracked separately and never appear
    in the adjacency lists.
    """

    group: GroupSpec
    connection_set: frozenset[Element]
    adjacency: dict[Element, tuple[Element, ...]]
    loop_vertices: frozenset[Element]


def _cayley_neighbours(G: GroupSpec, S: frozenset[Element]) -> list[list[int]]:
    """nbrs[i]: the indices j != i, ascending, with els[i] + els[j] in S."""
    gi = G.indexed
    if not S:
        return [[] for _ in range(gi.n)]
    # the index of s - g for every g, one O(n) translation per s
    minus = [gi.shift(gi.index[s])[gi.neg].tolist() for s in S]
    return [sorted(j for j in col if j != i) for i, col in enumerate(zip(*minus))]


def build_cayley(G: GroupSpec, S) -> CayleyGraph:
    S = _element_set(G, S)
    gi = G.indexed
    els = gi.els
    adjacency = {els[i]: tuple(els[j] for j in nbrs)
                 for i, nbrs in enumerate(_cayley_neighbours(G, S))}
    loops = frozenset(a for a, d in zip(els, gi.double.tolist()) if els[d] in S)
    return CayleyGraph(G, S, adjacency, loops)


def _is_connected_structural(G: GroupSpec, S: frozenset[Element]) -> bool:
    """The structural connectivity test on an already validated S."""
    if not S:
        return G.order == 1
    s0 = min(S)
    H = span(G, [G.sub(s, s0) for s in S])
    if len(H) == G.order:
        return True
    return 2 * len(H) == G.order and s0 not in H


def is_connected_cayley(G: GroupSpec, S, method: str = "structural") -> bool:
    """Connectivity of the addition Cayley graph, two independent ways.

    structural: the subgroup H generated by S-S must be all of G, or have
    index 2 with S inside the nontrivial coset.
    bfs: walk the component of 0 in the explicit graph.
    Neither builds an n x n table, so both scale to large groups.
    """
    S = _element_set(G, S)
    if method == "structural":
        return _is_connected_structural(G, S)
    if method == "bfs":
        nbrs = _cayley_neighbours(G, S)
        seen = {0}
        reached = [0]
        for v in reached:  # grows while it is walked
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        return len(reached) == G.order
    raise ValueError(f"unknown connectivity method {method!r}")


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _hamiltonian_backtrack(n: int, adj: list[int], budget: int | None,
                           memo: bool = False) -> list[int] | None:
    """Pruned DFS Hamiltonicity: degree-1 forcing plus availability cut.

    Returns the lexicographically least cycle (0, x1, ..., x_{n-1}), or
    None.  The stack is explicit, so the depth is not bounded by the
    recursion limit; ``steps[d]`` holds the untried successors of
    ``path[d]``.  With ``memo`` the search also remembers dead
    (visited, vertex) states, whose subtrees held no cycle.  The
    incremental cut equals the full cut, so a subtree depends only on
    that pair; it is never entered twice, and at most 2^(n-1)*n states
    are visited.
    """
    full = (1 << n) - 1
    dead = set()  # read and written only with memo

    def successors(cur: int, visited: int, recheck: int) -> int:
        free = ~visited & full
        # every unvisited vertex still needs two usable connections; the
        # parent node checked them all, and stepping on to cur took away
        # only the previous vertex, so only its neighbours can fall short
        avail_pool = free | (1 << cur) | 1
        m = recheck & free
        while m:
            u = _lowest_bit(m)
            m &= m - 1
            if (adj[u] & avail_pool).bit_count() < 2:
                return 0
        return adj[cur] & free

    nodes = 0
    path = [0]
    visited = 1
    steps = [successors(0, visited, full)]
    while steps:
        ext = steps[-1]
        if not ext:
            steps.pop()
            if memo:
                dead.add((visited, path[-1]))
            visited ^= 1 << path.pop()
            continue
        w = _lowest_bit(ext)
        steps[-1] = ext & (ext - 1)
        if memo and (visited | 1 << w, w) in dead:
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(nodes)
        path.append(w)
        visited |= 1 << w
        if visited == full:
            if adj[w] & 1:
                return path
            steps.append(0)
        else:
            steps.append(successors(w, visited, adj[path[-2]]))
    return None


def is_hamiltonian_cayley(G: GroupSpec, S, *, budget: int | None = None,
                          dp_limit: int = DEFAULT_DP_LIMIT) -> tuple[bool, Trail | None]:
    """Exact Hamiltonicity of the addition Cayley graph, with witness.

    One backtracking search.  Up to ``dp_limit`` vertices it runs without
    a budget and remembers dead states, so it visits at most 2^(n-1)*n of
    them; beyond, it keeps no memo and raises SearchBudgetExceeded rather
    than guessing when the budget runs out.  A witness cycle C always
    satisfies S(C) being a subset of the connection set.
    """
    if dp_limit > DEFAULT_DP_LIMIT:
        raise ValueError(
            f"dp_limit {dp_limit} exceeds {DEFAULT_DP_LIMIT}: an unbudgeted search "
            f"may visit 2^{dp_limit - 1}*{dp_limit} = {dp_limit << (dp_limit - 1)} states")
    S = _element_set(G, S)
    n = G.order
    if n < 2:
        raise ValueError("need |G| >= 2")
    if n == 2:
        nz = G.elements()[1]
        if nz in S:  # the single edge doubles as a 2-cycle
            return True, Trail(G, (G.zero(), nz), cyclic=True)
        return False, None
    if not _is_connected_structural(G, S):
        return False, None
    adj = [sum(1 << j for j in nbrs) for nbrs in _cayley_neighbours(G, S)]
    if any(a.bit_count() < 2 for a in adj):
        return False, None
    if n <= dp_limit:
        path = _hamiltonian_backtrack(n, adj, None, memo=True)
        if path is not None:
            # the least cycle walked the other way round from 0: the
            # orientation smin reports and the benchmark pins record
            path = [0] + path[:0:-1]
    else:
        path = _hamiltonian_backtrack(n, adj, budget)
    if path is None:
        return False, None
    els = G.indexed.els
    t = Trail(G, tuple(els[i] for i in path), cyclic=True)
    assert set(sum_labels(t).labels) <= S
    return True, t


def classify_small_connection_set(G: GroupSpec, S) -> bool:
    """Closed-form Hamiltonicity for connection sets of at most 2 elements.

    A single element never works.  A pair works exactly when the
    difference of its elements generates an index-2 subgroup disjoint
    from the pair.
    """
    if G.order < 3:
        raise ValueError("need |G| >= 3")
    S = _element_set(G, S)
    if len(S) > 2:
        raise ValueError("rule only covers |S| <= 2")
    if len(S) <= 1:
        return False
    s1, s2 = sorted(S)
    gi = G.indexed
    d = G.sub(s2, s1)
    if G.order % 2 != 0 or gi.order[gi.index[d]] != G.order // 2:
        return False
    return not (S & span(G, [d]))


# ---------------------------------------------------------------------------
# minimum connection-set size
# ---------------------------------------------------------------------------

@dataclass
class MinConnectionResult:
    group: GroupSpec
    status: str  # "exact" | "interval"
    size: int | None
    lower: int
    upper: int
    witness_set: tuple[Element, ...] | None
    witness_cycle: Trail | None


def _size_bounds(G: GroupSpec) -> tuple[int, int]:
    r = G.rank
    lower = r if G.invariant_factors[0] == 2 else r + 1
    if G.order % 2 == 0:
        upper = lower  # even order: the closed form is exact
    else:
        upper = 2 * r + 1
    return max(lower, 1), upper


def minimum_connection_size(G: GroupSpec, *,
                            budget: int | None = None) -> MinConnectionResult:
    """Least k such that some k-subset gives a Hamiltonian addition Cayley graph.

    Candidate sets are walked in ascending size from the rank-based lower
    bound up to the guaranteed upper bound; within each size, sets are
    pruned to one representative per translation orbit S -> S + h with h
    in 2G (translating the cycle by t shifts all sums by 2t, so
    Hamiltonicity is orbit-invariant).  Budget exhaustion yields a
    bracketing interval instead of a value.
    """
    n = G.order
    if n < 2:
        raise ValueError("need |G| >= 2")
    lower, upper = _size_bounds(G)
    gi = G.indexed
    els = gi.els
    # row k: the translate of every element by the k-th element of 2G
    translates = gi.add[sorted(set(gi.double.tolist()))]

    def is_canonical(idx_tuple: tuple[int, ...]) -> bool:
        # the least translate (h = 0 gives the set itself) must be the set
        shifted = translates[:, idx_tuple].tolist()
        return min(sorted(row) for row in shifted) == list(idx_tuple)

    for k in range(lower, upper + 1):
        for idx_tuple in itertools.combinations(range(n), k):
            if not is_canonical(idx_tuple):
                continue
            subset = tuple(els[i] for i in idx_tuple)
            try:
                ok, cycle = is_hamiltonian_cayley(G, subset, budget=budget)
            except SearchBudgetExceeded:
                return MinConnectionResult(G, "interval", None, k, upper, None, None)
            if ok:
                return MinConnectionResult(G, "exact", k, k, k, subset, cycle)
    raise RuntimeError(
        f"no Hamiltonian connection set of size <= {upper} on {G}; "
        "this contradicts the guaranteed upper bound"
    )
