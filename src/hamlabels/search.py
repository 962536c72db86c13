"""Exhaustive and pruned combinatorial search.

Covers full Hamiltonian-cycle enumeration with exact extremal and mean
statistics (the cycles are walked in lexicographic numpy blocks, each
row's label mask one gather from a table of suffixes ORed with its
prefix's and its labels counted by ``np.bitwise_count``, and the blocks
reduce to their extremes and totals, on one thread per usable CPU and
per ``_BLOCKS_PER_THREAD`` blocks at most, each
walking a contiguous run; only the blocks whose first vertex is the
least of its automorphism class are walked, and their totals count once
per member of the class; one merge in block order picks the four
extremes and builds their witnesses once),
backtracking witness searches for rainbow trails, addition Cayley
graphs with connectivity and Hamiltonicity tests, and the exact minimum size of a connection set
giving a Hamiltonian addition Cayley graph (disconnected candidates are
dropped on their prefix's subgroup before any Hamiltonicity search, on
odd orders only the sets holding 0 are walked, and each set is compared
only with the translates that can sort below it).
The Hamiltonicity test refuses a graph with a vertex of degree below 2,
then a disconnected one, and only then builds each vertex's neighbour
mask from the translation rows of S and searches.  The search is one
backtracking search: up to ``DEFAULT_DP_LIMIT``
vertices it is exact and unbudgeted and remembers dead states, above it
it is budgeted.  The Cayley graph tests and the minimum search read the
translation rows ``GroupIndex.shift`` caches, one per element asked for,
and never build an n x n table.  Neither do the rainbow searches: they
read edge labels from the same rows and pick each vertex's candidates
from a bitmask, the free vertices minus a translate of the used labels.
The used labels are kept doubled (label l sets bits l and l + n), so a
translation is one shift, plus a masked move per nonzero coordinate
after the first: on a cyclic group the shift alone.  Each step computes
the new vertex's candidates before it touches the stack: a dead child,
with free vertices but no candidate, counts as a node and is dropped
without a push, and a state is pushed only while it has untried
candidates.
Only the scan computes with arrays, and its functions import numpy
themselves, so importing this module, the Cayley searches and the
rainbow searches leave numpy unloaded.

Budgets are node counts, never wall time, so results are reproducible:
None or a positive int, anything else is a ValueError before any search.
A search only ever reports "nonexistent" after exhausting its whole
space, or after 0 nodes where counting the labels rules every witness
out (the rainbow searches, by the element sum); running out of budget
is a distinct outcome.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

from .expectation import format_rational
from .groups import (
    Element,
    GroupSpec,
    _automorphism_classes,
    _check_count,
    _check_order,
    _element_set,
    span,
)
from .trails import Trail, sum_labels, trail_to_json_dict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_SCAN_ORDER",
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
    "is_connected_cayley",
    "is_hamiltonian_cayley",
    "classify_small_connection_set",
    "MinConnectionResult",
    "minimum_connection_size",
]

# The largest order a cycle scan or enumeration starts on.  Order 13 has
# one class of first vertices, so its scan walks 11! of its 12! cycles,
# about 0.3 s (one thread, 2 vCPU).  Order 14 has three, so its scan would
# walk 3 * 12! cycles, and enumerate_cycles would build 13! Trails.
MAX_SCAN_ORDER = 13

# Up to this many vertices the Hamiltonicity search runs without a budget
# and remembers dead (visited, vertex) states, at most 2^(n-1)*n of them;
# beyond it the search is budgeted and keeps no memo.  Also the largest
# gate is_hamiltonian_cayley accepts, so the memo stays small.
DEFAULT_DP_LIMIT = 16

# free vertices permuted by one cached table in each block of a scan
_BLOCK = 8

# blocks of a scan per thread at least: two threads gained nothing on runs
# of up to about 16 blocks of 8! cycles (2 vCPU)
_BLOCKS_PER_THREAD = 16

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

def _check_scan_order(n: int) -> None:
    """Refuse an order no cycle scan or enumeration may start on."""
    if n < 2:
        raise ValueError(f"a cycle scan needs order >= 2, got {n}")
    if n > MAX_SCAN_ORDER:
        # the exact count only while it fits in 64 bits: (n-1)! of a large
        # order is slow to compute and too long to print
        count = f" = {factorial(n - 1)}" if n <= 21 else ""
        raise ValueError(
            f"order {n} would walk {n - 1}!{count} cycles; "
            f"the largest order scanned is {MAX_SCAN_ORDER}")


def enumerate_cycles(G: GroupSpec):
    """Yield every directed Hamiltonian cycle exactly once, anchored at 0.

    Cycles are emitted as Trails in lexicographic order of the nonzero
    vertices, the order ``extremal_scan`` walks them in.  The order is
    checked before the first cycle is built.
    """
    _check_scan_order(G.order)
    zero, *rest = G.elements()
    for perm in itertools.permutations(rest):
        yield Trail._of_elements(G, (zero, *perm), True)


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


@lru_cache(maxsize=None)
def _lex_permutations(m: int) -> np.ndarray:
    """Every permutation of range(m) as a read-only int8 array, one per row,
    in lexicographic order: for each first element i in turn, the
    (m-1)-table with entries >= i shifted up by one."""
    import numpy as np

    if m == 0:
        table = np.zeros((1, 0), dtype=np.int8)
    else:
        sub = _lex_permutations(m - 1)
        table = np.empty((m * len(sub), m), dtype=np.int8)
        for i, block in enumerate(np.split(table, m)):
            block[:, 0] = i
            block[:, 1:] = sub + (sub >= i)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _row_halves(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``_lex_permutations(m)`` split into a prefix of its first
    L = m // 2 entries and a suffix of the other S, read as the path from
    the head's last vertex (index m) through the row back to 0 (index m).

    The rows sharing a prefix are S! consecutive ones, so row r has prefix
    r // S!.  Row j of the first read-only intp result holds edge j of
    every prefix, from index m through the prefix: edge u -> v is
    u * (m + 1) + v.  The second holds each row's key
    w * m**S + s_0 * m**(S-1) + ... + s_{S-1}, where w is the prefix's last
    entry (index m when L = 0) and s the suffix: the index of the row's
    last S + 1 edges in the table ``_block_counts`` builds for them."""
    import numpy as np

    t = _lex_permutations(m)
    half, tail = m // 2, m - m // 2
    walk = np.hstack([np.full((len(t), 1), m, dtype=np.intp), t])
    prefixes = walk[::factorial(tail), :half + 1]
    edges = np.ascontiguousarray((prefixes[:, :-1] * (m + 1) + prefixes[:, 1:]).T)
    key = walk[:, half]
    for col in walk.T[half + 1:]:
        key = key * m + col
    for a in (edges, key):
        a.flags.writeable = False
    return edges, key


# bit of a label mask where the sum labels start; the diff labels take the
# bits below it, so both fit in a non-negative int32 while n <= 15, as they
# must: np.bitwise_count counts the bits of |x|, so a set bit 31 miscounts
_SUM_BIT = 16


def _label_counts(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diff and the sum label counts of int32 label masks, as uint8:
    the set bits below ``_SUM_BIT`` and from it."""
    import numpy as np

    return (np.bitwise_count(masks & ((1 << _SUM_BIT) - 1)),
            np.bitwise_count(masks >> _SUM_BIT))


def _label_masks(G: GroupSpec) -> np.ndarray:
    """The n x n int32 table whose entry for the edge i -> j has bit l set
    for its diff label l and bit ``_SUM_BIT`` + l for its sum label l."""
    import numpy as np

    gi = G.indexed
    return (np.left_shift(1, gi.diff, dtype=np.int32)
            | np.left_shift(1 << _SUM_BIT, gi.add, dtype=np.int32))


def _block_counts(n: int, head: tuple[int, ...],
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct diff and sum counts of the cycles 0, *head, then the
    other vertices in each order of ``_lex_permutations``: the set bits of
    the OR of the edges' ``_label_masks``, met in the middle of each row
    (Horowitz & Sahni, J. ACM 21 (1974)).  From the block's small table of
    m + 1 rows and columns, one mask is ORed for each prefix of
    ``_row_halves``, the head and the edges through the prefix, and one
    for each key, the prefix's last vertex, the suffix and the edge back to
    0; each row's mask is one gather of its key's, ORed with its
    prefix's, and counted by ``_label_counts``."""
    import numpy as np

    path = (0, *head)
    rest = [k for k in range(1, n) if k not in head]
    m = len(rest)
    # small[u, v] masks the edge rest[u] -> rest[v], where u = m is the
    # head's last vertex and v = m is 0
    small = labels.take(rest + [head[-1]], axis=0).take(rest + [0], axis=1)
    edges, key = _row_halves(m)
    pre = np.bitwise_or.reduce(small.take(edges), axis=0)
    pre |= np.bitwise_or.reduce(labels[path[:-1], path[1:]])
    # suf[w, s_0, ..., s_{S-1}] masks the edges w -> s_0 -> ... -> s_{S-1}
    # -> 0, one broadcast OR for each suffix vertex, from the last back:
    # (m + 1) * m**S entries, 36,864 at m = 8
    suf = small[:, m]
    for _ in range(m - m // 2):
        suf = small[:, :m, None] | suf[:m].reshape(1, m, -1)
    masks = suf.take(key).reshape(len(pre), -1)
    masks |= pre[:, None]
    return _label_counts(masks.ravel())


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def extremal_scan(G: GroupSpec, *, threads: int = 1) -> ExtremalReport:
    """Scan all (|G|-1)! cycles for exact extremal and mean label counts.

    The cycles are walked in lexicographic order in numpy blocks.  A
    block fixes a head, the vertices after 0 but for the last ``_BLOCK``
    (all but the last at orders up to 10), and permutes the rest by one
    cached lexicographic table, so no Python tuple is built per cycle.
    Each cycle's distinct labels are counted as the set bits of the OR of
    its edges' one-bit label masks (``_label_masks``), with no sort; the
    OR meets in the middle of each row (``_block_counts``).

    Only the heads whose first vertex is the least of its Aut(G)-class
    (``_automorphism_classes``) are scanned.  An automorphism phi fixes 0
    and is a bijection on sums and on differences, so it maps the cycles
    starting 0, v onto those starting 0, phi(v) with the same counts:
    the cycles after each member of a class have one count histogram.
    So min and max are read off the scanned blocks, each block's totals
    count once per member of its class, and so do its rows in the cycle
    count, which is (|G|-1)! still.

    A block reduces its diff and its sum counts to the least and the
    greatest with their first rows, and the total.  The blocks run on up
    to ``threads`` threads (numpy releases the GIL), but on no more than
    one per CPU the process may run on and per ``_BLOCKS_PER_THREAD``
    blocks, since a thread costs more than it saves on a small scan.  Each
    thread walks one contiguous run of heads: this one the first, and a
    pool, started only for two or more threads, the others.  Listed in
    block order, min/max pick the first block reaching each extreme, so each
    witness, built once after the merge, is the first cycle reaching it
    and the report never depends on the thread count.  The first cycle
    reaching an extreme starts with the least member of its class, since
    the automorphism taking its first vertex there gives a
    lexicographically earlier cycle with the same counts, so the skipped
    blocks hold no witness.
    """
    import numpy as np

    n = G.order
    _check_scan_order(n)
    _check_count("threads", threads)
    # the least member of each nonzero class, and the class size
    size = {c[0]: len(c) for c in _automorphism_classes(G) if c[0]}
    heads = [h for h in itertools.permutations(range(1, n), n - 1 - min(n - 2, _BLOCK))
             if h[0] in size]
    table = _lex_permutations(n - 1 - len(heads[0]))
    labels = _label_masks(G)

    def scan(run: list[tuple[int, ...]]) -> list:
        out = []
        for head in run:
            for c in _block_counts(n, head, labels):
                lo, hi = c.argmin(), c.argmax()
                # a block's total, at most 8! * 13, fits in int32
                out += (c[lo], lo, c[hi], hi, c.sum(dtype=np.int32))
        return out

    workers = max(1, min(threads, _usable_cpus(), len(heads) // _BLOCKS_PER_THREAD))
    if workers == 1:
        blocks = scan(heads)
    else:
        # one contiguous run of heads per worker, this thread walking the first
        from concurrent.futures import ThreadPoolExecutor  # 8-10 ms to import

        runs = [heads[len(heads) * i // workers:len(heads) * (i + 1) // workers]
                for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            later = [pool.submit(scan, run) for run in runs[1:]]
            blocks = scan(runs[0])
            for done in later:
                blocks += done.result()
    # stats[b][k] for block b and labels k (0 diffs, 1 sums), as Python ints
    stats = np.array(blocks, dtype=np.int64).reshape(len(heads), 2, 5).tolist()
    weights = [size[h[0]] for h in heads]
    rows = sum(weights) * len(table)
    assert rows == factorial(n - 1)
    els = G.indexed.els

    def extreme(k: int, pick, col: int) -> tuple[int, Trail]:
        # min and max return the first block reaching the extreme
        b = pick(range(len(heads)), key=lambda b: stats[b][k][col])
        count, row = stats[b][k][col:col + 2]
        head = heads[b]
        rest = [v for v in range(1, n) if v not in head]
        cycle = (0, *head, *(rest[i] for i in table[row].tolist()))
        return count, Trail(G, tuple(els[i] for i in cycle), cyclic=True)

    best = {f"{name}_{kind}": extreme(k, pick, col)
            for k, kind in enumerate(("diffs", "sums"))
            for name, pick, col in (("min", min, 0), ("max", max, 2))}
    totals = [sum(w * s[k][4] for w, s in zip(weights, stats)) for k in (0, 1)]
    return ExtremalReport(
        group=G,
        min_distinct_diffs=best["min_diffs"][0],
        max_distinct_diffs=best["max_diffs"][0],
        min_distinct_sums=best["min_sums"][0],
        max_distinct_sums=best["max_sums"][0],
        cycle_count=rows,
        mean_distinct_diffs=Fraction(totals[0], rows),
        mean_distinct_sums=Fraction(totals[1], rows),
        witnesses={name: trail for name, (_, trail) in best.items()},
    )


# ---------------------------------------------------------------------------
# rainbow witness searches
# ---------------------------------------------------------------------------

def _mask_translations(G: GroupSpec) -> list[tuple[int, tuple[tuple[int, int, int, int], ...]]]:
    """For each element index a, the plan (shift, moves) that translates a
    vertex mask (bit x for element x) by els[a], read from the doubled
    mask ``mask | mask << n``.

    The index is mixed-radix with the last coordinate fastest.  The first
    coordinate is the slowest digit, so adding c to it adds c*n/m to every
    index modulo n (m the first invariant factor): a rotation of the whole
    n-bit string, which is one right shift of the doubled mask by
    n - c*n/m.  On every other axis, of modulus m and stride s, a shift by
    c != 0 is one masked rotation: the bits whose coordinate is below
    m - c move up by c*s, the rest down by (m - c)*s.  A move (low, up,
    high, down) is applied as ``(mask & low) << up | (mask & high) >> down``,
    and its n-bit masks also drop the bits the shift leaves above bit
    n - 1.  One move is built for each such axis and shift, and element a
    gets one per nonzero coordinate after the first, so on a cyclic group
    none: the shift alone translates.
    """
    n = G.order
    full = (1 << n) - 1
    first, *others = G.invariant_factors or (1,)
    top = stride = n // first
    axes = []
    for m in others:
        stride //= m
        # bit k * stride * m set for each k, so ((1 << j * stride) - 1) *
        # blocks holds the bits whose coordinate on this axis is below j
        blocks = full // ((1 << stride * m) - 1)
        moves = [None]
        for c in range(1, m):
            low = ((1 << (m - c) * stride) - 1) * blocks
            moves.append((low, c * stride, full ^ low, (m - c) * stride))
        axes.append(moves)
    return [(n - a[0] * top if a else n, tuple(axes[j][c] for j, c in enumerate(a[1:]) if c))
            for a in G.indexed.els]


def _rainbow_backtrack(G: GroupSpec, vertices: int, sums: bool,
                       cyclic: bool, budget: int | None) -> SearchResult:
    """Depth-first search for an ordering with pairwise-distinct edge labels.

    ``vertices`` is the bitmask of the element indices to order; the
    label of the edge w -> v is v - w, or w + v with ``sums``.  The first
    vertex stays pinned to the least one (a valid quotient: by rotation
    for cycles, by translation for paths on a full group).

    The search keeps two bitmasks, ``free`` (vertices not yet on the
    path) and ``used`` (labels taken so far, doubled: label l sets bits l
    and l + n, all n pairs built up front).  ``cand`` holds the untried
    candidates of the last vertex, and each step takes its lowest set
    bit v, so candidates are tried in ascending element order and the
    first witness is deterministic.  The step computes v's own
    candidates at once: ``free`` minus the vertices whose edge label
    from v is taken, which is ``used`` translated by v for differences,
    by -v for sums, one right shift of the doubled mask and a masked move
    per other nonzero coordinate (``_mask_translations``).  A child with
    free vertices but no candidate is dead: it counts as a node and
    touches nothing else.  Entering a live child pushes the state it
    leaves, (cand, used, free, row, depth), only while that state still
    has untried candidates, so backtracking pops the deepest such state
    and cuts the path list back to its depth.  Edge labels are read from
    the cached translation rows ``GroupIndex.shift`` (w -> v is
    ``shift(-w)[v]``, or ``shift(w)[v]`` for sums), so no n x n table is
    built.  The stack is explicit, so the depth is not bounded by the
    recursion limit.
    """
    gi = G.indexed
    n = gi.n
    shift = gi.shift
    neg = gi.neg.tolist()
    # per vertex: the element whose shift row holds its out-labels, and
    # the plan translating the used labels onto the vertices they forbid
    row_key = list(range(n)) if sums else neg
    plan = _mask_translations(G)
    if sums:
        plan = [plan[a] for a in neg]
    downs = [down for down, _ in plan]
    moves = [m for _, m in plan]
    bits = [1 << label | 1 << label + n for label in range(n)]
    # each node is a distinct sequence of distinct vertices, fewer than
    # n**n of them, so one comparison tests a budget and its absence
    limit = n ** n if budget is None else budget
    first = (vertices & -vertices).bit_length() - 1
    free = cand = vertices ^ (1 << first)
    used = 0
    path = [first]
    stack = []
    rows = [None] * n
    row = rows[first] = shift(row_key[first])  # labels of the edges leaving the last vertex
    nodes = 0
    while True:
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if nodes > limit:
                return SearchResult(EXHAUSTED, None, nodes)
            v = low.bit_length() - 1
            child_used = used | bits[row[v]]
            child_free = free ^ low
            if child_free:
                forbidden = child_used >> downs[v]
                if moves[v]:
                    for lo, up, hi, dn in moves[v]:
                        forbidden = (forbidden & lo) << up | (forbidden & hi) >> dn
                child_cand = child_free & ~forbidden
                if not child_cand:
                    continue  # a dead child: no vertex can follow v
                if cand:
                    stack.append((cand, used, free, row, len(path)))
                path.append(v)
                cand, used, free = child_cand, child_used, child_free
                row = rows[v]
                if row is None:
                    row = rows[v] = shift(row_key[v])
                continue
            # v is the last vertex: cand is empty, since free held only v
            if not cyclic or not child_used >> shift(row_key[v])[first] & 1:
                path.append(v)
                trail = Trail._of_elements(G, tuple(gi.els[w] for w in path), cyclic)
                return SearchResult(FOUND, trail, nodes)
        if not stack:
            return SearchResult(NONEXISTENT, None, nodes)
        cand, used, free, row, depth = stack.pop()
        del path[depth:]


def find_rainbow_diff_path(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a Hamiltonian path on G with all differences distinct.

    Start vertex is pinned to 0: translating a path leaves its difference
    labels unchanged, so every witness has a representative starting at 0.
    The n - 1 differences of a witness are the nonzero elements and add up
    to its last vertex minus its first, so no witness exists when the
    element sum is 0; that is reported as "nonexistent" after 0 nodes.
    """
    _check_count("budget", budget, or_none=True)
    _check_order(G, 2)
    if G.element_sum() == G.zero():
        return SearchResult(NONEXISTENT, None, 0)
    return _rainbow_backtrack(G, (1 << G.order) - 1, sums=False, cyclic=False,
                              budget=budget)


def find_rainbow_sum_cycle(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a Hamiltonian cycle on G with all sums distinct.

    The n sums of a witness are all of G and add up to twice the element
    sum, so no witness exists when the element sum is nonzero; on Z2^k no
    sum of two distinct elements is 0, so none exists there either.  Both
    are reported as "nonexistent" after 0 nodes.
    """
    _check_count("budget", budget, or_none=True)
    _check_order(G, 2)
    if G.element_sum() != G.zero() or G.is_elementary_abelian_2:
        return SearchResult(NONEXISTENT, None, 0)
    return _rainbow_backtrack(G, (1 << G.order) - 1, sums=True, cyclic=True,
                              budget=budget)


def find_rainbow_diff_cycle_nonzero(G: GroupSpec, budget: int | None = None) -> SearchResult:
    """Search for a cycle on the nonzero elements with all differences distinct.

    The n - 1 differences of a witness are the nonzero elements and add
    up to 0 around the cycle, so no witness exists when the element sum
    is nonzero; that is reported as "nonexistent" after 0 nodes.
    """
    _check_count("budget", budget, or_none=True)
    _check_order(G, 3)
    if G.element_sum() != G.zero():
        return SearchResult(NONEXISTENT, None, 0)
    return _rainbow_backtrack(G, (1 << G.order) - 2, sums=False, cyclic=True,
                              budget=budget)


# ---------------------------------------------------------------------------
# addition Cayley graphs
# ---------------------------------------------------------------------------

def _cayley_adjacency(G: GroupSpec, S: frozenset[Element]) -> list[int]:
    """adj[i]: the mask with bit j set for each j != i with els[i] + els[j]
    in S, read off the cached translation row of each s (j = s - els[i])."""
    gi = G.indexed
    neg = gi.neg
    adj = [0] * gi.n
    for s in S:
        row = gi.shift(gi.index[s])
        for i, x in enumerate(neg):
            j = row[x]
            if j != i:
                adj[i] |= 1 << j
    return adj


def _least_degree(G: GroupSpec, S: frozenset[Element]) -> int:
    """The least degree of the addition Cayley graph, read off S alone.

    Vertex x has one neighbour s - x for each s in S but s = 2x, so the
    least degree is |S|, less one when S meets 2G.  An element lies in 2G
    when its coordinate on each even factor is even.
    """
    fs = G.invariant_factors
    return len(S) - any(all(c % 2 == 0 or m % 2 for c, m in zip(s, fs)) for s in S)


def _is_connected_structural(G: GroupSpec, idx: tuple[int, ...]) -> bool:
    """The structural connectivity test on a sorted tuple of indices: the
    subgroup H spanned by S - s0, s0 the least element of S, is all of G,
    or has index 2 with s0 outside it."""
    if not idx:
        return G.order == 1
    gi = G.indexed
    els = gi.els
    minus_s0 = gi.shift(gi.neg[idx[0]])  # index of els[x] - s0 for every x
    H = span(G, [els[minus_s0[s]] for s in idx])
    if len(H) == G.order:
        return True
    return 2 * len(H) == G.order and els[idx[0]] not in H


def _is_connected_bfs(G: GroupSpec, idx: tuple[int, ...]) -> bool:
    """The component of 0 in the explicit graph on a tuple of indices S:
    the neighbour s - v of v is the translation by s of -v."""
    gi = G.indexed
    neg = gi.neg
    steps = [gi.shift(s) for s in idx]
    seen = bytearray(gi.n)
    seen[0] = 1
    reached = [0]
    for v in reached:  # grows while it is walked
        u = neg[v]
        for step in steps:
            w = step[u]
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    return len(reached) == G.order


def is_connected_cayley(G: GroupSpec, S, method: str = "structural") -> bool:
    """Connectivity of the addition Cayley graph, two independent ways.

    structural: the subgroup H generated by S-S must be all of G, or have
    index 2 with S inside the nontrivial coset.
    bfs: walk the component of 0 in the explicit graph, the neighbours
    of each vertex read from the translation rows by the elements of S.
    S is validated once and mapped to sorted indices, and the method's
    kernel (``_is_connected_structural`` or ``_is_connected_bfs``) works
    on those; the two kernels share no code.  Neither builds an n x n
    table, so both scale to large groups.
    """
    S = _element_set(G, S)
    index = G.indexed.index
    idx = tuple(sorted(index[s] for s in S))
    if method == "structural":
        return _is_connected_structural(G, idx)
    if method == "bfs":
        return _is_connected_bfs(G, idx)
    raise ValueError(f"unknown connectivity method {method!r}")


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
            u = (m & -m).bit_length() - 1
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
        w = (ext & -ext).bit_length() - 1
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

    Two necessary tests come first, the cheaper one first: every vertex
    needs degree at least 2 (``_least_degree``, from S alone), and then
    the graph must be connected (the structural test).  Only a graph
    passing both gets its neighbour masks, read off the cached translation
    rows of the elements of S (``_cayley_adjacency``), and is searched, by
    one backtracking search.  Up to ``dp_limit`` vertices it runs without
    a budget and remembers dead states, so it visits at most 2^(n-1)*n of
    them; beyond, it keeps no memo and raises SearchBudgetExceeded rather
    than guessing when the budget runs out.  A witness cycle C always
    satisfies S(C) being a subset of the connection set, which is checked
    by tuple arithmetic, not through the index rows.
    """
    _check_count("budget", budget, or_none=True)
    if dp_limit > DEFAULT_DP_LIMIT:
        raise ValueError(
            f"dp_limit {dp_limit} exceeds {DEFAULT_DP_LIMIT}: an unbudgeted search "
            f"may visit 2^{dp_limit - 1}*{dp_limit} = {dp_limit << (dp_limit - 1)} states")
    S = _element_set(G, S)
    _check_order(G, 2)
    n = G.order
    if n == 2:
        nz = G.elements()[1]
        if nz in S:  # the single edge doubles as a 2-cycle
            return True, Trail(G, (G.zero(), nz), cyclic=True)
        return False, None
    idx = tuple(sorted(G.indexed.index[s] for s in S))
    if _least_degree(G, S) < 2 or not _is_connected_structural(G, idx):
        return False, None
    adj = _cayley_adjacency(G, S)
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
    t = Trail._of_elements(G, tuple(els[i] for i in path), True)
    # checked by tuple arithmetic, apart from the index rows adj came from
    assert set(sum_labels(t).labels) <= S
    return True, t


def classify_small_connection_set(G: GroupSpec, S) -> bool:
    """Closed-form Hamiltonicity for connection sets of at most 2 elements.

    A single element never works.  A pair works exactly when the
    difference of its elements generates an index-2 subgroup disjoint
    from the pair.
    """
    _check_order(G, 3)
    S = _element_set(G, S)
    if len(S) > 2:
        raise ValueError("rule only covers |S| <= 2")
    if len(S) <= 1:
        return False
    s1, s2 = sorted(S)
    d = G.sub(s2, s1)
    if G.order % 2 != 0 or G.element_order(d) != G.order // 2:
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
    return lower, upper


def _connected_subsets(G: GroupSpec, k: int):
    """The k-subsets of indices (k >= 2) whose addition Cayley graph is
    connected, in ``itertools.combinations`` order; on an odd order only
    those holding 0.  There 2G = G, so translating a set by minus its
    least element gives a translate holding 0 that sorts below it, and
    ``_canonical_filter`` would refuse every set without 0; so only heads
    starting at 0 are walked.

    The structural test of ``_is_connected_structural``, with the subgroup
    H' spanned by a head of k - 1 indices (their differences from the
    first, s0) built once per head.  Adding j spans H' + <d>, with
    d = els[j] - s0, of order |H'| * t for the least t >= 1 with t*d in
    H'.  The set is connected when that is all of G, or half of it with
    s0 outside: no s0 + i*d with 0 <= i < t lies in H'.
    """
    gi = G.indexed
    n = gi.n
    # every translation row, fetched once: the heads and their candidates
    # ask for nearly all of them, again and again
    rows = [gi.shift(a) for a in range(n)]
    heads = itertools.combinations(range(n - 1), k - 1)
    if n % 2:
        heads = ((0, *rest) for rest in itertools.combinations(range(1, n - 1), k - 2))
    for head in heads:
        s0 = head[0]
        minus_s0 = rows[gi.neg[s0]]  # index of els[x] - s0 for every x
        sub = gi.closure(minus_s0[i] for i in head)
        inside = bytearray(n)
        for x in sub:
            inside[x] = 1
        h = len(sub)
        for j in range(head[-1] + 1, n):
            step = rows[minus_s0[j]]  # translation by d
            x, t = step[0], 1
            while not inside[x]:
                x, t = step[x], t + 1
            size = h * t
            if size == n:
                yield head + (j,)
            elif 2 * size == n:
                x = s0
                for _ in range(t):
                    if inside[x]:
                        break
                    x = step[x]
                else:
                    yield head + (j,)


def _canonical_filter(G: GroupSpec):
    """The test that a sorted tuple of indices S is the least of its
    translates S + h, h in 2G, that no translate sorts below it.

    A translate sorts below S only if its least index is at most S[0],
    that is if h = x - s for some s in S and some index x <= S[0]; only
    those h are tried, once each.  On an odd order 2G = G, so the first
    one, h = -S[0], rejects every set without 0 at once.
    """
    gi = G.indexed
    shift = gi.shift
    neg = gi.neg
    doubles = bytearray(gi.n)
    for h in gi.double:
        doubles[h] = 1
    doubles[0] = 0

    def is_canonical(idx_tuple: tuple[int, ...]) -> bool:
        want = list(idx_tuple)
        tried = set()
        for x in range(idx_tuple[0] + 1):
            plus_x = shift(x)  # index of els[x] + els[y] for every y
            for s in idx_tuple:
                h = plus_x[neg[s]]
                if doubles[h] and h not in tried:
                    tried.add(h)
                    row = shift(h)
                    if sorted([row[i] for i in idx_tuple]) < want:
                        return False
        return True

    return is_canonical


def minimum_connection_size(G: GroupSpec, *,
                            budget: int | None = None) -> MinConnectionResult:
    """Least k such that some k-subset gives a Hamiltonian addition Cayley graph.

    Candidate sets are walked in ascending size from the rank-based lower
    bound up to the guaranteed upper bound.  Within each size, the
    structural connectivity test runs first, on the subgroup each set's
    first k - 1 elements span (``_connected_subsets``), so no
    disconnected set reaches a Hamiltonicity search; on an odd order
    only the sets holding 0 are walked, since no other set is the least
    of its translation orbit.  The connected sets
    are pruned to one representative per translation orbit S -> S + h
    with h in 2G (translating the cycle by t shifts all sums by 2t, so
    Hamiltonicity is orbit-invariant), each set compared only with the
    translates whose least element can fall at or below its own
    (``_canonical_filter``), and each one left goes through
    ``is_hamiltonian_cayley``, which refuses a set with a vertex of degree
    below 2 before anything else.  Budget exhaustion yields a bracketing
    interval instead of a value.
    """
    _check_count("budget", budget, or_none=True)
    _check_order(G, 2)
    n = G.order
    lower, upper = _size_bounds(G)
    els = G.indexed.els
    is_canonical = _canonical_filter(G)
    for k in range(lower, upper + 1):
        candidates = (itertools.combinations(range(n), k) if k == 1
                      else _connected_subsets(G, k))
        for idx_tuple in candidates:
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
