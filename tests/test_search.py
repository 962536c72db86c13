"""Cycle enumeration, extremal scans, and rainbow witness searches."""

import concurrent.futures
import functools
import itertools
import random
import threading
import tracemalloc
import types
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from hamlabels import search
from hamlabels import (
    Trail,
    abelian_groups_in_range,
    canonical_cycle_key,
    diff_labels,
    enumerate_cycles,
    extremal_scan,
    find_rainbow_diff_cycle_nonzero,
    find_rainbow_diff_path,
    find_rainbow_sum_cycle,
    group,
    is_hamiltonian_cayley,
    is_rainbow_diff_cycle,
    is_rainbow_diff_path,
    is_rainbow_sum_cycle,
    minimum_connection_size,
    sum_labels,
)

from oracles import (
    cycle_edges,
    distinct_per_row,
    raw_add,
    raw_automorphism_orbits,
    raw_diff_labels,
    raw_elements,
    raw_rainbow_search,
    raw_scan,
    raw_sum_labels,
)


# -- enumeration ----------------------------------------------------------------

def test_enumerate_cycles_smallest_groups():
    got = [t.vertices for t in enumerate_cycles(group(3))]
    assert got == [((0,), (1,), (2,)), ((0,), (2,), (1,))]
    assert sum(1 for _ in enumerate_cycles(group(4))) == 6
    assert [t.vertices for t in enumerate_cycles(group(2))] == [((0,), (1,))]


@pytest.mark.parametrize("order", range(2, 10))
def test_enumerate_cycle_counts(order):
    for G in abelian_groups_in_range(order, order):
        assert sum(1 for _ in enumerate_cycles(G)) == factorial(order - 1)


def test_enumerate_cycles_anchored_and_distinct():
    G = group(2, 3)
    seen = set()
    for t in enumerate_cycles(G):
        assert t.vertices[0] == G.zero()
        key = canonical_cycle_key(t)
        assert key not in seen
        seen.add(key)
    assert len(seen) == factorial(5)


def test_enumerate_cycles_cap():
    # refused before the first cycle is built
    with pytest.raises(ValueError, match=r"13! = 6227020800 cycles"):
        next(enumerate_cycles(group(14)))
    # too many cycles to name: the count is left out, not formatted
    with pytest.raises(ValueError, match=r"^order 5000 would walk 4999! cycles; the largest"):
        next(enumerate_cycles(group(5000)))
    with pytest.raises(ValueError):
        next(enumerate_cycles(group(1)))


def test_scan_ceiling_is_within_the_exact_hamiltonicity_gate():
    # so every check verify runs at a scannable order is exact and
    # unbudgeted, and no verify verdict can be inconclusive
    assert search.MAX_SCAN_ORDER <= search.DEFAULT_DP_LIMIT


# -- extremal scans ----------------------------------------------------------------

def test_scan_z4_exact_values():
    rep = extremal_scan(group(4))
    assert (rep.min_distinct_diffs, rep.max_distinct_diffs) == (1, 3)
    assert (rep.min_distinct_sums, rep.max_distinct_sums) == (2, 3)
    assert rep.mean_distinct_diffs == Fraction(7, 3)
    assert rep.mean_distinct_sums == Fraction(8, 3)
    assert rep.cycle_count == 6


def test_scan_z3_and_klein():
    rep = extremal_scan(group(3))
    assert (rep.min_distinct_diffs, rep.max_distinct_diffs) == (1, 1)
    assert (rep.min_distinct_sums, rep.max_distinct_sums) == (3, 3)
    assert extremal_scan(group(2, 2)).max_distinct_sums == 2


def test_scan_order_two_convention():
    rep = extremal_scan(group(2))
    assert rep.min_distinct_diffs == rep.max_distinct_diffs == 1
    assert rep.min_distinct_sums == rep.max_distinct_sums == 1
    assert rep.mean_distinct_diffs == rep.mean_distinct_sums == Fraction(1)


def test_scan_matches_bruteforce_oracle():
    for G in abelian_groups_in_range(3, 7):
        rep = extremal_scan(G)
        want = raw_scan(G.invariant_factors)
        assert rep.min_distinct_diffs == want["dmin"]
        assert rep.max_distinct_diffs == want["dmax"]
        assert rep.min_distinct_sums == want["smin"]
        assert rep.max_distinct_sums == want["smax"]
        assert rep.mean_distinct_diffs == want["mean_diffs"]
        assert rep.mean_distinct_sums == want["mean_sums"]
        assert rep.cycle_count == want["count"]


def test_scan_witnesses_are_the_first_cycles_of_the_oracle():
    for G in abelian_groups_in_range(3, 8):
        rep = extremal_scan(G)
        want = raw_scan(G.invariant_factors)["witnesses"]
        got = {k: t.vertices for k, t in rep.witnesses.items()}
        assert got == want, G


@pytest.mark.parametrize("block", [2, 3])
def test_scan_spanning_many_blocks_matches_one_block(monkeypatch, block):
    groups = abelian_groups_in_range(5, 9)
    want = [extremal_scan(G).to_json_dict() for G in groups]
    monkeypatch.setattr(search, "_BLOCK", block)
    for threads in (1, 2):
        got = [extremal_scan(G, threads=threads).to_json_dict() for G in groups]
        assert got == want, (block, threads)


@pytest.mark.parametrize("G", abelian_groups_in_range(2, 13),
                         ids=lambda G: "x".join(map(str, G.invariant_factors)))
def test_automorphism_classes_are_the_brute_force_orbits(G):
    classes = search._automorphism_classes(G)
    els = G.indexed.els
    assert {frozenset(els[i] for i in c) for c in classes} == \
        raw_automorphism_orbits(G.invariant_factors)
    # each class ascending, the classes in the order of their least members
    assert all(list(c) == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    assert classes[0] == (0,)


@pytest.mark.parametrize("order", range(3, 10))
def test_one_class_shares_one_block_histogram(order):
    # what lets the scan walk one first vertex per class
    for G in abelian_groups_in_range(order, order):
        labels = search._label_masks(G)
        for c in search._automorphism_classes(G)[1:]:
            hists = {tuple(tuple(np.bincount(counts, minlength=order + 1))
                           for counts in search._block_counts(order, (v,), labels))
                     for v in c}
            assert len(hists) == 1, (G, c)


def _singleton_classes(G):
    return [(i,) for i in range(G.order)]


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_over_every_first_vertex_matches_the_class_scan(monkeypatch, threads):
    # with every class a singleton the scan walks all (n-1)! cycles
    groups = [*abelian_groups_in_range(2, 10), group(11)]
    want = [extremal_scan(G, threads=threads).to_json_dict() for G in groups]
    monkeypatch.setattr(search, "_automorphism_classes", _singleton_classes)
    got = [extremal_scan(G, threads=threads).to_json_dict() for G in groups]
    assert got == want


@pytest.mark.parametrize("fs, blocks", [((3, 3), 1), ((10,), 3)], ids=["3x3", "10"])
def test_scan_walks_one_first_vertex_per_class(monkeypatch, fs, blocks):
    # Z3xZ3 has one nonzero class; Z10 has three, of 4, 4 and 1 elements
    calls = []
    real = search._block_counts

    def counted(n, head, labels):
        calls.append(head)
        return real(n, head, labels)

    monkeypatch.setattr(search, "_block_counts", counted)
    extremal_scan(group(*fs))
    assert len(calls) == blocks


def test_scan_of_one_block_starts_no_thread_pool(monkeypatch):
    want = extremal_scan(group(3, 3)).to_json_dict()

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert extremal_scan(group(3, 3), threads=2).to_json_dict() == want


def test_scan_of_three_blocks_starts_no_thread_pool(monkeypatch):
    # Z10 has 3 blocks, too few to pay for a second thread
    want = extremal_scan(group(10)).to_json_dict()

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert extremal_scan(group(10), threads=2).to_json_dict() == want


class _InlinePool:
    """Stands in for ThreadPoolExecutor and starts no thread: it records
    each pool's ``max_workers`` and runs a task on the calling thread when
    its result is read."""

    def __init__(self):
        self.sizes = []

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return types.SimpleNamespace(result=functools.partial(fn, *args))


@pytest.fixture
def inline_pool(monkeypatch):
    pool = _InlinePool()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return pool


Z2xZ6 = group(2, 6)  # 5 nonzero classes, 270 blocks


def _cpu_mask(monkeypatch, count):
    """Give this process an affinity mask of ``count`` CPUs, as the scan
    reads it, on any platform."""
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def test_scan_threads_are_bounded_by_the_cpus(inline_pool, monkeypatch):
    want = extremal_scan(Z2xZ6).to_json_dict()
    threads_before = threading.active_count()
    got = extremal_scan(Z2xZ6, threads=10**6).to_json_dict()
    assert threading.active_count() == threads_before
    assert all(size <= search._usable_cpus() - 1 for size in inline_pool.sizes)
    assert got == want
    # with 8 CPUs, this thread and a pool of 7
    _cpu_mask(monkeypatch, 8)
    inline_pool.sizes.clear()
    assert extremal_scan(Z2xZ6, threads=10**6).to_json_dict() == want
    assert inline_pool.sizes == [7]


def test_scan_threads_are_bounded_by_the_affinity_mask_not_the_cpu_count(monkeypatch):
    # eight CPUs on the machine, but this process may run on one of them
    want = extremal_scan(Z2xZ6).to_json_dict()
    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    _cpu_mask(monkeypatch, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert extremal_scan(Z2xZ6, threads=2).to_json_dict() == want


def test_scan_threads_are_bounded_by_the_cpu_count_without_an_affinity_mask(
        inline_pool, monkeypatch):
    want = extremal_scan(Z2xZ6).to_json_dict()
    monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    assert extremal_scan(Z2xZ6, threads=10**6).to_json_dict() == want
    assert inline_pool.sizes == [2]
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert extremal_scan(Z2xZ6, threads=10**6).to_json_dict() == want
    assert inline_pool.sizes == [2]  # one CPU: no pool


def test_scan_at_two_threads_walks_two_runs_of_heads_in_order(inline_pool, monkeypatch):
    _cpu_mask(monkeypatch, 4)
    want = extremal_scan(Z2xZ6).to_json_dict()
    walked = []
    real = search._block_counts

    def counted(n, head, labels):
        walked.append(head)
        return real(n, head, labels)

    monkeypatch.setattr(search, "_block_counts", counted)
    got = extremal_scan(Z2xZ6, threads=2).to_json_dict()
    # this thread walks the first run, one pool worker the second, and the
    # blocks are appended in head order
    assert inline_pool.sizes == [1]
    leaders = {c[0] for c in search._automorphism_classes(Z2xZ6)}
    heads = [h for h in itertools.permutations(range(1, 12), 3) if h[0] in leaders]
    assert len(heads) == 270
    assert walked == heads
    assert got == want


@pytest.mark.parametrize("m", range(9))
def test_lex_permutation_table(m):
    table = search._lex_permutations(m)
    assert table.dtype == np.int8
    assert np.array_equal(table, np.array(list(itertools.permutations(range(m)))))
    assert not table.flags.writeable


def _check_block_against_sorted_rows(G, head):
    # the sort-based count on the rows' edge labels shares no code with the
    # bitmask kernel, and the rows come from itertools, not the cached table
    n = G.order
    gi = G.indexed
    rest = [k for k in range(1, n) if k not in head]
    verts = np.array([(0, *head, *p) for p in itertools.permutations(rest)])
    edges = cycle_edges(verts, n)
    got = search._block_counts(n, head, search._label_masks(G))
    for table, counts in zip((gi.diff, gi.add), got):
        assert np.array_equal(counts, distinct_per_row(table.take(edges))), (G, head)


@pytest.mark.parametrize("block", [2, 3, 8])
def test_bitmask_block_counts_match_sorted_rows(block):
    for G in abelian_groups_in_range(2, 9):
        n = G.order
        for head in itertools.permutations(range(1, n), n - 1 - min(n - 2, block)):
            _check_block_against_sorted_rows(G, head)


@pytest.mark.parametrize("G, head", [
    *((group(10), (v,)) for v in range(1, 10)),
    (group(11), (1, 2)), (group(11), (4, 10)), (group(11), (10, 9)),
], ids=lambda x: "x".join(map(str, getattr(x, "invariant_factors", x))))
def test_bitmask_block_counts_match_sorted_rows_at_eight_free_vertices(G, head):
    # the scan's own block size: 8 free vertices, a 4 + 4 split of each row
    assert G.order - 1 - len(head) == search._BLOCK
    _check_block_against_sorted_rows(G, head)


@pytest.mark.parametrize("m", range(9))
def test_row_halves_decode_to_the_permutation_rows(m):
    table = search._lex_permutations(m)
    half, tail = m // 2, m - m // 2
    edges, key = search._row_halves(m)
    assert edges.dtype == key.dtype == np.intp
    assert not edges.flags.writeable and not key.flags.writeable
    # the prefixes' edges walk from index m through each prefix
    assert edges.shape == (half, len(table) // factorial(tail))
    src, dst = np.divmod(edges, m + 1)
    assert (src[:1] == m).all() and np.array_equal(src[1:], dst[:-1])
    # row r has prefix r // tail!
    assert np.array_equal(np.repeat(dst.T, factorial(tail), axis=0), table[:, :half])
    # each key holds the prefix's last entry (m for an empty prefix) and the
    # suffix, as digits base m
    k = key
    for j in reversed(range(half, m)):
        k, digit = np.divmod(k, m)
        assert np.array_equal(digit, table[:, j])
    assert np.array_equal(k, table[:, half - 1] if half else np.full(len(table), m))


@pytest.mark.parametrize("n", range(search.MAX_SCAN_ORDER + 1))
def test_popcount_table(n):
    # every n-bit diff half beside every n-bit sum half, as the int32 masks
    # of a scan, counts to the table of popcounts
    table = [bin(x).count("1") for x in range(1 << n)]
    low = np.arange(1 << n, dtype=np.int32)
    for high in (low, low[::-1]):
        diffs, sums = search._label_counts(low | high << search._SUM_BIT)
        assert diffs.tolist() == table
        assert sums.tolist() == [table[x] for x in high.tolist()]


def test_every_scan_mask_is_a_non_negative_int32():
    # np.bitwise_count counts the bits of |x| (bitwise_count(-3) == 2), so
    # a mask with bit 31 set would be miscounted: every scanned order's diff
    # and sum masks must fit side by side below it
    assert search._SUM_BIT + search.MAX_SCAN_ORDER <= 31
    assert np.bitwise_count(np.int32(-3)) == 2
    for G in abelian_groups_in_range(2, search.MAX_SCAN_ORDER):
        masks = search._label_masks(G)
        assert masks.dtype == np.int32, G
        assert 0 <= masks.min() and masks.max() < 1 << search._SUM_BIT + G.order, G
        # the diff labels stay below the sum labels' first bit
        assert (masks & (1 << search._SUM_BIT) - 1).max() < 1 << G.order, G


@pytest.mark.parametrize("order", [9, 10])
def test_block_counts_match_the_oracles_on_sampled_rows(order):
    # one block of each group, 7! rows at order 9 and 8! at order 10, each
    # sampled row's cycle counted by the tuple-arithmetic oracles
    rng = random.Random(order)
    for G in abelian_groups_in_range(order, order):
        fs = G.invariant_factors
        els = G.indexed.els
        head = (rng.randrange(1, order),)
        rest = [v for v in range(1, order) if v not in head]
        table = search._lex_permutations(len(rest))
        diffs, sums = search._block_counts(order, head, search._label_masks(G))
        assert len(diffs) == len(sums) == len(table) == factorial(order - 2)
        for r in [0, len(table) - 1, *rng.sample(range(len(table)), 300)]:
            verts = [els[v] for v in (0, *head, *(rest[i] for i in table[r]))]
            assert diffs[r] == len(set(raw_diff_labels(fs, verts))), (G, head, r)
            assert sums[r] == len(set(raw_sum_labels(fs, verts))), (G, head, r)


def test_scan_witnesses_recheck():
    for G in [group(6), group(2, 4), group(3, 3)]:
        rep = extremal_scan(G)
        w = rep.witnesses
        assert diff_labels(w["min_diffs"]).distinct_count == rep.min_distinct_diffs
        assert diff_labels(w["max_diffs"]).distinct_count == rep.max_distinct_diffs
        assert sum_labels(w["min_sums"]).distinct_count == rep.min_distinct_sums
        assert sum_labels(w["max_sums"]).distinct_count == rep.max_distinct_sums


def test_scan_thread_count_never_changes_result():
    a = extremal_scan(group(8), threads=1)
    b = extremal_scan(group(8), threads=4)
    assert a.to_json_dict() == b.to_json_dict()


def test_scan_cap():
    with pytest.raises(ValueError, match=r"13! = 6227020800 cycles"):
        extremal_scan(group(14))
    search._check_scan_order(search.MAX_SCAN_ORDER)  # the ceiling itself is admitted


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
def test_scan_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        extremal_scan(group(4), threads=threads)


def test_max_diff_witness_repeats_exactly_one_label():
    # a cycle realizing n-1 distinct differences repeats exactly one of them
    rep = extremal_scan(group(4))
    labels = diff_labels(rep.witnesses["max_diffs"]).labels
    assert sorted(labels.values()) == [1, 1, 2]


# -- rainbow searches --------------------------------------------------------------

def test_find_diff_path_exists_when_sum_nonzero():
    res = find_rainbow_diff_path(group(4))
    assert res.status == "found"
    assert res.trail.vertices[0] == (0,)
    assert is_rainbow_diff_path(res.trail)


def test_find_diff_path_nonexistent_when_sum_zero():
    assert find_rainbow_diff_path(group(2, 2)).status == "nonexistent"
    assert find_rainbow_diff_path(group(3)).status == "nonexistent"


def test_find_sum_cycle():
    res = find_rainbow_sum_cycle(group(5))
    assert res.status == "found"
    assert is_rainbow_sum_cycle(res.trail)
    assert find_rainbow_sum_cycle(group(2, 2)).status == "nonexistent"


def test_find_diff_cycle_nonzero():
    res = find_rainbow_diff_cycle_nonzero(group(5))
    assert res.status == "found"
    t = res.trail
    assert len(t.vertices) == 4 and (0,) not in t.vertices
    assert is_rainbow_diff_cycle(t)
    with pytest.raises(ValueError):
        find_rainbow_diff_cycle_nonzero(group(2))


def test_budget_exhaustion_is_reported_distinctly():
    res = find_rainbow_sum_cycle(group(3, 3), budget=5)
    assert res.status == "exhausted"
    assert res.trail is None
    # same search with room to finish succeeds
    assert find_rainbow_sum_cycle(group(3, 3)).status == "found"


def test_search_results_are_deterministic():
    a = find_rainbow_diff_path(group(8))
    b = find_rainbow_diff_path(group(8))
    assert a.trail.vertices == b.trail.vertices


def test_diff_cycle_on_nonzero_exists_for_noncyclic_order8():
    # measured finding: both zero-sum order-8 groups with a non-cyclic
    # structure admit a rainbow-difference cycle on their nonzero elements,
    # which is what pushes their max distinct-diff count to n-2
    for fs in [(2, 4), (2, 2, 2)]:
        res = find_rainbow_diff_cycle_nonzero(group(*fs))
        assert res.status == "found", fs
        assert is_rainbow_diff_cycle(res.trail)


def test_rainbow_search_deeper_than_the_recursion_limit():
    res = find_rainbow_sum_cycle(group(2001))
    assert res.status == "found" and res.nodes == 2000
    assert res.trail.covers_group and is_rainbow_sum_cycle(res.trail)


RAINBOW_SEARCHES = {
    "diff_path": find_rainbow_diff_path,
    "sum_cycle": find_rainbow_sum_cycle,
    "diff_cycle_nonzero": find_rainbow_diff_cycle_nonzero,
}


def _outcome(res):
    return res.status, res.nodes, res.trail.vertices if res.trail else None


def _backtrack(G, kind, budget=None):
    # the walk behind the public search, without its counting shortcut
    vertices = (1 << G.order) - (2 if kind == "diff_cycle_nonzero" else 1)
    return _outcome(search._rainbow_backtrack(G, vertices, sums=kind == "sum_cycle",
                                              cyclic=kind != "diff_path", budget=budget))


def _ruled_out(fs, kind):
    # the searches answer these by counting, before any node; sigma is the
    # sum of the elements, taken on plain tuples
    sigma = functools.reduce(functools.partial(raw_add, fs), raw_elements(fs))
    zero = sigma == tuple(0 for _ in fs)
    if kind == "diff_path":
        return zero
    return not zero or (kind == "sum_cycle" and set(fs) == {2})


@pytest.mark.parametrize("G", abelian_groups_in_range(2, 12),
                         ids=lambda G: "x".join(map(str, G.invariant_factors)))
def test_rainbow_searches_walk_the_oracle_order(G):
    # status, node count and witness all equal a plain-tuple walk in the
    # same order; a budget at the found count finds the same witness, one
    # below it runs out at the node past it
    fs = G.invariant_factors
    for kind, search_fn in RAINBOW_SEARCHES.items():
        if kind == "diff_cycle_nonzero" and G.order < 3:
            continue
        want = raw_rainbow_search(fs, kind)
        if _ruled_out(fs, kind):
            assert want[0] == "nonexistent", kind
            assert _outcome(search_fn(G)) == ("nonexistent", 0, None), kind
            assert _backtrack(G, kind) == want, kind
            continue
        assert _outcome(search_fn(G)) == want, kind
        status, nodes, _ = want
        if status != "found":
            continue
        assert _outcome(search_fn(G, budget=nodes)) == want, kind
        if nodes > 1:
            below = ("exhausted", nodes, None)
            assert raw_rainbow_search(fs, kind, budget=nodes - 1) == below, kind
            assert _outcome(search_fn(G, budget=nodes - 1)) == below, kind


def _cyclic_elements(*residues):
    return tuple((r,) for r in residues)


# (search, group order) -> (status, nodes, vertices) of the three long
# searches, beyond the oracle sweep's reach
LONG_RAINBOW = {
    ("diff_path", 18): ("found", 108_077, _cyclic_elements(
        0, 1, 3, 2, 5, 10, 4, 8, 15, 7, 16, 11, 17, 13, 6, 14, 12, 9)),
    ("diff_cycle_nonzero", 23): ("found", 44_189, _cyclic_elements(
        1, 2, 4, 3, 6, 10, 5, 11, 7, 16, 14, 22, 15, 20, 17, 8, 18, 12, 19, 9, 21, 13)),
    ("sum_cycle", 401): ("found", 400, _cyclic_elements(*range(401))),
}


def test_rainbow_node_counts_of_the_longer_searches():
    for (kind, n), want in LONG_RAINBOW.items():
        assert _outcome(RAINBOW_SEARCHES[kind](group(n))) == want, (kind, n)


def _budget_boundary(search_fn, budgets, found):
    # every budget below the found count runs out at the node past it, and
    # every budget from the found count on gives the unbudgeted outcome
    nodes = found[1]
    for budget in budgets:
        want = ("exhausted", budget + 1, None) if budget < nodes else found
        assert _outcome(search_fn(budget=budget)) == want, budget


@pytest.mark.parametrize("G", abelian_groups_in_range(2, 14),
                         ids=lambda G: "x".join(map(str, G.invariant_factors)))
def test_rainbow_budgets_run_out_at_the_node_past_them(G):
    # a child with no candidate still counts as a node against the budget,
    # though it is never pushed: every budget up to the oracle's count
    fs = G.invariant_factors
    for kind, search_fn in RAINBOW_SEARCHES.items():
        if kind == "diff_cycle_nonzero" and G.order < 3 or _ruled_out(fs, kind):
            continue
        found = raw_rainbow_search(fs, kind)
        if found[0] != "found":
            continue
        assert _outcome(search_fn(G)) == found, kind
        _budget_boundary(functools.partial(search_fn, G),
                         range(1, found[1] + 2), found)


@pytest.mark.parametrize("kind, n", [("diff_path", 18), ("diff_cycle_nonzero", 23)])
def test_rainbow_budgets_of_the_longer_searches(kind, n):
    found = LONG_RAINBOW[kind, n]
    nodes = found[1]
    rng = random.Random(n)
    budgets = sorted(rng.sample(range(1, nodes - 1), 10)) + [nodes - 1, nodes]
    _budget_boundary(functools.partial(RAINBOW_SEARCHES[kind], group(n)), budgets, found)


def test_unchecked_witnesses_equal_the_checked_trails():
    # the rainbow and Hamiltonicity searches and the enumeration build their
    # Trails from GroupIndex.els without the Trail checks; each must equal
    # the Trail built through them
    witnesses = [find_rainbow_diff_path(group(18)).trail,
                 find_rainbow_diff_cycle_nonzero(group(23)).trail,
                 find_rainbow_sum_cycle(group(401)).trail]
    witnesses += [minimum_connection_size(G, budget=200_000).witness_cycle
                  for G in abelian_groups_in_range(17, 32)]
    for G in abelian_groups_in_range(3, 10):
        witnesses += itertools.islice(enumerate_cycles(G), 3)
    for t in witnesses:
        checked = Trail(t.group, t.vertices, t.cyclic)
        assert t == checked and hash(t) == hash(checked), t
        assert type(t.vertices) is tuple and all(type(v) is tuple for v in t.vertices)


@pytest.mark.parametrize("fs", [(2, 2, 2, 2), (2, 2, 4), (3, 3, 3), (2, 2, 2, 2, 2)],
                         ids=lambda fs: "x".join(map(str, fs)))
def test_rainbow_searches_walk_the_oracle_order_on_rank_three_and_more(fs):
    # a mask translation crosses several axes only from rank 2 on, and the
    # sweep above reaches rank 3 only on Z2^3
    G = group(*fs)
    for kind, search_fn in RAINBOW_SEARCHES.items():
        for budget in (1, 10, 1_000, 5_000):
            want = raw_rainbow_search(fs, kind, budget=budget)
            if _ruled_out(fs, kind):
                got = _outcome(search_fn(G, budget=budget))
                assert got == ("nonexistent", 0, None), (kind, budget)
                assert _backtrack(G, kind, budget) == want, (kind, budget)
                continue
            assert _outcome(search_fn(G, budget=budget)) == want, (kind, budget)


def test_mask_translation_matches_the_shift_rows():
    # a wrong stride, modulus or axis order moves some bit of some mask: the
    # doubled mask shifted right, then the other axes' moves, must hold the
    # translate in its low n bits (the walk ANDs it with the free vertices)
    for G in [*abelian_groups_in_range(1, 64), group(401)]:
        n = G.order
        gi = G.indexed
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(3)]
        for a, (down, moves) in enumerate(search._mask_translations(G)):
            assert 0 < down <= n, (G, a)
            row = gi.shift(a)
            for mask in masks:
                got = (mask | mask << n) >> down
                for low, up, high, dn in moves:
                    got = (got & low) << up | (got & high) >> dn
                want = sum(1 << row[x] for x in range(n) if mask >> x & 1)
                assert got & ((1 << n) - 1) == want, (G, a, bin(mask))


@pytest.mark.parametrize("search_fn", RAINBOW_SEARCHES.values(), ids=RAINBOW_SEARCHES.keys())
def test_rainbow_searches_build_no_label_table(search_fn):
    for fs in [(12,), (2, 6), (3, 3)]:
        G = group(*fs)
        search_fn(G, budget=10_000)
        assert not {"add", "diff"} & set(G.indexed.__dict__), fs


def test_rainbow_search_keeps_no_copy_of_the_label_table():
    # one cached shift row per vertex, one doubled bit per label and at
    # most one pushed state per level: about 0.80 MB at peak on Z401; a
    # Python list of every row of a label table would take about 3 MB more
    G = group(401)
    tracemalloc.start()
    try:
        res = find_rainbow_sum_cycle(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "found"
    assert peak < 1_000_000


def test_rainbow_search_stays_small_on_a_high_rank_group():
    # only the first axis is doubled in the used-label mask, so it stays
    # 2n bits wide; doubling every axis would make each mask n * 2**rank
    # bits, 8 KB here.  About 0.37 MB at peak.
    G = group(2, 2, 2, 2, 2, 2, 2, 2)
    tracemalloc.start()
    try:
        res = find_rainbow_diff_cycle_nonzero(G, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _outcome(res) == ("exhausted", 2001, None)
    assert peak < 2_000_000


_BUDGETED_CALLS = {
    "diff_path": lambda budget: find_rainbow_diff_path(group(18), budget=budget),
    "sum_cycle": lambda budget: find_rainbow_sum_cycle(group(5), budget=budget),
    "diff_cycle_nonzero": lambda budget: find_rainbow_diff_cycle_nonzero(group(5), budget=budget),
    "hamiltonian": lambda budget: is_hamiltonian_cayley(group(17), [(1,), (2,)], budget=budget),
    "smin": lambda budget: minimum_connection_size(group(17), budget=budget),
}


@pytest.mark.parametrize("budget", [0, -3, 2.5, True, "7"], ids=repr)
@pytest.mark.parametrize("call", _BUDGETED_CALLS.values(), ids=_BUDGETED_CALLS.keys())
def test_searches_refuse_a_budget_that_is_not_a_positive_int(call, budget, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    for name in ("_rainbow_backtrack", "_is_connected_structural", "_hamiltonian_backtrack"):
        monkeypatch.setattr(search, name, no_search)
    with pytest.raises(ValueError, match="budget"):
        call(budget)
