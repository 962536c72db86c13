"""Addition Cayley graphs: input checks, connectivity, Hamiltonicity, minimum sets."""

import itertools
import random

import numpy as np
import pytest

from hamlabels import (
    SearchBudgetExceeded,
    abelian_groups_in_range,
    classify_small_connection_set,
    group,
    is_connected_cayley,
    is_hamiltonian_cayley,
    minimum_connection_size,
    sum_labels,
)
from hamlabels import search, verify
from hamlabels.search import (
    DEFAULT_DP_LIMIT,
    _connected_subsets,
    _hamiltonian_backtrack,
    _size_bounds,
)
from oracles import (
    raw_first_hamiltonian_cycle,
    raw_is_canonical,
    raw_is_connected,
    raw_minimum_connection_size,
)


@pytest.mark.parametrize("call", [
    lambda G, S: is_connected_cayley(G, S, "structural"),
    lambda G, S: is_connected_cayley(G, S, "bfs"),
    is_hamiltonian_cayley,
    classify_small_connection_set,
], ids=["structural", "bfs", "hamiltonian", "pair-rule"])
@pytest.mark.parametrize("foreign", [(6,), (1, 0), (-1,), (1.5,),
                                     (True,), (1.0,), (np.int64(1),)])
def test_every_cayley_entry_rejects_a_non_element(call, foreign):
    # the last three equal (1,): refused although the set would keep only (1,)
    assert not group(6).contains(foreign)
    with pytest.raises(ValueError, match="not an element"):
        call(group(6), [(1,), foreign])


# -- connectivity --------------------------------------------------------------------

def test_connectivity_examples():
    assert is_connected_cayley(group(4), [(1,), (3,)])
    assert not is_connected_cayley(group(4), [(2,)])
    assert is_connected_cayley(group(6), [(1,), (2,)])


def test_connectivity_empty_set():
    assert not is_connected_cayley(group(2), [])
    assert is_connected_cayley(group(1), [])


def _connectivity_answers(G, idx):
    """Both index kernels and both public methods on one set of indices."""
    S = [G.elements()[i] for i in idx]
    return [search._is_connected_structural(G, idx), search._is_connected_bfs(G, idx),
            is_connected_cayley(G, S, "structural"), is_connected_cayley(G, S, "bfs")]


def test_connectivity_methods_agree_exhaustively():
    # both index kernels and both public methods, against the oracle
    for G in abelian_groups_in_range(2, 8):
        els = G.elements()
        for size in range(len(els) + 1):
            for idx in itertools.combinations(range(len(els)), size):
                want = raw_is_connected(G.invariant_factors, [els[i] for i in idx])
                assert _connectivity_answers(G, idx) == [want] * 4, (G, idx)


def test_connectivity_methods_agree_sampled_larger():
    rng = random.Random(987654)
    for G in [group(12), group(2, 6), group(16), group(3, 9)]:
        els = G.elements()
        for _ in range(10_000 // 4):
            S = [e for e in els if rng.random() < rng.choice([0.15, 0.5])]
            assert is_connected_cayley(G, S, "structural") == \
                is_connected_cayley(G, S, "bfs")


@pytest.mark.parametrize("factors", [(9,), (3, 3), (10,)])
def test_connectivity_matches_the_oracle_on_the_sets_verify_samples(monkeypatch, factors):
    G = group(*factors)
    sampled = []
    real = verify._is_connected_structural

    def recorded(G, idx):
        sampled.append(idx)
        return real(G, idx)

    monkeypatch.setattr(verify, "_is_connected_structural", recorded)
    assert verify._check_connectivity(G).verdict == verify.PASS
    # the sets drawn one element at a time in G.elements() order
    rng = random.Random(0xC0FFEE ^ G.order)
    els = G.elements()
    drawn = [tuple(e for e in els if rng.random() < 0.5)
             for _ in range(verify._CONNECTIVITY_SAMPLES)]
    assert sampled == [tuple(els.index(e) for e in S) for S in drawn]
    for idx in sampled:
        want = raw_is_connected(factors, [els[i] for i in idx])
        assert _connectivity_answers(G, idx) == [want] * 4, (G, idx)


def test_connectivity_unknown_method():
    with pytest.raises(ValueError):
        is_connected_cayley(group(4), [(1,)], "magic")


# -- Hamiltonicity ----------------------------------------------------------------------

def test_hamiltonian_examples():
    ok, witness = is_hamiltonian_cayley(group(4), [(1,), (3,)])
    assert ok
    assert set(sum_labels(witness).labels) <= {(1,), (3,)}

    ok, witness = is_hamiltonian_cayley(group(7), [(0,), (1,), (3,)])
    assert not ok and witness is None

    ok, _ = is_hamiltonian_cayley(group(3), [(0,), (1,)])
    assert not ok


def test_hamiltonian_order_two_convention():
    ok, witness = is_hamiltonian_cayley(group(2), [(1,)])
    assert ok and witness.vertices == ((0,), (1,))
    ok, _ = is_hamiltonian_cayley(group(2), [(0,)])
    assert not ok


def test_hamiltonian_triangle_family_not_hamiltonian():
    # 2-connected does not suffice: {0,1,3} in Z_n for n = 3 mod 4
    for n in (7, 11):
        ok, _ = is_hamiltonian_cayley(group(n), [(0,), (1,), (3,)])
        assert not ok, n


def _reversed_after_zero(verts):
    return verts[:1] + verts[:0:-1]


def test_hamiltonian_dp_and_backtracking_agree():
    for G in [group(6), group(8), group(2, 4), group(3, 3)]:
        els = G.elements()
        sets = [S for size in (2, 3) for S in itertools.combinations(els, size)]
        for S in sets:
            dp_ok, dp_cycle = is_hamiltonian_cayley(G, S)
            bt_ok, bt_cycle = is_hamiltonian_cayley(G, S, dp_limit=0)
            assert dp_ok == bt_ok, (G, S)
            if dp_ok:
                assert dp_cycle.vertices == _reversed_after_zero(bt_cycle.vertices), (G, S)


def test_hamiltonian_witness_is_the_first_cycle_of_the_oracle():
    # below the gate the least cycle comes back reversed after 0, above it as is
    for G in abelian_groups_in_range(3, 8):
        els = G.elements()
        for size in (0, 1, 2, 3):
            for S in itertools.combinations(els, size):
                want = raw_first_hamiltonian_cycle(G.invariant_factors, S)
                for dp_limit, expect in ((DEFAULT_DP_LIMIT, _reversed_after_zero),
                                         (0, lambda c: c)):
                    ok, cycle = is_hamiltonian_cayley(G, S, dp_limit=dp_limit)
                    assert ok == (want is not None), (G, S, dp_limit)
                    if ok:
                        assert cycle.vertices == expect(want), (G, S, dp_limit)


def test_hamiltonian_gate_above_the_default_is_refused():
    with pytest.raises(ValueError, match="states"):
        is_hamiltonian_cayley(group(4), [(1,), (3,)], dp_limit=DEFAULT_DP_LIMIT + 1)


def test_hamiltonian_backtracking_budget_raises():
    with pytest.raises(SearchBudgetExceeded):
        # whole group as connection set: dense graph, tiny budget
        is_hamiltonian_cayley(group(8), group(8).elements(), dp_limit=0, budget=3)


def test_hamiltonian_witness_verified():
    for G in [group(6), group(2, 4)]:
        els = G.elements()
        for S in itertools.combinations(els, 2):
            ok, witness = is_hamiltonian_cayley(G, S)
            if ok:
                assert witness.covers_group
                assert set(sum_labels(witness).labels) <= set(S)


# -- the closed-form pair rule --------------------------------------------------------------

def test_pair_rule_examples():
    assert classify_small_connection_set(group(6), [(1,), (3,)])
    assert not classify_small_connection_set(group(6), [(0,), (2,)])
    assert not classify_small_connection_set(group(5), [(1,), (2,)])
    assert not classify_small_connection_set(group(6), [(1,)])


def test_pair_rule_requires_small_group_and_set():
    with pytest.raises(ValueError):
        classify_small_connection_set(group(2), [(1,)])
    with pytest.raises(ValueError):
        classify_small_connection_set(group(6), [(0,), (1,), (2,)])


def test_pair_rule_matches_search_through_order_ten():
    for G in abelian_groups_in_range(3, 10):
        els = G.elements()
        for size in (0, 1, 2):
            for S in itertools.combinations(els, size):
                want, _ = is_hamiltonian_cayley(G, S)
                assert classify_small_connection_set(G, S) == want, (G, S)


# -- minimum connection size -----------------------------------------------------------------

def test_minimum_connection_examples():
    res = minimum_connection_size(group(6))
    assert res.status == "exact" and res.size == 2
    ok, _ = is_hamiltonian_cayley(group(6), res.witness_set)
    assert ok

    assert minimum_connection_size(group(5)).size == 3
    assert minimum_connection_size(group(2, 2)).size == 2
    assert minimum_connection_size(group(4)).size == 2
    assert minimum_connection_size(group(2)).size == 1


def test_minimum_connection_witness_cycle_uses_only_witness_sums():
    res = minimum_connection_size(group(8))
    assert res.size == 2
    assert set(sum_labels(res.witness_cycle).labels) <= set(res.witness_set)


def test_minimum_connection_even_closed_form():
    for G in abelian_groups_in_range(4, 16):
        if G.order % 2:
            continue
        want = G.rank if G.invariant_factors[0] == 2 else G.rank + 1
        assert minimum_connection_size(G).size == want, G


def test_minimum_connection_odd_bounds():
    for G in abelian_groups_in_range(3, 15):
        if G.order % 2 == 0:
            continue
        size = minimum_connection_size(G).size
        assert G.rank + 1 <= size <= 2 * G.rank + 1, G
        if G.is_cyclic:
            assert size == 3


def test_minimum_connection_lower_bound_has_no_smaller_set():
    # the search starts at this bound and verify predicts the same value,
    # so only a check from below catches a bound that is too high
    for G in abelian_groups_in_range(2, 32):
        lower, _ = _size_bounds(G)
        for S in itertools.combinations(G.elements(), lower - 1):
            assert not is_hamiltonian_cayley(G, S)[0], (G, S)


def test_min_connection_record_fails_on_a_hamiltonian_set_below_the_bracket(monkeypatch):
    real = verify.is_hamiltonian_cayley
    monkeypatch.setattr(verify, "is_hamiltonian_cayley",
                        lambda G, S: (True, None) if len(S) == 1 else real(G, S))
    G = group(5)
    [rec] = [r for r in verify._check_min_connection(G) if r.check == "min-connection-size"]
    assert (rec.predicted, rec.measured, rec.verdict) == ("[2..3]", "1", verify.FAIL)


def test_verify_asks_each_connection_set_once(monkeypatch):
    # the pair rule and the sets below the min-connection bracket overlap
    asked = []
    for module in (verify, search):
        real = module.is_hamiltonian_cayley

        def counted(G, S, *args, real=real, **kwargs):
            asked.append(frozenset(S))
            return real(G, S, *args, **kwargs)
        monkeypatch.setattr(module, "is_hamiltonian_cayley", counted)
    records = verify.verify_group(group(2, 2, 2))
    assert all(r.verdict == verify.PASS for r in records)
    assert asked and len(asked) == len(set(asked))


# the first witness of each size search: the least canonical set, and its
# least cycle walked the other way round from 0
MIN_CONNECTION_WITNESSES = {
    (15,): (((0,), (1,), (2,)),
            ((0,), (2,), (13,), (4,), (11,), (6,), (9,), (8,), (7,), (10,), (5,), (12,),
             (3,), (14,), (1,))),
    (16,): (((1,), (3,)),
            ((0,), (3,), (14,), (5,), (12,), (7,), (10,), (9,), (8,), (11,), (6,), (13,),
             (4,), (15,), (2,), (1,))),
    (2, 2, 4): (((0, 0, 1), (0, 1, 0), (1, 0, 0)),
                ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 3), (1, 1, 2), (1, 0, 2),
                 (1, 0, 3), (1, 1, 1), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 3),
                 (0, 0, 2), (0, 1, 2), (0, 1, 3), (0, 0, 1))),
    (2, 2, 2, 2): (((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
                   ((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0), (1, 1, 0, 0),
                    (1, 1, 0, 1), (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1),
                    (0, 1, 0, 1), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 1, 1),
                    (0, 0, 0, 1))),
}


@pytest.mark.parametrize("factors", list(MIN_CONNECTION_WITNESSES))
def test_minimum_connection_witnesses_are_pinned(factors):
    want_set, want_cycle = MIN_CONNECTION_WITNESSES[factors]
    res = minimum_connection_size(group(*factors))
    assert res.status == "exact" and res.size == len(want_set)
    assert res.witness_set == want_set
    assert res.witness_cycle.vertices == want_cycle


def test_minimum_connection_budget_interval():
    res = minimum_connection_size(group(3, 9), budget=2)
    assert res.status == "interval"
    assert res.size is None
    assert (res.lower, res.upper) == (3, 5)
    assert res == raw_minimum_connection_size(group(3, 9), budget=2)


@pytest.mark.parametrize("G", abelian_groups_in_range(2, 32), ids=str)
def test_minimum_connection_matches_the_oracle(G):
    assert minimum_connection_size(G) == raw_minimum_connection_size(G)


@pytest.mark.parametrize("G", abelian_groups_in_range(2, 32), ids=str)
def test_canonical_filter_keeps_the_oracle_sets(G):
    # the filter tries only the translates that can sort below a set, the
    # oracle every one; the sets are the connected ones at the first two
    # sizes the search walks, at most 3,000 a size, taken at an even
    # stride so that sets not holding 0 are checked too.  On an odd order
    # _connected_subsets yields only sets holding 0, so each is also taken
    # translated by els[1]: there (2G = G) a translate of a connected set
    # is connected, and it holds 0 only when the set holds -els[1]
    factors = G.invariant_factors
    gi = G.indexed
    els = gi.els
    is_canonical = search._canonical_filter(G)
    lower, upper = _size_bounds(G)
    for k in range(max(2, lower), min(upper, lower + 1) + 1):
        sets = list(_connected_subsets(G, k))
        if G.order % 2:
            sets += [tuple(sorted(gi.shift(1)[i] for i in S)) for S in sets]
        for S in sets[::-(-len(sets) // 3000)]:
            want = raw_is_canonical(factors, tuple(els[i] for i in S))
            assert is_canonical(S) == want, (k, S)


def test_connected_subsets_are_the_connected_sets():
    # on an odd order only the sets holding 0, the rest being translates
    # of them that the canonical filter refuses
    for G in abelian_groups_in_range(2, 12):
        els = G.elements()
        for k in range(2, 5):
            got = list(_connected_subsets(G, k))
            for method in ("structural", "bfs"):
                want = [S for S in itertools.combinations(range(G.order), k)
                        if (G.order % 2 == 0 or S[0] == 0)
                        and is_connected_cayley(G, [els[i] for i in S], method)]
                assert got == want, (G, k, method)


@pytest.mark.parametrize("factors", [(2, 2, 2, 4), (2, 2, 2, 2, 2)])
def test_minimum_connection_asks_only_the_witness(monkeypatch, factors):
    # every disconnected set is dropped before the Hamiltonicity search,
    # and the first connected canonical set is Hamiltonian
    calls = []
    real = search.is_hamiltonian_cayley

    def counted(G, S, **kwargs):
        calls.append(S)
        return real(G, S, **kwargs)
    monkeypatch.setattr(search, "is_hamiltonian_cayley", counted)
    res = minimum_connection_size(group(*factors))
    assert res.status == "exact"
    assert calls == [res.witness_set]


def test_hamiltonian_backtracking_deeper_than_the_recursion_limit():
    ok, cycle = is_hamiltonian_cayley(group(2000), [(1,), (3,)], budget=10**6)
    assert ok
    assert cycle.covers_group and set(sum_labels(cycle).labels) <= {(1,), (3,)}


def _full_cut_backtrack(n, adj, budget):
    """The backtracking search with the availability cut run over every
    unvisited vertex at every node: the reference for the incremental cut."""
    full = (1 << n) - 1

    def successors(cur, visited):
        free = ~visited & full
        avail_pool = free | (1 << cur) | 1
        m = free
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if (adj[u] & avail_pool).bit_count() < 2:
                return 0
        return adj[cur] & free

    nodes = 0
    path = [0]
    visited = 1
    steps = [successors(0, visited)]
    while steps:
        ext = steps[-1]
        if not ext:
            steps.pop()
            visited ^= 1 << path.pop()
            continue
        w = (ext & -ext).bit_length() - 1
        steps[-1] = ext & (ext - 1)
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
            steps.append(successors(w, visited))
    return None


def _search_outcome(search, n, adj, budget):
    try:
        return "path", search(n, adj, budget)
    except SearchBudgetExceeded as exc:
        return "exhausted", exc.nodes


def test_incremental_availability_cut_matches_the_full_cut():
    rng = random.Random(2024)
    for _ in range(600):
        n = rng.randint(3, 14)
        p = rng.choice((0.25, 0.4, 0.6))
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for budget in (None, 5, 50):
            assert _search_outcome(_hamiltonian_backtrack, n, adj, budget) == \
                _search_outcome(_full_cut_backtrack, n, adj, budget), (n, adj, budget)
        # remembering dead states never changes the cycle found
        assert _hamiltonian_backtrack(n, adj, None, memo=True) == \
            _full_cut_backtrack(n, adj, None), (n, adj)
