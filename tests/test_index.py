"""The integer-index group core: vectors and tables against tuple arithmetic."""

import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamlabels import abelian_groups_in_range, group, is_connected_cayley, verify
from hamlabels.search import _cayley_adjacency, _least_degree

from oracles import cycle_edges, raw_add, raw_elements, raw_sub

SMALL_GROUPS = abelian_groups_in_range(1, 64)


def test_index_rows_match_a_numpy_encoding():
    # neg and every shift row against the vectorized mixed-radix
    # encoding: coordinates reduced factor-wise, dotted with the strides
    groups = [*abelian_groups_in_range(1, 200), group(*[2] * 7), group(3, 3, 3, 3),
              group(2, 4, 8)]
    for G in groups:
        gi = G.indexed
        fs = G.invariant_factors
        coords = np.array(gi.els, dtype=np.int64).reshape(gi.n, len(fs))
        moduli = np.array(fs, dtype=np.int64)
        strides = np.array([prod(fs[k + 1:]) for k in range(len(fs))], dtype=np.int64)

        def encode(c):
            return (c % moduli) @ strides

        assert np.array_equal(gi.neg, encode(-coords)), G
        shifts = np.array([gi.shift(a) for a in range(gi.n)])
        assert np.array_equal(shifts, encode(coords[:, None] + coords[None, :])), G


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GROUPS))
def test_index_tables_agree_with_tuple_arithmetic(G):
    gi = G.indexed
    els = gi.els
    for i, a in enumerate(els):
        assert els[gi.neg[i]] == G.neg(a)
        for j, b in enumerate(els):
            assert els[gi.add[i, j]] == G.add(a, b)
            assert els[gi.diff[i, j]] == G.sub(b, a)  # label of the edge a -> b


def test_in_2g_flags_the_doubles():
    for G in SMALL_GROUPS:
        gi = G.indexed
        fs = G.invariant_factors
        doubles = {raw_add(fs, a, a) for a in gi.els}
        assert type(gi.in_2g) is bytes  # read-only
        assert gi.in_2g == bytes(a in doubles for a in gi.els), G


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GROUPS))
def test_index_round_trips(G):
    gi = G.indexed
    assert G.indexed is gi  # built once per group value
    assert gi.els == G.elements() == tuple(raw_elements(G.invariant_factors))
    for i, a in enumerate(gi.els):
        assert gi.index[a] == G.element_index(a) == i


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_shift_and_closure_match_tuple_arithmetic(G, data):
    gi = G.indexed
    fs = G.invariant_factors
    a = data.draw(st.integers(0, gi.n - 1))
    assert [gi.els[k] for k in gi.shift(a)] == [raw_add(fs, gi.els[a], x) for x in gi.els]
    gens = data.draw(st.lists(st.integers(0, gi.n - 1), max_size=3))
    closed = {gi.els[0]}
    while True:  # closure under adding a generator, by tuple arithmetic
        more = {raw_add(fs, x, gi.els[g]) for x in closed for g in gens} - closed
        if not more:
            break
        closed |= more
    assert {gi.els[k] for k in gi.closure(gens)} == closed


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_cayley_adjacency_matches_tuple_arithmetic(G, data):
    els = G.elements()
    fs = G.invariant_factors
    # the validated form: ascending distinct indices
    idx = tuple(sorted(set(data.draw(st.lists(st.integers(0, len(els) - 1), max_size=5)))))
    S = {els[s] for s in idx}
    adj = _cayley_adjacency(G, idx)  # is_hamiltonian_cayley's bit masks
    assert len(adj) == len(els)
    for i, g in enumerate(els):
        assert adj[i] == sum(1 << j for j, h in enumerate(els)
                             if h != g and raw_add(fs, g, h) in S)
    # the degree test, which runs before the masks are built
    assert _least_degree(G, idx) == min(a.bit_count() for a in adj)


def test_structural_connectivity_builds_no_table_on_large_groups():
    G = group(100000)
    gi = G.indexed
    assert is_connected_cayley(G, [(1,), (2,)])
    assert len(gi._rows) <= 3  # only the translations it read
    row = gi.shift(1)
    assert gi.shift(1) is row and row.readonly and row.itemsize == 4
    assert not is_connected_cayley(G, [(2,), (4,)])  # S inside the even residues
    built = vars(gi)
    assert "add" not in built and "diff" not in built


def test_bfs_connectivity_builds_no_table_on_large_groups():
    for S, connected in (([(1,), (2,)], True), ([(2,), (4,)], False)):
        G = group(100000)
        gi = G.indexed
        assert is_connected_cayley(G, S, "bfs") is connected
        # only the translations by the elements of S
        assert set(gi._rows) <= {gi.index[s] for s in S}
        built = vars(gi)
        assert "add" not in built and "diff" not in built


def test_forced_step_check_builds_no_table():
    # it reads each edge label from a translation row; only the scan and
    # the Monte Carlo estimator read the n x n tables
    G = group(7)
    assert verify._check_forced_steps(G).verdict == verify.PASS
    built = vars(G.indexed)
    assert "add" not in built and "diff" not in built


@pytest.mark.parametrize("n", [5, 181, 182, 400])
def test_cycle_edges_index_each_edge_and_the_closing_one(n):
    rng = np.random.default_rng(n)
    verts = np.stack([rng.permutation(n) for _ in range(4)]).astype(np.int16)
    edges = cycle_edges(verts, n)
    want = verts.astype(np.int64) * n + np.roll(verts, -1, axis=1)
    assert np.array_equal(edges, want)
    assert (edges.dtype == np.int16) == (n * n <= 2**15)


def test_index_tables_are_compact():
    gi = group(2, 4).indexed
    for table in (gi.add, gi.diff):
        assert table.shape == (8, 8) and table.itemsize == 2


def test_add_table_is_built_with_no_temporary_of_its_size():
    # each factor's step is written straight into the result's dtype: the
    # int32 temporaries of n^2 entries the table once went through peaked
    # near 5x its own bytes
    group(2).indexed.add  # the imports the build makes, outside the trace
    for G in (group(2000), group(40, 40)):
        gi = G.indexed
        tracemalloc.start()
        try:
            add = gi.add
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * add.nbytes, (G, peak, add.nbytes)


@pytest.mark.parametrize("modes", [("diff",), ("sum",), ("diff", "sum")], ids="+".join)
def test_label_masks_set_each_label_bit_from_tuple_arithmetic(modes):
    ops = {"diff": lambda fs, a, b: raw_sub(fs, b, a), "sum": raw_add}
    for G in abelian_groups_in_range(2, 65):
        n = G.order
        width = len(modes) * n
        masks = G.indexed.label_masks(modes)
        assert (masks is None) == (width > 64), (G, modes)
        if masks is None:
            continue
        # np.bitwise_count counts the bits of |x|, so int32 only while bit
        # 31 stays clear
        assert masks.dtype == (np.int32 if width < 32 else np.uint64), (G, modes)
        assert masks.shape == (n, n)
        fs = G.invariant_factors
        els = raw_elements(fs)
        index = {a: i for i, a in enumerate(els)}
        want = [[sum(1 << k * n + index[ops[mode](fs, a, b)] for k, mode in enumerate(modes))
                 for b in els] for a in els]
        assert masks.tolist() == want, (G, modes)
