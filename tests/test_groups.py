"""Group representation, parsing, arithmetic, and structural counts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamlabels import (
    GroupParseError,
    GroupSpec,
    abelian_groups,
    abelian_groups_in_range,
    classify_small_connection_set,
    expected_distinct_diffs,
    expected_distinct_sums,
    find_rainbow_diff_cycle_nonzero,
    find_rainbow_diff_path,
    find_rainbow_sum_cycle,
    group,
    invariant_factors_of,
    is_hamiltonian_cayley,
    minimum_connection_size,
    monte_carlo_estimate,
    parse_group,
    span,
)

from hamlabels.groups import _element_indices

from oracles import raw_elements, raw_order


# -- parsing ---------------------------------------------------------------

def test_parse_plain_order():
    assert parse_group("6").invariant_factors == (6,)


def test_parse_merges_to_invariant_factors():
    assert parse_group("2x2x3").invariant_factors == (2, 6)


def test_parse_trivial():
    assert parse_group("1").invariant_factors == ()
    assert parse_group("1").order == 1


def test_parse_prefixes_and_commas():
    assert parse_group("Z4xZ2").invariant_factors == (2, 4)
    assert parse_group("C3, C9").invariant_factors == (3, 9)
    assert parse_group(" Z2 x Z6 ").invariant_factors == (2, 6)


@pytest.mark.parametrize("bad", ["", "2y3", "x", "Zx2", "-4", "2x-2", "0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupParseError):
        parse_group(bad)


def test_parse_idempotent_on_canonical_rendering():
    for g in abelian_groups_in_range(1, 36):
        assert parse_group(str(g)) == g


@given(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
       st.randoms())
def test_parse_invariant_under_reordering(factors, rnd):
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    text_a = "x".join(map(str, factors))
    text_b = "x".join(map(str, shuffled))
    assert parse_group(text_a) == parse_group(text_b)


def test_invariant_factor_merge_examples():
    assert invariant_factors_of([12, 60]) == (12, 60)
    assert invariant_factors_of([4, 6]) == (2, 12)
    assert invariant_factors_of([1, 1]) == ()


def test_groupspec_rejects_broken_chain():
    with pytest.raises(ValueError):
        GroupSpec((4, 6))
    with pytest.raises(ValueError):
        GroupSpec((1, 2))


# recent numpy releases raise TypeError from operator.index(np.True_)
# themselves; the explicit numpy bool check keeps the refusal whether or
# not the installed release, down to the declared 2.0 floor, does
@pytest.mark.parametrize("bad", [(4.0,), ("4",), (2.5,), (True,), (np.True_,),
                                 (np.bool_(False),)],
                         ids=["integral_float", "str", "float", "bool", "np_true",
                              "np_false"])
def test_groupspec_rejects_non_integer_factors(bad):
    with pytest.raises(ValueError):
        GroupSpec(bad)


def test_groupspec_stores_integer_like_factors_as_int():
    G = GroupSpec((np.int64(6),))
    assert G == group(6) and type(G.invariant_factors[0]) is int


@pytest.mark.parametrize("bad", [4.0, True, "4", np.True_],
                         ids=["integral_float", "bool", "str", "np_true"])
def test_group_rejects_non_integer_factors(bad):
    with pytest.raises(ValueError, match="integers"):
        group(bad)
    with pytest.raises(ValueError, match="integers"):
        invariant_factors_of([2, bad])


# -- enumeration and arithmetic ----------------------------------------------

def test_elements_lexicographic():
    assert group(2, 2).elements() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert group(3).elements() == ((0,), (1,), (2,))
    assert group(1).elements() == ((),)


def test_element_indexing_roundtrip():
    for G in [group(12), group(2, 4), group(2, 2, 2), group(1)]:
        for i, e in enumerate(G.elements()):
            assert G.element_index(e) == i


def test_arithmetic_examples():
    G = group(4)
    assert G.add((3,), (2,)) == (1,)
    assert group(2, 4).sub((1, 1), (0, 3)) == (1, 2)
    assert group(5).neg((2,)) == (3,)
    assert group(6).scalar_mul(5, (4,)) == (2,)


def test_arithmetic_rejects_wrong_length():
    with pytest.raises(ValueError):
        group(2, 2).add((0,), (1, 1))


@pytest.mark.parametrize("bad", [(2.5,), (7,), (True,)])
def test_arithmetic_rejects_non_elements(bad):
    G = group(4)
    for op in (lambda: G.add(bad, (1,)), lambda: G.sub((1,), bad), lambda: G.neg(bad),
               lambda: G.element_index(bad), lambda: G.element_order(bad)):
        with pytest.raises(ValueError):
            op()


def test_group_laws_exhaustive_small_orders():
    for G in abelian_groups_in_range(2, 16):
        els = G.elements()
        zero = G.zero()
        for a in els:
            assert G.add(a, zero) == a
            assert G.add(a, G.neg(a)) == zero
        for a, b in itertools.product(els, repeat=2):
            assert G.add(a, b) == G.add(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))


# -- structural quantities ----------------------------------------------------

def test_element_sum_examples():
    assert group(3).element_sum() == (0,)
    assert group(4).element_sum() == (2,)
    assert group(2, 2).element_sum() == (0, 0)


def test_element_sum_matches_brute_force():
    for G in abelian_groups_in_range(1, 32):
        acc = G.zero()
        for e in G.elements():
            acc = G.add(acc, e)
        assert G.element_sum() == acc


def test_element_sum_nonzero_iff_one_even_factor():
    for G in abelian_groups_in_range(2, 64):
        evens = sum(1 for m in G.invariant_factors if m % 2 == 0)
        nonzero = G.element_sum() != G.zero()
        assert nonzero == (evens == 1)
        assert nonzero == (G.count_by_order(2) == 1)


def test_element_order_examples():
    assert group(6).element_order((4,)) == 3
    assert group(2, 4).element_order((1, 2)) == 2
    assert group(5).element_order((0,)) == 1


def test_count_by_order_examples():
    assert group(4).count_by_order(4) == 2
    assert group(2, 2).count_by_order(2) == 3
    assert group(6).count_by_order(5) == 0


def test_count_by_order_matches_enumeration():
    for G in abelian_groups_in_range(2, 64):
        fs = G.invariant_factors
        counts = {}
        for e in raw_elements(fs):
            if e == G.zero():
                counts[1] = counts.get(1, 0) + 1
            else:
                d = raw_order(fs, e)
                counts[d] = counts.get(d, 0) + 1
        n = G.order
        for d in range(1, n + 1):
            if n % d == 0:
                assert G.count_by_order(d) == counts.get(d, 0), (G, d)
        assert sum(counts.values()) == n


def test_two_torsion_examples():
    assert group(4).two_torsion_count() == 2
    assert group(2, 2).two_torsion_count() == 4
    assert group(9).two_torsion_count() == 1


def test_doubled_subgroup_size():
    # |2G| * |{g : 2g = 0}| = |G|
    for G in abelian_groups_in_range(1, 36):
        doubled = {G.scalar_mul(2, t) for t in G.elements()}
        assert len(doubled) * G.two_torsion_count() == G.order


# -- isomorphism class enumeration ----------------------------------------------

def test_abelian_groups_examples():
    assert [g.invariant_factors for g in abelian_groups(8)] == [(8,), (2, 4), (2, 2, 2)]
    assert [g.invariant_factors for g in abelian_groups(6)] == [(6,)]
    assert [g.invariant_factors for g in abelian_groups_in_range(3, 5)] == [
        (3,), (4,), (2, 2), (5,)
    ]


def _partition_count(k):
    counts = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            counts[total] += counts[total - part]
    return counts[k]


def test_abelian_group_count_is_partition_product():
    for n in range(1, 65):
        expected = 1
        m = n
        p = 2
        while p * p <= m:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            if a:
                expected *= _partition_count(a)
            p += 1
        if m > 1:
            expected *= _partition_count(1)
        assert len(abelian_groups(n)) == expected, n


# -- subgroup closure -------------------------------------------------------------

def test_span_examples():
    G = group(6)
    assert span(G, [(2,)]) == {(0,), (2,), (4,)}
    assert span(G, []) == {(0,)}
    assert span(G, [(1,)]) == set(G.elements())
    G = group(2, 4)
    assert span(G, [(0, 2), (1, 0)]) == {(0, 0), (0, 2), (1, 0), (1, 2)}


# -- validated element input -------------------------------------------------------

@pytest.mark.parametrize("factors, bad", [
    ((6,), (True,)), ((6,), (1.0,)), ((6,), (np.int64(1),)),  # each equals (1,)
    ((6,), (6,)), ((6,), (-1,)), ((2, 4), (0, 4)),  # out of range
    ((6,), (1, 0)), ((6,), ()), ((2, 4), (1,)),  # the wrong length
])
def test_element_indices_refuse_what_contains_refuses(factors, bad):
    G = group(*factors)
    assert not G.contains(bad)
    with pytest.raises(ValueError, match="not an element"):
        _element_indices(G, [G.elements()[1], bad])


def test_element_indices_are_ascending_and_distinct():
    G = group(2, 4)
    els = G.elements()
    assert _element_indices(G, [(1, 3), (0, 1), (1, 3)]) == (1, 7)
    assert _element_indices(G, (a for a in reversed(els))) == tuple(range(8))
    assert _element_indices(G, [[1, 0], [0, 0], (1, 0)]) == (0, 4)  # list items
    assert _element_indices(G, []) == ()
    assert _element_indices(group(), [()]) == (0,)


# -- order floors ----------------------------------------------------------------

# entry point -> (its least order, a call on a group G)
_ORDER_FLOORS = {
    "find_rainbow_diff_path": (2, find_rainbow_diff_path),
    "find_rainbow_sum_cycle": (2, find_rainbow_sum_cycle),
    "find_rainbow_diff_cycle_nonzero": (3, find_rainbow_diff_cycle_nonzero),
    "is_hamiltonian_cayley": (2, lambda G: is_hamiltonian_cayley(G, [])),
    "classify_small_connection_set": (3, lambda G: classify_small_connection_set(G, [])),
    "minimum_connection_size": (2, minimum_connection_size),
    "expected_distinct_diffs": (2, expected_distinct_diffs),
    "expected_distinct_sums": (2, expected_distinct_sums),
    "monte_carlo_estimate": (3, lambda G: monte_carlo_estimate(G, "diff", 10, 0)),
}


@pytest.mark.parametrize("least, call", _ORDER_FLOORS.values(), ids=_ORDER_FLOORS.keys())
def test_each_entry_point_refuses_an_order_below_its_floor(least, call):
    with pytest.raises(ValueError, match=rf"^need \|G\| >= {least}$"):
        call(group(least - 1))
