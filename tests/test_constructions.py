"""Builder outputs: pinned sequences plus contract checks over order sweeps."""

import re

import pytest

from hamlabels import (
    abelian_groups_in_range,
    constructions,
    diff_labels,
    elementary_abelian8_cycle,
    fewest_diffs_cycle,
    fewest_sums_cycle_even,
    fewest_sums_cycle_odd,
    group,
    is_rainbow_diff_path,
    is_rainbow_sum_cycle,
    is_rainbow_sum_path,
    rainbow_sum_cycle_odd,
    rainbow_sum_path,
    sum_labels,
    verify,
    zigzag_diff_path,
)

SWEEP_MAX = 64  # full 512-order sweeps run in the acceptance suite


def _full_cover(t):
    return t.covers_group and len(set(t.vertices)) == t.group.order


# -- fewest distinct differences ------------------------------------------------

def test_fewest_diffs_cyclic_is_natural_order():
    t = fewest_diffs_cycle(group(5))
    assert t.vertices == ((0,), (1,), (2,), (3,), (4,))
    assert diff_labels(t).distinct_count == 1


def test_fewest_diffs_klein_pinned_sequence():
    t = fewest_diffs_cycle(group(2, 2))
    assert t.vertices == ((0, 0), (0, 1), (1, 1), (1, 0))
    assert diff_labels(t).distinct_count == 2


def test_fewest_diffs_rank_two_mixed():
    t = fewest_diffs_cycle(group(2, 6))
    assert _full_cover(t)
    assert diff_labels(t).distinct_count == 2


def test_fewest_diffs_sweep():
    for G in abelian_groups_in_range(2, SWEEP_MAX):
        t = fewest_diffs_cycle(G)
        assert _full_cover(t)
        assert diff_labels(t).distinct_count == G.rank, G


# -- fewest distinct sums, even order ---------------------------------------------

def test_fewest_sums_even_cyclic4():
    t = fewest_sums_cycle_even(group(4))
    assert t.vertices == ((0,), (1,), (2,), (3,))
    assert set(sum_labels(t).labels) == {(1,), (3,)}


def test_fewest_sums_even_examples():
    assert sum_labels(fewest_sums_cycle_even(group(2, 2))).distinct_count == 2
    assert sum_labels(fewest_sums_cycle_even(group(4, 4))).distinct_count == 3


def test_fewest_sums_even_order_two():
    t = fewest_sums_cycle_even(group(2))
    assert sum_labels(t).distinct_count == 1


def test_fewest_sums_even_sweep():
    for G in abelian_groups_in_range(4, SWEEP_MAX):
        if G.order % 2:
            continue
        t = fewest_sums_cycle_even(G)
        want = G.rank if G.invariant_factors[0] == 2 else G.rank + 1
        assert _full_cover(t)
        assert sum_labels(t).distinct_count == want, G


# -- few distinct sums, odd order ----------------------------------------------------

def test_fewest_sums_odd_pinned_zigzags():
    t = fewest_sums_cycle_odd(group(9))
    assert t.vertices == tuple((x,) for x in (0, 1, 8, 2, 7, 3, 6, 4, 5))
    assert set(sum_labels(t).labels) == {(0,), (1,), (5,)}

    t = fewest_sums_cycle_odd(group(5))
    assert t.vertices == tuple((x,) for x in (0, 1, 4, 2, 3))
    assert sum_labels(t).distinct_count == 3


def test_fewest_sums_odd_pinned_rank_two():
    # the zigzag on Z3 at 0, then one alternating double-pass over it at 1 and 2
    t = fewest_sums_cycle_odd(group(3, 3))
    assert t.vertices == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (2, 1),
                          (0, 2), (1, 1), (2, 2))
    assert set(sum_labels(t).labels) == {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)}


def test_fewest_sums_odd_rank_two_bound():
    t = fewest_sums_cycle_odd(group(3, 3))
    assert sum_labels(t).distinct_count <= 5


def test_fewest_sums_odd_sweep():
    for G in abelian_groups_in_range(3, SWEEP_MAX):
        if G.order % 2 == 0:
            continue
        t = fewest_sums_cycle_odd(G)
        got = sum_labels(t).distinct_count
        assert _full_cover(t)
        assert got <= 2 * G.rank + 1, G
        if G.is_cyclic:
            assert got == 3


# -- rainbow-sum constructions ---------------------------------------------------------

def test_rainbow_sum_path_pinned_z4():
    t = rainbow_sum_path(group(4))
    assert t.vertices == ((0,), (2,), (1,), (3,))
    assert set(sum_labels(t).labels) == {(2,), (3,), (0,)}
    assert is_rainbow_sum_path(t)


def test_rainbow_sum_path_order_two():
    t = rainbow_sum_path(group(2))
    assert t.vertices == ((0,), (1,))


def test_rainbow_sum_path_twelve():
    # one invariant factor, so H is trivial and the path is one pass over Z12
    t = rainbow_sum_path(group(12))
    assert t.vertices == tuple((x,) for x in (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11))
    assert sum_labels(t).distinct_count == 11
    assert is_rainbow_sum_path(t)


def test_rainbow_sum_path_pinned_z3x12():
    # a pass over Z12 per vertex of the rainbow-sum cycle 0, 1, 2 on Z3,
    # the second one shifted by 6
    t = rainbow_sum_path(group(3, 12))
    first = (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)
    second = (6, 0, 7, 1, 8, 2, 9, 3, 10, 4, 11, 5)
    assert t.vertices[:24] == tuple((0, c) for c in first) + tuple((1, c) for c in second)
    assert is_rainbow_sum_path(t)


def test_rainbow_sum_path_sweep():
    for G in abelian_groups_in_range(2, SWEEP_MAX):
        if G.element_sum() == G.zero():
            continue
        t = rainbow_sum_path(G)
        assert _full_cover(t) and is_rainbow_sum_path(t), G


def test_rainbow_sum_cycle_odd_cyclic_is_natural():
    t = rainbow_sum_cycle_odd(group(5))
    assert t.vertices == ((0,), (1,), (2,), (3,), (4,))
    assert is_rainbow_sum_cycle(t)
    assert rainbow_sum_cycle_odd(group(3)).vertices == ((0,), (1,), (2,))
    # and at every rank: lexicographic order
    for G in abelian_groups_in_range(3, 125):
        if G.order % 2:
            assert rainbow_sum_cycle_odd(G).vertices == G.elements(), G


def test_rainbow_sum_cycle_odd_noncyclic():
    t = rainbow_sum_cycle_odd(group(3, 3))
    assert is_rainbow_sum_cycle(t)
    assert _full_cover(t)


def test_rainbow_sum_cycle_odd_sweep():
    for G in abelian_groups_in_range(3, SWEEP_MAX):
        if G.order % 2 == 0:
            continue
        assert is_rainbow_sum_cycle(rainbow_sum_cycle_odd(G)), G


# -- special builders ---------------------------------------------------------------------

def test_elementary_abelian8_cycle():
    t = elementary_abelian8_cycle(group(2, 2, 2))
    assert sum_labels(t).distinct_count == 6
    # sums and differences coincide when every element is its own inverse
    assert diff_labels(t).distinct_count == 6
    assert _full_cover(t)


def test_zigzag_diff_path_pinned():
    t = zigzag_diff_path(group(4))
    assert t.vertices == ((0,), (1,), (3,), (2,))
    assert set(diff_labels(t).labels) == {(1,), (2,), (3,)}

    t = zigzag_diff_path(group(6))
    assert t.vertices == tuple((x,) for x in (0, 1, 5, 2, 4, 3))
    assert is_rainbow_diff_path(t)

    assert zigzag_diff_path(group(2)).vertices == ((0,), (1,))


def test_zigzag_closure_has_max_diffs():
    from hamlabels import Trail

    for n in range(2, SWEEP_MAX, 2):
        G = group(n)
        t = zigzag_diff_path(G)
        closed = Trail(G, t.vertices, cyclic=True)
        assert diff_labels(closed).distinct_count == n - 1, n


# -- applicability table ---------------------------------------------------------

def test_applies_names_every_builder():
    assert list(constructions.APPLIES) == list(constructions.BUILDERS)


def test_applies_holds_exactly_when_the_builder_builds():
    for G in abelian_groups_in_range(1, SWEEP_MAX):
        for name, build in constructions.BUILDERS.items():
            applies, needs = constructions.APPLIES[name]
            if applies(G):
                assert build(G).group == G, (name, G)
            else:
                with pytest.raises(ValueError, match=re.escape(needs)):
                    build(G)


def test_verify_runs_every_builder_the_table_admits(monkeypatch):
    def broken(G):
        raise constructions.ConstructionError(f"fake failed self-verification on {G}")

    monkeypatch.setitem(constructions.BUILDERS, "fake", broken)
    monkeypatch.setitem(constructions.APPLIES, "fake", (lambda G: True, "any group"))
    [rec] = [r for r in verify.verify_group(group(3)) if r.check == "constructions-verify"]
    assert rec.verdict == verify.FAIL
    assert rec.measured == "fake failed self-verification on Z3"
