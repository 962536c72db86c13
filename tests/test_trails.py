"""Trail validation, label multisets, rainbow predicates, canonical keys."""

import itertools
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hamlabels import (
    Trail,
    abelian_groups_in_range,
    canonical_cycle_key,
    diff_labels,
    find_rainbow_diff_cycle_nonzero,
    find_rainbow_diff_path,
    find_rainbow_sum_cycle,
    group,
    is_rainbow_diff_cycle,
    is_rainbow_diff_path,
    is_rainbow_sum_cycle,
    is_rainbow_sum_path,
    sum_labels,
    trail_to_json_dict,
)

from oracles import raw_add, raw_diff_labels, raw_sum_labels, trail_from_json_dict


def cyc(G, *verts):
    return Trail(G, tuple(verts), cyclic=True)


def opn(G, *verts):
    return Trail(G, tuple(verts), cyclic=False)


# -- validation ---------------------------------------------------------------

def test_trail_rejects_duplicates():
    with pytest.raises(ValueError):
        cyc(group(4), (0,), (1,), (0,))


def test_trail_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        cyc(group(3), (0,), (3,))
    with pytest.raises(ValueError):
        cyc(group(2, 2), (0,), (1,))


def test_trail_rejects_non_integer_residues():
    # in range but not an integer residue: 2.5 and the bool True (== 1)
    with pytest.raises(ValueError):
        cyc(group(4), (0,), (1,), (2,), (2.5,))
    with pytest.raises(ValueError):
        cyc(group(4), (0,), (True,), (2,), (3,))
    with pytest.raises(ValueError):
        cyc(group(2, 2), (0, 0), (0, 1), (1, 0), (1.0, 1))


def test_label_sets_need_two_vertices():
    t = Trail(group(5), ((0,),), cyclic=False)
    with pytest.raises(ValueError):
        sum_labels(t)
    with pytest.raises(ValueError):
        diff_labels(t)


# -- label multisets -------------------------------------------------------------

def test_sum_labels_examples():
    ls = sum_labels(cyc(group(3), (0,), (1,), (2,)))
    assert ls.labels == {(1,): 1, (0,): 1, (2,): 1}
    assert ls.distinct_count == 3

    ls = sum_labels(cyc(group(4), (0,), (1,), (2,), (3,)))
    assert ls.labels == {(1,): 2, (3,): 2}
    assert ls.distinct_count == 2

    ls = sum_labels(opn(group(4), (0,), (2,), (1,), (3,)))
    assert ls.labels == {(2,): 1, (3,): 1, (0,): 1}
    assert ls.distinct_count == 3


def test_diff_labels_examples():
    ls = diff_labels(cyc(group(5), (0,), (1,), (2,), (3,), (4,)))
    assert ls.labels == {(1,): 5}
    assert ls.distinct_count == 1

    ls = diff_labels(cyc(group(4), (0,), (1,), (3,), (2,)))
    assert ls.labels == {(1,): 1, (2,): 2, (3,): 1}
    assert ls.distinct_count == 3

    ls = diff_labels(cyc(group(2), (0,), (1,)))
    assert ls.labels == {(1,): 2}
    assert ls.distinct_count == 1


def test_label_totals_match_edge_count():
    t = cyc(group(4), (0,), (2,), (1,), (3,))
    assert sum(sum_labels(t).labels.values()) == 4
    p = opn(group(4), (0,), (2,), (1,), (3,))
    assert sum(sum_labels(p).labels.values()) == 3


def _oracle_labels(raw_labels, t):
    # the oracle's labels counted in edge order, so the first-seen order of
    # the package's label dict is compared too
    return list(Counter(raw_labels(t.group.invariant_factors, t.vertices, t.cyclic)).items())


def test_label_functions_match_the_oracles():
    # random cycles through every element and random paths through some,
    # on every group of order 2..32, and the three long rainbow witnesses:
    # the labels are reduced modulo each invariant factor, in edge order
    rng = random.Random(32)
    trails = [find_rainbow_diff_path(group(18)).trail,
              find_rainbow_diff_cycle_nonzero(group(23)).trail,
              find_rainbow_sum_cycle(group(401)).trail]
    for G in abelian_groups_in_range(2, 32):
        els = G.elements()
        for _ in range(3):
            trails.append(Trail(G, tuple(rng.sample(els, len(els))), cyclic=True))
            trails.append(Trail(G, tuple(rng.sample(els, rng.randint(2, len(els)))),
                                cyclic=False))
    for t in trails:
        assert list(sum_labels(t).labels.items()) == _oracle_labels(raw_sum_labels, t), t
        assert list(diff_labels(t).labels.items()) == _oracle_labels(raw_diff_labels, t), t


# -- rainbow predicates ------------------------------------------------------------

def test_rainbow_examples():
    assert is_rainbow_sum_cycle(cyc(group(5), (0,), (1,), (2,), (3,), (4,)))
    assert is_rainbow_diff_path(opn(group(4), (0,), (1,), (3,), (2,)))
    assert not is_rainbow_diff_cycle(cyc(group(3), (0,), (1,), (2,)))


def test_rainbow_predicates_enforce_kind():
    c = cyc(group(3), (0,), (1,), (2,))
    p = opn(group(3), (0,), (1,), (2,))
    with pytest.raises(ValueError):
        is_rainbow_sum_cycle(p)
    with pytest.raises(ValueError):
        is_rainbow_diff_path(c)
    with pytest.raises(ValueError):
        is_rainbow_sum_path(c)


# -- structural label identities ------------------------------------------------------

_SMALL_GROUPS = [group(5), group(6), group(2, 2), group(8), group(2, 4), group(3, 3)]


@st.composite
def full_cycle(draw):
    G = draw(st.sampled_from(_SMALL_GROUPS))
    verts = draw(st.permutations(list(G.elements())))
    return Trail(G, tuple(verts), cyclic=True)


@settings(max_examples=60)
@given(full_cycle())
def test_full_cycle_label_sums(t):
    G = t.group
    fs = G.invariant_factors

    def total(label_set):  # the group sum of the labels, with multiplicity
        acc = G.zero()
        for lab, mult in label_set.labels.items():
            for _ in range(mult):
                acc = raw_add(fs, acc, lab)
        return acc

    assert total(diff_labels(t)) == G.zero()
    assert total(sum_labels(t)) == raw_add(fs, G.element_sum(), G.element_sum())


@settings(max_examples=60)
@given(full_cycle(), st.integers(min_value=0, max_value=47))
def test_translation_and_negation_symmetries(t, k):
    G = t.group
    shift = G.elements()[k % G.order]
    translated = Trail(G, tuple(G.add(v, shift) for v in t.vertices), cyclic=True)
    # differences are translation-invariant; sums shift by 2t
    assert diff_labels(translated).labels == diff_labels(t).labels
    double = G.scalar_mul(2, shift)
    expected = {G.add(lab, double): m for lab, m in sum_labels(t).labels.items()}
    assert sum_labels(translated).labels == expected

    negated = Trail(G, tuple(G.neg(v) for v in t.vertices), cyclic=True)
    assert sum_labels(negated).labels == {
        G.neg(lab): m for lab, m in sum_labels(t).labels.items()
    }
    assert diff_labels(negated).labels == {
        G.neg(lab): m for lab, m in diff_labels(t).labels.items()
    }
    assert sum_labels(negated).distinct_count == sum_labels(t).distinct_count
    assert diff_labels(negated).distinct_count == diff_labels(t).distinct_count


@settings(max_examples=60)
@given(full_cycle())
def test_reversal_symmetry(t):
    G = t.group
    rev = Trail(G, tuple(reversed(t.vertices)), cyclic=True)
    assert sum_labels(rev).labels == sum_labels(t).labels
    assert diff_labels(rev).labels == {
        G.neg(lab): m for lab, m in diff_labels(t).labels.items()
    }


# -- canonical cycle keys ----------------------------------------------------------------

def test_canonical_key_examples():
    G = group(3)
    assert canonical_cycle_key(cyc(G, (2,), (0,), (1,))) == ((0,), (1,), (2,))
    a = canonical_cycle_key(cyc(G, (0,), (1,), (2,)))
    b = canonical_cycle_key(cyc(G, (0,), (2,), (1,)))
    assert a != b  # orientations are distinct cycles
    assert canonical_cycle_key(cyc(group(2), (0,), (1,))) == ((0,), (1,))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_canonical_key_partitions_representations(n):
    G = group(n)
    keys = {}
    for perm in itertools.permutations(G.elements()):
        key = canonical_cycle_key(Trail(G, perm, cyclic=True))
        keys.setdefault(key, 0)
        keys[key] += 1
    assert len(keys) == factorial(n - 1)
    assert all(v == n for v in keys.values())


def _least_rotation(t):
    verts = t.vertices
    return min(verts[i:] + verts[:i] for i in range(len(verts)))


@st.composite
def subset_cycle(draw):
    G = draw(st.sampled_from(_SMALL_GROUPS))
    verts = draw(st.permutations(list(G.elements())))
    size = draw(st.integers(min_value=1, max_value=G.order))
    return Trail(G, tuple(verts[:size]), cyclic=True)


@settings(max_examples=100)
@given(subset_cycle())
def test_canonical_key_is_the_least_rotation(t):
    assert canonical_cycle_key(t) == _least_rotation(t)


@pytest.mark.parametrize("factors", [(5,), (7,), (11,), (3, 3)])
def test_canonical_key_of_rotated_nonzero_cycles(factors):
    # cycles on the nonzero elements: the least vertex is not 0
    t = find_rainbow_diff_cycle_nonzero(group(*factors)).trail
    for i in range(len(t.vertices)):
        rotated = Trail(t.group, t.vertices[i:] + t.vertices[:i], cyclic=True)
        assert canonical_cycle_key(rotated) == _least_rotation(t)


# -- serialization ----------------------------------------------------------------------

def test_trail_json_roundtrip_rotates_to_canonical():
    G = group(2, 2)
    t = cyc(G, (1, 0), (0, 0), (0, 1), (1, 1))
    d = trail_to_json_dict(t)
    assert d["kind"] == "cyclic"
    assert d["vertices"][0] == [0, 0]
    back = trail_from_json_dict(d)
    assert canonical_cycle_key(back) == canonical_cycle_key(t)
    assert back.group == G


def test_trail_from_json_refuses_non_integer_group():
    d = {"group": [4.0], "kind": "cyclic", "vertices": [[0], [1], [2], [3]]}
    with pytest.raises(ValueError):
        trail_from_json_dict(d)


@pytest.mark.parametrize("kind", ["cyclc", "Cyclic", "", None])
def test_trail_from_json_refuses_unknown_kind(kind):
    d = {"group": [4], "kind": kind, "vertices": [[0], [1], [2], [3]]}
    with pytest.raises(ValueError, match="kind"):
        trail_from_json_dict(d)


def test_open_trail_json_keeps_order():
    G = group(4)
    t = opn(G, (2,), (0,), (1,))
    d = trail_to_json_dict(t)
    assert d["vertices"] == [[2], [0], [1]]
    assert trail_from_json_dict(d).vertices == t.vertices
