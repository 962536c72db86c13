"""verify's cross-checks made to disagree, and the Sylow-8 prediction."""

import json
from types import SimpleNamespace

import pytest

from hamlabels import abelian_groups_in_range, group, verify
from hamlabels.cli import EXIT_FAIL, main


def test_connectivity_record_counts_every_pair_when_the_kernels_disagree(monkeypatch, capsys):
    calls = {"structural": 0, "bfs": 0}
    real_structural = verify._is_connected_structural
    real_bfs = verify._is_connected_bfs

    def structural(G, idx):
        calls["structural"] += 1
        return real_structural(G, idx)

    def bfs(G, idx):  # wrong on every singleton
        calls["bfs"] += 1
        return real_bfs(G, idx) != (len(idx) == 1)

    monkeypatch.setattr(verify, "_is_connected_structural", structural)
    monkeypatch.setattr(verify, "_is_connected_bfs", bfs)
    rec = verify._check_connectivity(group(4))
    # all 16 subsets of Z4 are asked, the 4 singletons disagree
    assert (rec.predicted, rec.measured, rec.verdict) == ("16 agree", "12/16 agree", verify.FAIL)
    assert calls == {"structural": 16, "bfs": 16}
    # and the failed records fail the run, one per group of order 4
    assert main(["verify", "--orders", "4..4"]) == EXIT_FAIL
    failed = [(r["check"], r["group"]) for r in json.loads(capsys.readouterr().out)["records"]
              if r["verdict"] == verify.FAIL]
    assert failed == [("connectivity-two-ways", "Z4"), ("connectivity-two-ways", "Z2 x Z2")]


def test_forced_step_record_counts_every_pair_when_the_counts_disagree(monkeypatch):
    real = verify.count_constrained_cycles
    monkeypatch.setattr(verify, "count_constrained_cycles",
                        lambda G, g, A: real(G, g, A) + (len(A) == 3))
    rec = verify._check_forced_steps(group(4))
    # 3 steps x (1 + 4 + 6 + 4) sets A, of which the 3 x 4 of size 3 disagree
    assert (rec.predicted, rec.measured, rec.verdict) == ("45 agree", "33/45 agree", verify.FAIL)


def test_pair_rule_record_counts_every_pair_when_the_rule_disagrees(monkeypatch):
    real = verify.classify_small_connection_set
    monkeypatch.setattr(verify, "classify_small_connection_set",
                        lambda G, S: real(G, S) != (len(S) == 2))
    G = group(4)
    rec = verify._check_pair_rule(G, verify._hamiltonian_once(G))
    # 1 + 4 + 6 sets of size 0, 1 and 2, of which the 6 pairs disagree
    assert (rec.predicted, rec.measured, rec.verdict) == ("11 agree", "5/11 agree", verify.FAIL)


def test_max_diffs_drop_is_a_bound_exactly_on_a_non_cyclic_sylow_8():
    # the 2-part of G by brute force: its elements are those of 2-power order
    rep = SimpleNamespace(min_distinct_diffs=0, max_distinct_diffs=0, max_distinct_sums=0)
    for G in abelian_groups_in_range(1, 200):
        two_part = [G.element_order(a) for a in G.elements()
                    if G.element_order(a) & (G.element_order(a) - 1) == 0]
        noncyclic_eight = len(two_part) == 8 and max(two_part) < 8
        [rec] = [r for r in verify._check_extremals(G, rep) if r.check == "max-diffs-drop"]
        assert rec.predicted.startswith("<=") == noncyclic_eight, G


@pytest.mark.parametrize("order", [1, 2, 14])
def test_verify_group_refuses_an_order_outside_the_battery_before_any_check(order, monkeypatch):
    calls = []
    real = verify.extremal_scan
    monkeypatch.setattr(verify, "extremal_scan",
                        lambda G, **kw: calls.append(str(G)) or real(G, **kw))
    with pytest.raises(ValueError):
        verify.verify_group(group(order))
    assert calls == []
