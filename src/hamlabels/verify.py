"""Executable checks of every structural claim the library is built around.

Each check compares a predicted value or bound against a measured one and
yields a VerificationRecord with a pass or fail verdict.  No check runs
under a node budget: every order verified is at most ``MAX_SCAN_ORDER``,
where the Hamiltonicity search is exact and unbudgeted, so no verdict is
inconclusive.  The minimum connection-set check predicts the bracket
``search._size_bounds`` starts the search from, so it also asks every
smaller set: a Hamiltonian one fails the record.  It shares one answer
per set with the pair-rule check, which asks the sets of size 0 to 2.
The constructions check runs every builder that ``constructions.APPLIES``
admits for the group, in ``BUILDERS`` order, so a builder added to both
tables is verified with no change here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from . import constructions
from .expectation import (
    RESIDUAL_BOUND,
    _residual,
    count_constrained_cycles,
    expected_distinct_diffs,
    expected_distinct_sums,
    format_rational,
)
from .groups import GroupSpec, abelian_groups_in_range
from .search import (
    ExtremalReport,
    _check_scan_order,
    _is_connected_bfs,
    _is_connected_structural,
    _size_bounds,
    classify_small_connection_set,
    enumerate_cycles,
    extremal_scan,
    is_hamiltonian_cayley,
    minimum_connection_size,
)

__all__ = ["VerificationRecord", "verify_group", "verify_orders", "PASS", "FAIL"]

PASS = "pass"
FAIL = "fail"

_CHAIN_CHECK_MAX_ORDER = 7
_PAIR_CHECK_MAX_ORDER = 12
_CONNECTIVITY_EXHAUSTIVE_MAX = 8
_CONNECTIVITY_SAMPLES = 2000


@dataclass
class VerificationRecord:
    check: str
    group: GroupSpec
    predicted: str
    measured: str
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "group": str(self.group),
            "predicted": self.predicted,
            "measured": self.measured,
            "verdict": self.verdict,
        }

    # columns of the CSV rendering, named as in to_json_dict
    CSV_HEADER = "check,group,predicted,measured,verdict"


def _rec(check: str, G: GroupSpec, predicted: str, measured: str, ok: bool) -> VerificationRecord:
    return VerificationRecord(check, G, predicted, measured, PASS if ok else FAIL)


def _has_noncyclic_eight_sylow(G: GroupSpec) -> bool:
    exps = []
    for m in G.invariant_factors:
        e = 0
        while m % 2 == 0:
            m //= 2
            e += 1
        if e:
            exps.append(e)
    return sum(exps) == 3 and len(exps) >= 2


def _check_extremals(G: GroupSpec, rep: ExtremalReport) -> list[VerificationRecord]:
    n, r = G.order, G.rank
    sigma_zero = G.element_sum() == G.zero()
    out = [
        _rec("min-diffs-equals-rank", G, str(r), str(rep.min_distinct_diffs),
             rep.min_distinct_diffs == r)
    ]
    if _has_noncyclic_eight_sylow(G):
        out.append(_rec("max-diffs-drop", G, f"<={n - 2}",
                        str(rep.max_distinct_diffs),
                        rep.max_distinct_diffs <= n - 2))
    else:
        want = n - 1 if not sigma_zero else n - 2
        out.append(_rec("max-diffs-drop", G, str(want),
                        str(rep.max_distinct_diffs),
                        rep.max_distinct_diffs == want))
    if sigma_zero and not G.is_elementary_abelian_2:
        want = n
    elif not sigma_zero:
        want = n - 1
    else:
        want = n - 2
    out.append(_rec("max-sums-three-case", G, str(want),
                    str(rep.max_distinct_sums), rep.max_distinct_sums == want))
    return out


def _check_expectations(G: GroupSpec, rep: ExtremalReport) -> list[VerificationRecord]:
    drnd = expected_distinct_diffs(G)
    srnd = expected_distinct_sums(G)
    out = [
        _rec("mean-diffs-exact", G, format_rational(drnd),
             format_rational(rep.mean_distinct_diffs), drnd == rep.mean_distinct_diffs),
        _rec("mean-sums-exact", G, format_rational(srnd),
             format_rational(rep.mean_distinct_sums), srnd == rep.mean_distinct_sums),
    ]
    rd = _residual(drnd, G.order)
    rs = _residual(srnd, G.order)
    out.append(_rec("residual-bounded", G, f"|r|<={RESIDUAL_BOUND}",
                    f"diff={rd} sum={rs}",
                    abs(rd) <= RESIDUAL_BOUND and abs(rs) <= RESIDUAL_BOUND))
    return out


def _hamiltonian_once(G: GroupSpec):
    """``is_hamiltonian_cayley(G, S)[0]``, asked once per set S and then
    answered from memory, so checks sharing it share their searches."""
    answers: dict[frozenset, bool] = {}

    def ask(S) -> bool:
        key = frozenset(S)
        if key not in answers:
            answers[key] = is_hamiltonian_cayley(G, S)[0]
        return answers[key]
    return ask


def _check_min_connection(G: GroupSpec, hamiltonian=None) -> list[VerificationRecord]:
    hamiltonian = hamiltonian or _hamiltonian_once(G)
    lower, upper = _size_bounds(G)
    size = minimum_connection_size(G).size
    for k in range(1, lower):
        if any(hamiltonian(S) for S in itertools.combinations(G.elements(), k)):
            size = k
            break
    predicted = str(lower) if lower == upper else f"[{lower}..{upper}]"
    out = [_rec("min-connection-size", G, predicted, str(size), lower <= size <= upper)]
    if G.is_cyclic and G.order >= 3:
        want = 2 if G.order % 2 == 0 else 3
        out.append(_rec("min-connection-cyclic", G, str(want), str(size), size == want))
    return out


def _check_forced_steps(G: GroupSpec) -> VerificationRecord:
    """Forced-step cycle counts against filtered enumeration, |A| <= 3."""
    gi = G.indexed
    els = gi.els
    steps = range(1, gi.n)  # the nonzero step elements g, by index
    # (g, A) -> cycles in which every a in A is followed by a + g
    observed: Counter = Counter()
    for trail in enumerate_cycles(G):
        verts = [gi.index[v] for v in trail.vertices]
        forced: dict[int, list[int]] = {g: [] for g in steps}
        for a, b in zip(verts, verts[1:] + verts[:1]):
            forced[int(gi.diff[a, b])].append(a)
        for g in steps:
            for size in range(min(3, len(forced[g])) + 1):
                for A in itertools.combinations(forced[g], size):
                    observed[g, frozenset(A)] += 1
    checked = agree = 0
    for g in steps:
        for size in range(4):
            for A in itertools.combinations(range(gi.n), size):
                checked += 1
                expected = count_constrained_cycles(G, els[g], [els[a] for a in A])
                if observed[g, frozenset(A)] == expected:
                    agree += 1
    return _rec("forced-step-counts", G, f"{checked} agree",
                f"{agree}/{checked} agree", agree == checked)


def _check_pair_rule(G: GroupSpec, hamiltonian) -> VerificationRecord:
    els = G.elements()
    checked = agree = 0
    for size in (0, 1, 2):
        for S in itertools.combinations(els, size):
            checked += 1
            want = hamiltonian(S)
            got = classify_small_connection_set(G, S)
            if want == got:
                agree += 1
    return _rec("pair-connection-rule", G, f"{checked} agree",
                f"{agree}/{checked} agree", agree == checked)


def _check_connectivity(G: GroupSpec) -> VerificationRecord:
    """The two connectivity kernels against each other, on sorted index
    tuples: every subset up to ``_CONNECTIVITY_EXHAUSTIVE_MAX``, else
    seeded samples, one draw per element in index order."""
    n = G.order
    checked = agree = 0
    if n <= _CONNECTIVITY_EXHAUSTIVE_MAX:
        subsets = []
        for size in range(n + 1):
            subsets.extend(itertools.combinations(range(n), size))
    else:
        rng = random.Random(0xC0FFEE ^ n)
        subsets = [
            tuple(i for i in range(n) if rng.random() < 0.5)
            for _ in range(_CONNECTIVITY_SAMPLES)
        ]
    for idx in subsets:
        checked += 1
        if _is_connected_structural(G, idx) == _is_connected_bfs(G, idx):
            agree += 1
    return _rec("connectivity-two-ways", G, f"{checked} agree",
                f"{agree}/{checked} agree", agree == checked)


def _check_constructions(G: GroupSpec) -> VerificationRecord:
    """Run every builder that applies to G, in BUILDERS order; builders self-verify."""
    ran = [name for name in constructions.BUILDERS if constructions.APPLIES[name][0](G)]
    try:
        for name in ran:
            constructions.BUILDERS[name](G)
    except constructions.ConstructionError as exc:
        return _rec("constructions-verify", G, "all builders verify", str(exc), False)
    return _rec("constructions-verify", G, "all builders verify",
                f"verified: {' '.join(ran)}", True)


def verify_group(G: GroupSpec, *, threads: int = 1) -> list[VerificationRecord]:
    """All checks applicable to a single group."""
    rep = extremal_scan(G, threads=threads)
    hamiltonian = _hamiltonian_once(G)  # the two connection-set checks share sets
    records = []
    records.extend(_check_extremals(G, rep))
    records.extend(_check_expectations(G, rep))
    records.extend(_check_min_connection(G, hamiltonian))
    records.append(_check_constructions(G))
    if G.order <= _CHAIN_CHECK_MAX_ORDER:
        records.append(_check_forced_steps(G))
    if G.order <= _PAIR_CHECK_MAX_ORDER:
        records.append(_check_pair_rule(G, hamiltonian))
    records.append(_check_connectivity(G))
    return records


def verify_orders(lo: int, hi: int, *, threads: int = 1) -> list[VerificationRecord]:
    """Run the full battery over every abelian group with lo <= |G| <= hi."""
    if lo < 3:
        raise ValueError("verification starts at order 3")
    _check_scan_order(hi)
    records = []
    for G in abelian_groups_in_range(lo, hi):
        records.extend(verify_group(G, threads=threads))
    return records
