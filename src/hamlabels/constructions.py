"""Deterministic cycle and path builders with verified output contracts.

Each builder holds on one class of groups, written down once in
``APPLIES``: a builder refuses any other group with ValueError, and
``verify`` and ``construct`` read the same table to decide which builders
run.  Every builder checks its own postcondition (label counts, rainbow
property, full cover) before returning and raises ConstructionError
otherwise, so a bug here cannot leak into downstream reports.

The builders follow the paper's inductive proofs: each one that walks the
invariant factors starts from ``[()]``, the trivial group's one-vertex
cycle, and folds in one cyclic factor at a time, so no group needs a base
case of its own and no builder calls another.
"""

from __future__ import annotations

from .groups import GroupSpec
from .trails import (
    Trail,
    diff_labels,
    is_rainbow_diff_path,
    is_rainbow_sum_cycle,
    is_rainbow_sum_path,
    sum_labels,
)

__all__ = [
    "ConstructionError",
    "fewest_diffs_cycle",
    "fewest_sums_cycle_even",
    "fewest_sums_cycle_odd",
    "rainbow_sum_path",
    "rainbow_sum_cycle_odd",
    "elementary_abelian8_cycle",
    "zigzag_diff_path",
    "APPLIES",
    "BUILDERS",
]


class ConstructionError(RuntimeError):
    """A builder produced output violating its own contract."""


_ODD = (lambda G: G.order % 2 == 1 and not G.is_trivial, "odd order >= 3")

# builder name -> (whether it applies to G, what it needs of G)
APPLIES = {
    "min-diff": (lambda G: not G.is_trivial, "order >= 2"),
    "even-smin": (lambda G: G.order % 2 == 0, "even order"),
    "odd-smin": _ODD,
    "rs-path": (lambda G: sum(m % 2 == 0 for m in G.invariant_factors) == 1,
                "exactly one even invariant factor"),
    "rs-cycle": _ODD,
    "rd-zigzag": (lambda G: G.is_cyclic and G.order % 2 == 0,
                  "a cyclic group of even order"),
    "e8-cycle": (lambda G: G.invariant_factors == (2, 2, 2), "Z2 x Z2 x Z2"),
}


def _require(name: str, G: GroupSpec) -> None:
    """Raise ValueError unless builder ``name`` applies to G."""
    applies, needs = APPLIES[name]
    if not applies(G):
        raise ValueError(f"{name} needs {needs}, got {G}")


def _verified(t: Trail, ok: bool, what: str) -> Trail:
    if not ok:
        raise ConstructionError(f"{what} failed self-verification on {t.group}")
    return t


# -- minimum number of distinct differences --------------------------------

def _layered_cycle(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle on Z_{f_1} + ... + Z_{f_k} using one new difference per factor.

    Starts from the trivial group's one-vertex cycle and folds in the
    factors right to left; each new coordinate j repeats the previous
    cycle once per residue, layer by layer.  When the layer count is a
    multiple of the inner cycle length the layers chain start-to-end
    (layer j starts j steps back, where layer j-1 left off); otherwise
    every layer restarts at the inner cycle's first vertex and the
    wrap-around difference of the inner cycle doubles as the
    layer-to-layer step.  Both variants add exactly one distinct
    difference; over the one-vertex cycle the first fold chains, giving
    the plain cycle 0, 1, ..., f_k - 1.
    """
    seq: list[tuple[int, ...]] = [()]
    for m in reversed(factors):
        n = len(seq)
        if m % n == 0:
            seq = [(j,) + seq[(k - j) % n] for j in range(m) for k in range(n)]
        else:
            seq = [(j,) + seq[k] for j in range(m) for k in range(n)]
    return seq


def fewest_diffs_cycle(G: GroupSpec) -> Trail:
    """A Hamiltonian cycle whose distinct consecutive differences number rank(G)."""
    _require("min-diff", G)
    t = Trail(G, tuple(_layered_cycle(G.invariant_factors)), cyclic=True)
    return _verified(t, diff_labels(t).distinct_count == G.rank, "fewest_diffs_cycle")


# -- minimum number of distinct sums, even order ----------------------------

def fewest_sums_cycle_even(G: GroupSpec) -> Trail:
    """Even-order cycle with rank(G) distinct sums if m_1 = 2, else rank(G)+1.

    Interleaves an index-2 subgroup H with its other coset: walk a
    fewest-diffs cycle h_1, ..., h_{|H|} on H and visit s - h_i after each
    h_i for a fixed s outside H.  Every second sum equals s and the rest
    are s plus a difference of the H-cycle.
    """
    _require("even-smin", G)
    fs = G.invariant_factors
    r = G.rank
    if fs[0] == 2:
        # H drops the order-2 coordinate: rank r-1 (trivial on Z2)
        inner = _layered_cycle(fs[1:])
        cycle_h = [(0,) + h for h in inner]
        s = (1,) + (0,) * (r - 1)
        want = r
    else:
        # H halves the last coordinate: rank stays r
        inner = _layered_cycle(fs[:-1] + (fs[-1] // 2,))
        cycle_h = [h[:-1] + (2 * h[-1],) for h in inner]
        s = (0,) * (r - 1) + (1,)
        want = r + 1
    verts = []
    for h in cycle_h:
        verts.append(h)
        verts.append(G.sub(s, h))
    t = Trail(G, tuple(verts), cyclic=True)
    return _verified(t, sum_labels(t).distinct_count == want, "fewest_sums_cycle_even")


# -- small number of distinct sums, odd order --------------------------------

def _zigzag(n: int) -> list[int]:
    """0, 1, n-1, 2, n-2, ...: every residue mod n once."""
    seq = [0]
    for i in range(1, n // 2 + 1):
        seq.append(i)
        if i != n - i:
            seq.append(n - i)
    return seq


def fewest_sums_cycle_odd(G: GroupSpec) -> Trail:
    """Odd-order cycle with at most 2*rank(G)+1 distinct sums (exactly 3 if cyclic).

    Starts from the trivial group's one-vertex cycle and folds in the
    factors left to right: each factor q = 2n+1 stitches n+1 alternating
    double-passes over the inner cycle, adding only the two sums
    h_m + h_1 + 1 and h_m + h_1 + (n+1).  Over the one-vertex cycle the
    first fold is the zigzag 0, 1, q-1, 2, q-2, ...
    """
    _require("odd-smin", G)
    verts: list[tuple[int, ...]] = [()]
    for q in G.invariant_factors:
        inner = verts
        verts = [h + (0,) for h in inner]
        for i in range(1, (q - 1) // 2 + 1):
            verts += [h + ((i if j % 2 == 0 else q - i),) for j, h in enumerate(inner)]
            verts += [h + ((q - i if j % 2 == 0 else i),) for j, h in enumerate(inner)]
    t = Trail(G, tuple(verts), cyclic=True)
    got = sum_labels(t).distinct_count
    ok = got <= 2 * G.rank + 1 and (not G.is_cyclic or got == 3)
    return _verified(t, ok, "fewest_sums_cycle_odd")


# -- rainbow-sum trails -------------------------------------------------------

def rainbow_sum_cycle_odd(G: GroupSpec) -> Trail:
    """A Hamiltonian cycle on an odd-order group with all sums distinct:
    G's elements in lexicographic order.

    For cyclic groups this is the natural order 0, 1, ..., n-1.  In
    general it repeats the lexicographic cycle on the leading factors
    blockwise, one block 0, 1, ..., q-1 of the last factor q per vertex
    h_i: for consecutive blocks the join sum h_i + h_{i+1} + (q-1)
    inherits distinctness from the inner cycle, and block-internal sums
    2h_i + c are separated because doubling is injective in odd order.
    """
    _require("rs-cycle", G)
    t = Trail(G, G.elements(), cyclic=True)
    return _verified(t, is_rainbow_sum_cycle(t), "rainbow_sum_cycle_odd")


def rainbow_sum_path(G: GroupSpec) -> Trail:
    """A Hamiltonian path with all |G|-1 consecutive sums distinct.

    Requires a single even invariant factor (nonzero element sum).  That
    factor is the last one, 2m, so G is H + Z_{2m} in its own coordinates,
    with H = Z_{m_1} + ... + Z_{m_{r-1}} of odd order.  A pass over Z_{2m}
    is 0,m,1,m+1,...,m-1,2m-1 or its shift by m; either one's sums are
    every residue but m-1.  Walk one pass per element h of H in
    lexicographic order, which is H's rainbow-sum cycle (the one-vertex
    cycle when H is trivial), alternating the two, and emit h + (c,).
    Inside a pass the sums are 2h + (c,) with c != m-1, distinct across
    passes because doubling is injective on the odd-order H.  Every join
    sum is h + h' + (m-1), with h, h' consecutive on the H-cycle, so the
    joins supply the one sum each pass misses, and they are distinct
    because the H-cycle's sums are.
    """
    _require("rs-path", G)
    fs = G.invariant_factors
    m = fs[-1] // 2
    first = []
    for i in range(m):
        first.extend((i, m + i))
    second = [(x + m) % (2 * m) for x in first]
    heads = GroupSpec(fs[:-1]).elements()
    verts = [h + (c,) for i, h in enumerate(heads) for c in (second if i % 2 else first)]
    t = Trail(G, tuple(verts), cyclic=False)
    return _verified(t, is_rainbow_sum_path(t), "rainbow_sum_path")


def elementary_abelian8_cycle(G: GroupSpec) -> Trail:
    """The 8-vertex cycle 0, g1, g2, g3, g1+g2, g1+g2+g3, g1+g3, g2+g3 over
    Z2^3, realizing six distinct sums."""
    _require("e8-cycle", G)
    verts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (1, 1, 0), (1, 1, 1), (1, 0, 1), (0, 1, 1))
    t = Trail(G, verts, cyclic=True)
    return _verified(t, sum_labels(t).distinct_count == 6, "elementary_abelian8_cycle")


def zigzag_diff_path(G: GroupSpec) -> Trail:
    """The classical terrace 0, 1, n-1, 2, n-2, ... on an even cyclic group.

    Its n-1 differences 1, n-2, 3, n-4, ... are pairwise distinct; closing
    the path gives a cycle with n-1 distinct differences.
    """
    _require("rd-zigzag", G)
    t = Trail(G, tuple((x,) for x in _zigzag(G.order)), cyclic=False)
    return _verified(t, is_rainbow_diff_path(t), "zigzag_diff_path")


# CLI-facing builder names
BUILDERS = {
    "min-diff": fewest_diffs_cycle,
    "even-smin": fewest_sums_cycle_even,
    "odd-smin": fewest_sums_cycle_odd,
    "rs-path": rainbow_sum_path,
    "rs-cycle": rainbow_sum_cycle_odd,
    "rd-zigzag": zigzag_diff_path,
    "e8-cycle": elementary_abelian8_cycle,
}
