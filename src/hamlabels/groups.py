"""Finite abelian groups in invariant-factor form.

A group is described by its invariant factors (m_1, ..., m_r) with
m_1 | m_2 | ... | m_r and every m_i >= 2; the empty tuple is the trivial
group.  Elements are plain tuples of reduced residues, one per factor,
ordered lexicographically (index 0 is the zero element).  Everything here
is immutable and pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

Element = tuple[int, ...]

__all__ = [
    "Element",
    "GroupSpec",
    "GroupParseError",
    "group",
    "parse_group",
    "invariant_factors_of",
    "abelian_groups",
    "abelian_groups_in_range",
    "span",
]


class GroupParseError(ValueError):
    """Raised for malformed group descriptor strings."""


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _integer_factors(factors, what: str) -> tuple[int, ...]:
    """Each factor as a plain int (through ``operator.index``); ValueError
    for anything that is not an integer, a bool included."""
    factors = tuple(factors)
    # no numpy bool exists before numpy is imported, so this never imports it
    numpy = sys.modules.get("numpy")
    bools = bool if numpy is None else (bool, numpy.bool_)
    if not any(isinstance(f, bools) for f in factors):
        try:
            return tuple(map(operator.index, factors))
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers, got {factors!r}")


def invariant_factors_of(factors) -> tuple[int, ...]:
    """Canonicalize an arbitrary multiset of cyclic orders.

    Splits every factor into prime powers (elementary divisors) and
    recombines them into the unique chain m_1 | m_2 | ... | m_r.
    Factors equal to 1 are dropped; a factor that is not an integer
    (4.0, "4", True) is a ValueError.

    >>> invariant_factors_of([2, 2, 3])
    (2, 6)
    """
    exps: dict[int, list[int]] = {}
    for f in _integer_factors(factors, "cyclic factors"):
        if f < 1:
            raise ValueError(f"cyclic factor must be >= 1, got {f}")
        for p, a in _factorize(f).items():
            exps.setdefault(p, []).append(a)
    if not exps:
        return ()
    for lst in exps.values():
        lst.sort(reverse=True)
    r = max(len(lst) for lst in exps.values())
    chain = []
    for i in range(r):
        m = prod(p ** lst[i] for p, lst in exps.items() if i < len(lst))
        chain.append(m)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{m_1} + ... + Z_{m_r} with m_i | m_{i+1}."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = _integer_factors(self.invariant_factors, "invariant factors")
        object.__setattr__(self, "invariant_factors", fs)
        for m in fs:
            if m < 2:
                raise ValueError(f"invariant factor must be >= 2, got {m}")
        for a, b in itertools.pairwise(fs):
            if b % a != 0:
                raise ValueError(f"not a divisibility chain: {a} does not divide {b}")

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @property
    def is_elementary_abelian_2(self) -> bool:
        return all(m == 2 for m in self.invariant_factors)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return " x ".join(f"Z{m}" for m in self.invariant_factors)

    # -- element arithmetic ----------------------------------------------

    def zero(self) -> Element:
        return (0,) * self.rank

    def contains(self, a: Element) -> bool:
        """Whether ``a`` is a tuple of reduced integer residues (no bools)."""
        return len(a) == self.rank and all(
            isinstance(x, int) and not isinstance(x, bool) and 0 <= x < m
            for x, m in zip(a, self.invariant_factors)
        )

    def _check(self, a: Element) -> None:
        if not self.contains(a):
            raise ValueError(f"{a} is not an element of {self}")

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.invariant_factors))

    def sub(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return tuple((x - y) % m for x, y, m in zip(a, b, self.invariant_factors))

    def neg(self, a: Element) -> Element:
        self._check(a)
        return tuple((-x) % m for x, m in zip(a, self.invariant_factors))

    def scalar_mul(self, k: int, a: Element) -> Element:
        self._check(a)
        return tuple((k * x) % m for x, m in zip(a, self.invariant_factors))

    # -- enumeration and indexing ------------------------------------------

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic coordinate order."""
        return tuple(itertools.product(*[range(m) for m in self.invariant_factors]))

    def element_index(self, a: Element) -> int:
        self._check(a)
        i = 0
        for x, m in zip(a, self.invariant_factors):
            i = i * m + x
        return i

    # -- structural quantities ---------------------------------------------

    def element_sum(self) -> Element:
        """The sum of all group elements.

        Nonzero exactly when the group has a single involution, i.e.
        exactly one even invariant factor.
        """
        n = self.order
        out = []
        for m in self.invariant_factors:
            # each residue of Z_m occurs n/m times in that coordinate
            out.append((n // m) * (m * (m - 1) // 2) % m)
        return tuple(out)

    def element_order(self, a: Element) -> int:
        self._check(a)
        return lcm(*(m // gcd(x, m) for x, m in zip(a, self.invariant_factors))) if a else 1

    def count_by_order(self, d: int) -> int:
        """Number of elements of order exactly d (0 when d does not divide |G|).

        An element has order d exactly when, for each p^a exactly dividing
        d, its p-part has order p^a.  Those p-parts number N(p^a) - N(p^(a-1)),
        where N(e) = #{g : e*g = 0} = prod gcd(e, m_i).
        """
        if d < 1:
            raise ValueError("order must be >= 1")
        if self.order % d != 0:
            return 0

        def killed_by(e: int) -> int:
            return prod(gcd(e, m) for m in self.invariant_factors)
        return prod(killed_by(p**a) - killed_by(p**(a - 1)) for p, a in _factorize(d).items())

    def two_torsion_count(self) -> int:
        """|{g : 2g = 0}|, i.e. 2 to the number of even invariant factors."""
        return prod(2 if m % 2 == 0 else 1 for m in self.invariant_factors)

    @cached_property
    def indexed(self) -> GroupIndex:
        """The integer-index view of this group, built on first use."""
        return GroupIndex(self)


class GroupIndex:
    """A group with its elements numbered 0..n-1 in lexicographic order.

    Element i is ``els[i]`` (index 0 is zero) and ``index`` maps each
    element back.  The index rows are plain Python: ``neg`` is built up
    front and each translation row ``shift(a)`` once, for the elements
    asked for only, each by one mixed-radix comprehension per invariant
    factor and kept as a compact read-only memoryview (int16, or int32
    above order 32,768).  ``in_2g`` flags the members of 2G = {2a}, one
    byte per element.  Only the n x n ``add`` and ``diff`` tables, built
    on first use, and the ``label_masks`` built from them, the one mask
    layout of the scan and the Monte Carlo, are numpy arrays; they alone
    import numpy, and code that must scale never touches them.
    """

    def __init__(self, G: GroupSpec):
        self._factors = G.invariant_factors
        self.n = G.order
        self.els = G.elements()
        self.index = {a: i for i, a in enumerate(self.els)}
        self._typecode = "h" if self.n <= 1 << 15 else "i"
        self.neg = self._row([[-x % m for x in range(m)] for m in self._factors])
        # 2a covers exactly the even residues of each even factor, and every
        # residue of an odd one
        in_2g = [True]
        for m in self._factors:
            in_2g = [f and (m % 2 == 1 or x % 2 == 0) for f in in_2g for x in range(m)]
        self.in_2g = bytes(in_2g)
        # shift(a) by a; two threads asking for one a at once build equal rows
        self._rows: dict[int, memoryview] = {}

    def _row(self, images: list[list[int]]) -> memoryview:
        """The read-only row whose entry x is the index of the element with
        coordinate ``images[k][c]`` on each factor k where x has c."""
        row = [0]
        for m, image in zip(self._factors, images):
            row = [r * m + y for r in row for y in image]
        return memoryview(array(self._typecode, row)).toreadonly()

    def shift(self, a: int) -> memoryview:
        """Index of els[a] + els[x] for every x, as a read-only row built
        in O(n) on the first call for ``a`` and returned from then on."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = self._row(
                [[*range(c, m), *range(c)] for c, m in zip(self.els[a], self._factors)])
        return row

    def closure(self, gens) -> list[int]:
        """Indices of the subgroup generated by ``gens``, in BFS order."""
        steps = [self.shift(g) for g in set(gens) if g]
        seen = bytearray(self.n)
        seen[0] = 1
        members = [0]
        for a in members:  # grows while it is walked
            for step in steps:
                b = step[a]
                if not seen[b]:
                    seen[b] = 1
                    members.append(b)
        return members

    @cached_property
    def add(self) -> np.ndarray:
        """add[i, j] is the index of els[i] + els[j].

        Built from the last factor straight into its dtype, with no other
        array of n^2 entries: for G = Z_m + H and i = x * |H| + h, (x, h) +
        (x', h') is ((x + x') % m) * |H| + addH[h, h'], where row x of
        (x + x') % m is a window of 0..m-1, 0..m-2.
        """
        import numpy as np

        table = np.zeros((1, 1), dtype=self._typecode)
        for m in reversed(self._factors):
            k = len(table)
            x = np.arange(m, dtype=table.dtype)
            step = np.lib.stride_tricks.sliding_window_view(np.concatenate([x, x[:-1]]), m)
            out = np.empty((m, k, m, k), dtype=table.dtype)
            np.multiply(step[:, None, :, None], k, out=out)
            out += table[None, :, None, :]
            table = out.reshape(m * k, m * k)
        return table

    @cached_property
    def diff(self) -> np.ndarray:
        """diff[i, j] is the index of els[j] - els[i], the label of edge i -> j."""
        return self.add[self.neg]

    def label_table(self, mode: str) -> np.ndarray:
        """The n x n labels of ``mode``: ``add`` for "sum", ``diff`` for "diff"."""
        if mode not in ("sum", "diff"):
            raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")
        return self.add if mode == "sum" else self.diff

    def label_masks(self, modes: tuple[str, ...]) -> np.ndarray | None:
        """The n x n table in which the edge i -> j sets bit ``k * n + l``
        for its label l in ``modes[k]``: int32 while the width ``len(modes)
        * n`` is below 32 bits (``np.bitwise_count`` counts the bits of
        |x|), uint64 up to 64, and None past one word."""
        import numpy as np

        n = self.n
        if len(modes) * n > 64:
            return None
        dtype = np.int32 if len(modes) * n < 32 else np.uint64
        return np.bitwise_or.reduce([1 << (self.label_table(mode) + k * n).astype(dtype)
                                     for k, mode in enumerate(modes)])


def _label_counts(masks: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """Each of k modes' label counts, as uint8: the set bits of its n-bit
    field of ``masks`` (the layout of ``GroupIndex.label_masks``)."""
    import numpy as np

    field = (1 << n) - 1
    return [np.bitwise_count(masks & field << m * n) for m in range(k)]


def _check_count(name: str, value, *, or_none: bool = False) -> None:
    """Refuse a count other than a positive int (a bool is not one), or
    None where ``or_none``, before any work starts."""
    if value is None and or_none:
        return
    if type(value) is bool or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_order(G: GroupSpec, least: int) -> None:
    """Refuse a group below the least order an entry point answers for."""
    if G.order < least:
        raise ValueError(f"need |G| >= {least}")


def _element_indices(G: GroupSpec, items) -> tuple[int, ...]:
    """Outside input as the ascending tuple of its distinct element
    indices; ValueError on any item ``G.contains`` refuses.  (True,),
    (1.0,) and (np.int64(1),) pass the index lookup, as they equal (1,),
    so unless every coordinate is a plain int each item also goes through
    ``contains``."""
    index = G.indexed.index
    out = list(map(tuple, items))
    plain = set(map(type, itertools.chain.from_iterable(out))) <= {int}
    for a in out:
        if a not in index or not (plain or G.contains(a)):
            raise ValueError(f"{a} is not an element of {G}")
    return tuple(sorted({index[a] for a in out}))


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _automorphism_classes(G: GroupSpec) -> list[tuple[int, ...]]:
    """The Aut(G)-orbits of the element indices, each ascending, in the
    order of their least members (so ``(0,)`` comes first).

    Two elements lie in one orbit exactly when, for each prime p, their
    p-parts have the same heights (Kaplansky, *Infinite Abelian Groups*):
    p^j x lies in p^k G exactly when p^j y does, for every j and k.  On
    coordinates, with p^e_i the power of p in m_i and p^v_i that in x_i
    (v_i <= e_i), p^j x lies in p^k G when min(k, e_i) <= j + v_i for each
    i.  So the height of p^j x is j plus the least v_i over the
    coordinates with e_i - v_i > j.  An element's key lists that least
    v_i for each p and each j below the power of p in the exponent; it is
    the entrywise min of its coordinates' keys, so no automorphism is
    built.
    """
    fs = G.invariant_factors
    n = G.order
    exponent = fs[-1] if fs else 1
    # one key per residue of each factor; n exceeds every v_i, so it marks
    # "no coordinate" (p^j x has no p-part left)
    rows = [[()] * m for m in fs]
    for p, e in _factorize(exponent).items():
        log = {p ** k: k for k in range(e + 1)}
        for m, row in zip(fs, rows):
            q = gcd(m, p ** e)
            for c in range(m):
                v = log[gcd(c, q)]
                row[c] += tuple(v if log[q] - v > j else n for j in range(e))
    # elements in index order, the last coordinate fastest
    keys = [()]
    for row in rows:
        keys = [tuple(map(min, k, t)) if k else t for k in keys for t in row]
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return [tuple(c) for c in classes.values()]


def group(*factors: int) -> GroupSpec:
    """Build a GroupSpec from cyclic orders, canonicalizing on the way.

    >>> group(2, 2, 3).invariant_factors
    (2, 6)
    """
    return GroupSpec(invariant_factors_of(factors))


_FACTOR_RE = re.compile(r"^[ZC]?(\d+)$", re.IGNORECASE)


def parse_group(text: str) -> GroupSpec:
    """Parse a group descriptor such as "6", "2x2x3" or "Z4 x Z2".

    Factors are separated by 'x' or ','; each may carry a 'Z' or 'C'
    prefix; whitespace is ignored.  The result is always in canonical
    invariant-factor form, so the descriptor may list the factors in
    any order.  "1" yields the trivial group.
    """
    cleaned = re.sub(r"\s+", "", text)
    if not cleaned:
        raise GroupParseError("empty group descriptor")
    parts = re.split(r"[x,]", cleaned)
    factors = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise GroupParseError(f"bad factor {part!r} in descriptor {text!r}")
        val = int(m.group(1))
        if val < 1:
            raise GroupParseError(f"factor must be >= 1, got {val}")
        factors.append(val)
    return GroupSpec(invariant_factors_of(factors))


def _partitions(k: int, maxp: int | None = None):
    if k == 0:
        yield ()
        return
    if maxp is None:
        maxp = k
    for p in range(min(k, maxp), 0, -1):
        for rest in _partitions(k - p, p):
            yield (p,) + rest


def abelian_groups(order: int) -> tuple[GroupSpec, ...]:
    """All isomorphism classes of abelian groups of the given order.

    One class per choice of a partition of each prime exponent; results
    are sorted by rank, then by factor tuple, so the output order is
    deterministic.

    >>> [g.invariant_factors for g in abelian_groups(8)]
    [(8,), (2, 4), (2, 2, 2)]
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return (GroupSpec(()),)
    per_prime = []
    for p, a in sorted(_factorize(order).items()):
        per_prime.append([[p**e for e in part] for part in _partitions(a)])
    specs = []
    for combo in itertools.product(*per_prime):
        divisors = [d for block in combo for d in block]
        specs.append(GroupSpec(invariant_factors_of(divisors)))
    specs.sort(key=lambda g: (g.rank, g.invariant_factors))
    return tuple(specs)


def abelian_groups_in_range(lo: int, hi: int) -> tuple[GroupSpec, ...]:
    """All abelian groups with lo <= order <= hi, ascending by order."""
    out = []
    for n in range(lo, hi + 1):
        out.extend(abelian_groups(n))
    return tuple(out)


def span(G: GroupSpec, gens) -> frozenset[Element]:
    """The subgroup generated by the given elements (BFS closure)."""
    gi = G.indexed
    return frozenset(gi.els[i] for i in gi.closure(_element_indices(G, gens)))
