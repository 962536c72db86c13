"""Finite abelian groups in invariant-factor form.

A group is described by its invariant factors (m_1, ..., m_r) with
m_1 | m_2 | ... | m_r and every m_i >= 2; the empty tuple is the trivial
group.  Elements are plain tuples of reduced residues, one per factor,
ordered lexicographically (index 0 is the zero element).  Everything here
is immutable and pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, lcm, prod

import numpy as np

Element = tuple[int, ...]

__all__ = [
    "Element",
    "GroupSpec",
    "GroupParseError",
    "EvenDecomposition",
    "group",
    "parse_group",
    "invariant_factors_of",
    "abelian_groups",
    "abelian_groups_in_range",
    "span",
    "decompose_even",
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


def invariant_factors_of(factors) -> tuple[int, ...]:
    """Canonicalize an arbitrary multiset of cyclic orders.

    Splits every factor into prime powers (elementary divisors) and
    recombines them into the unique chain m_1 | m_2 | ... | m_r.
    Factors equal to 1 are dropped.

    >>> invariant_factors_of([2, 2, 3])
    (2, 6)
    """
    exps: dict[int, list[int]] = {}
    for f in factors:
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
        fs = tuple(self.invariant_factors)
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
        return len(a) == self.rank and all(
            0 <= x < m for x, m in zip(a, self.invariant_factors)
        )

    def _check(self, a: Element) -> None:
        if len(a) != self.rank:
            raise ValueError(f"element {a} has wrong length for {self}")

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

    def element_at(self, i: int) -> Element:
        coords = []
        for m in reversed(self.invariant_factors):
            coords.append(i % m)
            i //= m
        return tuple(reversed(coords))

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

        Uses Moebius inversion of ``#{g : e*g = 0} = prod gcd(e, m_i)``.
        """
        if d < 1:
            raise ValueError("order must be >= 1")
        if self.order % d != 0:
            return 0
        total = 0
        for e in _divisors(d):
            mu = _mobius(d // e)
            if mu:
                total += mu * prod(gcd(e, m) for m in self.invariant_factors)
        return total

    def two_torsion_count(self) -> int:
        """|{g : 2g = 0}|, i.e. 2 to the number of even invariant factors."""
        return prod(2 if m % 2 == 0 else 1 for m in self.invariant_factors)

    @cached_property
    def indexed(self) -> GroupIndex:
        """The integer-index view of this group, built on first use."""
        return GroupIndex(self)


class GroupIndex:
    """A group with its elements numbered 0..n-1 in lexicographic order.

    Element i is ``els[i]`` (index 0 is zero).  The O(n) vectors ``els``,
    ``index``, ``residues``, ``neg`` and ``double`` are built up front;
    ``order`` and the n x n ``add`` and ``diff`` tables only on first use,
    the tables as compact numpy arrays.  Code that must scale to large
    groups works with ``shift`` (one O(n) translation) and never touches
    the tables.
    """

    def __init__(self, G: GroupSpec):
        fs = G.invariant_factors
        self.n = G.order
        self.els = G.elements()
        self.index = {a: i for i, a in enumerate(self.els)}
        self.residues = np.array(self.els, dtype=np.int64).reshape(self.n, len(fs))
        self._moduli = np.array(fs, dtype=np.int64)
        self._strides = np.array([prod(fs[k + 1:]) for k in range(len(fs))],
                                 dtype=np.int64)
        self.neg = self._encode(-self.residues)
        self.double = self._encode(2 * self.residues)

    def _encode(self, coords: np.ndarray) -> np.ndarray:
        """Indices of the elements with these (unreduced) coordinates."""
        return (coords % self._moduli) @ self._strides

    def shift(self, a: int) -> np.ndarray:
        """Index of els[a] + els[x] for every x, in O(n)."""
        return self._encode(self.residues + self.residues[a])

    def closure(self, gens) -> list[int]:
        """Indices of the subgroup generated by ``gens``, in BFS order."""
        steps = [self.shift(g).tolist() for g in set(gens) if g]
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
    def order(self) -> np.ndarray:
        """order[i] is the order of els[i]."""
        return np.lcm.reduce(self._moduli // np.gcd(self.residues, self._moduli),
                             axis=1, initial=1)

    @cached_property
    def add(self) -> np.ndarray:
        """add[i, j] is the index of els[i] + els[j]."""
        table = np.empty((self.n, self.n),
                         dtype=np.int16 if self.n <= 1 << 15 else np.int32)
        for i in range(self.n):
            table[i] = self.shift(i)
        return table

    @cached_property
    def diff(self) -> np.ndarray:
        """diff[i, j] is the index of els[j] - els[i], the label of edge i -> j."""
        return self.add[self.neg]


def _element_set(G: GroupSpec, items) -> frozenset[Element]:
    """Outside input as a set of element tuples; ValueError on a non-element."""
    out = frozenset(tuple(a) for a in items)
    index = G.indexed.index
    for a in out:
        if a not in index:
            raise ValueError(f"{a} is not an element of {G}")
    return out


def _distinct_per_row(labels: np.ndarray) -> np.ndarray:
    """The number of distinct values in each row of a label array."""
    srt = np.sort(labels, axis=1)
    return (np.diff(srt, axis=1) != 0).sum(axis=1) + 1


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _mobius(n: int) -> int:
    m = 1
    for _, a in _factorize(n).items():
        if a > 1:
            return 0
        m = -m
    return m


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
    members = gi.closure(gi.index[g] for g in _element_set(G, gens))
    return frozenset(gi.els[i] for i in members)


@dataclass(frozen=True)
class EvenDecomposition:
    """A splitting G = H + Z_{2m} with H of odd order.

    Exists exactly when the group has a single even invariant factor; the
    even cyclic part is the 2-primary component of the largest factor and
    H collects everything of odd order.  ``split``/``merge`` realize the
    bijection explicitly on coordinates.
    """

    group: GroupSpec
    odd_part: GroupSpec
    cyclic_order: int

    def _odd_residue(self) -> int:
        return self.group.invariant_factors[-1] // self.cyclic_order

    def split(self, a: Element) -> tuple[Element, int]:
        self.group._check(a)
        odd_r = self._odd_residue()
        head = a[:-1]
        if odd_r > 1:
            head = head + (a[-1] % odd_r,)
        return head, a[-1] % self.cyclic_order

    def merge(self, h: Element, c: int) -> Element:
        odd_r = self._odd_residue()
        mr = self.group.invariant_factors[-1]
        if odd_r == 1:
            return h + (c % mr,)
        a = h[-1]
        inv = pow(self.cyclic_order, -1, odd_r)
        x = (c + self.cyclic_order * ((a - c) * inv % odd_r)) % mr
        return h[:-1] + (x,)


def decompose_even(G: GroupSpec) -> EvenDecomposition:
    """Split a group with nonzero element sum as odd H plus an even cyclic part.

    >>> d = decompose_even(group(12))
    >>> d.odd_part.invariant_factors, d.cyclic_order
    ((3,), 4)
    """
    evens = [m for m in G.invariant_factors if m % 2 == 0]
    if len(evens) != 1:
        raise ValueError(
            f"{G} has {len(evens)} even invariant factors; "
            "need exactly one (element sum must be nonzero)"
        )
    mr = G.invariant_factors[-1]
    two_part = 1
    while mr % 2 == 0:
        mr //= 2
        two_part *= 2
    odd_factors = list(G.invariant_factors[:-1])
    if mr > 1:
        odd_factors.append(mr)
    return EvenDecomposition(G, GroupSpec(tuple(odd_factors)), two_part)
