"""Hamiltonian cycles/paths on group subsets and their edge-label multisets.

A Trail is an ordered tuple of distinct group elements, either cyclic
(wrap-around edge included) or open.  Each edge (a, b) carries two labels:
the sum a+b and the difference b-a.  Cycles are directed: the two
orientations of the same vertex set are distinct trails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mod, sub

from .groups import Element, GroupSpec

__all__ = [
    "Trail",
    "LabelSet",
    "sum_labels",
    "diff_labels",
    "is_rainbow_sum_cycle",
    "is_rainbow_sum_path",
    "is_rainbow_diff_cycle",
    "is_rainbow_diff_path",
    "canonical_cycle_key",
    "trail_to_json_dict",
]


@dataclass(frozen=True)
class Trail:
    group: GroupSpec
    vertices: tuple[Element, ...]
    cyclic: bool

    def __post_init__(self):
        verts = tuple(tuple(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("a trail needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("trail vertices must be pairwise distinct")
        for v in verts:
            if not self.group.contains(v):
                raise ValueError(f"vertex {v} is not an element of {self.group}")

    @classmethod
    def _of_indices(cls, group: GroupSpec, path, cyclic: bool) -> Trail:
        """The Trail through ``group.indexed.els[i]`` for each i of ``path``,
        without the checks of ``Trail(...)``: ``path`` holds distinct
        element indices, so its vertices are distinct elements already."""
        els = group.indexed.els
        t = object.__new__(cls)
        object.__setattr__(t, "group", group)
        object.__setattr__(t, "vertices", tuple(els[i] for i in path))
        object.__setattr__(t, "cyclic", cyclic)
        return t

    @property
    def kind(self) -> str:
        return "cyclic" if self.cyclic else "open"

    @property
    def covers_group(self) -> bool:
        return len(self.vertices) == self.group.order


@dataclass
class LabelSet:
    """Edge labels with multiplicities."""

    labels: dict[Element, int] = field(default_factory=dict)

    @property
    def distinct_count(self) -> int:
        return len(self.labels)


def _collect(t: Trail, op) -> LabelSet:
    """Count the labels op(b, a) of the edges a -> b, coordinatewise modulo
    the invariant factors.  A Trail's vertices are elements of its group
    already (checked, or taken from ``GroupIndex.els``), so no coordinate
    is checked again, and no index row is read."""
    verts = t.vertices
    if len(verts) < 2:
        raise ValueError("label sets need a trail with at least 2 vertices")
    fs = t.group.invariant_factors
    heads = verts[1:] + verts[:1] if t.cyclic else verts[1:]
    out: dict[Element, int] = {}
    for a, b in zip(verts, heads):
        lab = tuple(map(mod, map(op, b, a), fs))
        out[lab] = out.get(lab, 0) + 1
    return LabelSet(out)


def sum_labels(t: Trail) -> LabelSet:
    """Multiset of a_i + a_{i+1} over consecutive pairs (wrap iff cyclic)."""
    return _collect(t, add)


def diff_labels(t: Trail) -> LabelSet:
    """Multiset of a_{i+1} - a_i over consecutive pairs (wrap iff cyclic)."""
    return _collect(t, sub)


def _require_kind(t: Trail, cyclic: bool) -> None:
    if t.cyclic != cyclic:
        want = "cyclic" if cyclic else "open"
        raise ValueError(f"predicate requires a {want} trail, got {t.kind}")


def is_rainbow_sum_cycle(t: Trail) -> bool:
    """True iff all consecutive sums along the cycle are pairwise distinct."""
    _require_kind(t, cyclic=True)
    return sum_labels(t).distinct_count == len(t.vertices)


def is_rainbow_sum_path(t: Trail) -> bool:
    _require_kind(t, cyclic=False)
    return sum_labels(t).distinct_count == len(t.vertices) - 1


def is_rainbow_diff_cycle(t: Trail) -> bool:
    """True iff all consecutive differences along the cycle are pairwise distinct."""
    _require_kind(t, cyclic=True)
    return diff_labels(t).distinct_count == len(t.vertices)


def is_rainbow_diff_path(t: Trail) -> bool:
    _require_kind(t, cyclic=False)
    return diff_labels(t).distinct_count == len(t.vertices) - 1


def canonical_cycle_key(t: Trail) -> tuple[Element, ...]:
    """Lexicographically least rotation of a cyclic trail (direction kept).

    Two cyclic trails describe the same directed cycle exactly when their
    keys coincide.
    """
    if not t.cyclic:
        raise ValueError("canonical key is defined for cyclic trails only")
    verts = t.vertices
    # vertices are pairwise distinct, so the least rotation starts at the least
    i = verts.index(min(verts))
    return verts[i:] + verts[:i]


def trail_to_json_dict(t: Trail) -> dict:
    """JSON-friendly form; cyclic trails are rotated to their canonical key."""
    verts = canonical_cycle_key(t) if t.cyclic else t.vertices
    return {
        "group": list(t.group.invariant_factors),
        "kind": t.kind,
        "vertices": [list(v) for v in verts],
    }
