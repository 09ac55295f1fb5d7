"""Finite abstract simplicial complexes on integer vertices.

Complexes are built from a list of maximal simplices and closed under
faces; every vertex below vertex_count is a 0-simplex even when isolated.
A complex stores only its vertex count and its simplex tables, one
lexicographically sorted tuple per dimension: the sort fixes the row/column
order of every matrix derived from the complex, and a lookup bisects it.
Nothing derived is stored; the two assemblies that need face positions,
``twisted._rows`` and Hodge's face table, map the levels they read on each
call.  Instances are immutable.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "SimplicialComplex",
    "euler_characteristic",
    "circle",
    "sphere_boundary",
    "point",
    "path_complex",
]


def _natural(v) -> bool:
    """An int >= 0; bools are refused, since JSON true would read as 1."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _number(raw, what: str) -> float:
    """A real number from outside as a float; booleans, strings, numbers past
    the float range and every other value are refused with ValueError."""
    # int and float first, since the abstract check alone costs 0.4 us a value
    if isinstance(raw, bool) or not isinstance(raw, (int, float, numbers.Real)):
        raise ValueError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ValueError(f"{what} is a number past the float range") from None


def _validated_simplex(simplex, vertex_count):
    """The simplex as a sorted tuple: the given one itself when it is one."""
    s = tuple(simplex)
    if len(s) == 0:
        raise ValueError("empty simplex")
    if len(set(s)) != len(s):
        raise ValueError(f"malformed simplex with repeated vertex: {s}")
    for v in s:
        if not _natural(v):
            raise ValueError(f"malformed simplex, vertices must be ints >= 0: {s}")
        if vertex_count is not None and v >= vertex_count:
            raise ValueError(
                f"simplex {s} references vertex {v} >= vertex_count {vertex_count}"
            )
    t = tuple(sorted(s))
    return s if t == s else t


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """Immutable simplicial complex with sorted simplex tables."""

    vertex_count: int
    simplices: tuple

    def __post_init__(self):
        levels = []
        for level in self.simplices:
            levels.append(tuple(sorted(level)))
            del level  # freed before a lazy ``build`` makes the next level
        object.__setattr__(self, "simplices", tuple(levels))

    @classmethod
    def build(cls, maximal, vertex_count: int | None = None) -> "SimplicialComplex":
        """Face closure of a family of simplices.

        vertex_count defaults to 1 + the largest vertex mentioned; passing
        it explicitly keeps isolated trailing vertices, and it must be an
        int >= 0.
        """
        if vertex_count is not None and not _natural(vertex_count):
            raise ValueError(f"vertex_count must be an int >= 0, got {vertex_count!r}")
        cleaned = [_validated_simplex(s, vertex_count) for s in maximal]
        if vertex_count is None:
            vertex_count = 1 + max((max(s) for s in cleaned), default=-1)
        top = max((len(s) for s in cleaned), default=1)

        def faces(n):
            # a simplex of the family is its own top face, not a copy
            level = {s for s in cleaned if len(s) == n}
            for s in cleaned:
                if len(s) > n:
                    level.update(combinations(s, n))
            if n == 1:
                level.update((v,) for v in range(vertex_count))
            return level

        # one level's face set at a time, freed once it is sorted
        return cls(vertex_count, (faces(n) for n in range(1, top + 1)))

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def n_simplices(self, p: int) -> int:
        if p < 0 or p > self.dim:
            return 0
        return len(self.simplices[p])

    def _position(self, s: tuple):
        """Position of s in its sorted level, None when s is not a simplex."""
        if not 0 < len(s) <= len(self.simplices):
            return None
        level = self.simplices[len(s) - 1]
        try:
            i = bisect_left(level, s)
        except TypeError:  # an entry that does not compare with ints is no vertex
            return None
        return i if i < len(level) and level[i] == s else None

    def simplex_index(self, simplex) -> int:
        s = tuple(simplex)
        i = self._position(s)
        if i is None:
            raise KeyError(f"{s} is not a simplex of this complex")
        return i

    def has_simplex(self, simplex) -> bool:
        try:
            s = tuple(sorted(simplex))
        except TypeError:
            return False
        return self._position(s) is not None

    @property
    def edges(self):
        return self.simplices[1] if self.dim >= 1 else ()

    def maximal_simplices(self):
        """Simplices that are not a proper face of another simplex.

        The complex is face-closed, so a p-simplex is maximal iff it is not
        a facet of any (p+1)-simplex.  Levels are sorted, which keeps the
        result in (length, lexicographic) order.
        """
        out = []
        for p, level in enumerate(self.simplices):
            above = self.simplices[p + 1] if p < self.dim else ()
            facets = {t[:i] + t[i + 1 :] for t in above for i in range(len(t))}
            out.extend(s for s in level if s not in facets)
        return out

    def __repr__(self):
        return f"SimplicialComplex(vertices={self.vertex_count}, counts={self.counts()})"


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** p * c for p, c in enumerate(k.counts()))


def circle(m: int) -> SimplicialComplex:
    """Simplicial circle with m vertices, m >= 3."""
    if m < 3:
        raise ValueError("a simplicial circle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    return SimplicialComplex.build(edges, vertex_count=m)


def sphere_boundary(d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-simplex: the minimal triangulated d-sphere."""
    if d < 1:
        raise ValueError("sphere_boundary needs d >= 1")
    maximal = list(combinations(range(d + 2), d + 1))
    return SimplicialComplex.build(maximal, vertex_count=d + 2)


def point() -> SimplicialComplex:
    return SimplicialComplex.build([(0,)], vertex_count=1)


def path_complex(n_edges: int) -> SimplicialComplex:
    """A path with vertices 0..n_edges."""
    if n_edges < 1:
        raise ValueError("path needs at least one edge")
    return SimplicialComplex.build(
        [(i, i + 1) for i in range(n_edges)], vertex_count=n_edges + 1
    )

