"""Finite abstract simplicial complexes on integer vertices.

Complexes are built from a list of maximal simplices and closed under
faces; every vertex below vertex_count is a 0-simplex even when isolated.
Simplex lists are lexicographically sorted per dimension, which fixes the
row/column order of every matrix derived from the complex.  Instances are
immutable; boundary matrices are cached on first use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .scalars import Matrix

__all__ = [
    "SimplicialComplex",
    "boundary_matrix",
    "euler_characteristic",
    "circle",
    "sphere_boundary",
    "point",
    "path_complex",
    "generator",
]


def _validated_simplex(simplex, vertex_count):
    s = tuple(simplex)
    if len(s) == 0:
        raise ValueError("empty simplex")
    if len(set(s)) != len(s):
        raise ValueError(f"malformed simplex with repeated vertex: {s}")
    for v in s:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"malformed simplex, vertices must be ints >= 0: {s}")
        if vertex_count is not None and v >= vertex_count:
            raise ValueError(
                f"simplex {s} references vertex {v} >= vertex_count {vertex_count}"
            )
    return tuple(sorted(s))


class SimplicialComplex:
    """Immutable simplicial complex with sorted simplex tables."""

    __slots__ = ("vertex_count", "simplices", "_index", "_boundary_cache")

    def __init__(self, vertex_count: int, simplices_by_dim):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "simplices", tuple(
            tuple(level) for level in simplices_by_dim
        ))
        object.__setattr__(self, "_index", tuple(
            {s: i for i, s in enumerate(level)} for level in self.simplices
        ))
        object.__setattr__(self, "_boundary_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def build(cls, maximal, vertex_count: int | None = None) -> "SimplicialComplex":
        """Face closure of a family of simplices.

        vertex_count defaults to 1 + the largest vertex mentioned; passing
        it explicitly keeps isolated trailing vertices.
        """
        cleaned = [_validated_simplex(s, vertex_count) for s in maximal]
        if vertex_count is None:
            vertex_count = 1 + max((max(s) for s in cleaned), default=-1)
        by_dim: list[set] = []
        for s in cleaned:
            p = len(s) - 1
            while len(by_dim) <= p:
                by_dim.append(set())
            for q in range(p + 1):
                for face in combinations(s, q + 1):
                    by_dim[q].add(face)
        if not by_dim:
            by_dim.append(set())
        by_dim[0].update((v,) for v in range(vertex_count))
        return cls(vertex_count, [sorted(level) for level in by_dim])

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def n_simplices(self, p: int) -> int:
        if p < 0 or p > self.dim:
            return 0
        return len(self.simplices[p])

    def simplex_index(self, simplex) -> int:
        s = tuple(simplex)
        p = len(s) - 1
        try:
            return self._index[p][s]
        except (IndexError, KeyError):
            raise KeyError(f"{s} is not a simplex of this complex") from None

    def has_simplex(self, simplex) -> bool:
        s = tuple(sorted(simplex))
        p = len(s) - 1
        return 0 <= p <= self.dim and s in self._index[p]

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

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * c for p, c in enumerate(self.counts()))

    def boundary_matrix(self, p: int) -> Matrix:
        """Boundary operator C_p -> C_{p-1} with alternating-sign entries.

        Rows are (p-1)-simplices, columns are p-simplices; entry is the
        incidence sign (-1)^i of dropping vertex i.  p=0 gives a 0 x n
        matrix (reduced-boundary conventions are not used here).
        """
        if p < 0 or p > self.dim:
            raise ValueError(f"degree {p} out of range for dim {self.dim}")
        cached = self._boundary_cache.get(p)
        if cached is not None:
            return cached
        rows = self.n_simplices(p - 1) if p > 0 else 0
        cols = self.n_simplices(p)
        ent = [Fraction(0)] * (rows * cols)
        if p > 0:
            for j, s in enumerate(self.simplices[p]):
                for i in range(len(s)):
                    face = s[:i] + s[i + 1 :]
                    r = self._index[p - 1][face]
                    ent[r * cols + j] = Fraction((-1) ** i)
        m = Matrix(rows, cols, ent)
        self._boundary_cache[p] = m
        return m

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertex_count, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex(vertices={self.vertex_count}, counts={self.counts()})"


def boundary_matrix(k: SimplicialComplex, p: int) -> Matrix:
    return k.boundary_matrix(p)


def euler_characteristic(k: SimplicialComplex) -> int:
    return k.euler_characteristic()


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


def generator(name: str) -> SimplicialComplex:
    """Named generators: "circle:m" and "sphere_boundary:d"."""
    kind, _, arg = name.partition(":")
    if kind == "circle":
        return circle(int(arg))
    if kind == "sphere_boundary":
        return sphere_boundary(int(arg))
    if kind == "point":
        return point()
    raise ValueError(f"unknown generator {name!r}")
