"""Twisted cohomology of a fibration over the circle, from the fiber action.

For a bundle with fiber F and monodromy phi, the long exact sequence in
twisted cohomology splits into degreewise pieces

    dims[p] = dim ker(M_p - lam I) + dim coker(M_{p-1} - lam I)

where M_p is the induced action on H^p(F).  Since the blocks are square the
cokernel dimension equals the kernel dimension, and the alternating sum of
dims telescopes to zero regardless of the action.  The kernels are counted
in the backend that joins lam with the blocks, so float or number-field
blocks at an exact lam run in float or in the number field.  Each
M_p - lam I is ranked as sparse rows by ``scalars._rank``, the one rank entry.

The action can be supplied directly as matrices (useful when the fiber is
known only algebraically) or computed from a simplicial automorphism via
induced_action, which applies the pullback to cocycles as a signed
permutation and reads it off on a basis of cohomology classes, through the
same sparse coboundary assembly and exact column reduction as every other
exact number in the package.  The dense Matrix holds only the square blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cocycles import zero_cocycle
from .complexes import SimplicialComplex, _natural
from .constructions import SimplicialMap
from .errors import ConstructionError
from .scalars import (
    Matrix,
    _arithmetic,
    _float_of,
    _join,
    _rank,
    _reduce_columns,
    scalar_literal,
)
from .twisted import _coboundary_rows

__all__ = [
    "FiberCohomologyAction",
    "WangProfile",
    "wang_dims",
    "induced_action",
]


@dataclass(frozen=True, slots=True)
class FiberCohomologyAction:
    """Square matrices of an automorphism acting on each H^p of the fiber."""

    matrices: tuple

    def __post_init__(self):
        cleaned = []
        for p, block in enumerate(self.matrices):
            if not isinstance(block, Matrix):
                block = Matrix.from_rows(block) if block else Matrix(0, 0, [])
            if block.nrows != block.ncols:
                raise ValueError(f"degree {p} block is {block.shape}, not square")
            cleaned.append(block)
        while cleaned and cleaned[-1].nrows == 0:
            cleaned.pop()
        object.__setattr__(self, "matrices", tuple(cleaned))

    @classmethod
    def from_blocks(cls, blocks: dict) -> "FiberCohomologyAction":
        """Sparse form: {degree >= 0: rows}; absent degrees get 0 x 0 blocks."""
        for p in blocks:
            if not _natural(p):
                raise ValueError(f"action block degree {p!r} is not an int >= 0")
        top = max(blocks, default=-1)
        mats = [blocks.get(p) or [] for p in range(top + 1)]
        return cls(mats)

    @property
    def top_degree(self) -> int:
        return len(self.matrices) - 1

    def fiber_dims(self) -> tuple[int, ...]:
        return tuple(m.nrows for m in self.matrices)

    def block(self, p: int) -> Matrix:
        if 0 <= p < len(self.matrices):
            return self.matrices[p]
        return Matrix(0, 0, [])

    def __repr__(self):
        return f"FiberCohomologyAction(dims={self.fiber_dims()})"


@dataclass(frozen=True, slots=True)
class WangProfile:
    """Degreewise twisted dimensions of the total space of a circle bundle."""

    dims: tuple[int, ...]
    euler: int
    lam: object
    backend: str
    tolerance: float | None
    fiber_dims: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "lambda": scalar_literal(self.lam),
            "backend": self.backend,
            "dims": list(self.dims),
            "euler": self.euler,
            "fiber_dims": list(self.fiber_dims),
            "tolerance": self.tolerance,
        }


def wang_dims(
    action: FiberCohomologyAction, lam, tolerance: float | None = None, backend: str | None = None
) -> WangProfile:
    """Twisted dimensions of the bundle from the fiber action at lam.

    lam is the monodromy of the local system around the base circle once.
    The backend joins lam with the blocks: float or number-field blocks at
    an exact lam run in float or in the number field, and number field with
    float is refused.  A requested backend may move exact to float and must
    otherwise agree.  The exact backends run tolerance-free; the float
    backend counts singular values against the tolerance, and refuses
    (NumericalError) an entry of M_p - lam I past the float range.
    """
    entries = _join(block.backend for block in action.matrices)
    lam, backend, tol = _arithmetic(lam, entries, backend=backend, tolerance=tolerance)
    nulls = []
    for block in action.matrices:
        rows = block.rows()
        if backend == "float" and block.backend == "exact":
            rows = [list(map(_float_of, row)) for row in rows]  # before lambda is subtracted
        shifted = [
            {j: v - lam if i == j else v for j, v in enumerate(row)} for i, row in enumerate(rows)
        ]
        nulls.append(block.nrows - _rank(shifted, block.ncols, backend, tol)[0])
    dims = [a + b for a, b in zip(nulls + [0], [0] + nulls)]
    euler = sum((-1) ** p * d for p, d in enumerate(dims))
    return WangProfile(
        dims=tuple(dims),
        euler=euler,
        lam=lam,
        backend=backend,
        tolerance=tol,
        fiber_dims=action.fiber_dims(),
    )


def _sort_sign(seq) -> int:
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _pullback(k: SimplicialComplex, phi: SimplicialMap, p: int):
    """Cochain pullback of phi in degree p as a signed permutation.

    Entry i is (j, sign) with (phi* alpha)(sigma_i) = sign * alpha(sigma_j):
    sigma_j is the sorted image of sigma_i and sign is the sorting sign.
    """
    pull = []
    for s in k.simplices[p]:
        img = [phi.image_vertex(v) for v in s]
        pull.append((k.simplex_index(tuple(sorted(img))), _sort_sign(img)))
    return pull


def _columns(rows, ncols):
    """The columns of a matrix given as sparse rows, as {row: entry} dicts."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def induced_action(k: SimplicialComplex, phi: SimplicialMap) -> FiberCohomologyAction:
    """Pullback action of an automorphism on rational cohomology.

    Degree by degree, two reductions of the sparse untwisted coboundary,
    with tags (negative keys) doing the [D; I] bookkeeping:

    * the columns of delta_p, column j tagged with its own simplex j; the
      leftovers are a basis of the cocycles;
    * [image of delta_{p-1} | tagged cocycles | pulled-back representatives].
      The cocycles that take a pivot are the representatives, since a column
      is a pivot exactly when it lies outside the span of the columns to its
      left.  Pullback maps cocycles to cocycles, so each image reduces to
      tags only, and minus its leftover tags are its coordinates on the
      representatives: a column of the action block.

    Leftovers are the unique coordinates on the pivot columns to their left,
    so cocycles and blocks are the Fractions a dense rref gives.
    """
    if phi.source != k or phi.target != k:
        raise ConstructionError("induced_action needs a self-map of k")
    if not phi.is_isomorphism():
        raise ConstructionError("induced_action needs a simplicial isomorphism")
    zero = zero_cocycle(k)
    one = Fraction(1)
    blocks = []
    bounding = []  # the columns of delta_{p-1}, which span the coboundaries
    for p in range(k.dim + 1):
        delta = _columns(_coboundary_rows(k, zero, one, p), k.n_simplices(p))
        kernel = _reduce_columns({**col, -1 - j: one} for j, col in enumerate(delta))
        cocycles = [
            {-1 - t: v for t, v in left.items()} for left in kernel if left is not None
        ]
        pull = _pullback(k, phi, p)
        reps = []

        def images():  # reached only after the frame, when reps is complete
            for c in reps:
                h = cocycles[c]
                yield {i: sign * h[j] for i, (j, sign) in enumerate(pull) if j in h}

        frame = bounding + [{**h, -1 - c: one} for c, h in enumerate(cocycles)]
        reduced = _reduce_columns(itertools.chain(frame, images()))
        for c, left in enumerate(itertools.islice(reduced, len(frame)), -len(bounding)):
            if c >= 0 and left is None:
                reps.append(c)
        lefts = list(reduced)
        if None in lefts:  # pullback of a cocycle is always a cocycle
            raise ConstructionError("pullback left the cocycle space")
        ent = [-left.get(-1 - r, 0) for r in reps for left in lefts]
        blocks.append(Matrix(len(reps), len(reps), ent))
        bounding = delta
    return FiberCohomologyAction(blocks)
