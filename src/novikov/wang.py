"""Twisted cohomology of a fibration over the circle, from the fiber action.

For a bundle with fiber F and monodromy phi, the long exact sequence in
twisted cohomology splits into degreewise pieces

    dims[p] = dim ker(M_p - lam I) + dim coker(M_{p-1} - lam I)

where M_p is the induced action on H^p(F).  Since the blocks are square the
cokernel dimension equals the kernel dimension, and the alternating sum of
dims telescopes to zero regardless of the action.

The action can be supplied directly as matrices (useful when the fiber is
known only algebraically) or computed from a simplicial automorphism via
induced_action, which builds the pullback on cochains and reads it off on a
basis of cohomology classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cocycles import zero_cocycle
from .complexes import SimplicialComplex
from .constructions import SimplicialMap
from .errors import ConstructionError
from .scalars import (
    DEFAULT_FLOAT_TOLERANCE,
    Matrix,
    kernel_basis,
    kernel_dim,
    matrix_rref,
    scalar_backend,
    scalar_literal,
    solve_linear,
)
from .twisted import twisted_coboundary

__all__ = [
    "FiberCohomologyAction",
    "WangProfile",
    "wang_dims",
    "induced_action",
]


class FiberCohomologyAction:
    """Square matrices of an automorphism acting on each H^p of the fiber."""

    __slots__ = ("matrices",)

    def __init__(self, matrices):
        cleaned = []
        for p, block in enumerate(matrices):
            if not isinstance(block, Matrix):
                block = Matrix.from_rows(block) if block else Matrix(0, 0, [])
            if block.nrows != block.ncols:
                raise ValueError(f"degree {p} block is {block.shape}, not square")
            cleaned.append(block)
        while cleaned and cleaned[-1].nrows == 0:
            cleaned.pop()
        object.__setattr__(self, "matrices", tuple(cleaned))

    def __setattr__(self, *a):
        raise AttributeError("FiberCohomologyAction is immutable")

    @classmethod
    def from_blocks(cls, blocks: dict) -> "FiberCohomologyAction":
        """Sparse form: {degree: rows}; absent degrees get 0 x 0 blocks."""
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

    def __eq__(self, other):
        return (
            isinstance(other, FiberCohomologyAction)
            and self.matrices == other.matrices
        )

    def __repr__(self):
        return f"FiberCohomologyAction(dims={self.fiber_dims()})"


@dataclass(frozen=True)
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


def _shifted_block(block: Matrix, lam) -> Matrix:
    n = block.nrows
    ent = [
        block.entry(i, j) - (lam if i == j else 0)
        for i in range(n)
        for j in range(n)
    ]
    return Matrix(n, n, ent)


def wang_dims(
    action: FiberCohomologyAction, lam, tolerance: float | None = None
) -> WangProfile:
    """Twisted dimensions of the bundle from the fiber action at lam.

    lam is the monodromy of the local system around the base circle once.
    Exact and number-field lam run tolerance-free; float lam counts
    singular values against the tolerance.
    """
    backend = scalar_backend(lam)
    if lam == 0:
        raise ValueError("monodromy parameter lambda must be nonzero")
    is_float = backend == "float"
    tol = (DEFAULT_FLOAT_TOLERANCE if tolerance is None else tolerance) if is_float else None
    nulls = []
    for p in range(action.top_degree + 1):
        block = action.block(p)
        if block.nrows == 0:
            nulls.append(0)
            continue
        shifted = _shifted_block(block, lam)
        nulls.append(kernel_dim(shifted, tolerance=tol))
    dims = []
    for p in range(action.top_degree + 2):
        here = nulls[p] if p <= action.top_degree else 0
        below = nulls[p - 1] if p >= 1 else 0
        dims.append(here + below)
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


def _from_columns(cols, nrows) -> Matrix:
    ent = [cols[j][i] for i in range(nrows) for j in range(len(cols))]
    return Matrix(nrows, len(cols), ent)


def pullback_matrix(k: SimplicialComplex, phi: SimplicialMap, p: int) -> Matrix:
    """Matrix of the cochain pullback of phi in degree p.

    Row i gives the functional alpha -> (phi* alpha)(sigma_i), so the entry
    at the index of the sorted image simplex is the sorting sign.
    """
    n = k.n_simplices(p)
    ent = [Fraction(0)] * (n * n)
    for i, s in enumerate(k.simplices[p]):
        img = [phi.image_vertex(v) for v in s]
        j = k.simplex_index(tuple(sorted(img)))
        ent[i * n + j] = Fraction(_sort_sign(img))
    return Matrix(n, n, ent)


def induced_action(k: SimplicialComplex, phi: SimplicialMap) -> FiberCohomologyAction:
    """Pullback action of an automorphism on rational cohomology.

    Degree by degree: take the kernel of the coboundary, complete the image
    of the previous coboundary to a basis of it with the kernel vectors that
    are rref pivots of [image | kernel], push each representative
    through the cochain pullback, and solve for its coordinates in that
    basis again.  The coordinate blocks on the representatives are the
    action matrices.
    """
    if phi.source != k or phi.target != k:
        raise ConstructionError("induced_action needs a self-map of k")
    if not phi.is_isomorphism():
        raise ConstructionError("induced_action needs a simplicial isomorphism")
    zero = zero_cocycle(k)
    deltas = [twisted_coboundary(k, zero, Fraction(1), p) for p in range(k.dim + 1)]
    blocks = []
    for p, delta in enumerate(deltas):
        n = k.n_simplices(p)
        cocycles = kernel_basis(delta)
        prev = deltas[p - 1] if p >= 1 else Matrix(n, 0, [])
        bounding = prev.transpose().rows()
        _, pivots = matrix_rref(_from_columns(bounding + cocycles, n))
        reps = [cocycles[c - len(bounding)] for c in pivots if c >= len(bounding)]
        frame = _from_columns(bounding + reps, n)
        cols = []
        pull = pullback_matrix(k, phi, p)
        for h in reps:
            image = pull @ Matrix(n, 1, h)
            coords = solve_linear(frame, [image.entry(i, 0) for i in range(n)])
            if coords is None:  # pullback of a cocycle is always a cocycle
                raise ConstructionError("pullback left the cocycle space")
            cols.append(coords[len(bounding):])
        blocks.append(_from_columns(cols, len(reps)))
    return FiberCohomologyAction(blocks)
