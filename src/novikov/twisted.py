"""Cohomology of rank-one local systems twisted by a closed 1-cocycle.

Given a closed integer (or real) cocycle theta and a nonzero monodromy
parameter lambda, each oriented edge u -> v carries the weight
lambda**theta(u, v).  The twisted coboundary transports the omitted leading
vertex along its first edge:

    (delta f)(v0..v_{p+1}) = w(v0, v1) f(v1..v_{p+1})
                             + sum_{i>=1} (-1)^i f(v0..^v_i..v_{p+1})

Closedness of theta gives w(v0,v1) w(v1,v2) = w(v0,v2) on every triangle,
which is exactly what makes delta delta = 0.  At lambda = 1 this is the
ordinary simplicial coboundary (the transpose of the boundary matrix).
The dimension of degree-p cohomology is then

    dims[p] = #C^p - rank delta_p - rank delta_{p-1},

computed exactly for rational / number field lambda and through singular
values for float lambda.  All functions are pure and safe to call from
concurrent readers; results depend only on their arguments.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex
from .cocycles import OneCocycle, validate_closed
from .errors import BackendMismatchError, NumericalError
from .scalars import (
    Matrix,
    NumberFieldElement,
    _arithmetic,
    _exact_rank_columns,
    _float_rank,
    scalar_literal,
)

__all__ = [
    "LocalSystemWeights",
    "twisted_coboundary",
    "BettiProfile",
    "betti_profile",
    "duality_check",
    "kunneth_check",
]


class LocalSystemWeights:
    """Edge weights lambda**theta(e) of the rank-one local system.

    Exact backends require integer theta so the weights live in the scalar
    field; the float backend accepts real exponents through the principal
    power branch.
    """

    __slots__ = ("complex", "theta", "lam", "backend")

    def __init__(self, k: SimplicialComplex, theta: OneCocycle, lam):
        lam, backend, _ = _arithmetic(lam)
        if backend != "float" and theta.mode != "exact":
            raise BackendMismatchError(
                "exact lambda needs an integer cocycle; use float lambda "
                "for real-valued theta"
            )
        if not validate_closed(k, theta):
            raise ValueError("cocycle is not closed on this complex")
        object.__setattr__(self, "complex", k)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *a):
        raise AttributeError("LocalSystemWeights is immutable")

    def weight(self, u: int, v: int):
        """Transport weight along the oriented edge u -> v."""
        e = self.theta.value(u, v)
        if self.backend != "float":
            return self.lam ** e
        try:
            w = complex(self.lam) ** complex(e)
            if cmath.isfinite(w):
                return w
        except (OverflowError, ZeroDivisionError):
            pass
        raise NumericalError(f"lambda**theta on edge ({u}, {v}) leaves the float range")

    def one(self):
        if self.backend == "float":
            return 1.0 + 0j
        if self.backend == "nf":
            return NumberFieldElement.constant(1, self.lam.minpoly)
        return Fraction(1)


def _coboundary_rows(k: SimplicialComplex, weights: LocalSystemWeights, p: int):
    """delta_p as sparse rows, one {column: entry} dict per (p+1)-simplex.

    This is the only code that computes coboundary entries.  Face 0 carries
    the transport weight of the leading edge and face i the sign (-1)^i, so
    a row has p+2 entries.  Exact entries are Fraction or NumberFieldElement,
    never a plain int, which would turn exact elimination into float
    arithmetic; float entries are complex.
    """
    if p < 0 or p > k.dim:
        raise ValueError(f"degree {p} out of range for dim {k.dim}")
    one = weights.one()
    signs = (one, 0 - one)  # not -one, whose float form has a -0.0 imaginary part
    index = k._index[p]
    rows = []
    for tau in k.simplices[p + 1] if p < k.dim else ():
        row = {index[tau[1:]]: weights.weight(tau[0], tau[1])}
        for i in range(1, len(tau)):
            row[index[tau[:i] + tau[i + 1 :]]] = signs[i % 2]
        rows.append(row)
    return rows


def _coboundary_array(k: SimplicialComplex, weights: LocalSystemWeights, p: int):
    """Dense complex delta_p; outside degrees 0..dim it is the zero map."""
    a = np.zeros((k.n_simplices(p + 1), k.n_simplices(p)), dtype=complex)
    if 0 <= p <= k.dim:
        for r, row in enumerate(_coboundary_rows(k, weights, p)):
            a[r, list(row)] = list(row.values())
    return a


def twisted_coboundary(
    k: SimplicialComplex, theta: OneCocycle, lam, p: int
) -> Matrix:
    """Matrix of delta_p : C^p -> C^{p+1} for the twisted complex.

    Rows are (p+1)-simplices, columns are p-simplices.  Degrees outside
    0..dim-1 give empty matrices of the right shape.  The rank and Hodge
    pipelines read the sparse assembly directly; this densifies it.
    """
    weights = LocalSystemWeights(k, theta, lam)
    rows = _coboundary_rows(k, weights, p)
    cols = k.n_simplices(p)
    ent = [Fraction(0) if weights.backend != "float" else 0j] * (len(rows) * cols)
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[r * cols + c] = v
    return Matrix(len(rows), cols, ent)


@dataclass(frozen=True)
class BettiProfile:
    """Twisted cohomology dimensions with their computation context."""

    dims: tuple[int, ...]
    euler: int
    lam: object
    backend: str
    tolerance: float | None
    ill_conditioned: bool

    def to_json(self) -> dict:
        out = {
            "lambda": scalar_literal(self.lam),
            "backend": self.backend,
            "dims": list(self.dims),
            "euler": self.euler,
            "ill_conditioned": self.ill_conditioned,
        }
        out["tolerance"] = self.tolerance
        return out


def betti_profile(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    backend: str | None = None,
    tolerance: float | None = None,
) -> BettiProfile:
    """All twisted cohomology dimensions of (k, theta, lambda).

    backend "float" forces numeric rank on an exact lambda; exact backends
    run tolerance-free.  The ill_conditioned flag reports whether any
    singular value fell near the rank cut (float backend only).
    """
    lam, backend, tol = _arithmetic(lam, backend=backend, tolerance=tolerance)
    weights = LocalSystemWeights(k, theta, lam)
    is_float = backend == "float"
    ranks = []
    ill_any = False
    for p in range(k.dim + 1):
        if is_float:
            r, ill = _float_rank(_coboundary_array(k, weights, p), tol)
        else:
            r, ill = _exact_rank_columns(_coboundary_rows(k, weights, p)), False
        ranks.append(r)
        ill_any = ill_any or ill
    dims = []
    for p in range(k.dim + 1):
        below = ranks[p - 1] if p > 0 else 0
        dims.append(k.n_simplices(p) - ranks[p] - below)
    euler = sum((-1) ** p * d for p, d in enumerate(dims))
    return BettiProfile(
        dims=tuple(dims),
        euler=euler,
        lam=lam,
        backend=backend,
        tolerance=tol,
        ill_conditioned=ill_any,
    )


def duality_check(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    tolerance: float | None = None,
) -> bool:
    """Whether dims(lambda)[p] == dims(1/lambda)[n-p] for all p.

    This is the Poincare duality pattern for closed orientable manifolds;
    on non-manifold complexes it can legitimately fail, so the result is
    reported rather than asserted.
    """
    return _duality(k, theta, lam, tolerance)[0]


def _duality(k, theta, lam, tolerance=None):
    """(holds, dims at lambda, reversed dims at 1/lambda) for duality_check."""
    dims = betti_profile(k, theta, lam, tolerance=tolerance).dims
    reversed_dual = betti_profile(k, theta, 1 / lam, tolerance=tolerance).dims[::-1]
    return dims == reversed_dual, dims, reversed_dual


def kunneth_check(
    factor_a: BettiProfile, factor_b: BettiProfile, product: BettiProfile
) -> bool:
    """Whether the product profile is the convolution of the factors."""
    da, db, dp = factor_a.dims, factor_b.dims, product.dims
    if len(dp) != len(da) + len(db) - 1:
        return False
    conv = [0] * len(dp)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    return tuple(conv) == dp
