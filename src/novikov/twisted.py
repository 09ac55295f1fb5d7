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

Betti numbers do not need the full complex.  With t standing for lambda,
every nonzero coboundary entry is t**theta(e) or +-1, a unit of the ring
Z[t, 1/t] of Laurent polynomials.  ``reduce`` checks that theta is closed
and eliminates pairs of cells on unit entries once, before any lambda is
chosen (Kaczynski-Mrozek-Slusarek, 1998; Skoldberg, 2006); what is left is
a residual complex, often of about the size of its cohomology, with the
same cohomology at every lambda != 0.  The residual is a held value, and
``Reduction.profile`` evaluates it at any lambda, as often as asked:

    dims[p] = #residual C^p - rank delta_p - rank delta_{p-1},

exactly for rational / number field lambda and through singular values for
float lambda.  ``betti_profile`` is ``reduce`` plus one ``Reduction.profile``.
One face rule, ``_rows``, writes every coboundary entry:
over Z[t, 1/t] for ``reduce``, and at lambda for Hodge, Wang and
``twisted_coboundary``, which read the full assembly ``_coboundary_rows``.
All functions are pure and safe to call from concurrent readers; results
depend only on their arguments.
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
    _arithmetic,
    _exact_rank_columns,
    _float_rank,
    scalar_literal,
)

__all__ = [
    "twisted_coboundary",
    "Reduction",
    "reduce",
    "BettiProfile",
    "betti_profile",
    "kunneth_check",
]


def _monodromy(theta: OneCocycle, lam, backend=None, tolerance=None):
    """Lambda's half of a local system's check; returns ``_arithmetic``'s triple.

    Exact backends require integer theta so the weights lambda**theta(e)
    live in the scalar field; the float backend accepts real exponents
    through the principal power branch.
    """
    lam, backend, tol = _arithmetic(lam, backend=backend, tolerance=tolerance)
    if backend != "float" and theta.mode != "exact":
        raise BackendMismatchError(
            "exact lambda needs an integer cocycle; use float lambda "
            "for real-valued theta"
        )
    return lam, backend, tol


def _require_closed(k: SimplicialComplex, theta: OneCocycle) -> None:
    """Theta's half: closed on k (IncompleteCocycleError when an edge lacks a value)."""
    if not validate_closed(k, theta):
        raise ValueError("cocycle is not closed on this complex")


def _local_system(k, theta, lam, backend=None, tolerance=None):
    """The whole check of a local system: lambda's half, then theta's."""
    checked = _monodromy(theta, lam, backend, tolerance)
    _require_closed(k, theta)
    return checked


def _rows(k: SimplicialComplex, theta: OneCocycle, p: int, power, signs, dropped=()):
    """delta_p as sparse rows, one {column: entry} dict per (p+1)-simplex.

    This is the one face rule of the twisted coboundary.  Face 0 of tau
    carries power(theta(tau0, tau1)), the transport along the leading edge,
    which is increasing, so its value is the stored one; face i carries
    signs[i % 2], the sign (-1)**i.  Columns in ``dropped`` are left out.
    The complex stores no positions, so level p is mapped here, once.
    """
    if p < 0 or p > k.dim:
        raise ValueError(f"degree {p} out of range for dim {k.dim}")
    index = {s: i for i, s in enumerate(k.simplices[p])}
    values = theta.values
    rows = []
    for tau in k.simplices[p + 1] if p < k.dim else ():
        row = {}
        c = index[tau[1:]]
        if c not in dropped:
            row[c] = power(values[tau[:2]])
        for i in range(1, len(tau)):
            c = index[tau[:i] + tau[i + 1 :]]
            if c not in dropped:
                row[c] = signs[i % 2]
        rows.append(row)
    return rows


def _weight(lam):
    """x -> lam**x, the transport weight at a lambda from ``_local_system``.

    Exact weights are Fraction or NumberFieldElement; float weights are
    complex, and one past the float range raises NumericalError.  CPython
    takes a negative integer power as 1 / z**-x, which is nan once z**-x
    overflows, so a non-finite power is taken again through ``_power``:
    one that only underflows comes back finite.
    """
    if not isinstance(lam, (float, complex)):
        return lambda x: lam ** x
    z = complex(lam)

    def weight(x):
        try:
            w = z ** complex(x)
            if not cmath.isfinite(w):
                w = _power(z, x)
            if cmath.isfinite(w):
                return w
        except (OverflowError, ZeroDivisionError):
            pass
        raise NumericalError(f"lambda**theta = {lam}**{x} leaves the float range")

    return weight


def _coboundary_rows(k: SimplicialComplex, theta: OneCocycle, lam, p: int):
    """delta_p at a lambda from ``_local_system``.

    Its entries are never a plain int, which would turn exact elimination
    into float arithmetic.
    """
    weight = _weight(lam)
    one = weight(0)
    # not -one, whose float form has a -0.0 imaginary part
    return _rows(k, theta, p, weight, (one, 0 - one))


def twisted_coboundary(
    k: SimplicialComplex, theta: OneCocycle, lam, p: int
) -> Matrix:
    """Matrix of delta_p : C^p -> C^{p+1} for the twisted complex.

    Rows are (p+1)-simplices, columns are p-simplices.  Degree dim gives
    the empty 0 x n_dim matrix; a degree below 0 or above dim raises
    ValueError.  The rank and Hodge pipelines read the sparse assembly
    directly; this densifies it.
    """
    lam, _, _ = _local_system(k, theta, lam)
    rows = _coboundary_rows(k, theta, lam, p)
    cols = k.n_simplices(p)
    # the field's own zero, shared by every empty cell
    ent = [0 * _weight(lam)(0)] * (len(rows) * cols)
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[r * cols + c] = v
    return Matrix(len(rows), cols, ent)


# Laurent polynomials in t = lambda are {exponent: integer coefficient} dicts.
# The sign entries are shared; elimination builds new dicts, never edits one.
_SIGNS = ({0: 1}, {0: -1})


@dataclass(frozen=True, slots=True)
class Reduction:
    """The twisted complex over Z[t, 1/t] after pair elimination on units.

    ``complex`` and ``theta`` are the inputs themselves, not copies.
    ``sizes[p]`` counts the residual p-cells.  ``deltas[p]`` is the residual
    delta_p as sparse rows, one {column: Laurent polynomial} dict per
    residual (p+1)-cell, with columns numbered among the residual p-cells.
    """

    complex: SimplicialComplex
    theta: OneCocycle
    sizes: tuple[int, ...]
    deltas: tuple[tuple[dict, ...], ...]

    def profile(self, lam, backend=None, tolerance=None) -> BettiProfile:
        """All twisted cohomology dimensions at lambda, ranked on the residual.

        Only lambda is checked here; ``reduce`` checked theta.  backend
        "float" forces numeric rank on an exact lambda; exact backends run
        tolerance-free.  The ill_conditioned flag reports whether any
        singular value of a residual coboundary fell near the rank cut
        (float backend only).  The residual is read, never edited.
        """
        lam, backend, tol = _monodromy(self.theta, lam, backend, tolerance)
        is_float = backend == "float"
        if is_float:
            weight = _weight(lam)
            for e in self.complex.edges:
                weight(self.theta.values[e])  # NumericalError once one leaves the float range
        ranked = [
            _float_rank(_float_array(rows, n, lam), tol, floor=1.0) if is_float
            else (_exact_rank_columns(_exact_rows(rows, lam)), False)
            for rows, n in zip(self.deltas, self.sizes)
        ]
        ranks = [r for r, _ in ranked]
        dims = tuple(n - r - q for n, r, q in zip(self.sizes, ranks, [0] + ranks))
        euler = sum((-1) ** p * d for p, d in enumerate(dims))
        return BettiProfile(dims, euler, lam, backend, tol, any(ill for _, ill in ranked))


def _laurent_rows(k: SimplicialComplex, theta: OneCocycle, p: int, dropped):
    """delta_p over Z[t, 1/t] without the columns in ``dropped``."""
    return _rows(k, theta, p, lambda x: {x: 1}, _SIGNS, dropped)


def _eliminate(rows, ncols):
    """Pair elimination in place on the Laurent rows of one delta_p.

    Each row in turn pivots on a +-t**e entry whose column is shortest;
    every other row of that column takes the Schur complement
    row -= (entry / pivot) * pivot row.  Pivot rows become None and pivot
    columns leave every row.  Returns the pivots as (row, column, unit).
    """
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    pivots = []
    for b, row in enumerate(rows):
        a = None
        for c, ent in row.items():
            if len(ent) == 1 and (a is None or len(holders[c]) < len(holders[a])):
                ((_, y),) = ent.items()
                if y == 1 or y == -1:
                    a = c
        if a is None:
            continue
        unit = row[a]
        ((e, s),) = unit.items()
        pivots.append((b, a, unit))
        rows[b] = None
        for c in row:
            holders[c].discard(b)
        rest = [(c, ent, holders[c]) for c, ent in row.items() if c != a]
        for j in holders[a]:
            target = rows[j]
            # -(entry / unit); s is +-1, its own inverse
            factor = [(x - e, -y * s) for x, y in target.pop(a).items()]
            for c, ent, held in rest:
                old = target.get(c)
                new = dict(old) if old else {}
                for x, y in factor:
                    for x2, y2 in ent.items():
                        z = x + x2
                        v = new.get(z, 0) + y * y2
                        if v:
                            new[z] = v
                        else:
                            del new[z]
                if new:
                    target[c] = new
                    held.add(j)
                elif old:
                    del target[c]
                    held.discard(j)
    return pivots


def reduce(k: SimplicialComplex, theta: OneCocycle) -> Reduction:
    """Shrink the twisted complex of (k, theta) over Z[t, 1/t], for every lambda.

    Degree by degree, pairs (a in C^p, b in C^{p+1}) are eliminated on a
    unit entry of delta_p: the Schur complement replaces delta_p, row a of
    delta_{p-1} is deleted and column b of delta_{p+1} is dropped when
    degree p + 1 is assembled.  The deletions rely on delta delta = 0, so
    theta must be closed, and that is checked first.  Entries keep integer
    coefficients, and a real theta gives real exponents.
    """
    _require_closed(k, theta)
    sizes, deltas = [], []
    dropped = set()  # p-cells paired with a (p-1)-cell
    below = []  # rows of delta_{p-1}, keyed by p-cell, awaiting row deletion
    below_number = {}
    for p in range(k.dim + 1):
        rows = _laurent_rows(k, theta, p, dropped)
        paired = _eliminate(rows, k.n_simplices(p))
        gone = dropped | {a for _, a, _ in paired}
        keep = [c for c in range(k.n_simplices(p)) if c not in gone]
        if p:
            deltas.append(tuple(
                {below_number[c]: ent for c, ent in below[r].items()} for r in keep
            ))
        sizes.append(len(keep))
        dropped = {b for b, _, _ in paired}
        below = rows
        below_number = {c: i for i, c in enumerate(keep)}
    deltas.append(())
    return Reduction(k, theta, tuple(sizes), tuple(deltas))


def _exact_rows(rows, lam):
    """Residual rows at an exact lambda: each t**e becomes Fraction(c) * lam**e."""
    return [
        {c: sum(Fraction(y) * lam**x for x, y in ent.items()) for c, ent in row.items()}
        for row in rows
    ]


def _power(lam: complex, x):
    """lam**x = exp(x log lam) on the principal branch, where |lam**x| <= 1.

    An integer power multiplies out lam or 1/lam, whichever is at most 1 in
    magnitude, so it never overflows; for |x| <= 100 it also never leaves
    the real axis, and past that CPython takes the polar form.
    """
    if x != int(x):
        return lam ** complex(x)
    return (1 / lam) ** -int(x) if x < 0 else lam ** int(x)


def _float_array(rows, ncols, lam):
    """Residual rows at a float lambda, as a dense complex array.

    Each row is first divided by a monomial lam**shift, with shift its
    largest exponent when |lambda| >= 1 and its smallest otherwise; then
    each column is divided by its own extreme monomial of what is left, so
    that no power exceeds 1 in magnitude and none can overflow.  Scaling a
    row or a column leaves the rank alone, and the column pass keeps a
    column that no row leads from shrinking below the rank cut.  Every
    scaled row and column holds a term of magnitude 1 before any
    cancellation, so ``Reduction.profile`` ranks these arrays against an
    absolute scale of 1, as the full delta_p with its +-1 entries would be:
    a real theta that closes only up to rounding leaves t**x - t**(x + eps)
    where the exact residual has a zero, and that noise must not set the
    rank cut.
    """
    lam = complex(lam)
    pick = max if abs(lam) >= 1 else min
    shifts = [pick(x for ent in row.values() for x in ent) if row else 0 for row in rows]
    columns = {}
    for row, shift in zip(rows, shifts):
        for c, ent in row.items():
            x = pick(ent) - shift
            columns[c] = pick(columns[c], x) if c in columns else x
    a = np.zeros((len(rows), ncols), dtype=complex)
    for r, (row, shift) in enumerate(zip(rows, shifts)):
        for c, ent in row.items():
            s = shift + columns[c]
            a[r, c] = sum(y * _power(lam, x - s) for x, y in ent.items())
    return a


@dataclass(frozen=True, slots=True)
class BettiProfile:
    """Twisted cohomology dimensions with their computation context."""

    dims: tuple[int, ...]
    euler: int
    lam: object
    backend: str
    tolerance: float | None
    ill_conditioned: bool

    def to_json(self) -> dict:
        return {
            "lambda": scalar_literal(self.lam),
            "backend": self.backend,
            "dims": list(self.dims),
            "euler": self.euler,
            "ill_conditioned": self.ill_conditioned,
            "tolerance": self.tolerance,
        }


def betti_profile(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    backend: str | None = None,
    tolerance: float | None = None,
) -> BettiProfile:
    """All twisted cohomology dimensions of (k, theta, lambda): ``reduce``
    and one ``Reduction.profile``.  A caller with several lambdas holds the
    reduction instead."""
    return reduce(k, theta).profile(lam, backend, tolerance)


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
