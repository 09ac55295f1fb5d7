"""Dense exact references that the tests compare the package against.

The package keeps a dense ``Matrix`` only for the square blocks of a fiber
action.  Products and transposes in the tests run on numpy ``dtype=object``
arrays of the matrix entries, so Fraction and number-field arithmetic stays
exact.  ``boundary`` is the simplicial boundary operator and ``coboundary``
the twisted coboundary, both built straight from their formulas on the
sorted simplex tables, independent of the face rule ``novikov.twisted._rows``
that writes the coboundaries of ``reduce``, Wang and ``twisted_coboundary``;
``coboundary`` is the declared cross-check of that assembly.  ``dense_route_dims`` is the full route to the
twisted Betti numbers, the declared cross-check of ``betti_profile``: it
ranks every coboundary of the whole complex at lambda, where ``betti_profile`` ranks the
residual of ``novikov.twisted.reduce``.  ``adjoint`` and ``laplacian`` are
the weighted adjoint W^{-1} delta^H W and the full Laplacian, which
``novikov.hodge`` never forms, and ``complex_hodge_spectrum`` is that
Laplacian's spectrum in complex arithmetic throughout: the declared
cross-check of ``novikov.hodge``, which reads only the scaled coboundaries
and solves two Gram pieces of them, in real arithmetic when every
coboundary entry is real.  ``dense_gram`` is the product over the whole
of one scaled coboundary, the declared cross-check of ``novikov.hodge._gram``,
which sums only the products within each row or column.  ``rows_scaled``
reads Hodge's scaled coboundaries off the dict rows of ``_coboundary_rows``:
the declared cross-check of ``novikov.hodge._scaled``, which builds them as
arrays from a face table.  ``_coboundary_array`` is the dense complex
coboundary every cross-check reads.
"""

from fractions import Fraction

import numpy as np

from novikov.scalars import Matrix, NumberFieldElement, _exact_rank_columns, _float_rank
from novikov.twisted import _coboundary_rows, _local_system


def dense(m: Matrix) -> np.ndarray:
    """The entries of m as an object array of its shape."""
    return np.array(m.rows(), dtype=object).reshape(m.shape)


def from_dense(a: np.ndarray) -> Matrix:
    return Matrix(a.shape[0], a.shape[1], a.ravel().tolist())


def boundary(k, p: int) -> np.ndarray:
    """Boundary operator C_p -> C_{p-1} with alternating-sign entries.

    Rows are (p-1)-simplices, columns are p-simplices; entry is the
    incidence sign (-1)^i of dropping vertex i.  p=0 gives a 0 x n array
    (reduced-boundary conventions are not used here).
    """
    if p < 0 or p > k.dim:
        raise ValueError(f"degree {p} out of range for dim {k.dim}")
    rows = k.n_simplices(p - 1) if p > 0 else 0
    out = np.full((rows, k.n_simplices(p)), Fraction(0), dtype=object)
    if p > 0:
        for j, s in enumerate(k.simplices[p]):
            for i in range(len(s)):
                out[k.simplex_index(s[:i] + s[i + 1 :]), j] = Fraction((-1) ** i)
    return out


def coboundary(k, theta, lam, p: int) -> np.ndarray:
    """Twisted coboundary C^p -> C^{p+1} at lambda, entry by entry.

    (delta f)(v0..v_{p+1}) = lam**theta(v0, v1) f(v1..v_{p+1})
                             + sum_{i>=1} (-1)^i f(v0..^v_i..v_{p+1}),
    so row tau holds lam**theta(tau0, tau1) in the column of its face 0 and
    (-1)^i in the column of its face i.  A float lambda takes the complex
    principal power; exact and number-field entries stay in their field.
    p = dim gives a 0 x n array.
    """
    if isinstance(lam, (float, complex)):
        lam, field = complex(lam), complex
    elif isinstance(lam, NumberFieldElement):
        def field(c):
            return NumberFieldElement.constant(c, lam.minpoly)
    else:
        lam, field = Fraction(lam), Fraction
    taus = k.simplices[p + 1] if p < k.dim else ()
    out = np.full((len(taus), k.n_simplices(p)), field(0), dtype=object)
    for r, tau in enumerate(taus):
        x = theta.value(tau[0], tau[1])
        out[r, k.simplex_index(tau[1:])] = lam ** (complex(x) if field is complex else x)
        for i in range(1, len(tau)):
            out[r, k.simplex_index(tau[:i] + tau[i + 1 :])] = field((-1) ** i)
    return out


def _coboundary_array(k, theta, lam, p: int) -> np.ndarray:
    """Dense complex delta_p from ``_coboundary_rows``; outside degrees
    0..dim it is the zero map."""
    a = np.zeros((k.n_simplices(p + 1), k.n_simplices(p)), dtype=complex)
    if 0 <= p <= k.dim:
        rows, cols, vals = [], [], []
        for r, row in enumerate(_coboundary_rows(k, theta, lam, p)):
            rows += [r] * len(row)
            cols += row
            vals += row.values()
        a[rows, cols] = vals
    return a


def rows_scaled(k, theta, lam, w, *degrees) -> list[tuple]:
    """``novikov.hodge._scaled``'s pieces ``(shape, rows, cols, vals)`` read
    off the dict rows of ``_coboundary_rows``, unchecked: the declared
    cross-check of Hodge's array assembly, which must match it byte for
    byte.  Entries come row by row in face order; vals is float64 when no
    entry of delta_q has an imaginary part, and is scaled by
    w_{q+1}^{1/2} / w_q^{1/2} in that order of operations."""
    lam = _local_system(k, theta, lam, backend="float")[0]
    pieces = []
    for q in degrees:
        rows = _coboundary_rows(k, theta, lam, q) if 0 <= q <= k.dim else []
        r = np.array([i for i, row in enumerate(rows) for _ in row], dtype=np.intp)
        c = np.array([j for row in rows for j in row], dtype=np.intp)
        vals = np.array([v for row in rows for v in row.values()], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = (vals if vals.imag.any() else vals.real) * np.sqrt(w.vector(q + 1))[r]
            vals /= np.sqrt(w.vector(q))[c]
        pieces.append(((k.n_simplices(q + 1), k.n_simplices(q)), r, c, vals))
    return pieces


def adjoint(k, theta, lam, p: int, w) -> np.ndarray:
    """Weighted adjoint W_p^{-1} delta_p^H W_{p+1} of the complex
    ``_coboundary_array``, mapping degree p+1 back to degree p.  w is an
    ``InnerProduct``."""
    lam = _local_system(k, theta, lam, backend="float")[0]
    d = _coboundary_array(k, theta, lam, p)
    return (d.conj().T * w.vector(p + 1)) / w.vector(p)[:, None]


def laplacian(k, theta, lam, p: int, w) -> np.ndarray:
    """The full degree-p weighted Laplacian
    adjoint(delta_p) delta_p + delta_{p-1} adjoint(delta_{p-1}), complex."""
    lam = _local_system(k, theta, lam, backend="float")[0]
    below, here = (_coboundary_array(k, theta, lam, q) for q in (p - 1, p))
    return adjoint(k, theta, lam, p, w) @ here + below @ adjoint(k, theta, lam, p - 1, w)


def complex_hodge_spectrum(k, theta, lam, p: int, w) -> np.ndarray:
    """Degree-p weighted Laplacian spectrum from complex deltas.

    The full ``laplacian``, its symmetrization W^{1/2} Lap W^{-1/2} and
    ``eigvalsh``, all in complex128 whatever the entries are.
    """
    root = np.sqrt(w.vector(p))
    sym = (root[:, None] * laplacian(k, theta, lam, p, w)) / root
    return np.linalg.eigvalsh((sym + sym.conj().T) / 2)


def dense_gram(a) -> np.ndarray:
    """Gram matrix of one ``novikov.hodge._scaled`` piece on its smaller side,
    as the dense product over the whole of A: A A^H when A has fewer rows
    than columns, A^H A otherwise.  The declared cross-check of
    ``novikov.hodge._gram``, which sums only the products within a line."""
    shape, rows, cols, vals = a
    d = np.zeros(shape, dtype=vals.dtype)
    d[rows, cols] = vals
    return d @ d.conj().T if shape[0] < shape[1] else d.conj().T @ d


def dense_route_dims(k, theta, lam) -> tuple:
    """Twisted Betti numbers from the ranks of the full coboundaries at lambda.

    Exact lambda eliminates on the sparse rows of every delta_p; float
    lambda takes the singular values of the dense complex delta_p.
    """
    lam, backend, tol = _local_system(k, theta, lam)
    ranks = [
        _float_rank(_coboundary_array(k, theta, lam, p), tol)[0]
        if backend == "float"
        else _exact_rank_columns(_coboundary_rows(k, theta, lam, p))
        for p in range(k.dim + 1)
    ]
    return tuple(
        k.n_simplices(p) - ranks[p] - (ranks[p - 1] if p else 0)
        for p in range(k.dim + 1)
    )
