"""Dense exact references that the tests compare the package against.

The package keeps a dense ``Matrix`` only for the square blocks of a fiber
action.  Products and transposes in the tests run on numpy ``dtype=object``
arrays of the matrix entries, so Fraction and number-field arithmetic stays
exact.  ``boundary`` is the simplicial boundary operator built straight from
the sorted simplex tables, independent of the sparse coboundary assembly in
``novikov.twisted``.  ``dense_route_dims`` is the full route to the twisted
Betti numbers, the declared cross-check of ``betti_profile``: it ranks every
coboundary of the whole complex at lambda, where ``betti_profile`` ranks the
residual of ``novikov.twisted.reduce``.  ``complex_hodge_spectrum`` is the
Laplacian spectrum in complex arithmetic throughout, the declared
cross-check of ``novikov.hodge.laplacian_spectrum``, which runs in real
arithmetic when every coboundary entry is real.
"""

from fractions import Fraction

import numpy as np

from novikov.scalars import Matrix, _arithmetic, _exact_rank_columns, _float_rank
from novikov.twisted import LocalSystemWeights, _coboundary_array, _coboundary_rows


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


def complex_hodge_spectrum(k, theta, lam, p: int, w) -> np.ndarray:
    """Degree-p weighted Laplacian spectrum from complex deltas.

    The complex ``_coboundary_array`` of degrees p-1 and p, their weighted
    adjoints W^{-1} delta^H W, the symmetrization W^{1/2} Lap W^{-1/2} and
    ``eigvalsh``, all in complex128 whatever the entries are.  w is an
    ``InnerProduct``.
    """
    weights = LocalSystemWeights(k, theta, _arithmetic(lam, backend="float")[0])
    below, here = (_coboundary_array(k, weights, q) for q in (p - 1, p))

    def adjoint(d, q):
        return (d.conj().T * w.vector(q + 1)) / w.vector(q)[:, None]

    lap = adjoint(here, p) @ here + below @ adjoint(below, p - 1)
    root = np.sqrt(w.vector(p))
    sym = (root[:, None] * lap) / root
    return np.linalg.eigvalsh((sym + sym.conj().T) / 2)


def dense_route_dims(k, theta, lam) -> tuple:
    """Twisted Betti numbers from the ranks of the full coboundaries at lambda.

    Exact lambda eliminates on the sparse rows of every delta_p; float
    lambda takes the singular values of the dense complex delta_p.
    """
    lam, backend, tol = _arithmetic(lam)
    weights = LocalSystemWeights(k, theta, lam)
    ranks = [
        _float_rank(_coboundary_array(k, weights, p), tol)[0]
        if backend == "float"
        else _exact_rank_columns(_coboundary_rows(k, weights, p))
        for p in range(k.dim + 1)
    ]
    return tuple(
        k.n_simplices(p) - ranks[p] - (ranks[p - 1] if p else 0)
        for p in range(k.dim + 1)
    )
