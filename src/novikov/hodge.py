"""Weighted Hodge theory for the twisted coboundary, on the float backend.

A positive diagonal weight per simplex defines the inner product
<a, b>_p = sum_s w_p(s) conj(a_s) b_s.  The adjoint of the twisted
coboundary is then W_p^{-1} delta_p^H W_{p+1} and the Laplacian is

    Lap_p = adjoint(delta_p) delta_p + delta_{p-1} adjoint(delta_{p-1}).

Its kernel has the dimension of degree-p twisted cohomology, which gives a
spectral route to the same numbers the rank pipeline produces; the two are
cross-checked in the test suite.  Everything here is numerical: exact
backends have no square roots or conjugation, so lambda is coerced to a
float up front by the backend decision of ``scalars``, which refuses a
number-field lambda and raises NumericalError past the float range.

Every product reads the scaled coboundaries
A_q = W_{q+1}^{1/2} delta_q W_q^{-1/2}, built in one helper, ``_scaled``,
as their nonzero entries: a row of A_q holds q + 2 of them.  They are
assembled in numpy from a face table made per call: each level the degrees
read as an int64 array, and each face found by ``np.searchsorted`` on
integer keys (``_positions``), with one transport weight per distinct
exponent.  ``twisted._coboundary_rows``, the dict rows that ``reduce``,
Wang and ``twisted_coboundary`` read, writes the same entries and is the
declared cross-check: the tests hold the two to the same bytes.  In the
coordinates W_p^{1/2} x the weighted metric is the plain one, the
adjoint is A^H, and W_p^{1/2} Lap_p W_p^{-1/2} = A_p^H A_p + A_{p-1} A_{p-1}^H,
whose two terms have orthogonal ranges since delta_p delta_{p-1} = 0.  So
nothing forms Lap_p or an adjoint.  The spectrum in degree p is the
nonzero eigenvalues of two Gram matrices, each formed on the smaller side
of its A (A^H A or A A^H), padded with zeros (Eckmann, 1944; Horak-Jost,
Adv. Math. 2013).  ``_gram`` forms each piece from the entries, summing the
products within each row or column, so no dense A is allocated and nothing
is multiplied by its zeros.  ``_spectra``, the one routine that solves the
pieces, scales each A_q of a range of degrees once and solves each piece
once: ``novikov hodge`` reads all degrees from one pass, and
``laplacian_spectrum`` is its one-degree window.  ``hodge_decompose``
projects onto im A_{p-1} and im A_p^H, and ``harmonic_representative`` off
im A_0, by plain least squares, on the dense A of ``_dense``.  The full
adjoint and Laplacian, and the dense Gram product, live on only in the
tests, as the declared cross-checks.

When no entry of delta_q has a nonzero imaginary part, as for a positive
lambda, A_q's scaled entries are float64 and so is its Gram piece, which is
solved in real arithmetic at about half the cost of a complex Hermitian one.
Each A_q decides from its own entries, so a piece is solved the same way in
any range of degrees, and the all-degree pass and ``laplacian_spectrum``
agree byte for byte.  The decision reads the assembled entries, not the
sign of lambda or the kind of theta: the complex power leaves an imaginary
part at a negative lambda once the exponent is large (complex(-2.0) **
complex(101) has imaginary part 2.2e16), and an entry test keeps the real
parts bit for bit either way.  A scaled coboundary, Gram matrix or Hodge
decomposition whose products leave the float range raises NumericalError.

Harmonic cutoffs act on the singular-value scale (square roots of Laplacian
eigenvalues) relative to the largest one.  Eigenvalue-scale cutoffs look
natural but misclassify near-kernels: a coboundary within eps of a singular
matrix has a Laplacian eigenvalue of order eps^2, which slips under any
linear cut long before the matrix is actually singular.  The user threshold
is floored at the noise level sqrt(n * machine_eps) so that true zeros are
never dropped by an overly tight request.  A true zero comes back either as
a padded exact zero or as a zero eigenvalue of a Gram piece, which solving
perturbs by about m * eps * ||A||^2; the piece's side m is at most n and
||A||^2 at most eig_max, so that is n * eps * eig_max at worst.  Forming a
Gram entry adds only the few products of one row or column, so it adds
less than that.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import chain, combinations

import numpy as np

from .complexes import SimplicialComplex, _natural, _number
from .cocycles import OneCocycle, zero_cocycle
from .errors import NumericalError
from . import twisted

__all__ = [
    "DEFAULT_HARMONIC_THRESHOLD",
    "InnerProduct",
    "laplacian_spectrum",
    "harmonic_dim",
    "spectral_gap",
    "HodgeParts",
    "hodge_decompose",
    "harmonic_representative",
]

DEFAULT_HARMONIC_THRESHOLD = 1e-8


@dataclass(frozen=True, slots=True, eq=False)
class InnerProduct:
    """Positive diagonal weights, one vector per simplex degree."""

    complex: SimplicialComplex
    weights: InitVar[dict | None] = None
    _vectors: tuple = field(init=False, repr=False)

    def __post_init__(self, weights):
        k = self.complex
        for p in weights or ():
            if not (_natural(p) and p <= k.dim):
                raise ValueError(f"weight degree {p!r} is not an int in 0..{k.dim}")
        vectors = []
        for p in range(k.dim + 1):
            n = k.n_simplices(p)
            given = None if weights is None else weights.get(p)
            if given is None:
                vec = np.ones(n)
            else:
                vec = np.asarray([_number(w, "a weight") for w in given])
                if vec.shape != (n,):
                    raise ValueError(
                        f"degree {p} weight vector has length {vec.size}, "
                        f"need {n}"
                    )
                if not np.all(np.isfinite(vec) & (vec > 0)):
                    raise ValueError(f"degree {p} weights must be positive and finite")
            vectors.append(vec)
        object.__setattr__(self, "_vectors", tuple(vectors))

    def vector(self, p: int) -> np.ndarray:
        if 0 <= p <= self.complex.dim:
            return self._vectors[p]
        return np.ones(0)

    def pairing(self, p: int, a, b) -> complex:
        return complex(np.vdot(np.asarray(a), self.vector(p) * np.asarray(b)))


def _resolve(k, weights) -> InnerProduct:
    if weights is None:
        return InnerProduct(k)
    if not (isinstance(weights, InnerProduct) and weights.complex == k):
        raise ValueError("weights must be None or an InnerProduct on this complex")
    return weights


def _require_finite(what: str, *arrays) -> None:
    # finite weights can still multiply past the float range in the products,
    # which run with numpy's overflow warnings off and are checked here
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} leaves the float range")


def _level(k, p) -> np.ndarray:
    """Level p of k as an int64 array, one row of p + 1 vertices per simplex."""
    level = k.simplices[p]
    flat = np.fromiter(chain.from_iterable(level), np.int64, len(level) * (p + 1))
    return flat.reshape(-1, p + 1)


def _positions(keys, faces, n) -> np.ndarray:
    """Positions of simplices of k in their sorted level; faces[j] holds
    vertex j of each.

    Vertex v is 0-simplex v.  A longer simplex's key is its prefix face's
    position times n = vertex_count plus its last vertex: ``keys[j]``, level
    j's keys, increase, and each is below n_{j-1} n, which fits in int64
    for any complex that fits in memory, where a radix key n**(j+1) need not.
    """
    pos = faces[0]
    for j in range(1, len(faces)):
        pos = np.searchsorted(keys[j], pos * n + faces[j])
    return pos


def _coboundary(k, theta, weight, q, levels, keys) -> tuple:
    """delta_q, 0 <= q <= dim, as its nonzero entries (rows, cols, vals).

    Row i is (q+1)-simplex tau = levels[q + 1][i], and its entries come in
    face order: face 0, tau without its leading vertex, carries
    weight(theta(tau0, tau1)), and face j >= 1 the sign (-1)**j.  Sorted
    rows have nondecreasing leading edges, so ``weight`` is called once per
    distinct exponent, in row order, on the edges the rows read and on no
    other.  vals is float64 when no weight has an imaginary part.
    """
    if q == k.dim:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    tau = levels[q + 1]
    m, width = tau.shape
    n = k.vertex_count
    # the vertices each face keeps: combinations drop the last vertex first.
    # Faces are looked up one face at a time, down the rows, where their
    # keys come nearly sorted
    keep = np.array(list(combinations(range(width), width - 1))[::-1])
    faces = tau.T[keep.T].reshape(width - 1, -1)
    cols = _positions(keys, faces, n).reshape(width, m).T.ravel()
    edges, spread = k.edges, slice(None)  # delta_0's rows are the edges
    if q:  # each distinct leading edge once
        lead = tau[:, 0] * n + tau[:, 1]
        new = np.ones(m, dtype=bool)
        np.not_equal(lead[1:], lead[:-1], out=new[1:])
        edges = map(edges.__getitem__, np.searchsorted(keys[1], lead[new]).tolist())
        spread = np.cumsum(new) - 1
    exponents = list(map(theta.values.__getitem__, edges))
    # in row order, so that the first weight to fail is the dict rows' first
    powers = dict.fromkeys(exponents)
    for x in powers:
        powers[x] = weight(x)
    lead_w = np.array(list(map(powers.__getitem__, exponents)), dtype=complex)[spread]
    if not lead_w.imag.any():
        lead_w = lead_w.real
    vals = np.empty((m, width), dtype=lead_w.dtype)
    vals[:, 0] = lead_w
    vals[:, 1::2] = -1.0
    vals[:, 2::2] = 1.0
    rows = np.repeat(np.arange(m, dtype=np.intp), width)
    return rows, cols, vals.reshape(-1)


def _scaled(k, theta, lam, w: InnerProduct, what: str, *degrees) -> list[tuple]:
    """The scaled coboundaries A_q = W_{q+1}^{1/2} delta_q W_q^{-1/2}.

    The one place the inner product enters an operator.  Each A_q comes back
    as its nonzero entries, ``(shape, rows, cols, vals)``, and no dense array
    is allocated.  Each delta_q is assembled once, by ``_coboundary``, from
    one face table per call: the levels the degrees read as int64 arrays
    and the sorted keys of ``_positions``.  A_q's values are float64 when
    none of delta_q's entries has a nonzero imaginary part, complex
    otherwise.  Outside degrees 0..dim delta is the zero map, with no
    entries.
    """
    lam = twisted._local_system(k, theta, lam, backend="float")[0]
    weight = twisted._weight(lam)
    # the face table: levels 1..top, and the keys of those that hold faces
    top, n = min(max(degrees) + 1, k.dim), k.vertex_count
    levels = [None] + [_level(k, p) for p in range(1, top + 1)]
    keys = [None]
    for level in levels[1:top]:
        keys.append(_positions(keys, level.T[:-1], n) * n + level[:, -1])
    scaled = []
    for q in degrees:
        if 0 <= q <= k.dim:
            r, c, vals = _coboundary(k, theta, weight, q, levels, keys)
        else:
            r = c = np.zeros(0, dtype=np.intp)
            vals = np.zeros(0)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * np.sqrt(w.vector(q + 1))[r]
            vals /= np.sqrt(w.vector(q))[c]
        scaled.append(((k.n_simplices(q + 1), k.n_simplices(q)), r, c, vals))
    _require_finite(what, *(vals for *_, vals in scaled))
    return scaled


def _dense(a) -> np.ndarray:
    """One scaled coboundary of ``_scaled`` as a dense array, for the least
    squares of ``hodge_decompose`` and ``harmonic_representative``."""
    shape, r, c, vals = a
    out = np.zeros(shape, dtype=vals.dtype)
    out[r, c] = vals
    return out


def _gram(a) -> np.ndarray:
    """Gram matrix of one scaled coboundary on its smaller side: A A^H when A
    has fewer rows than columns, A^H A otherwise.

    Entry (i, j) of A^H A sums conj(A[r, i]) A[r, j] over the rows r that
    hold both, and A A^H is the same sum over columns with A conjugated.  So
    each line (a row, or a column) contributes the products of its few
    entries, and ``np.add.at`` adds them into the m x m matrix: no dense A
    and no product over its zeros.
    """
    (n_rows, n_cols), r, c, vals = a
    if n_rows < n_cols:
        m, line, at, vals = n_rows, c, r, vals.conj()
    else:
        m, line, at = n_cols, r, c
    order = np.argsort(line, kind="stable")
    line, at, vals = line[order], at[order], vals[order]
    # every entry pairs with each entry of its line, its own included
    count = np.bincount(line)[line]
    left = np.repeat(np.arange(line.size), count)
    first = np.repeat(np.searchsorted(line, line), count)
    right = first + np.arange(left.size) - np.repeat(np.cumsum(count) - count, count)
    gram = np.zeros(m * m, dtype=vals.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(gram, at[left] * m + at[right], vals[left].conj() * vals[right])
    return gram.reshape(m, m)


def _spectra(k, theta, lam, w, degrees: range) -> list[np.ndarray]:
    """Ascending Laplacian spectra in a range of consecutive degrees.

    A_{lo-1}..A_hi are scaled in one ``_scaled`` call and each non-empty
    Gram piece is formed by ``_gram`` and solved once, on its smaller side.
    Degree p takes the n_p largest of eig Gram(A_{p-1}), eig Gram(A_p) and
    n_p zeros (see the module docstring); anything below them is a zero in
    exact arithmetic, since rank A_p + rank A_{p-1} <= n_p.
    """
    lo, hi = degrees[0], degrees[-1]
    what = f"degree {lo} Laplacian" if lo == hi else f"degree {lo}..{hi} Laplacian"
    span = range(lo - 1, hi + 1)
    eigs = []
    for q, a in zip(span, _scaled(k, theta, lam, w, what, *span)):
        if 0 in a[0]:
            eigs.append(np.zeros(0))
            continue
        gram = _gram(a)
        _require_finite(what, gram)
        try:
            eigs.append(np.linalg.eigvalsh(gram))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalue solve failed on Gram(A_{q}): {exc}") from exc
        del gram  # so that it is not alive while _gram forms the next piece
    spectra = []
    for below, here, p in zip(eigs, eigs[1:], degrees):
        n = k.n_simplices(p)
        values = np.sort(np.concatenate([np.zeros(n), below, here]))
        spectra.append(values[values.size - n :])
    return spectra


def laplacian_spectrum(
    k: SimplicialComplex, theta: OneCocycle, lam, p: int, weights=None
) -> np.ndarray:
    """Ascending real eigenvalues of the degree-p twisted Laplacian: the
    one-degree window of ``_spectra``."""
    return _spectra(k, theta, lam, _resolve(k, weights), range(p, p + 1))[0]


def _singular_values(spectrum: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(spectrum, 0.0, None))


def _harmonic_cut(sing: np.ndarray, threshold: float) -> float:
    # a true zero is a padded 0 or a zero of one Gram piece m x m (m <= n),
    # which eigvalsh perturbs by about m * eps * ||A||^2, at most
    # n * eps * eig_max: sqrt(n * eps) * sigma_max after the square root, so
    # the user threshold is floored at that machine-noise level; a Gram entry
    # sums only the few products of one line, so forming it adds less and
    # the floor stays conservative
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(
            f"harmonic threshold must be finite and nonnegative, got {threshold}"
        )
    floor = math.sqrt(sing.size * np.finfo(float).eps)
    return max(threshold, floor) * sing.max(initial=0.0)


def _dim_and_gap(spectrum: np.ndarray, threshold: float):
    """Harmonic dimension and spectral gap of one Laplacian spectrum.

    An empty or all-zero spectrum has the cut 0: every value is harmonic
    and there is no gap.
    """
    sing = _singular_values(spectrum)
    cut = _harmonic_cut(sing, threshold)
    above = spectrum[sing > cut]
    gap = float(above.min()) if above.size else None
    return int(np.count_nonzero(sing <= cut)), gap


def harmonic_dim(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    p: int,
    weights=None,
    threshold: float = DEFAULT_HARMONIC_THRESHOLD,
) -> int:
    """Dimension of the harmonic space, counted on the singular-value scale."""
    return _dim_and_gap(laplacian_spectrum(k, theta, lam, p, weights), threshold)[0]


def spectral_gap(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    p: int,
    weights=None,
    threshold: float = DEFAULT_HARMONIC_THRESHOLD,
):
    """Smallest nonzero Laplacian eigenvalue in degree p, None if all zero."""
    return _dim_and_gap(laplacian_spectrum(k, theta, lam, p, weights), threshold)[1]


@dataclass(frozen=True, slots=True, eq=False)
class HodgeParts:
    """Weighted-orthogonal split of a cochain into its three components."""

    harmonic: np.ndarray
    exact: np.ndarray
    coexact: np.ndarray
    residual: float

    def recombined(self) -> np.ndarray:
        return self.harmonic + self.exact + self.coexact


def _projection(target, basis):
    """Orthogonal projection of target onto the column span of basis."""
    if basis.shape[1] == 0:
        return np.zeros_like(target)
    coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return basis @ coeff


def hodge_decompose(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    p: int,
    cochain,
    weights=None,
) -> HodgeParts:
    """Split a degree-p cochain into harmonic + image of delta + image of
    the adjoint.

    In the scaled coordinates W_p^{1/2} alpha the weighted metric is the
    plain one, and the two images are im A_{p-1} and im A_p^H, orthogonal
    since A_p A_{p-1} = 0.  So each is a plain least-squares projection and
    the harmonic part is the remainder; all three are scaled back.  The
    residual is max(|delta_p h|, |adjoint(delta_{p-1}) h|) / max(|alpha|, 1)
    for the harmonic part h, read off as A_p h' / w_{p+1}^{1/2} and
    A_{p-1}^H h' / w_{p-1}^{1/2} with h' = W_p^{1/2} h.
    """
    w = _resolve(k, weights)
    alpha = np.asarray(cochain, dtype=complex)
    n = k.n_simplices(p)
    if alpha.shape != (n,):
        raise ValueError(f"cochain has shape {alpha.shape}, need ({n},)")
    what = f"degree {p} Hodge decomposition"
    below, here = (_dense(a) for a in _scaled(k, theta, lam, w, what, p - 1, p))
    root = np.sqrt(w.vector(p))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = alpha * root
        exact = _projection(scaled, below)
        coexact = _projection(scaled, here.conj().T)
        harmonic = scaled - exact - coexact
        scale = max(float(np.linalg.norm(alpha)), 1.0)
        r1 = np.linalg.norm(here @ harmonic / np.sqrt(w.vector(p + 1)))
        r2 = np.linalg.norm(below.conj().T @ harmonic / np.sqrt(w.vector(p - 1)))
        exact, coexact, harmonic = exact / root, coexact / root, harmonic / root
    _require_finite(what, harmonic, (r1, r2))
    residual = float(max(r1, r2) / scale)
    return HodgeParts(harmonic=harmonic, exact=exact, coexact=coexact, residual=residual)


def harmonic_representative(
    k: SimplicialComplex, theta: OneCocycle, weights=None
) -> OneCocycle:
    """Weighted-norm minimizer theta + delta f over the gauge orbit.

    Untwisted setting: the minimizer is the orthogonal projection of theta
    away from the coboundary image, hence weighted-coexact, and it keeps
    every holonomy of theta.  Applying the projection twice is idempotent.
    """
    w = _resolve(k, weights)
    if k.dim < 1:
        raise ValueError("need 1-simplices for a 1-cochain representative")
    edges = k.edges
    root = np.sqrt(w.vector(1))
    scaled = np.asarray([float(theta.value(u, v)) for (u, v) in edges]) * root
    (a0,) = _scaled(k, zero_cocycle(k), 1.0, w, "harmonic representative", 0)
    rep = (scaled - _projection(scaled, _dense(a0))) / root
    return OneCocycle(
        {e: float(rep[i]) for i, e in enumerate(edges)}, mode="float"
    )
