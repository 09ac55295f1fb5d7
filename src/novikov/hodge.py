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
A_q = W_{q+1}^{1/2} delta_q W_q^{-1/2}, built in one helper, ``_scaled``.
In the coordinates W_p^{1/2} x the weighted metric is the plain one, the
adjoint is A^H, and W_p^{1/2} Lap_p W_p^{-1/2} = A_p^H A_p + A_{p-1} A_{p-1}^H,
whose two terms have orthogonal ranges since delta_p delta_{p-1} = 0.  So
nothing forms Lap_p or an adjoint.  ``laplacian_spectrum`` takes the
nonzero eigenvalues of two Gram matrices, each formed on the smaller side
of its A (A^H A or A A^H), and pads them with zeros (Eckmann, 1944;
Horak-Jost, Adv. Math. 2013).  ``hodge_decompose`` projects onto im A_{p-1}
and im A_p^H, and ``harmonic_representative`` off im A_0, by plain least
squares.  The full adjoint and Laplacian live on only in the tests, as the
declared cross-check.

When every coboundary entry has an exactly zero imaginary part, as for a
positive lambda, the coboundaries are float64 and so are the scaled A_q and
the Gram matrices: the products and the eigensolver run in real arithmetic
at about half the cost of complex Hermitian ones.  The decision reads the
assembled entries before any array is allocated, not the sign of lambda or
the kind of theta: the complex power leaves an imaginary part at a negative
lambda once the exponent is large (complex(-2.0) ** complex(101) has
imaginary part 2.2e16), and an entry test keeps the real parts bit for bit
either way.  A scaled coboundary, Gram matrix or Hodge decomposition whose
products leave the float range raises NumericalError.

Harmonic cutoffs act on the singular-value scale (square roots of Laplacian
eigenvalues) relative to the largest one.  Eigenvalue-scale cutoffs look
natural but misclassify near-kernels: a coboundary within eps of a singular
matrix has a Laplacian eigenvalue of order eps^2, which slips under any
linear cut long before the matrix is actually singular.  The user threshold
is floored at the noise level sqrt(n * machine_eps) so that true zeros are
never dropped by an overly tight request.  A true zero comes back either as
a padded exact zero or as a zero eigenvalue of a Gram piece, which forming
the product and solving perturb by about m * eps * ||A||^2; the piece's side
m is at most n and ||A||^2 at most eig_max, so that is n * eps * eig_max at
worst.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .complexes import SimplicialComplex
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
            if p not in range(k.dim + 1):
                raise ValueError(f"weight degree {p!r} is outside 0..{k.dim}")
        vectors = []
        for p in range(k.dim + 1):
            n = k.n_simplices(p)
            given = None if weights is None else weights.get(p)
            if given is None:
                vec = np.ones(n)
            else:
                vec = np.asarray([float(w) for w in given])
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
    if isinstance(weights, InnerProduct):
        return weights
    return InnerProduct(k, weights)


def _deltas(k, theta, lam, *degrees) -> list[np.ndarray]:
    """Float coboundaries in the given degrees, each assembled once.

    The assembled entries are read before any array is allocated: the arrays
    are float64 when no entry has a nonzero imaginary part, complex
    otherwise.  Outside degrees 0..dim delta is the zero map.
    """
    lam = twisted._local_system(k, theta, lam, backend="float")[0]
    assembled = []
    for p in degrees:
        # read through the module at call time: the one assembly in twisted
        rows = twisted._coboundary_rows(k, theta, lam, p) if 0 <= p <= k.dim else []
        at = [r for r, row in enumerate(rows) for _ in row], [c for row in rows for c in row]
        vals = np.array([v for row in rows for v in row.values()], dtype=complex)
        assembled.append((p, at, vals))
    real = not any(vals.imag.any() for _, _, vals in assembled)
    deltas = []
    for p, at, vals in assembled:
        d = np.zeros((k.n_simplices(p + 1), k.n_simplices(p)), dtype=float if real else complex)
        d[at] = vals.real if real else vals
        deltas.append(d)
    return deltas


def _require_finite(what: str, *arrays) -> None:
    # finite weights can still multiply past the float range in the products,
    # which run with numpy's overflow warnings off and are checked here
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} leaves the float range")


def _scaled(k, theta, lam, w: InnerProduct, what: str, *degrees) -> list[np.ndarray]:
    """The scaled coboundaries A_q = W_{q+1}^{1/2} delta_q W_q^{-1/2}.

    The one place the inner product enters an operator: each delta_q is
    assembled once by ``_deltas`` and scaled in place, since it is this
    call's own array.
    """
    scaled = _deltas(k, theta, lam, *degrees)
    with np.errstate(over="ignore", invalid="ignore"):
        for q, a in zip(degrees, scaled):
            a *= np.sqrt(w.vector(q + 1))[:, None]
            a /= np.sqrt(w.vector(q))
    _require_finite(what, *scaled)
    return scaled


def laplacian_spectrum(
    k: SimplicialComplex, theta: OneCocycle, lam, p: int, weights=None
) -> np.ndarray:
    """Ascending real eigenvalues of the degree-p twisted Laplacian.

    The n_p largest of the Gram pieces' eigenvalues and n_p zeros (see the
    module docstring).  Anything below them is a zero in exact arithmetic,
    since rank A_p + rank A_{p-1} <= n_p.
    """
    n = k.n_simplices(p)
    if n == 0:
        return np.zeros(0)
    what = f"degree {p} Laplacian"
    pieces = [np.zeros(n)]
    for a in _scaled(k, theta, lam, _resolve(k, weights), what, p - 1, p):
        if not a.size:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            ah = a.conj().T
            gram = a @ ah if a.shape[0] < a.shape[1] else ah @ a
        _require_finite(what, gram)
        try:
            pieces.append(np.linalg.eigvalsh(gram))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalue solve failed in degree {p}: {exc}") from exc
    return np.sort(np.concatenate(pieces))[-n:]


def _singular_values(spectrum: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(spectrum, 0.0, None))


def _harmonic_cut(sing: np.ndarray, threshold: float) -> float:
    # a true zero is a padded 0 or a zero of one Gram piece m x m (m <= n),
    # which the product and eigvalsh perturb by about m * eps * ||A||^2, at
    # most n * eps * eig_max: sqrt(n * eps) * sigma_max after the square
    # root, so the user threshold is floored at that machine-noise level
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


@dataclass(frozen=True, slots=True)
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
    below, here = _scaled(k, theta, lam, w, what, p - 1, p)
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
    rep = (scaled - _projection(scaled, a0)) / root
    return OneCocycle(
        {e: float(rep[i]) for i, e in enumerate(edges)}, mode="float"
    )
