import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from novikov.cocycles import (
    OneCocycle,
    ZeroCochain,
    gauge_transform,
    holonomy,
    zero_cocycle,
)
from novikov.complexes import SimplicialComplex, circle, point
from novikov.constructions import cyclic_cover, product, torus_grid
from novikov.errors import BackendMismatchError, IncompleteCocycleError, NumericalError
from novikov import hodge
from novikov.hodge import (
    DEFAULT_HARMONIC_THRESHOLD,
    InnerProduct,
    harmonic_dim,
    harmonic_representative,
    hodge_decompose,
    laplacian_spectrum,
    spectral_gap,
)
from novikov import twisted
from novikov.scalars import parse_scalar
from novikov.serialization import load_complex
from novikov.twisted import betti_profile, twisted_coboundary

from dense_reference import adjoint, complex_hodge_spectrum, dense_gram, laplacian

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def winding_theta(m, w=1):
    values = {e: 0 for e in circle(m).edges}
    values[(0, 1)] = w
    return OneCocycle(values)


def torus_fixture():
    k = torus_grid(3)
    values = {}
    for (u, v) in k.edges:
        a, b = u // 3, v // 3
        if a == b:
            values[(u, v)] = 0
        else:
            values[(u, v)] = winding_theta(3).value(a, b)
    return k, OneCocycle(values)


def random_weights(k, rng):
    return InnerProduct(
        k,
        {
            p: [rng.uniform(0.5, 2.0) for _ in range(k.n_simplices(p))]
            for p in range(k.dim + 1)
        },
    )


def test_adjoint_is_transpose_for_unit_weights_untwisted():
    k, theta = torus_fixture()
    for p in range(k.dim):
        delta = twisted_coboundary(k, theta, 1.0, p).to_numpy()
        np.testing.assert_allclose(adjoint(k, theta, 1.0, p, InnerProduct(k)), delta.T.conj())


def test_adjoint_pairing_identity():
    rng = np.random.default_rng(42)
    k, theta = torus_fixture()
    w = random_weights(k, rng)
    for lam in (2.0, 0.3 + 0.4j):
        for p in range(k.dim):
            delta = twisted_coboundary(k, theta, lam, p).to_numpy()
            adj = adjoint(k, theta, lam, p, w)
            for _ in range(20):
                x = rng.standard_normal(k.n_simplices(p))
                y = rng.standard_normal(k.n_simplices(p + 1))
                lhs = w.pairing(p + 1, delta @ x, y)
                rhs = w.pairing(p, x, adj @ y)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjoint_ignores_global_weight_scale():
    k, theta = torus_fixture()
    rng = np.random.default_rng(3)
    base = {
        p: [rng.uniform(0.5, 2.0) for _ in range(k.n_simplices(p))]
        for p in range(k.dim + 1)
    }
    scaled = {p: [3.7 * w for w in vec] for p, vec in base.items()}
    for p in range(k.dim):
        np.testing.assert_allclose(
            adjoint(k, theta, 2.0, p, InnerProduct(k, base)),
            adjoint(k, theta, 2.0, p, InnerProduct(k, scaled)),
        )
    # so neither the spectrum nor the decomposition of the package moves
    alpha = rng.standard_normal(k.n_simplices(1))
    one, other = (
        hodge_decompose(k, theta, 2.0, 1, alpha, InnerProduct(k, w)) for w in (base, scaled)
    )
    for part in ("harmonic", "exact", "coexact"):
        np.testing.assert_allclose(getattr(one, part), getattr(other, part), atol=1e-12)
    for p in range(k.dim + 1):
        np.testing.assert_allclose(
            laplacian_spectrum(k, theta, 2.0, p, InnerProduct(k, base)),
            laplacian_spectrum(k, theta, 2.0, p, InnerProduct(k, scaled)),
            atol=1e-12,
        )


def test_laplacian_weighted_symmetry_and_psd():
    # the declared reference's full Laplacian, and the spectrum of the package
    rng = np.random.default_rng(7)
    k, theta = torus_fixture()
    w = random_weights(k, rng)
    for lam in (1.0, 2.0, 0.3 + 0.4j):
        for p in range(k.dim + 1):
            lap = laplacian(k, theta, lam, p, w)
            for _ in range(5):
                x = rng.standard_normal(k.n_simplices(p))
                y = rng.standard_normal(k.n_simplices(p))
                lhs = w.pairing(p, lap @ x, y)
                rhs = w.pairing(p, x, lap @ y)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            spec = laplacian_spectrum(k, theta, lam, p, w)
            assert spec.min() >= -1e-10 * max(spec.max(), 1.0)


def test_harmonic_dims_match_rank_dims():
    k, theta = torus_fixture()
    for lam in (1.0, 2.0, 3.0, 5.0 / 7.0):
        dims = betti_profile(k, theta, lam).dims
        for p in range(k.dim + 1):
            assert harmonic_dim(k, theta, lam, p) == dims[p], (lam, p)
    c, ct = circle(5), winding_theta(5)
    for lam in (1.0, 2.0, -1.0):
        dims = betti_profile(c, ct, lam).dims
        for p in range(2):
            assert harmonic_dim(c, ct, lam, p) == dims[p]


def test_harmonic_dim_torus_frozen_values():
    k, theta = torus_fixture()
    assert harmonic_dim(k, theta, 1.0, 1) == 2
    for p in range(3):
        assert harmonic_dim(k, theta, 2.0, p) == 0


def test_non_finite_harmonic_threshold_raises():
    k, theta = torus_fixture()
    for threshold in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite"):
            harmonic_dim(k, theta, 1.0, 1, threshold=threshold)
        # also where the spectrum is all zero and no cut is needed
        with pytest.raises(ValueError, match="finite"):
            harmonic_dim(point(), OneCocycle({}), 1.0, 0, threshold=threshold)


def test_near_trivial_monodromy_is_not_harmonic():
    # lambda close to 1 must not report phantom harmonic forms; the
    # Laplacian eigenvalue sits near (lambda-1)^2, so an eigenvalue-scale
    # cut of 1e-8 would swallow it and the singular-value scale must not
    k, theta = circle(3), winding_theta(3)
    lam = 1.0001
    assert harmonic_dim(k, theta, lam, 0) == 0
    assert harmonic_dim(k, theta, lam, 1) == 0
    spectrum = laplacian_spectrum(k, theta, lam, 0)
    assert spectrum.min() < 1e-8 * spectrum.max()  # the trap this avoids


def test_spectral_gap_values():
    c, ct = circle(3), winding_theta(3)
    gap = spectral_gap(c, ct, 1.0, 0)
    assert abs(gap - 3.0) < 1e-12  # triangle graph Laplacian spectrum 0, 3, 3
    assert spectral_gap(point(), OneCocycle({}), 1.0, 0) is None


def test_hodge_decompose_orthogonal_and_complete():
    rng = np.random.default_rng(11)
    k, theta = torus_fixture()
    w = random_weights(k, rng)
    for lam in (1.0, 2.0):
        for p in range(k.dim + 1):
            alpha = rng.standard_normal(k.n_simplices(p))
            parts = hodge_decompose(k, theta, lam, p, alpha, w)
            np.testing.assert_allclose(
                parts.recombined(), alpha, atol=1e-8 * max(1, np.abs(alpha).max())
            )
            pairs = [
                (parts.harmonic, parts.exact),
                (parts.harmonic, parts.coexact),
                (parts.exact, parts.coexact),
            ]
            for a, b in pairs:
                assert abs(w.pairing(p, a, b)) <= 1e-10 * max(
                    1.0, float(np.linalg.norm(a) * np.linalg.norm(b))
                )
            assert parts.residual <= 1e-8


def test_hodge_decompose_special_inputs():
    k, theta = torus_fixture()
    # an exact input lands entirely in the image component
    d0 = twisted_coboundary(k, theta, 2.0, 0).to_numpy()
    alpha = d0 @ np.arange(1.0, 10.0)
    parts = hodge_decompose(k, theta, 2.0, 1, alpha)
    assert np.linalg.norm(parts.harmonic) <= 1e-8 * np.linalg.norm(alpha)
    assert np.linalg.norm(parts.coexact) <= 1e-8 * np.linalg.norm(alpha)
    # no harmonic content exists anywhere at lambda = 2 on the torus
    rng = np.random.default_rng(5)
    beta = rng.standard_normal(k.n_simplices(1))
    parts = hodge_decompose(k, theta, 2.0, 1, beta)
    assert np.linalg.norm(parts.harmonic) <= 1e-8 * np.linalg.norm(beta)
    # a harmonic input on the untwisted circle passes through untouched
    c, ct = circle(3), winding_theta(3)
    h = np.array([1 / 3, -1 / 3, 1 / 3])
    parts = hodge_decompose(c, ct, 1.0, 1, h)
    np.testing.assert_allclose(parts.harmonic, h, atol=1e-12)
    np.testing.assert_allclose(parts.exact, 0 * h, atol=1e-12)
    # a cochain of the wrong length, and a complex with no edges to carry one
    with pytest.raises(ValueError, match="shape"):
        hodge_decompose(c, ct, 1.0, 1, h[:2])
    with pytest.raises(ValueError, match="1-simplices"):
        harmonic_representative(point(), OneCocycle({}))


def test_harmonic_representative_circle():
    c, ct = circle(3), winding_theta(3)
    rep = harmonic_representative(c, ct)
    assert rep.mode == "float"
    assert abs(rep.value(0, 1) - 1 / 3) < 1e-10
    assert abs(rep.value(0, 2) + 1 / 3) < 1e-10
    assert abs(rep.value(1, 2) - 1 / 3) < 1e-10
    assert abs(holonomy(c, rep, [0, 1, 2]) - 1.0) < 1e-10
    again = harmonic_representative(c, rep)
    for e in c.edges:
        assert abs(again.value(*e) - rep.value(*e)) < 1e-10


def test_harmonic_representative_weighted_torus():
    rng = np.random.default_rng(17)
    k, theta = torus_fixture()
    w = random_weights(k, rng)
    rep = harmonic_representative(k, theta, w)
    # still in the same class: the i-direction loop keeps holonomy 1
    loop = [0, 3, 6]
    assert abs(holonomy(k, rep, loop) - 1.0) < 1e-9
    # weighted-coexact: divergence vanishes against the weights
    vec = np.array([rep.value(u, v) for (u, v) in k.edges])
    div = adjoint(k, theta, 1.0, 0, w) @ vec
    assert np.abs(div).max() < 1e-9


def test_inner_product_validation():
    k = circle(3)
    with pytest.raises(ValueError):
        InnerProduct(k, {0: [1.0, 1.0]})
    with pytest.raises(ValueError):
        InnerProduct(k, {1: [1.0, -1.0, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in (
            {7: [1.0]}, {-1: [1.0]}, {0: [1.0, float("inf"), 1.0]},
            # a weight is a real number in the float range
            *({0: [bad, 1.0, 1.0]} for bad in (True, "1.5", 10**400)),
        ):
            with pytest.raises(ValueError):
                InnerProduct(k, weights)
        # weights are an InnerProduct on the complex of the call, or None
        theta3, theta4 = winding_theta(3), winding_theta(4)
        for kk, theta, weights in (
            (k, theta3, InnerProduct(circle(4), {0: [1, 2, 3, 4]})),
            (circle(4), theta4, InnerProduct(k)),
            (k, theta3, {0: [1.0, 2.0, 3.0]}),
        ):
            with pytest.raises(ValueError):
                laplacian_spectrum(kk, theta, 2.0, 0, weights)
    w = InnerProduct(k, {0: [2.0, 2.0, 2.0]})
    assert w.pairing(0, [1, 1, 1], [1, 1, 1]) == 6.0


def test_inner_product_refuses_a_degree_key_that_is_not_a_natural():
    # True once weighted degree 1 and 1.0 degree 1, as JSON true would read
    k = circle(3)
    for key in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            InnerProduct(k, {key: [2.0, 2.0, 2.0]})


def test_weights_that_underflow_answer_like_their_mirror():
    # CPython takes 1e10 ** -40 as 1 / 1e10 ** 40, which is nan; the weight is
    # 1e-400, as 1e-10 ** 40 is
    k = circle(3)
    for w, lam in ((-40, 1e10), (-40, -1e10), (40, 1e-10)):
        theta = winding_theta(3, w)
        assert betti_profile(k, theta, lam).dims == (0, 0)
        assert [harmonic_dim(k, theta, lam, p) for p in (0, 1)] == [0, 0]
    for w, lam in ((40, 1e10), (-40, 1e-10)):
        with pytest.raises(NumericalError):
            betti_profile(k, winding_theta(3, w), lam)
        with pytest.raises(NumericalError):
            laplacian_spectrum(k, winding_theta(3, w), lam, 0)


def test_degenerate_degrees():
    c, ct = circle(3), winding_theta(3)
    assert harmonic_dim(c, ct, 2.0, 5) == 0
    assert laplacian_spectrum(c, ct, 2.0, 5).size == 0
    k = product(circle(3), circle(3)).complex
    assert laplacian_spectrum(c, ct, 2.0, 1).shape == (3,)
    assert k.n_simplices(2) == 18
    # a degree with no simplices still checks its inputs, as degree 0 does
    incomplete = OneCocycle({(0, 1): 1})
    for p in (-1, c.dim + 1):
        for lam in (float("nan"), "x"):
            with pytest.raises(ValueError):
                harmonic_dim(c, ct, lam, p)
            with pytest.raises(ValueError):
                laplacian_spectrum(c, ct, lam, p)
        with pytest.raises(IncompleteCocycleError):
            harmonic_dim(c, incomplete, 2.0, p)
        with pytest.raises(IncompleteCocycleError):
            laplacian_spectrum(c, incomplete, 2.0, p)


def test_each_coboundary_is_assembled_once_per_call(monkeypatch):
    k, theta = torus_fixture()
    degrees = []
    assemble = twisted._coboundary_rows

    def counting(k_, theta_, lam, p):
        degrees.append(p)
        return assemble(k_, theta_, lam, p)

    monkeypatch.setattr(twisted, "_coboundary_rows", counting)
    for p in range(k.dim + 1):
        expected = [p - 1, p] if p else [0]
        degrees.clear()
        laplacian_spectrum(k, theta, 2.0, p)
        assert sorted(degrees) == expected
        degrees.clear()
        hodge_decompose(k, theta, 2.0, p, np.ones(k.n_simplices(p)))
        assert sorted(degrees) == expected
    degrees.clear()
    harmonic_representative(k, theta)
    assert degrees == [0]


def test_lambda_outside_the_float_backend_is_refused():
    c, ct = circle(3), winding_theta(3)
    with pytest.raises(NumericalError):
        harmonic_dim(c, ct, 10**400, 0)
    with pytest.raises(BackendMismatchError):
        harmonic_dim(c, ct, parse_scalar("nf:x^2-3*x+1:x"), 0)


def test_laplacian_overflow_is_a_numerical_error():
    # every weight 1e200**theta is finite, but products in the Laplacian
    # reach 1e400
    k, theta = load_complex(FIXTURES / "torus2.json")
    with pytest.raises(NumericalError, match="float range"):
        harmonic_dim(k, theta, 1e200, 0)
    with pytest.raises(NumericalError, match="float range"):
        laplacian_spectrum(k, theta, 1 + 1e308j, 0)


def test_hodge_products_past_the_float_range_are_numerical_errors():
    # the same finite weights: the spectrum and hodge_decompose check their
    # own products, and warn about none of them
    k, theta = load_complex(FIXTURES / "torus2.json")
    # valid inner-product weights whose ratio 1e600 is past the float range
    steep = InnerProduct(k, {0: [1e-300] * k.n_simplices(0), 1: [1e300] * k.n_simplices(1)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in range(k.dim + 1):
            with pytest.raises(NumericalError, match="decomposition leaves the float range"):
                hodge_decompose(k, theta, 1e200, p, np.ones(k.n_simplices(p)))
        # the spectrum checks its scaled coboundaries and Gram products, so
        # no overflow reaches the eigensolver as a LinAlgError
        for p in range(k.dim + 1):
            with pytest.raises(NumericalError, match="Laplacian leaves the float range"):
                laplacian_spectrum(k, theta, 1e200, p)
        # the steep ratio enters degrees 0 and 1; degree 2 sees only 1e-300
        for p in (0, 1):
            with pytest.raises(NumericalError, match="Laplacian leaves the float range"):
                laplacian_spectrum(k, theta, 2.0, p, steep)
        assert np.isfinite(laplacian_spectrum(k, theta, 2.0, 2, steep)).all()


def real_path_case(shape, seed):
    """(complex, closed cocycle, inner product) of one real-path cross-check."""
    k, theta = load_complex(FIXTURES / "torus3.json")
    if shape == "cover":
        cover = cyclic_cover(k, theta, 2)
        k, theta = cover.complex, cover.theta_lift
    elif shape == "gauged torus_grid(4)":
        k = torus_grid(4)
        rng = random.Random(seed)
        f = ZeroCochain({v: rng.randrange(-4, 5) for v in range(k.vertex_count)})
        theta = gauge_transform(zero_cocycle(k), f)
    elif shape == "weighted torus3":
        return k, theta, random_weights(k, random.Random(seed))
    elif shape == "gauged torus3":
        k, theta = gauged_torus3()
    return k, theta, InnerProduct(k)


def gauged_torus3():
    """torus3 gauged by +150 at its last vertex.  The gauge moves theta only
    on edges into that vertex, and such an edge leads no triangle, so at a
    negative lambda delta_0 alone has entries with an imaginary part."""
    k, theta = load_complex(FIXTURES / "torus3.json")
    return k, gauge_transform(theta, ZeroCochain({k.vertex_count - 1: 150}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(("torus3", "cover", "gauged torus_grid(4)", "weighted torus3")),
    lam=st.sampled_from((0.5, 0.8, 1.0, 1.25, 2.0, -1.0, -2.0, -1 + 0.5j)),
    seed=st.integers(0, 2**16),
)
# every shape at least once, and each real-arithmetic hazard: a negative
# lambda, and a complex one
@example(shape="torus3", lam=0.5, seed=0)
@example(shape="cover", lam=-2.0, seed=0)
@example(shape="gauged torus_grid(4)", lam=-1 + 0.5j, seed=1)
@example(shape="weighted torus3", lam=-1.0, seed=2)
# a complex A_0 next to a real A_1 and A_2
@example(shape="gauged torus3", lam=-1.01, seed=0)
@example(shape="gauged torus3", lam=-2.0, seed=0)
def test_spectrum_matches_complex_reference(shape, lam, seed):
    k, theta, w = real_path_case(shape, seed)
    # the all-degree pass of ``novikov hodge`` gives the per-degree spectra
    spectra = hodge._spectra(k, theta, lam, w, range(k.dim + 1))
    for p in range(k.dim + 1):
        spectrum = laplacian_spectrum(k, theta, lam, p, w)
        assert spectra[p].tobytes() == spectrum.tobytes(), (shape, lam, p)
        reference = complex_hodge_spectrum(k, theta, lam, p, w)
        assert np.abs(spectrum - reference).max() <= 1e-12 * reference.max()
        dim, gap = hodge._dim_and_gap(spectrum, DEFAULT_HARMONIC_THRESHOLD)
        ref_dim, ref_gap = hodge._dim_and_gap(reference, DEFAULT_HARMONIC_THRESHOLD)
        assert dim == ref_dim, (shape, lam, p)
        assert (gap is None) == (ref_gap is None)
        if gap is not None:
            assert abs(gap - ref_gap) <= 1e-9 * ref_gap


def test_real_entries_choose_real_arithmetic():
    def pieces(k, theta, lam):
        # the empty pieces A_{-1} and A_dim hold no entry to decide from
        scaled = hodge._scaled(k, theta, lam, InnerProduct(k), "scaling", *range(k.dim))
        return [vals.dtype for *_, vals in scaled]

    def dtypes(k, theta, lam):
        return set(pieces(k, theta, lam))

    k, theta = load_complex(FIXTURES / "torus3.json")
    assert dtypes(k, theta, 0.5) == {np.dtype(np.float64)}
    assert dtypes(k, theta, -2.0) == {np.dtype(np.float64)}
    assert dtypes(k, theta, -1 + 0.5j) == {np.dtype(complex)}
    # a real theta: a non-integer power of -2.0 leaves the real axis
    assert dtypes(k, harmonic_representative(k, theta), -2.0) == {np.dtype(complex)}
    # an integer theta: complex(-2.0)**complex(101) has imaginary part 2.2e16
    c = circle(3)
    big = OneCocycle({(0, 1): 101, (1, 2): 0, (0, 2): 101})
    assert dtypes(c, big, -2.0) == {np.dtype(complex)}
    # each A_q decides from its own entries: only delta_0 of the gauged
    # torus3 leaves the real axis at a negative lambda
    k, theta = gauged_torus3()
    for lam in (-1.01, -2.0):
        assert pieces(k, theta, lam) == [np.dtype(t) for t in (complex, np.float64, np.float64)]


def test_spectrum_is_solved_on_the_smaller_gram_pieces(monkeypatch):
    # the spectrum of Lap_p is the nonzero spectrum of the Gram matrices of
    # A_p and A_{p-1}, each formed on its smaller side: torus3 has
    # 27/189/324/162 simplices, so no solve is n_2 x n_2 = 324 x 324
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        solves.append((a.shape, a.dtype))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    k, theta = load_complex(FIXTURES / "torus3.json")
    # real entries are assembled into float64 arrays of their own, not
    # into complex ones read through a .real view
    scaled = hodge._scaled(k, theta, 2.0, InnerProduct(k), "scaling", *range(-1, k.dim + 1))
    assert all(vals.flags.owndata for *_, vals in scaled)
    w = InnerProduct(k)
    expected = {0: [27], 1: [27, 189], 2: [189, 162], 3: [162]}
    for lam, dtype in ((2.0, np.float64), (-1 + 0.5j, complex)):
        for p in range(k.dim + 1):
            solves.clear()
            spectrum = laplacian_spectrum(k, theta, lam, p)
            # p = 0 and p = dim have an empty piece, p = 1 and 2 a surplus
            assert [shape for shape, _ in solves] == [(m, m) for m in expected[p]]
            assert {t for _, t in solves} == {np.dtype(dtype)}
            assert spectrum.shape == (k.n_simplices(p),)
            assert np.all(np.diff(spectrum) >= 0)
            reference = complex_hodge_spectrum(k, theta, lam, p, w)
            assert np.abs(spectrum - reference).max() <= 1e-12 * reference.max()


def test_a_shortfall_of_gram_eigenvalues_is_padded_with_zeros():
    # a filled triangle and an isolated vertex: delta_0 is 3 x 4, so its Gram
    # piece gives 3 eigenvalues for the 4 vertices
    k = SimplicialComplex.build([[0, 1, 2], [3]])
    theta = zero_cocycle(k)
    np.testing.assert_allclose(laplacian_spectrum(k, theta, 1.0, 0), [0, 0, 3, 3], atol=1e-12)
    assert harmonic_dim(k, theta, 1.0, 0) == 2
    assert [laplacian_spectrum(k, theta, 1.0, p).size for p in range(3)] == [4, 3, 1]


def test_gram_matches_the_dense_product():
    # every scaled piece of each shape and lambda, real and complex, against
    # the product over the densified A, entrywise within a few ulps of the
    # piece's largest entry
    eps = np.finfo(float).eps
    for shape in ("torus3", "cover", "gauged torus_grid(4)", "weighted torus3"):
        k, theta, w = real_path_case(shape, 5)
        for lam in (0.5, -2.0, -1 + 0.5j):
            pieces = hodge._scaled(k, theta, lam, w, "scaling", *range(-1, k.dim + 1))
            for q, a in zip(range(-1, k.dim + 1), pieces):
                gram, reference = hodge._gram(a), dense_gram(a)
                assert gram.shape == reference.shape == (min(a[0]),) * 2, (shape, lam, q)
                assert gram.dtype == reference.dtype == a[3].dtype
                scale = np.abs(reference).max(initial=0.0)
                assert np.abs(gram - reference).max(initial=0.0) <= 4 * eps * scale, (
                    shape, lam, q,
                )
            # A_{-1} and A_dim have no rows or no columns: 0 x 0 pieces
            assert hodge._gram(pieces[0]).shape == hodge._gram(pieces[-1]).shape == (0, 0)
    # a non-empty piece with no nonzero entry is the zero matrix
    for dtype in (np.float64, complex):
        for shape in ((3, 4), (4, 3)):
            empty = np.zeros(0, dtype=np.intp)
            a = (shape, empty, empty, np.zeros(0, dtype=dtype))
            gram = hodge._gram(a)
            assert gram.dtype == dtype
            np.testing.assert_array_equal(gram, np.zeros((3, 3)))
            np.testing.assert_array_equal(gram, dense_gram(a))


def test_spectra_allocate_no_dense_coboundary():
    # the 3-sheet cover of torus3 has 81/567/972/486 simplices: its largest
    # Gram piece is 567 x 567 complex, 4.9 MiB, where a dense A_1 alone is
    # 972 x 567 complex, 8.4 MiB
    k, theta = load_complex(FIXTURES / "torus3.json")
    cover = cyclic_cover(k, theta, 3)
    k, theta = cover.complex, cover.theta_lift
    assert [k.n_simplices(p) for p in range(k.dim + 1)] == [81, 567, 972, 486]
    largest = 567 * 567 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        hodge._spectra(k, theta, -1 + 0.5j, InnerProduct(k), range(k.dim + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * largest, peak / largest


@pytest.mark.parametrize("lam, dtype", [(-1 + 0.5j, complex), (2.0, np.float64)])
def test_spectra_free_each_gram_piece_after_its_solve(lam, dtype):
    # each piece is freed after its solve, so the largest one, 567 x 567 on
    # the 3-sheet cover of torus3, is never alive next to its neighbour; two
    # pieces alive at once take the peak to about 1.9x
    k, theta = load_complex(FIXTURES / "torus3.json")
    cover = cyclic_cover(k, theta, 3)
    k, theta = cover.complex, cover.theta_lift
    largest = 567 * 567 * np.dtype(dtype).itemsize
    w = InnerProduct(k)
    tracemalloc.start()
    try:
        hodge._spectra(k, theta, lam, w, range(k.dim + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * largest, peak / largest
