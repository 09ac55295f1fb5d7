import copy
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_reference import boundary, coboundary, dense, dense_route_dims
from novikov import cli, twisted, verify
from novikov.cocycles import OneCocycle, ZeroCochain, _forest, gauge_transform, zero_cocycle
from novikov.complexes import (
    SimplicialComplex,
    circle,
    euler_characteristic,
    sphere_boundary,
)
from novikov.constructions import (
    cyclic_cover,
    mapping_torus,
    product,
    torus_grid,
    torus_grid_map,
)
from novikov.errors import BackendMismatchError, IncompleteCocycleError
from novikov.hodge import harmonic_representative, hodge_decompose, laplacian_spectrum
from novikov.scalars import Matrix, NumberFieldElement, parse_scalar
from novikov.serialization import load_complex
from novikov.twisted import (
    BettiProfile,
    _coboundary_rows,
    _dual_forest,
    _eliminate,
    _laurent_rows,
    _local_system,
    betti_profile,
    kunneth_check,
    reduce,
    twisted_coboundary,
)
from test_acceptance import random_closed_cocycle, random_small_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def count_reductions(monkeypatch):
    """The list of complexes reduced from now on: every name ``reduce`` is
    read by is wrapped, so each reduction is counted once."""
    reduced = []

    def counted(k, theta):
        reduced.append(k)
        return reduce(k, theta)

    for module in (twisted, verify, cli):
        monkeypatch.setattr(module, "reduce", counted, raising=False)
    return reduced


def full_theta(k, special, mode="exact"):
    """Cocycle that is zero except on the listed edges."""
    fill = 0 if mode == "exact" else 0.0
    values = {e: fill for e in k.edges}
    values.update(special)
    return OneCocycle(values, mode=mode)


def grid_torus(m=3):
    """Hand-rolled m x m staircase torus, kept independent of the library
    product code so it can serve as an oracle for it later."""
    tris = []
    for i in range(m):
        for j in range(m):
            a = i * m + j
            b = ((i + 1) % m) * m + j
            c = ((i + 1) % m) * m + (j + 1) % m
            d = i * m + (j + 1) % m
            tris.append((a, b, c))
            tris.append((a, d, c))
    return SimplicialComplex.build(tris)


def torus_pullback_theta(m, circle_values):
    """Pull a circle(m) cocycle back along (i, j) -> i."""
    k = grid_torus(m)

    def signed(x, y):
        if x == y:
            return 0
        if (x, y) in circle_values:
            return circle_values[(x, y)]
        return -circle_values[(y, x)]

    values = {}
    for (u, v) in k.edges:
        values[(u, v)] = signed(u // m, v // m)
    return k, OneCocycle(values)


def circle_theta(m, winding=1):
    """Circle cocycle with the whole holonomy on the first edge."""
    k = circle(m)
    return k, full_theta(k, {(0, 1): winding})


def test_circle3_coboundary_matrix_frozen():
    # rows follow sorted edge order (0,1), (0,2), (1,2); hand-derived
    k, theta = circle_theta(3)
    lam = Fraction(5, 7)
    d0 = twisted_coboundary(k, theta, lam, 0)
    expect = Matrix.from_rows(
        [
            [-1, lam, 0],
            [-1, 0, 1],
            [0, -1, 1],
        ]
    )
    assert d0 == expect
    d1 = twisted_coboundary(k, theta, lam, 1)
    assert d1.nrows == 0 and d1.ncols == 3


def test_lambda_one_is_transposed_boundary():
    k = grid_torus(3)
    rng = random.Random(7)
    theta = full_theta(k, {}, mode="exact")
    # any closed theta works at lambda = 1; use a coboundary to stay closed
    f = ZeroCochain({v: rng.randrange(-4, 5) for v in range(k.vertex_count)})
    theta = gauge_transform(theta, f)
    for p in range(k.dim + 1):
        delta = twisted_coboundary(k, theta, Fraction(1), p)
        if p + 1 <= k.dim:
            assert np.array_equal(dense(delta), boundary(k, p + 1).T)
        else:
            assert delta.nrows == 0


def test_coboundary_squares_to_zero():
    k, theta = torus_pullback_theta(3, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    for lam in (Fraction(5, 7), Fraction(-2), 3):
        d0 = twisted_coboundary(k, theta, lam, 0)
        d1 = twisted_coboundary(k, theta, lam, 1)
        assert all(v == 0 for v in (dense(d1) @ dense(d0)).flat)
    d0 = twisted_coboundary(k, theta, 0.37 + 0.2j, 0)
    d1 = twisted_coboundary(k, theta, 0.37 + 0.2j, 1)
    prod = d1.to_numpy() @ d0.to_numpy()
    assert abs(prod).max() < 1e-12


def test_circle_dims_see_holonomy():
    k, theta = circle_theta(5)
    assert betti_profile(k, theta, Fraction(1)).dims == (1, 1)
    assert betti_profile(k, theta, Fraction(2)).dims == (0, 0)
    assert betti_profile(k, theta, Fraction(1, 2)).dims == (0, 0)
    # winding 2: lambda = -1 is a square root of unity, so cohomology returns
    k2, theta2 = circle_theta(5, winding=2)
    assert betti_profile(k2, theta2, Fraction(-1)).dims == (1, 1)
    assert betti_profile(k2, theta2, Fraction(2)).dims == (0, 0)


def test_torus_profile_frozen():
    k, theta = torus_pullback_theta(3, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    assert k.counts() == (9, 27, 18)
    assert euler_characteristic(k) == 0
    trivial = betti_profile(k, theta, Fraction(1))
    assert trivial.dims == (1, 2, 1)
    assert trivial.euler == 0
    for lam in (Fraction(2), Fraction(3), Fraction(5, 7)):
        prof = betti_profile(k, theta, lam)
        assert prof.dims == (0, 0, 0)
        assert prof.euler == 0
        assert prof.backend == "exact"
        assert prof.tolerance is None


def test_torus_float_agrees_with_exact():
    k, theta = torus_pullback_theta(3, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    prof = betti_profile(k, theta, 2.0)
    assert prof.backend == "float"
    assert prof.dims == (0, 0, 0)
    assert not prof.ill_conditioned
    forced = betti_profile(k, theta, Fraction(2), backend="float")
    assert forced.backend == "float"
    assert forced.dims == (0, 0, 0)
    assert forced.tolerance == 1e-10
    near_one = betti_profile(k, theta, 1.0, tolerance=1e-8)
    assert near_one.dims == (1, 2, 1)


def test_number_field_lambda():
    k, theta = circle_theta(3)
    lam = parse_scalar("nf:x^2-3*x+1:x")
    prof = betti_profile(k, theta, lam)
    assert prof.backend == "nf"
    assert prof.dims == (0, 0)
    # the defining relation makes 1/lam = 3 - lam; duality should hold
    assert betti_profile(k, theta, lam).dims == betti_profile(k, theta, 1 / lam).dims[::-1]


def test_gauge_invariance_of_dims():
    rng = random.Random(20260814)
    k = circle(7)
    for trial in range(5):
        theta = OneCocycle({e: rng.randrange(-3, 4) for e in k.edges})
        f = ZeroCochain({v: rng.randrange(-5, 6) for v in range(7)})
        shifted = gauge_transform(theta, f)
        for lam in (Fraction(5, 7), Fraction(-2), Fraction(1)):
            a = betti_profile(k, theta, lam)
            b = betti_profile(k, shifted, lam)
            assert a.dims == b.dims


def test_gauge_invariance_on_torus():
    rng = random.Random(99)
    k, theta = torus_pullback_theta(3, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    f = ZeroCochain({v: rng.randrange(-3, 4) for v in range(k.vertex_count)})
    shifted = gauge_transform(theta, f)
    for lam in (Fraction(3), Fraction(1)):
        assert betti_profile(k, theta, lam).dims == betti_profile(k, shifted, lam).dims


def test_duality_pattern_on_manifolds():
    k, theta = circle_theta(3)
    kt, tt = torus_pullback_theta(3, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    cases = [(k, theta, Fraction(5, 7))]
    cases += [(kt, tt, lam) for lam in (Fraction(2), Fraction(1), 0.25 + 0.1j)]
    for k, theta, lam in cases:
        assert betti_profile(k, theta, lam).dims == betti_profile(k, theta, 1 / lam).dims[::-1]


def test_kunneth_convolution_arithmetic():
    one = BettiProfile((1, 1), 0, Fraction(1), "exact", None, False)
    prod = BettiProfile((1, 2, 1), 0, Fraction(1), "exact", None, False)
    assert kunneth_check(one, one, prod)
    off = BettiProfile((1, 1, 1), 1, Fraction(1), "exact", None, False)
    assert not kunneth_check(one, one, off)
    wrong_len = BettiProfile((1, 2), 0, Fraction(1), "exact", None, False)
    assert not kunneth_check(one, one, wrong_len)


def test_sphere_profile_and_h0():
    k = sphere_boundary(2)
    theta = full_theta(k, {})
    prof = betti_profile(k, theta, Fraction(1))
    assert prof.dims == (1, 0, 1)
    # two disjoint triangle circles: H^0 counts components at lambda = 1
    two = SimplicialComplex.build([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    t2 = full_theta(two, {})
    assert betti_profile(two, t2, Fraction(1)).dims == (2, 2)


def test_weights_and_validation_errors():
    k, theta = circle_theta(3)
    with pytest.raises(ValueError):
        twisted_coboundary(k, theta, Fraction(0), 0)
    assert betti_profile(k, theta, Fraction(2), backend="exact").backend == "exact"
    with pytest.raises(BackendMismatchError):
        betti_profile(k, theta, 2.0, backend="exact")
    float_theta = OneCocycle(
        {(0, 1): 0.5, (1, 2): 0.0, (0, 2): 0.0}, mode="float"
    )
    with pytest.raises(BackendMismatchError):
        betti_profile(k, float_theta, Fraction(2))
    # real exponents are fine on the float backend
    prof = betti_profile(k, float_theta, 2.0)
    assert prof.dims == (0, 0)
    bad = OneCocycle({(0, 1): 1, (1, 2): 1, (0, 2): 1})
    tri = SimplicialComplex.build([[0, 1, 2]])
    with pytest.raises(ValueError):
        betti_profile(tri, bad, Fraction(2))


def test_profile_json_shape():
    k, theta = circle_theta(3)
    out = betti_profile(k, theta, Fraction(5, 7)).to_json()
    assert out["lambda"] == "5/7"
    assert out["dims"] == [0, 0]
    assert out["backend"] == "exact"
    assert out["tolerance"] is None
    assert out["ill_conditioned"] is False


def winding_torus(m, winding=1):
    """torus_grid(m) with holonomy `winding` around the first grid circle."""
    k = torus_grid(m)

    def step(d):
        d %= m
        return d - m if d > 1 else d

    return k, OneCocycle(
        {(u, v): winding * step(v // m - u // m) for (u, v) in k.edges}
    )


def gauged(k, theta, seed):
    rng = random.Random(seed)
    f = ZeroCochain({v: rng.randrange(-4, 5) for v in range(k.vertex_count)})
    return gauge_transform(theta, f)


NF_LAMBDA = "nf:x^2-3*x+1:x"


def test_exact_assembly_entries_are_field_elements():
    # a plain int entry would make 1 / col[low] in exact elimination a float
    k, theta = winding_torus(3)
    theta = gauged(k, theta, 5)
    cases = (
        (1, Fraction),
        (Fraction(-7, 9), Fraction),
        (parse_scalar(NF_LAMBDA), NumberFieldElement),
        (0.625, complex),
    )
    for lam, kind in cases:
        lam = _local_system(k, theta, lam)[0]
        for p in range(k.dim + 1):
            rows = _coboundary_rows(k, theta, lam, p)
            assert len(rows) == k.n_simplices(p + 1)
            for row in rows:
                assert len(row) == p + 2
                assert all(type(v) is kind for v in row.values())


# the gluings of torus_grid(3) that mapping tori are built with
GLUINGS = {
    "identity": [[1, 0], [0, 1]],
    "flip": [[-1, 0], [0, -1]],
    "swap": [[0, 1], [1, 0]],
    "order six": [[1, -1], [1, 0]],
}
SHAPES = ("circle", "torus", "cover", *GLUINGS, "circle x circle", "random")


def cross_check_case(shape, m, sheets, winding, seed):
    """(complex, gauged closed cocycle) of one shape of the cross-check."""
    if shape == "circle":
        k = circle(m + 2)
        theta = full_theta(k, {(0, 1): winding})
    elif shape in GLUINGS:
        mt = mapping_torus(torus_grid(3), torus_grid_map(3, GLUINGS[shape]), layers=3)
        k, theta = mt.complex, mt.fiber_cocycle
    elif shape == "circle x circle":
        prod = product(circle(3), circle(3))
        k = prod.complex
        theta = prod.combine_cocycles(
            full_theta(circle(3), {(0, 1): winding}), full_theta(circle(3), {(0, 1): 1})
        )
    elif shape == "random":
        k, loop = random_small_complex(random.Random(seed))
        theta = random_closed_cocycle(k, random.Random(seed), loop)
    else:
        k, theta = winding_torus(m, winding)
        if shape == "cover":
            cover = cyclic_cover(k, theta, sheets)
            k, theta = cover.complex, cover.theta_lift
    return k, gauged(k, theta, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(SHAPES),
    m=st.integers(3, 4),
    sheets=st.integers(2, 3),
    winding=st.integers(-2, 2),
    seed=st.integers(0, 2**16),
    lam=st.sampled_from(
        (Fraction(1), Fraction(2), Fraction(-7, 9), NF_LAMBDA, 0.625, 1.0, -1.0 + 0.5j)
    ),
    harmonic=st.booleans(),
)
# every shape at least once, and the real cocycle at each float lambda
@example(shape="identity", m=3, sheets=2, winding=1, seed=1, lam=Fraction(-7, 9), harmonic=False)
@example(shape="flip", m=3, sheets=2, winding=1, seed=2, lam=NF_LAMBDA, harmonic=False)
@example(shape="swap", m=3, sheets=2, winding=1, seed=3, lam=Fraction(1), harmonic=False)
@example(shape="order six", m=3, sheets=2, winding=1, seed=4, lam=0.625, harmonic=True)
@example(shape="circle x circle", m=3, sheets=2, winding=2, seed=5, lam=-1.0 + 0.5j, harmonic=True)
@example(shape="random", m=3, sheets=2, winding=1, seed=6, lam=Fraction(2), harmonic=False)
@example(shape="random", m=3, sheets=2, winding=1, seed=7, lam=1.0, harmonic=True)
@example(shape="cover", m=3, sheets=3, winding=1, seed=8, lam=NF_LAMBDA, harmonic=False)
# an exact class: the harmonic theta closes only up to rounding
@example(shape="circle", m=3, sheets=2, winding=0, seed=2, lam=0.625, harmonic=True)
@example(shape="circle", m=3, sheets=2, winding=0, seed=2, lam=-1.0 + 0.5j, harmonic=True)
def test_sparse_profile_matches_dense_route(shape, m, sheets, winding, seed, lam, harmonic):
    k, theta = cross_check_case(shape, m, sheets, winding, seed)
    if lam == NF_LAMBDA:
        lam = parse_scalar(lam)
    elif harmonic and isinstance(lam, (float, complex)):
        # a real cocycle needs a float lambda
        theta = harmonic_representative(k, theta)
    assert betti_profile(k, theta, lam).dims == dense_route_dims(k, theta, lam)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(("random", "cover", *GLUINGS)),
    sheets=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    lam=st.sampled_from((Fraction(2), Fraction(-7, 9), NF_LAMBDA, 0.625, -1.0 + 0.5j)),
    harmonic=st.booleans(),
)
# every shape, every kind of lambda and the real cocycle at both float lambdas
@example(shape="random", sheets=2, seed=1, lam=NF_LAMBDA, harmonic=False)
@example(shape="cover", sheets=3, seed=2, lam=Fraction(-7, 9), harmonic=False)
@example(shape="identity", sheets=2, seed=3, lam=0.625, harmonic=True)
@example(shape="flip", sheets=2, seed=4, lam=-1.0 + 0.5j, harmonic=True)
@example(shape="swap", sheets=2, seed=5, lam=Fraction(2), harmonic=False)
@example(shape="order six", sheets=2, seed=6, lam=NF_LAMBDA, harmonic=False)
def test_coboundary_matches_its_formula(shape, sheets, seed, lam, harmonic):
    k, theta = cross_check_case(shape, 3, sheets, 1, seed)
    if lam == NF_LAMBDA:
        lam = parse_scalar(lam)
    elif harmonic and isinstance(lam, (float, complex)):
        theta = harmonic_representative(k, theta)
    for p in range(k.dim + 1):
        got = dense(twisted_coboundary(k, theta, lam, p))
        want = coboundary(k, theta, lam, p)
        assert got.shape == want.shape == (k.n_simplices(p + 1), k.n_simplices(p))
        assert list(map(type, got.flat)) == list(map(type, want.flat))
        assert (got == want).all()
        if isinstance(lam, (float, complex)):  # signed zeros too
            assert got.astype(complex).tobytes() == want.astype(complex).tobytes()
    for p in (-1, k.dim + 1):
        with pytest.raises(ValueError):
            twisted_coboundary(k, theta, lam, p)


def test_reduce_shrinks_torus3_and_its_covers_to_their_cohomology():
    k, theta = load_complex(FIXTURES / "torus3.json")
    theta = gauged(k, theta, 3)
    covers = [cyclic_cover(k, theta, sheets) for sheets in (2, 3)]
    circle3 = load_complex(FIXTURES / "circle3.json")
    prod = product(k, circle3[0])
    cases = [
        (k, theta, (1, 3, 3, 1)),
        *((c.complex, c.theta_lift, (1, 3, 3, 1)) for c in covers),
        (prod.complex, prod.combine_cocycles(theta, circle3[1]), (1, 4, 6, 4, 1)),
    ]
    for kk, tt, sizes in cases:
        red = reduce(kk, tt)
        assert red.sizes == sizes
        # degree 0 of reduce, replayed: the forest walk pairs each vertex but
        # a root with its tree edge, a row whose every entry is a unit
        _, root, tree = _forest(kk, tt)
        rows = _laurent_rows(kk, tt, 0, ())
        for i in tree:
            for unit in rows[i].values():
                ((_, c),) = unit.items()
                assert c in (1, -1)
        assert sizes[0] == len(set(root)) == kk.n_simplices(0) - len(tree)
        dropped, paired_below = tree, len(tree)
        assert len(red.deltas[0]) == sizes[1]
        assert all(0 <= c < sizes[0] for row in red.deltas[0] for c in row)
        for p in range(1, kk.dim + 1):
            # degree p of reduce, replayed to see its pivots: _eliminate below
            # the top degree, the dual forest in it, nothing above it
            rows, n = _laurent_rows(kk, tt, p, dropped), kk.n_simplices(p)
            if p < kk.dim - 1:
                pivots, live = _eliminate(rows, n)
            elif p == kk.dim - 1:
                # the walk pairs as many cells as elimination would
                again, _ = _eliminate(copy.deepcopy(rows), n)
                pivots = _dual_forest(rows, n, live)
                assert len(pivots) == len(again)
            else:
                pivots = []
            for _, _, unit in pivots:
                ((_, c),) = unit.items()  # a monomial +-t**e
                assert c in (1, -1)
            # the p-cells gone are those paired above and those paired below
            assert len(pivots) == kk.n_simplices(p) - sizes[p] - paired_below
            dropped, paired_below = {b for b, _, _ in pivots}, len(pivots)
            assert len(red.deltas[p]) == (sizes[p + 1] if p < kk.dim else 0)
            assert all(0 <= c < sizes[p] for row in red.deltas[p] for c in row)
        assert paired_below == 0  # nothing sits above the top degree


# every kind of top column the dual forest meets: faces with one top coface
# (a disk, a ball), faces in three top simplices (three disks on one circle,
# three balls on one 2-sphere) and closed manifolds
TOP_SHAPES = ("disk", "ball", "branched edge", "branched triangle", "sphere", "torus")


def top_shape_case(shape, seed):
    """(complex, closed integer cocycle) of one of TOP_SHAPES."""
    rng = random.Random(seed)
    m = rng.randint(3, 6)
    rim = [(i, (i + 1) % m) for i in range(m)]
    if shape == "torus":
        k, theta = winding_torus(3, rng.randint(1, 2))
        return k, gauged(k, theta, rng.randrange(100))
    if shape == "sphere":
        k = sphere_boundary(2 + seed % 3)
    else:
        maximal = {
            "disk": [(i, j, m) for i, j in rim],
            "ball": [(i, j, m, m + 1) for i, j in rim],
            "branched edge": [(i, j, m + a) for i, j in rim for a in range(3)],
            "branched triangle": [f + (4 + a,) for f in combinations(range(4), 3) for a in range(3)],
        }[shape]
        k = SimplicialComplex.build(maximal)
    return k, random_closed_cocycle(k, rng)


def seeded_reduce_case(shape, seed, real):
    """(complex, closed cocycle) of one shape of the reduce property test."""
    if shape in TOP_SHAPES:
        k, theta = top_shape_case(shape, seed)
        if real:
            # the walk's units sum float exponents, and a harmonic
            # representative closes only up to rounding
            scaled = OneCocycle({e: 0.37 * x for e, x in theta.values.items()}, mode="float")
            theta = harmonic_representative(k, scaled)
        return k, theta
    rng = random.Random(seed)
    if shape == "dim 0":
        k, theta = SimplicialComplex.build([], vertex_count=rng.randint(1, 4)), OneCocycle({})
    else:
        k, loop = random_small_complex(rng)
        theta = random_closed_cocycle(k, rng, loop)
    if shape == "disconnected":
        other, loop = random_small_complex(rng)
        gamma = random_closed_cocycle(other, rng, loop)
        n = k.vertex_count
        shifted = [tuple(v + n for v in s) for s in other.maximal_simplices()]
        k = SimplicialComplex.build(k.maximal_simplices() + shifted, n + other.vertex_count)
        values = dict(theta.values)
        values.update({(u + n, v + n): x for (u, v), x in gamma.values.items()})
        theta = OneCocycle(values)
    elif shape == "trailing":
        extra = rng.randint(1, 3)
        k = SimplicialComplex.build(k.maximal_simplices(), k.vertex_count + extra)
    if real:
        theta = OneCocycle({e: 0.37 * x for e, x in theta.values.items()}, mode="float")
    return k, theta


def every_top_shape(test):
    """An explicit example of each of TOP_SHAPES at an exact, a number-field
    and a float lambda, and with a real cocycle; the sphere in dimensions 2,
    3 and 4."""
    for seed, shape in enumerate(TOP_SHAPES):
        for lam, real in ((Fraction(2), False), (NF_LAMBDA, False), (-1.0 + 0.5j, False), (0.625, True)):
            test = example(shape=shape, seed=seed, lam=lam, real=real)(test)
    for seed in (0, 1, 2):
        test = example(shape="sphere", seed=seed, lam=Fraction(-7, 9), real=False)(test)
    return test


@every_top_shape
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(("random", "disconnected", "trailing", "dim 0", *TOP_SHAPES)),
    seed=st.integers(0, 2**16),
    lam=st.sampled_from(
        (Fraction(1), Fraction(2), Fraction(-7, 9), NF_LAMBDA, 0.625, 1.0, -1.0 + 0.5j)
    ),
    real=st.booleans(),
)
# every shape, every kind of lambda and the real cocycle at each float lambda
@example(shape="random", seed=1, lam=Fraction(2), real=False)
@example(shape="disconnected", seed=2, lam=NF_LAMBDA, real=False)
@example(shape="trailing", seed=3, lam=Fraction(-7, 9), real=False)
@example(shape="dim 0", seed=4, lam=Fraction(1), real=False)
@example(shape="random", seed=5, lam=0.625, real=True)
@example(shape="disconnected", seed=6, lam=1.0, real=True)
@example(shape="trailing", seed=7, lam=-1.0 + 0.5j, real=True)
@example(shape="dim 0", seed=8, lam=0.625, real=True)
def test_reduce_matches_the_dense_route_on_seeded_inputs(shape, seed, lam, real):
    # a real cocycle needs a float lambda
    assume(not real or isinstance(lam, (float, complex)))
    k, theta = seeded_reduce_case(shape, seed, real)
    if lam == NF_LAMBDA:
        lam = parse_scalar(lam)
    red = reduce(k, theta)
    assert red.profile(lam).dims == dense_route_dims(k, theta, lam)
    assert red.sizes[0] == len(set(_forest(k, theta)[1]))


# residual sizes of reduce when degree 0 was eliminated like every other
# degree and no free row came first, and the residual's monomial count when
# the top degree still ran through _eliminate; the forest walks and free
# rows must not leave a larger residual anywhere
RESIDUAL_BEFORE = {
    **{("circle3", s): ((1, 1), 2) for s in range(1, 6)},
    **{("torus2", s): ((1, 2, 1), 4) for s in range(1, 6)},
    **{("torus3", s): ((1, 3, 3, 1), 8 if s < 4 else 10) for s in range(1, 6)},
    ("torus3 x circle3", 1): ((1, 4, 6, 4, 1), 34),
    ("torus3 x circle3", 3): ((1, 4, 6, 4, 1), 18),
    ("identity", 1): ((1, 3, 3, 1), 10),
    ("flip", 1): ((1, 3, 3, 1), 22),
    ("swap", 1): ((1, 2, 2, 1), 6),
    ("order six", 1): ((1, 2, 2, 1), 7),
}


def monomials(red):
    """Monomials in all of a residual's Laurent entries."""
    return sum(len(ent) for rows in red.deltas for row in rows for ent in row.values())


def residual_inputs():
    """(name, sheets, complex, cocycle) of each input of RESIDUAL_BEFORE."""
    inputs = {f: load_complex(FIXTURES / f"{f}.json") for f in ("circle3", "torus2", "torus3")}
    prod = product(inputs["torus3"][0], inputs["circle3"][0])
    inputs["torus3 x circle3"] = (
        prod.complex, prod.combine_cocycles(inputs["torus3"][1], inputs["circle3"][1])
    )
    for name, gluing in GLUINGS.items():
        mt = mapping_torus(torus_grid(3), torus_grid_map(3, gluing), layers=3)
        inputs[name] = (mt.complex, mt.fiber_cocycle)
    for name, sheets in RESIDUAL_BEFORE:
        k, theta = inputs[name]
        if sheets > 1:
            cover = cyclic_cover(k, theta, sheets)
            k, theta = cover.complex, cover.theta_lift
        yield name, sheets, k, theta


def test_residuals_are_no_larger_than_before():
    for name, sheets, k, theta in residual_inputs():
        before, terms = RESIDUAL_BEFORE[name, sheets]
        red = reduce(k, theta)
        assert len(red.sizes) == len(before), (name, sheets)
        assert all(a <= b for a, b in zip(red.sizes, before)), (name, sheets, red.sizes)
        assert monomials(red) <= terms, (name, sheets, monomials(red))


def top_components(rows):
    """The components of the dual graph of top rows: two rows are joined
    through each column that exactly they hold."""
    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, []).append(r)
    parent = list(range(len(rows)))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for held in holders.values():
        if len(held) == 2:
            parent[find(held[0])] = find(held[1])
    components = {}
    for r in range(len(rows)):
        components.setdefault(find(r), []).append(r)
    return list(components.values()), holders


def test_reduction_heuristics_hold_on_every_residual_input(monkeypatch):
    # the residual sizes and monomial counts do not move when the order of
    # the free rows, a row's live count, the choice of a component's root or
    # an empty row's weight changes; these pins do
    eliminate, walk = twisted._eliminate, twisted._dual_forest
    seen = {"several free rows": 0, "walks": 0, "weights from degree 0": 0}

    def checked_eliminate(rows, ncols):
        free = [r for r, row in enumerate(rows) if len(row) == 1]
        pivots, live = eliminate(rows, ncols)
        # free rows are taken lowest first
        if free:
            assert pivots[0][0] == free[0]
        seen["several free rows"] += len(free) > 1
        # each unpaired row's live count is a recount of its live entries
        dead = {a for _, a, _ in pivots}
        for r, row in enumerate(rows):
            if row is not None:
                assert live[r] == sum(c not in dead for c in row), r
        return pivots, live

    def checked_walk(rows, ncols, weight):
        components, holders = top_components(rows)
        pivots = walk(rows, ncols, weight)
        # each component keeps its highest-numbered row as root: the row
        # left in place, or the one paired with a column no other row holds
        roots = {r for r, row in enumerate(rows) if row is not None}
        roots |= {r for r, c, _ in pivots if len(holders[c]) == 1}
        assert roots == {max(component) for component in components}
        seen["walks"] += 1
        weights.append(weight)
        return pivots

    monkeypatch.setattr(twisted, "_eliminate", checked_eliminate)
    monkeypatch.setattr(twisted, "_dual_forest", checked_walk)
    for name, sheets, k, theta in residual_inputs():
        weights = []
        reduce(k, theta)
        if k.dim == 2:
            # the walk's weights are the entries delta_0's rows keep once
            # degree 0 is paired: none on a tree edge, and on another edge
            # one unless its loop has holonomy 0, so the walk claims no column
            # whose row is empty
            f, _, tree = _forest(k, theta)
            keeps = [
                int(i not in tree and theta.values[e] - f[e[1]] != -f[e[0]])
                for i, e in enumerate(k.edges)
            ]
            assert weights == [keeps], (name, sheets)
            seen["weights from degree 0"] += 0 in keeps
    assert all(seen.values()), seen


def test_float_residual_rounding_noise_is_not_rank():
    # the holonomy 1.1 + 2.2 - 3.3 is about 4e-16, not 0: the residual entry
    # t**-1.1 - t**-1.0999999999999996 is rounding noise around zero
    k = circle(3)
    theta = OneCocycle({(0, 1): 1.1, (1, 2): 2.2, (0, 2): 3.3}, mode="float")
    for lam in (2.0, 0.5, -1.0 + 0.5j):
        prof = betti_profile(k, theta, lam)
        assert prof.dims == dense_route_dims(k, theta, lam) == (1, 1)
        assert not prof.ill_conditioned


def test_float_betti_needs_no_small_exponents():
    # the full route answered (1, 1), unflagged, from weights 1, 2**20 and 2**21
    k = circle(3)
    theta = OneCocycle({(0, 1): 20, (1, 2): 0, (0, 2): 21})
    assert betti_profile(k, theta, Fraction(2)).dims == (0, 0)
    assert betti_profile(k, theta, 2.0).dims == (0, 0)
    # the residual entry is t**300 - t**-300: each row is scaled by the power
    # of lambda that keeps it in range, 10.0**600 would overflow
    theta = OneCocycle({(0, 1): 300, (1, 2): 300, (0, 2): 0})
    for lam in (10.0, 0.1, -10.0, Fraction(10)):
        assert betti_profile(k, theta, lam).dims == (0, 0)
    # the full route answered (15, 41, 26), from weights 3**-60 to 3**60
    k = torus_grid(4)
    rng = random.Random(0)
    f = ZeroCochain({v: rng.randint(-30, 30) for v in range(k.vertex_count)})
    theta = gauge_transform(zero_cocycle(k), f)
    assert betti_profile(k, theta, Fraction(3)).dims == (1, 2, 1)
    prof = betti_profile(k, theta, 3.0)
    assert prof.dims == (1, 2, 1)
    assert not prof.ill_conditioned
    # row scaling alone left a column that no row leads at about 1e-40, below
    # the cut: (0, 1, 1, 0), unflagged at 1e20 and 1e150
    mt = mapping_torus(torus_grid(3), torus_grid_map(3, GLUINGS["flip"]), layers=3)
    for lam in (1e10, 1e20, 1e150, -1e10):
        exact = betti_profile(mt.complex, mt.fiber_cocycle, Fraction(lam))
        prof = betti_profile(mt.complex, mt.fiber_cocycle, lam)
        assert prof.dims == exact.dims
        assert not prof.ill_conditioned


def test_pipelines_build_no_dense_matrix(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a dense Matrix was built")

    k, theta = winding_torus(3)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    assert betti_profile(k, theta, Fraction(1)).dims == (1, 2, 1)
    assert betti_profile(k, theta, Fraction(2)).dims == (0, 0, 0)
    assert betti_profile(k, theta, parse_scalar(NF_LAMBDA)).dims == (0, 0, 0)
    assert betti_profile(k, theta, 0.625).dims == (0, 0, 0)
    for p in range(k.dim + 1):
        assert laplacian_spectrum(k, theta, 1.0, p).size == k.n_simplices(p)
        parts = hodge_decompose(k, theta, 0.625, p, np.ones(k.n_simplices(p)))
        assert parts.residual < 1e-9
    rep = harmonic_representative(k, theta)
    assert rep.mode == "float" and len(rep.values) == len(k.edges)


def test_reduce_refuses_a_cocycle_it_cannot_reduce():
    # the row deletions of reduce rely on delta delta = 0: an open theta gave
    # a meaningless residual of sizes (1, 0, 0), a missing edge a bare KeyError
    k = SimplicialComplex.build([(0, 1, 2)])
    not_closed = OneCocycle({(0, 1): 1, (1, 2): 0, (0, 2): 0})
    incomplete = OneCocycle({(0, 1): 1, (1, 2): 0})
    for run in (reduce, lambda k, theta: betti_profile(k, theta, Fraction(2))):
        with pytest.raises(ValueError, match="cocycle is not closed on this complex"):
            run(k, not_closed)
        with pytest.raises(IncompleteCocycleError):
            run(k, incomplete)


def test_a_held_reduction_is_evaluated_at_every_lambda():
    k, theta = load_complex(FIXTURES / "torus3.json")
    cover = cyclic_cover(k, theta, 3)
    red = reduce(cover.complex, cover.theta_lift)
    assert red.complex is cover.complex and red.theta is cover.theta_lift
    before = copy.deepcopy(red.deltas)
    answers = set()
    for literal in ("2", "1", "nf:x^2+x+1:x", "0.5", "-1+0.5j", "2"):
        lam = parse_scalar(literal)
        dims = red.profile(lam).dims
        assert dims == dense_route_dims(cover.complex, cover.theta_lift, lam), literal
        answers.add(dims)
    assert {(0, 0, 0, 0), (1, 3, 3, 1)} <= answers
    assert red.deltas == before  # evaluation never edits the residual


def test_betti_profile_checks_closedness_once(monkeypatch):
    checks = []
    check = twisted.validate_closed

    def counted(k, theta):
        checks.append(k)
        return check(k, theta)

    monkeypatch.setattr(twisted, "validate_closed", counted)
    k, theta = winding_torus(3)
    for lam in (Fraction(2), 2.0):
        checks.clear()
        assert betti_profile(k, theta, lam).dims == (0, 0, 0)
        assert len(checks) == 1
