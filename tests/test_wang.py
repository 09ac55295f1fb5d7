import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import boundary, dense, from_dense
from novikov import scalars, wang
from novikov.cocycles import OneCocycle, zero_cocycle
from novikov.complexes import circle
from novikov.constructions import (
    SimplicialMap,
    cyclic_cover,
    mapping_torus,
    torus_grid,
    torus_grid_map,
)
from novikov.errors import BackendMismatchError, ConstructionError, NumericalError
from novikov.scalars import _FLOAT, _NF, Matrix, NumberFieldElement, parse_scalar
from novikov.serialization import load_complex
from novikov.twisted import betti_profile, twisted_coboundary
from novikov.wang import (
    FiberCohomologyAction,
    _pullback,
    induced_action,
    wang_dims,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sphere_product_action():
    # fiber with cohomology in degrees 0, 3, 6 and a hyperbolic middle block
    return FiberCohomologyAction.from_blocks(
        {0: [[1]], 3: [[1, 1], [1, 2]], 6: [[1]]}
    )


def test_action_normalization():
    act = sphere_product_action()
    assert act.top_degree == 6
    assert act.fiber_dims() == (1, 0, 0, 2, 0, 0, 1)
    assert act.block(2).shape == (0, 0)
    assert act.block(9).shape == (0, 0)
    with pytest.raises(ValueError):
        FiberCohomologyAction([[[1, 2]]])


def test_wang_dims_hyperbolic_sphere_bundle():
    act = sphere_product_action()
    lam = parse_scalar("nf:x^2-3*x+1:x")
    prof = wang_dims(act, lam)
    assert prof.dims == (0, 0, 0, 1, 1, 0, 0, 0)
    assert prof.euler == 0
    assert prof.backend == "nf"
    # rational lambdas miss the spectrum entirely
    assert wang_dims(act, Fraction(2)).dims == (0,) * 8
    # at lambda = 1 only the degree 0 and 6 blocks contribute
    assert wang_dims(act, Fraction(1)).dims == (1, 1, 0, 0, 0, 0, 1, 1)


def test_wang_dims_float_backend():
    act = sphere_product_action()
    golden = (3 + 5 ** 0.5) / 2  # root of x^2 - 3x + 1
    prof = wang_dims(act, golden)
    assert prof.backend == "float"
    assert prof.dims == (0, 0, 0, 1, 1, 0, 0, 0)
    assert wang_dims(act, 2.0).dims == (0,) * 8


def test_wang_dims_sol_and_nilpotent_fibers():
    sol = FiberCohomologyAction.from_blocks(
        {0: [[1]], 1: [[2, 1], [1, 1]], 2: [[1]]}
    )
    lam = parse_scalar("nf:x^2-3*x+1:x")
    assert wang_dims(sol, lam).dims == (0, 1, 1, 0)
    assert wang_dims(sol, Fraction(2)).dims == (0, 0, 0, 0)
    assert wang_dims(sol, Fraction(1)).dims == (1, 1, 1, 1)

    nil = FiberCohomologyAction.from_blocks(
        {0: [[1]], 1: [[1, 1], [0, 1]], 2: [[1]]}
    )
    for lam in (Fraction(2), Fraction(-1), Fraction(5, 7)):
        assert wang_dims(nil, lam).dims == (0, 0, 0, 0)
    assert wang_dims(nil, Fraction(1)).dims == (1, 2, 2, 1)


def test_wang_euler_always_zero():
    rng = random.Random(11)
    for _ in range(10):
        blocks = {}
        for p in range(rng.randrange(1, 4)):
            n = rng.randrange(0, 3)
            if n:
                blocks[p] = [
                    [rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)
                ]
        act = FiberCohomologyAction.from_blocks(blocks)
        lam = Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
        assert wang_dims(act, lam).euler == 0
    with pytest.raises(ValueError):
        wang_dims(sphere_product_action(), Fraction(0))


def test_induced_action_torus_automorphisms():
    k = torus_grid(3)
    ident = induced_action(k, torus_grid_map(3, [[1, 0], [0, 1]]))
    assert ident.fiber_dims() == (1, 2, 1)
    assert ident.block(1) == Matrix.from_rows([[1, 0], [0, 1]])
    assert ident.block(0) == Matrix.from_rows([[1]])
    assert ident.block(2) == Matrix.from_rows([[1]])

    translation = induced_action(k, torus_grid_map(3, [[1, 0], [0, 1]], shift=(1, 2)))
    assert translation.block(1) == Matrix.from_rows([[1, 0], [0, 1]])

    flip = induced_action(k, torus_grid_map(3, [[-1, 0], [0, -1]]))
    assert flip.block(1) == Matrix.from_rows([[-1, 0], [0, -1]])
    assert flip.block(2) == Matrix.from_rows([[1]])

    swap = induced_action(k, torus_grid_map(3, [[0, 1], [1, 0]]))
    m = swap.block(1)
    assert m.entry(0, 0) + m.entry(1, 1) == 0
    assert m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0) == -1
    assert swap.block(2) == Matrix.from_rows([[-1]])

    hexa = induced_action(k, torus_grid_map(3, [[1, -1], [1, 0]]))
    m = hexa.block(1)
    trace = m.entry(0, 0) + m.entry(1, 1)
    det = m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
    assert (trace, det) == (1, 1)  # satisfies x^2 - x + 1, order six
    power = dense(m)
    for _ in range(5):
        power = power @ dense(m)
    assert from_dense(power) == Matrix.from_rows([[1, 0], [0, 1]])


# A dense Gauss-Jordan elimination, independent of the package's sparse
# column reduction: the engine reference_induced_action runs on.


def matrix_rref(m: Matrix):
    """Reduced row echelon form over the exact backends.

    Returns (rows, pivot_columns).  Pivoting scans columns left to right and
    takes the first row with an exact nonzero entry.
    """
    if m.backend == _FLOAT:
        raise BackendMismatchError("rref requires exact entries")
    rows = m.rows()
    pivots = []
    rpos = 0
    for col in range(m.ncols):
        piv = None
        for r in range(rpos, m.nrows):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rpos], rows[piv] = rows[piv], rows[rpos]
        inv = 1 / rows[rpos][col]
        rows[rpos] = [v * inv for v in rows[rpos]]
        for r in range(m.nrows):
            if r == rpos:
                continue
            f = rows[r][col]
            if f == 0:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rpos])]
        pivots.append(col)
        rpos += 1
        if rpos == m.nrows:
            break
    return rows, pivots


def _field_constant(m: Matrix, value):
    if m.backend == _NF:
        return NumberFieldElement.constant(value, m.entries[0].minpoly)
    return Fraction(value)


def kernel_basis(m: Matrix):
    """Basis of the right null space, one vector per free column.

    Deterministic: free columns in increasing order, each basis vector has
    a 1 in its free slot.
    """
    rows, pivots = matrix_rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [_field_constant(m, 0)] * m.ncols
        vec[fc] = _field_constant(m, 1)
        for rix, pc in enumerate(pivots):
            vec[pc] = -rows[rix][fc]
        basis.append(vec)
    return basis


def _columns(cols, nrows) -> Matrix:
    return Matrix(nrows, len(cols), [c[i] for i in range(nrows) for c in cols])


def _dense_pullback(k, phi, p) -> np.ndarray:
    n = k.n_simplices(p)
    out = np.full((n, n), Fraction(0), dtype=object)
    for i, s in enumerate(k.simplices[p]):
        img = [phi.image_vertex(v) for v in s]
        inversions = sum(a > b for a, b in itertools.combinations(img, 2))
        out[i, k.simplex_index(tuple(sorted(img)))] = Fraction((-1) ** inversions)
    return out


def reference_induced_action(k, phi) -> FiberCohomologyAction:
    """The per-representative algorithm: pick the representatives with one
    rref of [bounding | cocycles], then solve for the coordinates of each
    pulled-back representative with its own rref of [bounding | reps | image],
    through a dense pullback matrix."""
    zero = zero_cocycle(k)
    deltas = [twisted_coboundary(k, zero, Fraction(1), p) for p in range(k.dim + 1)]
    blocks = []
    for p, delta in enumerate(deltas):
        n = k.n_simplices(p)
        cocycles = kernel_basis(delta)
        bounding = dense(deltas[p - 1]).T.tolist() if p >= 1 else []
        _, pivots = matrix_rref(_columns(bounding + cocycles, n))
        reps = [cocycles[c - len(bounding)] for c in pivots if c >= len(bounding)]
        pull = _dense_pullback(k, phi, p)
        cols = []
        for h in reps:
            image = pull @ np.array(h, dtype=object)
            rows, piv = matrix_rref(_columns(bounding + reps + [list(image)], n))
            assert len(bounding) + len(reps) not in piv  # image is in the frame
            coords = dict(zip(piv, (row[-1] for row in rows)))
            cols.append([coords[len(bounding) + i] for i in range(len(reps))])
        blocks.append(_columns(cols, len(reps)))
    return FiberCohomologyAction(blocks)


def _winding_torus_cover(m, sheets):
    k = torus_grid(m)

    def step(d):
        d %= m
        return d - m if d > 1 else d

    theta = OneCocycle({(u, v): step(v // m - u // m) for (u, v) in k.edges})
    return cyclic_cover(k, theta, sheets)


def equivalence_cases():
    torus2, _ = load_complex(FIXTURES / "torus2.json")
    flip = json.loads((FIXTURES / "torus2_flip_map.json").read_text())
    yield "torus2 flip", torus2, SimplicialMap(torus2, torus2, flip)
    grid = torus_grid(3)
    gluings = {
        "identity": [[1, 0], [0, 1]],
        "flip": [[-1, 0], [0, -1]],
        "swap": [[0, 1], [1, 0]],
        "order six": [[1, -1], [1, 0]],
    }
    for name, matrix in gluings.items():
        for shift in ((0, 0), (1, 2)):
            yield f"grid3 {name} {shift}", grid, torus_grid_map(3, matrix, shift)
    for matrix, shift in (
        ([[-1, 0], [0, -1]], (3, 2)),
        ([[0, 1], [1, 0]], (1, 3)),
        ([[1, -1], [1, 0]], (2, 1)),
    ):
        yield f"grid4 {matrix} {shift}", torus_grid(4), torus_grid_map(4, matrix, shift)
    c = circle(3)
    yield "circle3 rotation", c, SimplicialMap(c, c, [1, 2, 0])
    cover = _winding_torus_cover(3, 2)
    yield "cover deck map", cover.complex, cover.deck_map()


def assert_same_blocks(got, want, name):
    assert got.fiber_dims() == want.fiber_dims(), name
    for p in range(want.top_degree + 1):
        a, b = got.block(p), want.block(p)
        assert a.shape == b.shape, (name, p)
        assert [(type(v), v) for v in a.entries] == [
            (type(v), v) for v in b.entries
        ], (name, p)


def test_induced_action_matches_per_representative_reference():
    for name, k, phi in equivalence_cases():
        assert_same_blocks(induced_action(k, phi), reference_induced_action(k, phi), name)


# The twelve matrices with entries in {-1, 0, 1} that send the staircase edge
# directions to staircase directions (the symmetries of the triangular
# lattice): the finite-order gluings torus_grid_map accepts at m = 3 and 4.
FINITE_ORDER_GLUINGS = (
    [[1, 0], [0, 1]],
    [[-1, 0], [0, -1]],
    [[0, 1], [1, 0]],
    [[0, -1], [-1, 0]],
    [[1, -1], [1, 0]],
    [[0, 1], [-1, 1]],
    [[0, -1], [1, -1]],
    [[-1, 1], [-1, 0]],
    [[-1, 0], [-1, 1]],
    [[1, 0], [1, -1]],
    [[-1, 1], [0, 1]],
    [[1, -1], [0, -1]],
)


@functools.cache
def _deck_case(sheets):
    cover = _winding_torus_cover(3, sheets)
    k, phi = cover.complex, cover.deck_map()
    return k, phi, reference_induced_action(k, phi)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("gluing", "deck")),
    m=st.integers(3, 4),
    matrix=st.sampled_from(FINITE_ORDER_GLUINGS),
    shift=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    sheets=st.integers(2, 3),
)
def test_induced_action_matches_reference_on_random_maps(kind, m, matrix, shift, sheets):
    if kind == "deck":
        k, phi, want = _deck_case(sheets)
    else:
        k, phi = torus_grid(m), torus_grid_map(m, matrix, shift)
        want = reference_induced_action(k, phi)
    assert_same_blocks(induced_action(k, phi), want, (kind, m, matrix, shift, sheets))


def test_induced_action_runs_two_eliminations_per_degree(monkeypatch):
    calls = []
    reduce_columns = wang._reduce_columns

    def counting(columns):
        calls.append(None)
        return reduce_columns(columns)

    monkeypatch.setattr(wang, "_reduce_columns", counting)
    for k, phi in square_block_cases():
        calls.clear()
        induced_action(k, phi)
        assert len(calls) == 2 * (k.dim + 1)


def square_block_cases():
    torus2, _ = load_complex(FIXTURES / "torus2.json")
    flip = json.loads((FIXTURES / "torus2_flip_map.json").read_text())
    yield torus2, SimplicialMap(torus2, torus2, flip)
    yield torus_grid(3), torus_grid_map(3, [[1, -1], [1, 0]])


def test_induced_action_builds_only_square_cohomology_blocks(monkeypatch):
    shapes = []
    init = Matrix.__init__

    def recording(self, nrows, ncols, entries):
        shapes.append((nrows, ncols))
        init(self, nrows, ncols, entries)

    monkeypatch.setattr(Matrix, "__init__", recording)
    for k, phi in square_block_cases():
        shapes.clear()
        action = induced_action(k, phi)
        assert action.fiber_dims() == (1, 2, 1)
        assert shapes == [(d, d) for d in action.fiber_dims()]


def test_wang_dims_ranks_through_the_two_kernels(monkeypatch):
    # one backend decision per call, and M_p - lam I is never a Matrix
    k, phi = next(square_block_cases())
    action = induced_action(k, phi)
    calls = []
    arithmetic, rank_with_flag, init = scalars._arithmetic, scalars.rank_with_flag, Matrix.__init__

    def deciding(*args, **kwargs):
        calls.append("_arithmetic")
        return arithmetic(*args, **kwargs)

    def ranking(*args, **kwargs):
        calls.append("rank_with_flag")
        return rank_with_flag(*args, **kwargs)

    def building(self, nrows, ncols, entries):
        calls.append("Matrix")
        init(self, nrows, ncols, entries)

    for module in (scalars, wang):
        monkeypatch.setattr(module, "_arithmetic", deciding)
        monkeypatch.setattr(module, "rank_with_flag", ranking, raising=False)
    monkeypatch.setattr(Matrix, "__init__", building)
    for lam, dims in (
        (Fraction(1), (1, 1, 1, 1)),
        (1.0, (1, 1, 1, 1)),
        (Fraction(2), (0, 0, 0, 0)),
        (2.0, (0, 0, 0, 0)),
        (parse_scalar("nf:x^2+1:x"), (0, 0, 0, 0)),
    ):
        calls.clear()
        assert wang_dims(action, lam).dims == dims
        assert calls == ["_arithmetic"], lam


# The dense-diagonal route wang_dims took before its blocks went through
# scalars._rank, kept as the declared reference: a float block is made a
# dense complex array, lambda is subtracted on its diagonal in numpy, and the
# array goes straight to _float_rank.


def reference_wang(action, lam, backend=None):
    """(dims, the arrays given to _float_rank) by the dense-diagonal route."""
    entries = scalars._join(block.backend for block in action.matrices)
    lam, backend, tol = scalars._arithmetic(lam, entries, backend=backend)
    nulls, arrays = [], []
    for p, block in enumerate(action.matrices):
        if backend == _FLOAT:
            shifted = block.to_numpy()  # NumericalError for an exact entry past the float range
            with np.errstate(over="ignore", invalid="ignore"):
                shifted.flat[:: block.nrows + 1] -= lam
            if not np.isfinite(shifted).all():
                raise NumericalError(f"degree {p} block minus lambda leaves the float range")
            arrays.append(shifted)
            rank = scalars._float_rank(shifted, tol)[0]
        else:
            rank = scalars._exact_rank_columns(
                {j: v - lam if i == j else v for j, v in enumerate(row)}
                for i, row in enumerate(block.rows())
            )
        nulls.append(block.nrows - rank)
    return tuple(a + b for a, b in zip(nulls + [0], [0] + nulls)), arrays


# each kind of entry has a value past the float range or one a lambda can push past it
EXACT_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.sampled_from((1, -1, 2, 10**400)),
)
FLOAT_ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1.7e308)), st.floats(-4, 4)
)
ENTRIES = {
    "exact": EXACT_ENTRIES,
    "float": FLOAT_ENTRIES,
    "complex": st.builds(complex, FLOAT_ENTRIES, FLOAT_ENTRIES),
}


@st.composite
def fiber_actions(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3))
        entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
        blocks.append(Matrix(n, n, draw(st.lists(entries, min_size=n * n, max_size=n * n))))
    return FiberCohomologyAction(blocks)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    action=fiber_actions(),
    lam=st.one_of(
        st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(5, 7))),
        st.sampled_from((2.0, 0.625, -1 + 0.5j, 1.0, 1e-3, 1e200, -3.7, -1.7e308)),
        st.floats(-4, 4).filter(bool),
    ),
    backend=st.sampled_from((None, "float")),
)
def test_wang_dims_matches_the_dense_diagonal_reference(action, lam, backend):
    try:
        want, want_arrays = reference_wang(action, lam, backend)
    except NumericalError:
        with pytest.raises(NumericalError):
            wang_dims(action, lam, backend=backend)
        return
    got_arrays = []
    float_rank = scalars._float_rank

    def recording(a, *args):
        got_arrays.append(a.copy())
        return float_rank(a, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "_float_rank", recording)
        got = wang_dims(action, lam, backend=backend)
    assert got.dims == want
    assert [(a.shape, a.dtype, a.tobytes()) for a in got_arrays] == [
        (a.shape, a.dtype, a.tobytes()) for a in want_arrays
    ]


def test_pullback_is_cochain_map():
    k = torus_grid(3)
    phi = torus_grid_map(3, [[1, -1], [1, 0]], shift=(2, 1))

    def pull_back(p, h):
        return [sign * h[j] for j, sign in _pullback(k, phi, p)]

    for p in range(k.dim):
        delta = boundary(k, p + 1).T

        def cobound(h):
            return list(delta @ np.array(h, dtype=object))

        n = k.n_simplices(p)
        for c in range(n):
            basis = [Fraction(int(i == c)) for i in range(n)]
            assert cobound(pull_back(p, basis)) == pull_back(p + 1, cobound(basis))


def test_induced_action_requires_isomorphism():
    k = circle(3)
    from novikov.complexes import point

    collapse = SimplicialMap(k, point(), [0, 0, 0])
    with pytest.raises(ConstructionError):
        induced_action(k, collapse)
    with pytest.raises(ConstructionError, match="isomorphism"):
        induced_action(k, SimplicialMap(k, k, [0, 1, 1]))


def test_from_blocks_drops_trailing_empty_blocks():
    action = FiberCohomologyAction.from_blocks({0: [[1]], 1: [], 2: []})
    assert action.top_degree == 0
    assert action.fiber_dims() == (1,)


def test_from_blocks_refuses_a_degree_key_that_is_not_a_natural():
    # {True: [[2]]} once read as degree 1, fiber dims (0, 1)
    for key in (True, False, -1, 1.0, "1"):
        with pytest.raises(ValueError):
            FiberCohomologyAction.from_blocks({key: [[2]]})


def test_wang_matches_mapping_torus():
    k = torus_grid(3)
    mats = {
        "identity": [[1, 0], [0, 1]],
        "flip": [[-1, 0], [0, -1]],
        "swap": [[0, 1], [1, 0]],
        "hexagonal": [[1, -1], [1, 0]],
    }
    for name, mat in mats.items():
        phi = torus_grid_map(3, mat)
        mt = mapping_torus(k, phi, layers=3)
        action = induced_action(k, phi)
        for mu in (Fraction(1), Fraction(-1), Fraction(2)):
            lam = mu ** mt.holonomy_period
            direct = betti_profile(mt.complex, mt.fiber_cocycle, mu)
            predicted = wang_dims(action, lam)
            assert direct.dims == predicted.dims, (name, mu)
            assert direct.euler == 0


def test_wang_matches_mapping_torus_circle_rotation():
    c = circle(3)
    rot = SimplicialMap(c, c, [1, 2, 0])
    mt = mapping_torus(c, rot, layers=3)
    action = induced_action(c, rot)
    assert action.fiber_dims() == (1, 1)
    assert action.block(1) == Matrix.from_rows([[1]])
    for mu in (Fraction(1), Fraction(-1), Fraction(3)):
        direct = betti_profile(mt.complex, mt.fiber_cocycle, mu)
        predicted = wang_dims(action, mu ** 3)
        assert direct.dims == predicted.dims
