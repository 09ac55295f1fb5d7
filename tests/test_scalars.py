import random
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import dense, from_dense
from novikov.errors import BackendMismatchError, NumericalError, ReducibilityError
from novikov.scalars import (
    Matrix,
    MinimalPolynomial,
    NumberFieldElement,
    _arithmetic,
    _float_rank,
    _reduce_columns,
    format_polynomial,
    parse_polynomial,
    parse_scalar,
    rank_with_flag,
    scalar_literal,
)

GOLDEN = MinimalPolynomial.parse("x^2-3*x+1")


def x_in(minpoly):
    return NumberFieldElement.generator(minpoly)


def test_polynomial_parse_roundtrip():
    for text in ["x^2-3*x+1", "x^2-2", "x^3+1/2*x-7", "2*x", "x", "5"]:
        coeffs = parse_polynomial(text)
        assert parse_polynomial(format_polynomial(coeffs)) == coeffs
    assert parse_polynomial("x**2 - 3*x + 1") == (1, -3, 1)
    assert parse_polynomial("-x+4") == (4, -1)
    with pytest.raises(ValueError):
        parse_polynomial("x^2 + y")


def test_minimal_polynomial_validation():
    with pytest.raises(ValueError):
        MinimalPolynomial([1])  # degree 0
    with pytest.raises(ValueError):
        MinimalPolynomial([1, 2])  # not monic
    m = MinimalPolynomial.parse("x^2-2")
    assert m.degree == 2 and str(m) == "x^2-2"


def test_nf_inverse_golden_ratio_field():
    # product check: x * (3 - x) = 3x - x^2 = 3x - (3x - 1) = 1 mod x^2-3x+1
    a = x_in(GOLDEN)
    inv = a.inverse()
    assert inv == NumberFieldElement((3, -1), GOLDEN)
    assert a * inv == 1


def test_nf_inverse_sqrt2_field():
    m = MinimalPolynomial.parse("x^2-2")
    a = x_in(m)
    inv = a.inverse()
    assert inv == NumberFieldElement((0, Fraction(1, 2)), m)
    assert a * inv == 1


def test_nf_arithmetic_field_axioms_random():
    rng = random.Random(11)
    m = GOLDEN
    for _ in range(50):
        a = NumberFieldElement([rng.randint(-5, 5), rng.randint(-5, 5)], m)
        b = NumberFieldElement([rng.randint(-5, 5), rng.randint(-5, 5)], m)
        c = NumberFieldElement([rng.randint(-5, 5), rng.randint(-5, 5)], m)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
    assert x_in(m) ** 2 == 3 * x_in(m) - 1          # defining relation
    assert x_in(m) ** -1 == x_in(m).inverse()


def test_nf_zero_and_reducible():
    with pytest.raises(ZeroDivisionError):
        NumberFieldElement((0,), GOLDEN).inverse()
    # x^2-1 factors; inverting x-1 must surface a factor, not an answer
    m = MinimalPolynomial.parse("x^2-1")
    with pytest.raises(ReducibilityError) as err:
        NumberFieldElement((-1, 1), m).inverse()
    assert err.value.factor is not None


def test_nf_mixed_minpoly_rejected():
    other = MinimalPolynomial.parse("x^2-2")
    with pytest.raises(BackendMismatchError):
        x_in(GOLDEN) + x_in(other)
    with pytest.raises(BackendMismatchError):
        Matrix.from_rows([[x_in(GOLDEN), x_in(other)]])


def test_matrix_backend_inference_and_coercion():
    m = Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    assert m.backend == "exact"
    assert all(isinstance(v, Fraction) for v in m.entries)
    mf = Matrix.from_rows([[1, 0.5], [0, 3]])
    assert mf.backend == "float"
    mn = Matrix.from_rows([[x_in(GOLDEN), 1], [0, 2]])
    assert mn.backend == "nf"
    with pytest.raises(BackendMismatchError):
        Matrix.from_rows([[x_in(GOLDEN), 0.5]])
    with pytest.raises(ValueError):
        Matrix.from_rows([[float("nan")]])
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])


def test_rank_wang_block_golden_eigenvalue():
    # A - lambda*I for A = [[1,1],[1,2]] at lambda = x mod x^2-3x+1:
    # det = (1-x)(2-x) - 1 = x^2-3x+1 = 0, so rank drops to exactly 1
    lam = x_in(GOLDEN)
    m = Matrix.from_rows([[1 - lam, 1], [1, 2 - lam]])
    assert rank_with_flag(m)[0] == 1
    assert m.ncols - rank_with_flag(m)[0] == 1
    # off the eigenvalue the block is invertible
    m2 = Matrix.from_rows([[1 - Fraction(2), 1], [1, 2 - Fraction(2)]])
    assert rank_with_flag(m2)[0] == 2


def _random_rank_factors(rng, n, r):
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
    b = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
        for i in range(n)
    ]
    return Matrix.from_rows(prod)


def test_exact_rank_matches_float_rank_random():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        r = rng.randint(0, n)
        m = _random_rank_factors(rng, n, r) if r else Matrix(n, n, [Fraction(0)] * (n * n))
        exact = rank_with_flag(m)[0]
        approx, _ = _float_rank(m.to_numpy(), 1e-10)
        assert exact == approx
        assert exact <= r
        assert rank_with_flag(from_dense(dense(m).T))[0] == exact


def test_rank_invariances_random():
    rng = random.Random(5)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)
        ]
        m = Matrix.from_rows(rows)
        base = rank_with_flag(m)[0]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_with_flag(Matrix.from_rows(shuffled))[0] == base
        scaled = [[Fraction(3) * v for v in row] for row in rows]
        assert rank_with_flag(Matrix.from_rows(scaled))[0] == base
        assert rank_with_flag(from_dense(dense(m).T))[0] == base


def test_rank_empty_and_zero():
    empty = Matrix(0, 5, [])
    assert rank_with_flag(empty)[0] == 0
    assert rank_with_flag(Matrix(5, 0, []))[0] == 0
    assert rank_with_flag(Matrix(3, 3, [Fraction(0)] * 9))[0] == 0
    assert empty.ncols - rank_with_flag(empty)[0] == 5
    r, ill = _float_rank(np.zeros((0, 4)), 1e-10)
    assert (r, ill) == (0, False)


def test_float_rank_tolerance_and_flag():
    m = Matrix.from_rows([[1.0, 0.0], [0.0, 1e-14]])
    r, ill = rank_with_flag(m, tolerance=1e-10)
    assert r == 1 and not ill
    # singular value right at the cut scale trips the flag
    m2 = Matrix.from_rows([[1.0, 0.0], [0.0, 3e-10]])
    r2, ill2 = rank_with_flag(m2, tolerance=1e-10)
    assert ill2
    with pytest.raises(ValueError):
        rank_with_flag(m, tolerance=0.0)


def test_arithmetic_joins_lambda_with_the_entries():
    nf = x_in(GOLDEN)
    assert _arithmetic(2) == (Fraction(2), "exact", None)
    assert _arithmetic(Fraction(3, 5), "float") == (0.6, "float", 1e-10)
    assert _arithmetic(2, "nf") == (Fraction(2), "nf", None)
    assert _arithmetic(nf) == (nf, "nf", None)
    assert _arithmetic(2, backend="float", tolerance=0.5) == (2.0, "float", 0.5)
    assert _arithmetic(2, tolerance=0.5) == (Fraction(2), "exact", None)
    for lam, entries, backend in (
        (nf, "float", None),
        (0.5, "nf", None),
        (2.0, "exact", "exact"),
        (nf, "exact", "float"),
    ):
        with pytest.raises(BackendMismatchError):
            _arithmetic(lam, entries, backend=backend)
    for lam in (0, 0.0, float("inf"), complex("nan")):
        with pytest.raises(ValueError):
            _arithmetic(lam)
    with pytest.raises(NumericalError):
        _arithmetic(10**400, backend="float")


def engine_kernel(m: Matrix):
    """Kernel vectors read from the leftover tags of the one exact reduction:
    column j carries the tag -1 - j, and the columns that take no pivot
    leave e_j minus their coordinates on the pivot columns to their left."""
    cols = (
        {**{i: m.entry(i, j) for i in range(m.nrows)}, -1 - j: Fraction(1)}
        for j in range(m.ncols)
    )
    return [
        {-1 - t: v for t, v in left.items()}
        for left in _reduce_columns(cols)
        if left is not None
    ]


def test_rref_solve_and_kernel():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank_with_flag(m)[0] == 2
    basis = engine_kernel(m)
    # column 2 is column 0 plus column 1, and no other relation holds
    assert basis == [{0: -1, 1: -1, 2: 1}]
    for vec in basis:
        image = [sum(m.entry(i, j) * v for j, v in vec.items()) for i in range(3)]
        assert all(v == 0 for v in image)
    assert all(type(v) is Fraction for v in basis[0].values())
    # tags are never pivots: a column of tags only is left as it is
    assert list(_reduce_columns([{-1: Fraction(2)}, {0: Fraction(3), -2: Fraction(1)}])) == [
        {-1: Fraction(2)},
        None,
    ]


def test_exact_entries_past_float_range_raise_numerical_error():
    huge = 10**400
    with pytest.raises(NumericalError):
        Matrix.from_rows([[huge, 1.0]])
    with pytest.raises(NumericalError):
        Matrix.from_rows([[Fraction(huge, 3), 0.5j]])
    with pytest.raises(NumericalError):
        _float_rank(Matrix.from_rows([[huge]]).to_numpy(), 1e-10)


def test_kernel_basis_number_field():
    lam = x_in(GOLDEN)
    m = Matrix.from_rows([[1 - lam, 1], [1, 2 - lam]])
    basis = engine_kernel(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[1] == 1
    for i in range(2):
        assert m.entry(i, 0) * v[0] + m.entry(i, 1) * v[1] == 0


def test_matrix_product_and_numpy():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    arr = a.to_numpy()
    assert arr.dtype == complex and arr.shape == (2, 2)
    nfm = Matrix.from_rows([[x_in(GOLDEN)]])
    with pytest.raises(BackendMismatchError):
        nfm.to_numpy()
    assert np.allclose(Matrix.from_rows([[0.5j]]).to_numpy(), [[0.5j]])


def test_parse_scalar_literals():
    assert parse_scalar("2") == Fraction(2)
    assert parse_scalar("5/7") == Fraction(5, 7)
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("1e-3") == 1e-3
    assert parse_scalar("1+2j") == 1 + 2j
    lam = parse_scalar("nf:x^2-3*x+1:x")
    assert lam == NumberFieldElement.generator(GOLDEN)
    with pytest.raises(ValueError):
        parse_scalar("zebra")
    # a zero denominator is a malformed literal, not an arithmetic fault
    for text in ("1/0", "0/0", "nf:x^2-3*x+1:1/0", "nf:x-1/0:x"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def test_scalar_literal_roundtrip():
    for text in ["2", "5/7", "-3", "nf:x^2-3*x+1:x", "nf:x^2-2:1/2*x+3"]:
        val = parse_scalar(text)
        assert parse_scalar(scalar_literal(val)) == val
    assert scalar_literal(2.5) == "2.5"
