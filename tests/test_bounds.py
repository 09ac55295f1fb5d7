import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from novikov import bounds
from novikov.bounds import (
    BoundsConfig,
    b_n,
    b_n_detail,
    bc_limit_check,
    c_of_b,
    small_b_limit,
    wallis,
)
from novikov.bounds import _gauss_legendre, _gauss_rule
from novikov.errors import NumericalError


def closed_form_root_n2_b1():
    # exact integration for n=2 turns the defining equation into
    # (cosh 1 - 1) x^2 + sinh(1) x - 2 = 0
    a, b = math.cosh(1) - 1, math.sinh(1)
    return (-b + math.sqrt(b * b + 8 * a)) / (2 * a)


def test_wallis_small_values():
    assert wallis(2) == 2.0
    assert wallis(3) == math.pi / 2
    assert abs(wallis(4) - 4 / 3) < 1e-15
    assert abs(wallis(5) - 3 * math.pi / 8) < 1e-15
    with pytest.raises(ValueError):
        wallis(1)


def test_wallis_matches_quadrature():
    for n in range(2, 21):
        direct = _gauss_legendre(lambda t: np.sin(t) ** (n - 1), math.pi, 4)
        assert abs(wallis(n) - direct) < 1e-12
        oracle, _ = quad(lambda t: math.sin(t) ** (n - 1), 0, math.pi, epsrel=1e-13)
        assert abs(wallis(n) - oracle) < 1e-12


def mpmath_root(n, b, start):
    """Root of the defining equation at 30 digits, omega_n from the gamma function."""
    with mpmath.workdps(30):
        omega = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2) / mpmath.gamma((n + 1) / 2)

        def gap(x):
            integrand = lambda t: (mpmath.cosh(t) + x * mpmath.sinh(t)) ** (n - 1)
            return x * mpmath.quad(integrand, [0, b]) - omega

        return mpmath.findroot(gap, mpmath.mpf(start))


def test_gauss_rule_matches_numpy():
    nodes, weights = _gauss_rule()
    reference_nodes, reference_weights = np.polynomial.legendre.leggauss(20)
    order = np.argsort(nodes)
    assert np.allclose(nodes[order], reference_nodes, rtol=0, atol=1e-15)
    assert np.allclose(weights[order], reference_weights, rtol=0, atol=1e-14)


def test_c_of_b_matches_mpmath():
    for n in (3, 5, 8, 12, 20):
        for b in (1e-6, 1e-4, 0.0625, 0.5, 2.0):
            x = c_of_b(n, b)
            assert abs(x - mpmath_root(n, b, x)) <= 1e-14 * x, (n, b)


def test_c_of_b_past_the_old_quadrature_range():
    # the integrals reach cosh(b)^{n-1} ~ 1e172 and 1e243: the roots are tiny
    for n, b, approx in [(5, 100.0, 1.444e-172), (30, 20.0, 9.239e-243)]:
        x = c_of_b(n, b)
        assert abs(x - approx) <= 1e-3 * approx
        assert abs(x - mpmath_root(n, b, x)) <= 1e-13 * x, (n, b)


def test_root_integral_overflow_raises_numerical_error():
    # cosh(b)^{n-1} past the float range is refused before any panel is
    # built; (cosh b + x sinh b)^{n-1} ~ 11^399 overflows inside the rule,
    # with no RuntimeWarning, and raises after it
    for n, b, x in [(20, 1000.0, 0.5), (3, math.inf, 0.5), (400, 0.1, 100.0)]:
        with pytest.raises(NumericalError):
            bounds._root_integral(n, b, x)


def test_c_of_b_closed_form_quadratic():
    assert abs(c_of_b(2, 1.0) - closed_form_root_n2_b1()) < 1e-10


def test_c_of_b_residuals_against_independent_quadrature():
    for n, b in [(2, 0.3), (2, 2.0), (3, 1.0), (5, 0.7), (6, 2.0), (20, 10.0)]:
        x = c_of_b(n, b)
        integral, _ = quad(
            lambda t: (math.cosh(t) + x * math.sinh(t)) ** (n - 1),
            0,
            b,
            epsabs=0,
            epsrel=1e-13,
        )
        assert abs(x * integral - wallis(n)) < 1e-12, (n, b)


def test_c_of_b_runs_each_quadrature_once(monkeypatch):
    calls = []
    integrate = bounds._root_integral

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(bounds, "_root_integral", counting)
    for n in (3, 4, 5):
        for b in (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
            c_of_b(n, b)
    assert len(set(calls)) == len(calls)


def test_c_of_b_decreasing_in_b():
    for n in (2, 3):
        values = [c_of_b(n, 0.1 + 0.2 * i) for i in range(10)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_c_of_b_validation():
    with pytest.raises(ValueError):
        c_of_b(1, 1.0)
    with pytest.raises(ValueError):
        c_of_b(3, 0.0)
    with pytest.raises(ValueError):
        BoundsConfig(root_tol=0.0)


def test_small_b_behavior():
    # as b -> 0 the product b*C(b) levels off at (1 + n omega_n)^{1/n} - 1,
    # which for n=2 is sqrt(5) - 1, well below omega_2 = 2
    assert abs(small_b_limit(2) - (math.sqrt(5) - 1)) < 1e-15
    for n in range(2, 7):
        bc = 1e-4 * c_of_b(n, 1e-4)
        assert abs(bc - small_b_limit(n)) < 1e-5, n
        assert bc < wallis(n)


def test_bc_table_flags_and_bound():
    table = bc_limit_check(3, [2.0 ** (-i) for i in range(8)])
    assert table.gap_decreasing
    assert table.upper_bound_ok
    assert abs(table.floor_estimate - small_b_limit(3)) == 0
    assert all(row.bc <= row.omega for row in table.rows)
    gaps = [row.gap for row in table.rows]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    payload = table.to_json()
    assert payload["n"] == 3 and len(payload["rows"]) == 8
    with pytest.raises(ValueError):
        bc_limit_check(3, [1.0, 1.0])
    with pytest.raises(ValueError):
        bc_limit_check(3, [1.0, -0.5])
    with pytest.raises(ValueError):
        bc_limit_check(3, [])


def test_b_n_endpoints_and_monotonicity():
    assert b_n(4, 0.0) == 1.0
    assert abs(b_n(4, 1e-12) - 1.0) < 1e-9
    grid = [b_n(4, 0.25 * i) for i in range(9)]
    assert all(v1 <= v2 for v1, v2 in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        b_n(2, 1.0)
    with pytest.raises(ValueError):
        b_n(4, -0.1)


def test_b_n_inequalities():
    for n in (3, 4, 5, 10):
        nu = n / (n - 2)
        for i in range(11):
            x = i / 10
            assert b_n(n, x) <= math.exp(2 * x * math.sqrt(nu) / (math.sqrt(nu) - 1))
        cap = b_n(n, 1.0)
        for i in range(10):
            x = 1.0 + i
            assert b_n(n, x) <= cap * x ** (2 * nu / (nu - 1)) * (1 + 1e-12)


def test_b_n_truncation_stability_and_tail():
    fine = BoundsConfig(product_cut=1e-16)
    for n, x in [(3, 1.0), (4, 1.0), (3, 100.0), (10, 7.5)]:
        coarse = b_n_detail(n, x)
        finer = b_n_detail(n, x, fine)
        assert abs(coarse.value - finer.value) <= 1e-9 * finer.value
        # the reported tail bound really covers the discarded factors
        assert finer.value - coarse.value <= coarse.tail_bound + 1e-15
        assert coarse.terms < finer.terms


def test_b_n_overflow_raises_numerical_error():
    for x in (1e200, 1e300, math.inf):
        with pytest.raises(NumericalError):
            b_n_detail(3, x)
    with pytest.raises(ValueError):
        b_n_detail(3, math.nan)


def test_product_value_json():
    detail = b_n_detail(4, 0.5)
    payload = detail.to_json()
    assert set(payload) == {"value", "tail_bound", "terms"}
    assert payload["value"] == detail.value
