import math

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
from novikov.bounds import _adaptive_simpson


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
        direct = _adaptive_simpson(
            lambda t: math.sin(t) ** (n - 1), 0.0, math.pi, 1e-13
        )
        assert abs(wallis(n) - direct) < 1e-12
        oracle, _ = quad(lambda t: math.sin(t) ** (n - 1), 0, math.pi, epsrel=1e-13)
        assert abs(wallis(n) - oracle) < 1e-12


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


def test_product_value_json():
    detail = b_n_detail(4, 0.5)
    payload = detail.to_json()
    assert set(payload) == {"value", "tail_bound", "terms"}
    assert payload["value"] == detail.value
