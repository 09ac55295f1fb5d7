import math
import random
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from novikov import bounds
from novikov.bounds import (
    b_n,
    b_n_detail,
    bc_limit_check,
    c_of_b,
    small_b_limit,
    wallis,
)
from novikov.bounds import _LOG_MAX, _gauss_legendre, _gauss_rule
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


def test_wallis_is_within_4_ulp_past_the_recurrence():
    def exact(n):
        """omega_n = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2) at 30 digits."""
        with mpmath.workdps(30):
            half = mpmath.mpf(n) / 2
            return mpmath.sqrt(mpmath.pi) * mpmath.gamma(half) / mpmath.gamma(half + 0.5)

    rng = random.Random(29)
    past = [64, 65, 99, 1000, 1001, 12345, 10**6, 10**6 + 1, 10**7, 10**8, 10**8 + 1]
    past += [rng.randint(64, 10**8) for _ in range(200)]
    for n in past:
        omega = exact(n)
        assert abs(wallis(n) - omega) <= 4 * math.ulp(float(omega)), n
    # the recurrence below the switch: 2.4e-15 relative off at n = 1000, so
    # far less than that here
    for n in range(2, 64):
        assert abs(wallis(n) - exact(n)) <= 1e-15 * exact(n), n
    # constant time: the recurrence took about 0.9 s at n = 10**7
    start = time.perf_counter()
    for _ in range(1000):
        wallis(10**8)
    assert time.perf_counter() - start < 0.5


def test_wallis_matches_quadrature():
    for n in range(2, 21):
        direct = _gauss_legendre(lambda t: np.sin(t) ** (n - 1), math.pi, 4)
        assert abs(wallis(n) - direct) < 1e-12
        oracle, _ = quad(lambda t: math.sin(t) ** (n - 1), 0, math.pi, epsrel=1e-13)
        assert abs(wallis(n) - oracle) < 1e-12


def test_wallis_keeps_two_running_values():
    # the list recurrence it replaced, value for value
    values = [math.pi, 2.0]
    for m in range(2, 60):
        values.append(values[-2] * (m - 1) / m)
    assert [wallis(n) for n in range(2, 61)] == values[1:]
    # and no list of n floats: the old one peaked at 32 MB for n = 10**6
    tracemalloc.start()
    try:
        wallis(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_c_of_b_past_the_old_bracket():
    # the root sits near small_b_limit(n) / b: at n=2, b=1e-300 that is past
    # the 2^200 a doubling bracket from x = 1 reached, and at n=20, b=37.5
    # the integrand overflowed at x = 1
    x = c_of_b(2, 1e-300)
    with mpmath.workdps(30):
        b = mpmath.mpf(1e-300)
        # n = 2 integrates in closed form: 2 sinh(b/2)^2 x^2 + sinh(b) x = 2
        a, s = 2 * mpmath.sinh(b / 2) ** 2, mpmath.sinh(b)
        root = (-s + mpmath.sqrt(s * s + 8 * a)) / (2 * a)
    assert abs(x - root) <= 1e-15 * x
    assert abs(x - small_b_limit(2) / 1e-300) <= 1e-15 * x
    x = c_of_b(20, 37.5)
    assert abs(x - 2.077e-303) <= 1e-3 * x
    assert abs(x - mpmath_root(20, 37.5, x)) <= 1e-13 * x


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
    # (10**6, 0.03) takes 3e4 panels, well inside the panel cap's memory budget
    for n, b in [(2, 0.3), (2, 2.0), (3, 1.0), (5, 0.7), (6, 2.0), (20, 10.0), (10**6, 0.03)]:
        x = c_of_b(n, b)
        integral, _ = quad(
            lambda t: (math.cosh(t) + x * math.sinh(t)) ** (n - 1),
            0,
            b,
            epsabs=0,
            epsrel=1e-13,
        )
        assert abs(x * integral - wallis(n)) < 1e-12, (n, b)


GRID = [(n, b) for n in (3, 4, 5) for b in (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)]
# quadrature passes per root under the log bisection that Newton replaced:
# the roots of test_c_of_b_past_the_old_quadrature_range, ..._past_the_old_bracket
# and test_cli.py::test_bounds_root_near_the_largest_double
BISECTION_PASSES = {
    (5, 100.0): 62, (30, 20.0): 63, (2, 1e-300): 53, (20, 37.5): 63,
    (2, 2e-308): 54, (2, 1e-308): 53, (2, 7e-309): 49,
}


@pytest.fixture
def passes(monkeypatch):
    """The arguments of every quadrature pass c_of_b makes, in order."""
    calls = []
    integrate = bounds._root_integral

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(bounds, "_root_integral", counting)
    return calls


def test_c_of_b_runs_each_quadrature_once(passes):
    per_root = []
    for n, b in GRID:
        start = len(passes)
        c_of_b(n, b)
        per_root.append(len(passes) - start)
    assert len(set(passes)) == len(passes)
    # Newton in log-log coordinates: the bisection it replaced took 53-55
    # passes per root, 974 on this grid
    assert 0 < min(per_root) and max(per_root) <= 12, per_root
    assert sum(per_root) <= 160, per_root


def test_c_of_b_extreme_roots_take_no_more_passes_than_the_bisection(passes):
    for (n, b), before in BISECTION_PASSES.items():
        start = len(passes)
        c_of_b(n, b)
        assert 0 < len(passes) - start <= before, (n, b, len(passes) - start)


def power_integral(n, b, x):
    """integral_0^b (cosh t + x sinh t)^{n-1} dt as the bisection computed it."""
    panels = math.ceil(b * (n - 1) * max(1.0, x))
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(_gauss_legendre(lambda t: (np.cosh(t) + x * np.sinh(t)) ** (n - 1), b, panels))
    if not math.isfinite(total):
        raise NumericalError(f"integrand overflows for n={n}, b={b}, x={x}")
    return total


def bisection_root(n, b):
    """C(b) by bisection in log coordinates from the closed-form bracket, as
    c_of_b found it before Newton: the declared reference for the solver.
    The rounded geometric mean can land on an end while the bracket is still
    two or more floats wide (n = 21, b = 6.16e-85 stopped at
    [x + ulp, x + 3 ulp]), so the arithmetic mean finishes it down to
    adjacent floats, and ties in |gap| are broken as c_of_b breaks them."""
    omega = wallis(n)
    gaps = {}

    def gap(x):
        gaps[x] = x * power_integral(n, b, x) - omega
        return gaps[x]

    hi = min(2 * small_b_limit(n) / b, sys.float_info.max)
    top = power_integral(n, b, hi)
    gaps[hi] = hi * top - omega
    if not gaps[hi] > 0:
        raise NumericalError(f"C(b) is past the float range for n={n}, b={b}")
    lo = omega / top
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi or lo < (mid := lo + (hi - lo) / 2) < hi:
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return min(gaps, key=lambda x: (abs(gaps[x]), max(lo - x, x - hi, 0.0), x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), share=st.floats(0, 1))
@example(n=2, share=0.0)
@example(n=2, share=1.0)
@example(n=30, share=1.0)
@example(n=21, share=0.7155808579761104)  # b = 6.16e-85, where the bisection stopped early
def test_c_of_b_is_within_one_ulp_of_the_bisection(n, share):
    # b log-uniform from 1e-300 to where cosh(b)^{n-1} reaches the largest double
    edge = _LOG_MAX / (n - 1) + math.log(2)
    b = math.exp(math.log(1e-300) + share * (math.log(edge) - math.log(1e-300)))
    try:
        want = bisection_root(n, b)
    except NumericalError:
        with pytest.raises(NumericalError):
            c_of_b(n, b)
        return
    x = c_of_b(n, b)
    assert abs(x - want) <= math.ulp(want), (n, b, (x - want) / math.ulp(want))
    assert abs(x * power_integral(n, b, x) - wallis(n)) <= 1e-12, (n, b)
    # the integral itself is the one the bisection saw, bit for bit
    assert bounds._root_integral(n, b, x)[0] == power_integral(n, b, x)


def test_root_integral_slope_matches_mpmath_diff():
    # the second value is x I'(x) / (n-1), from the same pass as I(x)
    for n, b, x in [(3, 1.0, 0.7), (5, 0.0625, 30.0), (20, 10.0, 1e-3)]:
        integral, slope = bounds._root_integral(n, b, x)
        with mpmath.workdps(30):
            exact = mpmath.diff(
                lambda y: mpmath.quad(lambda t: (mpmath.cosh(t) + y * mpmath.sinh(t)) ** (n - 1), [0, b]),
                mpmath.mpf(x),
            )
        assert abs((n - 1) * slope / x - exact) <= 1e-13 * exact, (n, b, x)


def test_c_of_b_decreasing_in_b():
    for n in (2, 3):
        values = [c_of_b(n, 0.1 + 0.2 * i) for i in range(10)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_c_of_b_validation():
    with pytest.raises(ValueError):
        c_of_b(1, 1.0)
    with pytest.raises(ValueError):
        c_of_b(3, 0.0)


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


def finer_b_n(n, x, cut=1e-16):
    """B_n(x) with its log-increments summed down to cut, and the term count."""
    nu = n / (n - 2)
    log_sum, i = 0.0, 0
    while True:
        power = nu**i
        term = 2 / power * math.log1p(x * power / math.sqrt(2 * power - 1))
        log_sum += term
        i += 1
        if i >= 2 and term < cut:
            return math.exp(log_sum), i


def test_b_n_truncation_stability_and_tail():
    for n, x in [(3, 1.0), (4, 1.0), (3, 100.0), (10, 7.5)]:
        coarse = b_n_detail(n, x)
        finer, terms = finer_b_n(n, x)
        assert abs(coarse.value - finer) <= 1e-9 * finer
        # the reported tail bound really covers the discarded factors
        assert finer - coarse.value <= coarse.tail_bound + 1e-15
        assert coarse.terms < terms


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
