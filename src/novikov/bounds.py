"""Scalar constants behind the growth estimates: Wallis integrals, C(b), B_n.

Three families live here, all pure numerics on top of ``math``:

* ``wallis(n)`` evaluates omega_n = integral_0^pi sin^{n-1} t dt through the
  classical two-step recurrence.
* ``c_of_b(n, b)`` solves x * integral_0^b (cosh t + x sinh t)^{n-1} dt =
  omega_n for its unique positive root.  The left side is strictly
  increasing in x, so a geometric bracket plus bisection plus a Newton
  polish is fully reliable; the derivative is computed under the integral.
* ``b_n(n, x)`` evaluates the infinite product
  prod_{i>=0} (1 + x nu^i (2 nu^i - 1)^{-1/2})^{2 nu^{-i}} with
  nu = n/(n-2), truncated once the log-increment drops below a cut.  The
  discarded tail is bounded by the geometric envelope
  2 nu^{-i} (log(1+x) + i log nu) and reported as an error bar, never
  folded into the value.

``bc_limit_check`` tabulates b * C(b) on a decreasing grid of b.  The
product increases monotonically as b shrinks and stays below omega_n, but
it levels off at the strictly smaller value (1 + n omega_n)^{1/n} - 1
(substitute u = x t in the defining equation and let b -> 0, which turns
the integral into integral_0^{bx} (1+u)^{n-1} du / x).  The table reports
the observed values and monotonicity flags so callers can see both the
approach and the floor; ``small_b_limit`` gives the closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NumericalError

_MACHINE_EPS = sys.float_info.epsilon

__all__ = [
    "BoundsConfig",
    "DEFAULT_CONFIG",
    "wallis",
    "c_of_b",
    "small_b_limit",
    "ProductValue",
    "b_n",
    "b_n_detail",
    "BcRow",
    "BcTable",
    "bc_limit_check",
]


@dataclass(frozen=True)
class BoundsConfig:
    """Tolerances for quadrature, root-finding, and product truncation."""

    quad_tol: float = 1e-10
    root_tol: float = 1e-12
    product_cut: float = 1e-12

    def __post_init__(self):
        for name in ("quad_tol", "root_tol", "product_cut"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_CONFIG = BoundsConfig()


def wallis(n: int) -> float:
    """integral_0^pi sin^{n-1} t dt by the recurrence I_m = I_{m-2} (m-1)/m."""
    if n < 2:
        raise ValueError("wallis integral needs n >= 2")
    values = [math.pi, 2.0]
    for m in range(2, n):
        values.append(values[-2] * (m - 1) / m)
    return values[n - 1]


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Simpson with tolerance relative to a coarse composite estimate."""
    if a == b:
        return 0.0
    coarse = 0.0
    step = (b - a) / 64
    fa = f(a)
    for i in range(64):
        left = a + i * step
        coarse += step / 6 * (fa + 4 * f(left + step / 2) + (fa := f(left + step)))
    budget = tol * max(1.0, abs(coarse))

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        fq1 = f(0.5 * (lo + mid))
        fq2 = f(0.5 * (mid + hi))
        left = (mid - lo) / 6 * (flo + 4 * fq1 + fmid)
        right = (hi - mid) / 6 * (fmid + 4 * fq2 + fhi)
        if depth > 48:
            raise NumericalError("quadrature failed to converge")
        # once the split disagreement reaches rounding level, further
        # subdivision only churns noise, so accept regardless of budget
        noise = 64 * _MACHINE_EPS * (abs(left) + abs(right) + abs(whole))
        if abs(left + right - whole) <= max(15 * eps, noise):
            return left + right + (left + right - whole) / 15
        return recurse(lo, flo, mid, fmid, fq1, left, eps / 2, depth + 1) + recurse(
            mid, fmid, hi, fhi, fq2, right, eps / 2, depth + 1
        )

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return recurse(a, fa, b, fb, fm, whole, budget, 0)


def _root_integral(n: int, b: float, x: float, tol: float) -> float:
    try:
        return _adaptive_simpson(
            lambda t: (math.cosh(t) + x * math.sinh(t)) ** (n - 1), 0.0, b, tol
        )
    except OverflowError as exc:
        raise NumericalError(f"integrand overflows for n={n}, b={b}") from exc


def _root_integral_dx(n: int, b: float, x: float, tol: float) -> float:
    return (n - 1) * _adaptive_simpson(
        lambda t: (math.cosh(t) + x * math.sinh(t)) ** (n - 2) * math.sinh(t),
        0.0,
        b,
        tol,
    )


def c_of_b(n: int, b: float, config: BoundsConfig = DEFAULT_CONFIG) -> float:
    """Unique positive root of x * integral_0^b (cosh t + x sinh t)^{n-1} dt = omega_n."""
    if n < 2:
        raise ValueError("c_of_b needs n >= 2")
    if not b > 0:
        raise ValueError("b must be positive")
    omega = wallis(n)
    tol = min(config.quad_tol, config.root_tol / 100)

    def value(x: float) -> float:
        return x * _root_integral(n, b, x, tol)

    hi = 1.0
    for _ in range(200):
        integral = _root_integral(n, b, hi, tol)
        if hi * integral > omega:
            break
        hi *= 2
    else:
        raise NumericalError(f"no sign change found for n={n}, b={b}")
    # the root can sit dozens of orders of magnitude below hi (the integral
    # grows like cosh(b)^{n-1}), so bracket and polish in log coordinates,
    # where plain bisection and Newton steps stay well conditioned
    lo = omega / integral
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if value(mid) > omega:
            hi = mid
        else:
            lo = mid
        if hi / lo <= 1 + 1e-6:
            break
    x = math.sqrt(lo * hi)
    for _ in range(60):
        integral = _root_integral(n, b, x, tol)
        v = x * integral
        if abs(v - omega) <= config.root_tol:
            return x
        if v > omega:
            hi = x
        else:
            lo = x
        slope = integral + x * _root_integral_dx(n, b, x, tol)
        x_new = x * math.exp(-math.log(v / omega) * integral / slope)
        x = x_new if lo < x_new < hi else math.sqrt(lo * hi)
    raise NumericalError(f"root polish stalled at residual {value(x) - omega:.3e}")


def small_b_limit(n: int) -> float:
    """Value b * C(b) approaches as b -> 0: (1 + n omega_n)^{1/n} - 1."""
    if n < 2:
        raise ValueError("small_b_limit needs n >= 2")
    return (1 + n * wallis(n)) ** (1.0 / n) - 1


@dataclass(frozen=True)
class ProductValue:
    """Truncated infinite product with its tail bound and term count."""

    value: float
    tail_bound: float
    terms: int

    def to_json(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound, "terms": self.terms}


def b_n_detail(n: int, x: float, config: BoundsConfig = DEFAULT_CONFIG) -> ProductValue:
    """Evaluate prod_{i>=0} (1 + x nu^i (2 nu^i - 1)^{-1/2})^{2 nu^{-i}}."""
    if n < 3:
        raise ValueError("the exponent ratio n/(n-2) needs n >= 3")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return ProductValue(1.0, 0.0, 0)
    nu = n / (n - 2)
    log_sum = 0.0
    i = 0
    while True:
        power = nu**i
        term = 2 / power * math.log1p(x * power / math.sqrt(2 * power - 1))
        log_sum += term
        i += 1
        if i >= 2 and term < config.product_cut:
            break
        if i > 10_000:
            raise NumericalError("product truncation did not trigger")
    # sum_{j>=i} 2 nu^{-j} (log(1+x) + j log nu) with r = 1/nu:
    #   = 2 log(1+x) r^i/(1-r) + 2 log(nu) r^i (i + r/(1-r))/(1-r)
    r = 1 / nu
    geom = r**i / (1 - r)
    tail_log = 2 * math.log1p(x) * geom + 2 * math.log(nu) * geom * (i + r / (1 - r))
    value = math.exp(log_sum)
    return ProductValue(value, value * math.expm1(tail_log), i)


def b_n(n: int, x: float, config: BoundsConfig = DEFAULT_CONFIG) -> float:
    return b_n_detail(n, x, config).value


@dataclass(frozen=True)
class BcRow:
    b: float
    bc: float
    omega: float

    @property
    def gap(self) -> float:
        return self.omega - self.bc

    def to_json(self) -> dict:
        return {"b": self.b, "b_times_c": self.bc, "omega": self.omega, "gap": self.gap}


@dataclass(frozen=True)
class BcTable:
    """b * C(b) sampled on a decreasing grid, with monotonicity flags.

    ``gap_decreasing`` records whether omega_n - b*C(b) shrank at every
    step, ``upper_bound_ok`` whether every product stayed below omega_n,
    and ``floor_estimate`` the closed-form small-b value the products
    level off at.  The gap shrinks monotonically but its floor
    omega_n - floor_estimate is strictly positive for every n.
    """

    n: int
    rows: tuple
    gap_decreasing: bool
    upper_bound_ok: bool
    floor_estimate: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [row.to_json() for row in self.rows],
            "gap_decreasing": self.gap_decreasing,
            "upper_bound_ok": self.upper_bound_ok,
            "floor_estimate": self.floor_estimate,
        }


def bc_limit_check(
    n: int, b_grid: Sequence[float], config: BoundsConfig = DEFAULT_CONFIG
) -> BcTable:
    """Tabulate b * C(b) against omega_n on a positive decreasing grid."""
    grid = [float(b) for b in b_grid]
    if not grid or any(b <= 0 for b in grid):
        raise ValueError("grid must be positive")
    if any(b1 <= b2 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    omega = wallis(n)
    rows = tuple(BcRow(b, b * c_of_b(n, b, config), omega) for b in grid)
    gaps = [row.gap for row in rows]
    return BcTable(
        n=n,
        rows=rows,
        gap_decreasing=all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])),
        upper_bound_ok=all(row.bc <= omega for row in rows),
        floor_estimate=small_b_limit(n),
    )
