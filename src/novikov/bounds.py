"""Scalar constants behind the growth estimates: Wallis integrals, C(b), B_n.

Three families live here, plain numerics on ``math`` and ``numpy``:

* ``wallis(n)`` evaluates omega_n = integral_0^pi sin^{n-1} t dt through the
  classical two-step recurrence below n = 64, and in constant time by the
  asymptotic series of sqrt(pi) Gamma(n/2) / Gamma((n+1)/2) above.
* ``c_of_b(n, b)`` solves x * integral_0^b (cosh t + x sinh t)^{n-1} dt =
  omega_n for its unique positive root: one fixed Gauss-Legendre rule on
  equal panels, exact to rounding with no tolerance, gives the integral and
  its derivative in x from one pass, under safeguarded Newton in log-log
  coordinates from a bracket known in closed form, closed down to adjacent
  floats by bisection; 4-9 passes per root where bisection alone took 49-63.
  The root is refused (NumericalError) past 10**6 panels or a 1e-12 residual.
* ``b_n(n, x)`` evaluates the infinite product
  prod_{i>=0} (1 + x nu^i (2 nu^i - 1)^{-1/2})^{2 nu^{-i}} with
  nu = n/(n-2), truncated once the log-increment drops below 1e-12.  The
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

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

_LOG_MAX = math.log(np.finfo(float).max)
_ROOT_TOL = 1e-12  # bound on |x * integral - omega_n| at the returned C(b)
_MAX_PANELS = 10**6  # per pass: 160 MB a node array, about 1.1 GB at peak
_PRODUCT_CUT = 1e-12  # B_n stops at the first log-increment below this
_SERIES_FROM = 64  # wallis(n) leaves the recurrence for its asymptotic series here

__all__ = [
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


def wallis(n: int) -> float:
    """integral_0^pi sin^{n-1} t dt = sqrt(pi) Gamma(x) / Gamma(x + 1/2), x = n/2.

    Below n = _SERIES_FROM by the recurrence I_m = I_{m-2} (m-1)/m, whose
    rounding grows with n (3.3e-14 relative at n = 10**6); from there on in
    constant time by the asymptotic series
    log(Gamma(x) / Gamma(x + 1/2)) = -log(x)/2 + sum_k c_k x**-k, which is
    within 2 ulp (``math.lgamma`` would be 5.5e-10 off at n = 10**6).
    """
    if n < 2:
        raise ValueError("wallis integral needs n >= 2")
    if n >= _SERIES_FROM:
        try:
            x = n / 2
        except OverflowError:
            raise NumericalError("wallis(n) needs n / 2 in the float range") from None
        y = 1 / (x * x)
        # c_k = B_{k+1} (2 - 2**-k) / (k (k+1)) for odd k, B the Bernoulli
        # numbers; the first term dropped is below 1e-19 at x = 32
        s = (1 / 8 - y * (1 / 192 - y * (1 / 640 - y * (17 / 14336 - y * (31 / 18432))))) / x
        return math.sqrt(math.pi / x) * math.exp(s)
    before, last = math.pi, 2.0
    for m in range(2, n):
        before, last = last, before * (m - 1) / m
    return last


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1].

    The rule is exact to degree 39.  Newton on the three-term Legendre
    recurrence from the cosine guesses, built on first use, no eigensolver.
    """
    m = 20
    t = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(8):  # Newton reaches rounding in four steps
        prev, cur = np.ones_like(t), t
        for k in range(2, m + 1):
            prev, cur = cur, ((2 * k - 1) * t * cur - (k - 1) * prev) / k
        slope = m * (t * cur - prev) / (t * t - 1)
        t = t - cur / slope
    weights = 2 / ((1 - t * t) * slope * slope)
    t.flags.writeable = weights.flags.writeable = False
    return t, weights


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], b: float, panels: int):
    """Integral over [0, b] of the vectorised f (of each integrand f stacks),
    one Gauss rule per equal panel."""
    nodes, weights = _gauss_rule()
    half = 0.5 * b / panels
    t = half * (np.arange(1, 2 * panels, 2)[:, None] + nodes)
    return half * (f(t) @ weights).sum(axis=-1)


def _root_integral(n: int, b: float, x: float) -> tuple[float, float]:
    """I(x) = integral_0^b f^{n-1} dt and x I'(x) / (n-1), f = cosh t + x sinh t.

    Both come from one pass of the rule over the same nodes, f and x sinh t
    formed once.  f^{n-1} is one power, so I(x) is bit for bit what it was
    under bisection; x I'(x) / (n-1) = integral_0^b f^{n-2} x sinh t dt,
    which cannot underflow where I'(x) alone would (n = 2, b = 1e-300).  The
    integrand's log-derivative is at most (n-1) max(1, x), so on
    ceil(b (n-1) max(1, x)) panels it grows by at most a factor e across
    each one, where the fixed rule is exact to rounding.  More than
    _MAX_PANELS panels are refused (NumericalError) before any array exists.
    """
    # the integrand at t = b is at least cosh(b)^{n-1}
    if (n - 1) * (b - math.log(2) + math.log1p(math.exp(-2 * b))) > _LOG_MAX:
        raise NumericalError(f"integrand overflows for n={n}, b={b}")
    span = b * (n - 1) * max(1.0, x)  # n = 10**13 at b = 1e-5 would take 15 GiB
    if not span <= _MAX_PANELS:
        raise NumericalError(f"C(b) needs {span:.3g} panels for n={n}, b={b}, above {_MAX_PANELS}")
    panels = math.ceil(span)

    def integrands(t):
        # both integrands written into one array, so neither is copied
        out = np.empty((2, *t.shape))
        s = np.sinh(t)
        s *= x
        f = np.cosh(t)
        f += s
        np.power(f, n - 1, out=out[0])
        np.power(f, n - 2, out=out[1])
        out[1] *= s
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        total, slope = _gauss_legendre(integrands, b, panels).tolist()
    if not math.isfinite(total):
        raise NumericalError(f"integrand overflows for n={n}, b={b}, x={x}")
    return total, slope


def c_of_b(n: int, b: float) -> float:
    """Unique positive root of x * integral_0^b (cosh t + x sinh t)^{n-1} dt = omega_n.

    Safeguarded Newton (Press et al., Numerical Recipes, sec. 9.4) on
    h(u) = log(x I(x) / omega_n) in u = log x, where h'(u) = 1 + x I'(x) / I(x):
    I is a polynomial in x with nonnegative coefficients, so h is convex and
    increasing, and Newton from the top of the bracket falls monotonically
    onto the root.  A target outside the bracket is replaced by the bracket's
    midpoint in log coordinates.  Once a step moves x by at most one ulp,
    the bracket is closed down to adjacent floats: probes 1, 2, 4, ... ulps
    in from x's end until the gap changes sign, then bisection.  The visited
    x with the smallest |gap| is returned, and refused (NumericalError) when
    that gap exceeds 1e-12.
    """
    if n < 2:
        raise ValueError("c_of_b needs n >= 2")
    if not b > 0:
        raise ValueError("b must be positive")
    omega = wallis(n)
    gaps = {}

    def newton(x: float) -> tuple[float, float]:
        """I(x), after recording the gap at x, and the Newton target from x."""
        integral, slope = _root_integral(n, b, x)
        gaps[x] = x * integral - omega
        ratio = x * integral / omega  # 0 only at hi, with the root past the float range
        # x e^{-h / h'} as x / ratio^{1 / h'}, a power that cannot overflow
        return integral, x / ratio ** (1 / (1 + (n - 1) * slope / integral)) if ratio else 0.0

    # cosh t >= 1 and sinh t >= t give x * integral >= ((1 + x b)^n - 1) / n,
    # which reaches omega_n at x = small_b_limit(n) / b, so the gap at twice
    # that is positive and the root lies below it; capped at the largest
    # double, the gap there says whether the root is still a float
    hi = min(2 * small_b_limit(n) / b, sys.float_info.max)
    integral, target = newton(hi)
    # the root can sit hundreds of orders of magnitude below hi (the integral
    # grows like cosh(b)^{n-1}); lo = omega / integral(hi) <= root, and
    # sqrt(lo) * sqrt(hi) cannot underflow
    if not gaps[hi] > 0:
        raise NumericalError(f"C(b) is past the float range for n={n}, b={b}")
    lo, x = omega / integral, hi
    while abs(target - x) > math.ulp(x) and lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi:
        x = target if lo < target < hi else mid
        target = newton(x)[1]
        if gaps[x] > 0:
            hi = x
        else:
            lo = x
    # x is an end of the bracket next to the root, and the other end may be far
    above, step = gaps[x] > 0, math.ulp(x)
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        probe = hi - step if above else lo + step
        if not lo < probe < hi:
            probe = mid
        step *= 2
        newton(probe)
        if gaps[probe] > 0:
            hi = probe
        else:
            lo = probe
    # the rounded gap often ties across neighbouring floats: ties go to the
    # point nearest the final bracket, then the lower, in any visiting order
    x = min(gaps, key=lambda x: (abs(gaps[x]), max(lo - x, x - hi, 0.0), x))
    if abs(gaps[x]) > _ROOT_TOL:
        raise NumericalError(f"C(b) residual {gaps[x]:.3e} exceeds {_ROOT_TOL:g} for n={n}, b={b}")
    return x


def small_b_limit(n: int) -> float:
    """Value b * C(b) approaches as b -> 0: (1 + n omega_n)^{1/n} - 1."""
    if n < 2:
        raise ValueError("small_b_limit needs n >= 2")
    return (1 + n * wallis(n)) ** (1.0 / n) - 1


@dataclass(frozen=True, slots=True)
class ProductValue:
    """Truncated infinite product with its tail bound and term count."""

    value: float
    tail_bound: float
    terms: int

    def to_json(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound, "terms": self.terms}


def b_n_detail(n: int, x: float) -> ProductValue:
    """Evaluate prod_{i>=0} (1 + x nu^i (2 nu^i - 1)^{-1/2})^{2 nu^{-i}}."""
    if n < 3:
        raise ValueError("the exponent ratio n/(n-2) needs n >= 3")
    if not x >= 0:
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
        if not log_sum <= _LOG_MAX:
            raise NumericalError(f"B_n(x) overflows for n={n}, x={x}")
        i += 1
        if i >= 2 and term < _PRODUCT_CUT:
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


def b_n(n: int, x: float) -> float:
    return b_n_detail(n, x).value


@dataclass(frozen=True, slots=True)
class BcRow:
    b: float
    bc: float
    omega: float

    @property
    def gap(self) -> float:
        return self.omega - self.bc

    def to_json(self) -> dict:
        return {"b": self.b, "b_times_c": self.bc, "omega": self.omega, "gap": self.gap}


@dataclass(frozen=True, slots=True)
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


def bc_limit_check(n: int, b_grid: Sequence[float]) -> BcTable:
    """Tabulate b * C(b) against omega_n on a positive decreasing grid."""
    grid = [float(b) for b in b_grid]
    if not grid or any(b <= 0 for b in grid):
        raise ValueError("grid must be positive")
    if any(b1 <= b2 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    omega = wallis(n)
    rows = tuple(BcRow(b, b * c_of_b(n, b), omega) for b in grid)
    gaps = [row.gap for row in rows]
    return BcTable(
        n=n,
        rows=rows,
        gap_decreasing=all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])),
        upper_bound_ok=all(row.bc <= omega for row in rows),
        floor_estimate=small_b_limit(n),
    )
