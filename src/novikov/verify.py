"""Randomized verification suites for the structural cohomology identities.

Each suite bundles a family of invariants into named pass/fail verdicts
carrying enough payload to reproduce a failure: the seed, the offending
scalar, and the dimension vectors involved.  Suites are pure functions of
their inputs, so one seed always gives one verdict list, and fixtures are
never mutated.

``theorem21`` exercises the five structural identities of twisted
cohomology on a user-supplied complex: gauge invariance, endpoint
vanishing with duality, the Euler count, the product convolution, and
monotonicity under cyclic covers.  Each (complex, cocycle) pair is reduced
once, and its one residual is evaluated at every lambda the checks ask.

``nilpotent-vanishing`` and ``sol-nonvanishing`` evaluate the two classic
torus-bundle fiber actions (unipotent and hyperbolic) through the
fibration dimension formula.  The second computational path available
here, ``constructions.mapping_torus`` glued through a simplicial
automorphism of one fixed fiber triangulation, cannot realize them: those
matrices have infinite order, and a simplicial self-isomorphism of a
finite complex always has finite order.  A layered triangulation, whose
fiber triangulation changes from level to level by diagonal flips, does
realize both, but the package does not build one.  The verdicts note the
single-path status instead of silently claiming a cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cocycles import OneCocycle, ZeroCochain, gauge_transform, is_exact
from .complexes import SimplicialComplex, circle, euler_characteristic
from .constructions import cyclic_cover, product
from .errors import NovikovError
from .scalars import parse_scalar, scalar_literal
from .twisted import kunneth_check, reduce
from .wang import FiberCohomologyAction, wang_dims

SUITES = ("theorem21", "nilpotent-vanishing", "sol-nonvanishing")

__all__ = ["SUITES", "Verdict", "SuiteResult", "run_suite"]


@dataclass(frozen=True, slots=True)
class Verdict:
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class SuiteResult:
    suite: str
    seed: int
    verdicts: tuple

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def _random_lambda(rng: random.Random) -> Fraction:
    num = rng.randint(1, 9) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 9))


def _random_gauge(k: SimplicialComplex, rng: random.Random) -> ZeroCochain:
    return ZeroCochain({v: rng.randint(-4, 4) for v in range(k.vertex_count)})


def _check_gauge(red, rng, trials):
    lams = (Fraction(2), Fraction(5, 7))
    base = {lam: red.profile(lam).dims for lam in lams}
    for trial in range(trials):
        moved = reduce(red.complex, gauge_transform(red.theta, _random_gauge(red.complex, rng)))
        for lam in lams:
            dims = moved.profile(lam).dims
            if dims != base[lam]:
                return Verdict(
                    "gauge-invariance",
                    False,
                    {
                        "trial": trial,
                        "lambda": scalar_literal(lam),
                        "expected": list(base[lam]),
                        "found": list(dims),
                    },
                )
    return Verdict("gauge-invariance", True, {"trials": trials})


def _check_duality(red):
    n = red.complex.dim
    nontrivial = is_exact(red.complex, red.theta) is None
    for lam in (Fraction(2), Fraction(5, 7), Fraction(-1)):
        dims = red.profile(lam).dims
        reversed_dual = red.profile(1 / lam).dims[::-1]
        if dims != reversed_dual:
            return Verdict(
                "duality",
                False,
                {
                    "lambda": scalar_literal(lam),
                    "dims": list(dims),
                    "reversed_dual": list(reversed_dual),
                },
            )
        if nontrivial and (dims[0] != 0 or dims[n] != 0):
            return Verdict(
                "endpoint-vanishing",
                False,
                {"lambda": scalar_literal(lam), "dims": list(dims)},
            )
    return Verdict("duality", True, {"nontrivial_class": nontrivial})


def _check_euler(red, rng, trials):
    chi = euler_characteristic(red.complex)
    for trial in range(trials):
        lam = _random_lambda(rng)
        profile = red.profile(lam)
        if profile.euler != chi:
            return Verdict(
                "euler-count",
                False,
                {
                    "trial": trial,
                    "lambda": scalar_literal(lam),
                    "euler": profile.euler,
                    "expected": chi,
                },
            )
    return Verdict("euler-count", True, {"trials": trials, "euler": chi})


def _check_kunneth(red):
    other = circle(3)
    gamma = OneCocycle({e: 0 for e in other.edges})
    prod = product(red.complex, other)
    combined = prod.combine_cocycles(red.theta, gamma)
    spaces = (red, reduce(other, gamma), reduce(prod.complex, combined))
    for lam in (Fraction(2), Fraction(5, 7)):
        left, right, total = (space.profile(lam) for space in spaces)
        if not kunneth_check(left, right, total):
            return Verdict(
                "product-convolution",
                False,
                {
                    "lambda": scalar_literal(lam),
                    "factors": [list(left.dims), list(right.dims)],
                    "product": list(total.dims),
                },
            )
    return Verdict("product-convolution", True, {"second_factor": "circle(3)"})


def _check_cover(red):
    for sheets in (2, 3):
        cover = cyclic_cover(red.complex, red.theta, sheets)
        lift = reduce(cover.complex, cover.theta_lift)
        for lam in (Fraction(2), Fraction(-1)):
            base = red.profile(lam).dims
            lifted = lift.profile(lam).dims
            if any(b > c for b, c in zip(base, lifted)):
                return Verdict(
                    "cover-monotonicity",
                    False,
                    {
                        "sheets": sheets,
                        "lambda": scalar_literal(lam),
                        "base": list(base),
                        "cover": list(lifted),
                    },
                )
    return Verdict("cover-monotonicity", True, {"sheets_tested": [2, 3]})


def _theorem21(k, theta, seed, trials):
    rng = random.Random(seed)
    red = reduce(k, theta)
    verdicts = (
        _check_gauge(red, rng, trials),
        _check_duality(red),
        _check_euler(red, rng, trials),
        _check_kunneth(red),
        _check_cover(red),
    )
    return SuiteResult("theorem21", seed, verdicts)


_SINGLE_PATH_NOTE = (
    "fibration-formula path only: the matrix has infinite order, and a "
    "simplicial self-isomorphism of a finite complex has finite order, so "
    "no simplicial mapping-torus cross-check exists"
)


def _torus_bundle_action(matrix) -> FiberCohomologyAction:
    (a, b), (c, d) = matrix
    det = a * d - b * c
    return FiberCohomologyAction.from_blocks(
        {0: [[1]], 1: [[a, b], [c, d]], 2: [[det]]}
    )


def _nilpotent(seed):
    action = _torus_bundle_action([[1, 1], [0, 1]])
    verdicts = []
    for literal in ("2", "3", "5/2"):
        lam = parse_scalar(literal)
        profile = wang_dims(action, lam)
        ok = all(d == 0 for d in profile.dims)
        verdicts.append(
            Verdict(
                f"vanishing at lambda={literal}",
                ok,
                {"dims": list(profile.dims), "path": _SINGLE_PATH_NOTE},
            )
        )
    return SuiteResult("nilpotent-vanishing", seed, tuple(verdicts))


def _sol(seed):
    action = _torus_bundle_action([[2, 1], [1, 1]])
    lam = parse_scalar("nf:x^2-3*x+1:x")
    profile = wang_dims(action, lam)
    ok = tuple(profile.dims) == (0, 1, 1, 0)
    verdict = Verdict(
        "nonvanishing at the hyperbolic eigenvalue",
        ok,
        {
            "lambda": scalar_literal(lam),
            "dims": list(profile.dims),
            "path": _SINGLE_PATH_NOTE,
        },
    )
    return SuiteResult("sol-nonvanishing", seed, (verdict,))


def run_suite(
    name: str,
    k: SimplicialComplex | None = None,
    theta: OneCocycle | None = None,
    seed: int = 0,
    trials: int = 20,
) -> SuiteResult:
    """Run a named suite; theorem21 needs a complex with its cocycle."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name == "theorem21":
        if k is None or theta is None:
            raise NovikovError("suite theorem21 needs a complex with a cocycle")
        return _theorem21(k, theta, seed, trials)
    if name == "nilpotent-vanishing":
        return _nilpotent(seed)
    if name == "sol-nonvanishing":
        return _sol(seed)
    raise ValueError(f"unknown suite {name!r}, available: {', '.join(SUITES)}")
