import json
from pathlib import Path

import pytest

from novikov import verify
from novikov.cocycles import OneCocycle
from novikov.complexes import SimplicialComplex, circle, path_complex
from novikov.constructions import torus_grid
from novikov.errors import NovikovError
from novikov.serialization import load_complex
from novikov.twisted import BettiProfile
from novikov.verify import SUITES, SuiteResult, Verdict, run_suite
from test_twisted import count_reductions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def torus_pair():
    k = torus_grid(3)
    base = {e: 0 for e in circle(3).edges}
    base[(0, 1)] = 1
    values = {}
    for (u, v) in k.edges:
        a, b = u // 3, v // 3
        values[(u, v)] = 0 if a == b else base[(min(a, b), max(a, b))]
    return k, OneCocycle(values)


def test_theorem21_passes_and_is_deterministic():
    k, theta = torus_pair()
    first = run_suite("theorem21", k, theta, seed=11, trials=4)
    assert first.passed
    assert len(first.verdicts) == 5
    names = [v.name for v in first.verdicts]
    assert names == [
        "gauge-invariance",
        "duality",
        "euler-count",
        "product-convolution",
        "cover-monotonicity",
    ]
    second = run_suite("theorem21", k, theta, seed=11, trials=4)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())
    other_seed = run_suite("theorem21", k, theta, seed=99, trials=4)
    assert other_seed.passed


def test_theorem21_requires_fixture():
    with pytest.raises(NovikovError):
        run_suite("theorem21")


def test_unipotent_suite_vanishes_on_single_path():
    result = run_suite("nilpotent-vanishing", seed=3)
    assert result.passed
    assert len(result.verdicts) == 3
    for verdict in result.verdicts:
        assert verdict.detail["dims"] == [0, 0, 0, 0]
        assert "no simplicial mapping-torus cross-check" in verdict.detail["path"]


def test_hyperbolic_suite_hits_expected_dims():
    result = run_suite("sol-nonvanishing")
    assert result.passed
    (verdict,) = result.verdicts
    assert verdict.detail["dims"] == [0, 1, 1, 0]
    assert verdict.detail["lambda"].startswith("nf:")


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("spectral-sequence")
    assert set(SUITES) == {"theorem21", "nilpotent-vanishing", "sol-nonvanishing"}


def test_result_plumbing():
    bad = Verdict("x", False, {"why": "demo"})
    good = Verdict("y", True, {})
    result = SuiteResult("demo", 5, (bad, good))
    assert not result.passed
    payload = result.to_json()
    assert payload["seed"] == 5
    assert payload["verdicts"][0] == {"name": "x", "passed": False, "detail": {"why": "demo"}}


def test_duality_failure_carries_both_profiles():
    # a path is contractible, so every lambda gives (1, 0), which reversed is (0, 1)
    theta = OneCocycle({(0, 1): 1, (1, 2): 0})
    result = run_suite("theorem21", path_complex(2), theta, seed=1, trials=2)
    duality = result.verdicts[1]
    assert duality.name == "duality"
    assert not duality.passed
    assert duality.detail == {"lambda": "2", "dims": [1, 0], "reversed_dual": [0, 1]}


def verdict_named(result, name):
    (verdict,) = (v for v in result.verdicts if v.name == name)
    return verdict


def test_endpoint_vanishing_failure_carries_its_profile():
    # winding on one of two disjoint circles: the other keeps H^0 at every lambda
    k = SimplicialComplex.build([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    theta = OneCocycle({e: int(e == (0, 1)) for e in k.edges})
    result = run_suite("theorem21", k, theta, seed=0, trials=2)
    assert not result.passed
    endpoint = result.verdicts[1]
    assert endpoint.name == "endpoint-vanishing"
    assert not endpoint.passed
    assert endpoint.detail == {"lambda": "2", "dims": [1, 1]}


def stubbed_theorem21(monkeypatch, dims):
    """theorem21 on torus_pair with ``verify.reduce`` stubbed: the residual of
    its n-th call answers dims(k, n) at every lambda."""
    k, theta = torus_pair()
    calls = []

    class Residual:
        def __init__(self, complex_, cocycle):
            self.complex, self.theta, self.n = complex_, cocycle, len(calls)
            calls.append(complex_)

        def profile(self, lam):
            d = tuple(dims(self.complex, self.n))
            euler = sum((-1) ** p * x for p, x in enumerate(d))
            return BettiProfile(d, euler, lam, "exact", None, False)

    monkeypatch.setattr(verify, "reduce", Residual)
    return run_suite("theorem21", k, theta, seed=1, trials=2)


@pytest.mark.parametrize(
    "name, dims, detail",
    [
        # the gauge trials answer otherwise than the pair itself
        ("gauge-invariance", lambda k, n: (0, 0, 0) if n == 0 else (0, 1, 1),
         {"trial": 0, "lambda": "2", "expected": [0, 0, 0], "found": [0, 1, 1]}),
        # an Euler characteristic of 2 on a torus
        ("euler-count", lambda k, n: (1, 0, 1),
         {"trial": 0, "euler": 2, "expected": 0}),
        # every space answers all ones, which is no convolution
        ("product-convolution", lambda k, n: (1,) * (k.dim + 1),
         {"lambda": "2", "factors": [[1, 1, 1], [1, 1]], "product": [1, 1, 1, 1]}),
        # a cover below its base
        ("cover-monotonicity", lambda k, n: (0,) * (k.dim + 1) if n > 4 else (0, 1, 1),
         {"sheets": 2, "lambda": "2", "base": [0, 1, 1], "cover": [0, 0, 0]}),
    ],
)
def test_theorem21_failures_carry_their_payloads(monkeypatch, name, dims, detail):
    result = stubbed_theorem21(monkeypatch, dims)
    assert not result.passed
    verdict = verdict_named(result, name)
    assert not verdict.passed
    assert set(verdict.detail) >= set(detail) | {"lambda"}
    assert {key: verdict.detail[key] for key in detail} == detail


def test_theorem21_reduces_each_pair_once(monkeypatch):
    # the pair itself, 20 gauge trials, circle(3), the product and two
    # covers: 25 reductions, where one per betti_profile call made 82
    k, theta = load_complex(FIXTURES / "torus3.json")
    reduced = count_reductions(monkeypatch)
    assert run_suite("theorem21", k, theta, seed=1, trials=20).passed
    assert len(reduced) <= 25
