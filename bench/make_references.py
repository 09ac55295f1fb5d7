#!/usr/bin/env python3
"""Write bench/references.json: the expected result of every job a seed can draw.

Run from the repository root:  python3 bench/make_references.py

References come from topology where it fixes them and are cross-checked
against the program; the rest are taken from a program run and confirmed by
a second route.  scipy is used here only, never by the timed benchmark.

* T^3 and its k-sheet cyclic covers (connected 3-tori) at lambda: the local
  system is trivial exactly when lambda**(k*g) == 1, where g generates the
  holonomy group of theta.  Trivial gives binomial(3, p), anything else 0.
  g is found from the fixture JSON by a spanning-tree walk written here.
* T^3 x S^1 = T^4 likewise with binomial(4, p); the circle factor has
  holonomy 1, so only lambda = 1 is trivial.  Simplex counts come from the
  program, checked by the Euler count chi(T^4) = 0.
* The flip of torus2 is -Id on T^2, so it acts on H^1 by -I and on H^2 by
  det(-I) = 1.  Mapping-torus dims come from the program and must equal the
  Wang dims of that action and have Euler count 0.
* Spectral gaps come from the program (Laplacian eigenvalues) and must equal
  the smallest nonzero squared singular value of delta_p and delta_{p-1}.
* C(b) is an independent root: scipy quad inside scipy brentq.  B_n(1) comes
  from the program and must match the product summed until nu**i passes
  1e200, within its tail bound.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

import workloads as wl  # noqa: E402
from novikov import bounds, scalars, twisted, wang  # noqa: E402
from novikov.constructions import SimplicialMap, cyclic_cover, mapping_torus  # noqa: E402

OUT = Path(__file__).resolve().parent / "references.json"


def holonomy_generator(payload: dict) -> int:
    """gcd of theta over all cycles, from the raw fixture (no novikov code)."""
    values = {(u, v): val for u, v, val in payload["cocycle"]["values"]}
    edges = sorted(values)
    parent = {}
    adj: dict[int, list] = {}
    for u, v in edges:
        adj.setdefault(u, []).append((v, values[(u, v)]))
        adj.setdefault(v, []).append((u, -values[(u, v)]))
    g = 0
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, val in adj[u]:
                if v not in parent:
                    parent[v] = parent[u] + val
                    stack.append(v)
    for (u, v), val in values.items():
        g = math.gcd(g, parent[u] + val - parent[v])
    return g


def torus_dims(n: int, trivial: bool) -> list[int]:
    return [comb(n, p) if trivial else 0 for p in range(n + 1)]


def is_trivial(lam, order: int) -> bool:
    return lam ** order == 1


def main() -> int:
    fixtures = wl.load_fixtures(ROOT)
    g3 = holonomy_generator(fixtures.payloads["torus3"])
    gc = holonomy_generator(fixtures.payloads["circle3"])
    assert g3 == 1 and gc == 1, (g3, gc)
    refs: dict[str, object] = {}
    k3, th3 = fixtures.torus3

    # exact and float Betti profiles of T^3 and its covers, from topology
    exact_lams = (Fraction(1),) + wl.SWEEP_LAMBDAS
    for sheets in (1, 2, 3):
        for lam in exact_lams:
            refs[f"betti|torus3|s{sheets}|{scalars.scalar_literal(lam)}"] = torus_dims(
                3, is_trivial(lam, sheets * g3)
            )
    float_lams = sorted({x for low in wl.FLOAT_LOW for x in wl.float_lambdas(low)})
    for sheets in (1, 3):
        for lam in float_lams:
            refs[f"betti-float|torus3|s{sheets}|{lam!r}"] = torus_dims(
                3, is_trivial(lam, sheets * g3)
            )
    nf = scalars.parse_scalar(wl.NF_LAMBDA)
    # the roots of x^2 - 3x + 1 are 2.618... and 0.381..., never roots of unity
    refs[f"betti-nf|torus3|s1|{wl.NF_LAMBDA}"] = torus_dims(3, False)

    # cross-check the rule against the program, both backends, on gauged theta
    rng = random.Random(0)
    for sheets in (1, 2, 3):
        for lam in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-5, 7)):
            k, theta = wl._gauged(fixtures, rng)
            cover = cyclic_cover(k, theta, sheets)
            got = list(twisted.betti_profile(cover.complex, cover.theta_lift, lam).dims)
            assert got == refs[f"betti|torus3|s{sheets}|{scalars.scalar_literal(lam)}"], (sheets, lam, got)
            assert sum((-1) ** p * d for p, d in enumerate(got)) == 0
    for sheets in (1, 3):
        for lam in (0.5, 1.0):
            cover = cyclic_cover(k3, th3, sheets)
            got = list(twisted.betti_profile(cover.complex, cover.theta_lift, lam).dims)
            assert got == refs[f"betti-float|torus3|s{sheets}|{lam!r}"], (sheets, lam, got)
    got = list(twisted.betti_profile(k3, th3, nf).dims)
    assert got == refs[f"betti-nf|torus3|s1|{wl.NF_LAMBDA}"], got

    # product-exact: T^4 rule; counts from the program with chi = 0
    counts = None
    for text in wl.PRODUCT_LAMBDAS:
        lam = scalars.parse_scalar(text)
        refs[f"product|torus3|circle3|{text}"] = {
            "counts": None,
            "factors": [torus_dims(3, lam == 1), [1, 1] if lam == 1 else [0, 0]],
            "product": torus_dims(4, lam == 1),
            "convolution_ok": True,
        }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for text in ("1", "2"):
        got = wl._product_job(fixtures, text, out_dir / "product.json").run()
        counts = got["counts"]
        assert sum((-1) ** p * c for p, c in enumerate(counts)) == 0, counts
        expect = dict(refs[f"product|torus3|circle3|{text}"], counts=counts)
        assert got == expect, (text, got, expect)
    for text in wl.PRODUCT_LAMBDAS:
        refs[f"product|torus3|circle3|{text}"]["counts"] = counts

    # mapping torus of the flip, against Wang dims of the known action
    k2, _ = fixtures.torus2
    phi = SimplicialMap(k2, k2, fixtures.flip)
    action = wang.FiberCohomologyAction.from_blocks(
        {0: [[1]], 1: [[-1, 0], [0, -1]], 2: [[1]]}
    )
    wang_ref = wl._wang_job(fixtures).run()
    assert wang_ref["blocks"] == [[["1"]], [["-1", "0"], ["0", "-1"]], [["1"]]], wang_ref
    for text in wl.MT_LAMBDAS:
        lam = scalars.parse_scalar(text)
        torus = mapping_torus(k2, phi, 3)
        got = list(twisted.betti_profile(torus.complex, torus.fiber_cocycle, lam).dims)
        assert got == list(wang.wang_dims(action, lam).dims), (text, got)
        assert got == wang_ref["dims"][text], (text, got)
        assert sum((-1) ** p * d for p, d in enumerate(got)) == 0
        refs[f"mapping-torus|torus2|flip|3|{text}"] = got
    refs["wang|torus2|flip"] = wang_ref

    # Hodge: harmonic dims from topology, gaps against singular values
    for lam in float_lams:
        got = wl._hodge_job(fixtures, lam).run()
        assert got["harmonic_dims"] == torus_dims(3, lam == 1.0), (lam, got)
        for p, gap in enumerate(got["spectral_gaps"]):
            sq = []
            for q in (p - 1, p):
                if 0 <= q < k3.dim:
                    d = twisted.twisted_coboundary(k3, th3, complex(lam), q).to_numpy()
                    s = np.linalg.svd(d, compute_uv=False)
                    sq.extend(s[s > 1e-8 * s[0]] ** 2)
            assert abs(gap - min(sq)) <= 1e-8 * min(sq), (lam, p, gap, min(sq))
        refs[f"hodge|torus3|{lam!r}"] = got

    # C(b) from scipy; B_n(1) from the program against a long direct product
    for n in wl.BOUNDS_N:
        omega, _ = quad(lambda t: math.sin(t) ** (n - 1), 0, math.pi, epsabs=0, epsrel=1e-13)
        roots = []
        for b in wl.BOUNDS_B:
            def excess(x):
                integral, _ = quad(
                    lambda t: (math.cosh(t) + x * math.sinh(t)) ** (n - 1),
                    0, b, epsabs=0, epsrel=1e-13,
                )
                return x * integral - omega
            root = brentq(excess, 1e-6, 1e3, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            assert abs(bounds.c_of_b(n, b) - root) <= wl.ROOT_RTOL * root, (n, b)
            roots.append(root)
        detail = bounds.b_n_detail(n, 1.0)
        nu = n / (n - 2)
        log_sum, i = 0.0, 0
        while nu**i < 1e200:
            log_sum += 2 / nu**i * math.log1p(nu**i / math.sqrt(2 * nu**i - 1))
            i += 1
        assert abs(math.exp(log_sum) - detail.value) <= detail.tail_bound + 1e-12 * detail.value
        refs[f"bounds|n={n}|x=1.0"] = {"c_of_b": roots, "b_n": detail.value}

    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items())]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
