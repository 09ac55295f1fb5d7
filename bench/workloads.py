"""The three seeded workloads: job lists, their inputs and their checks.

A job is one CLI-equivalent call: one ``product`` invocation, one Betti
profile, one ``hodge`` lambda entry, or one ``bounds`` n-table (every
``C(b)`` root of one n, plus ``B_n(1)``).  ``make_pass``
builds a pass, the fixed job list a run repeats, from a ``random.Random``;
every input object is built there, outside the timed region, and a fresh
copy is built for each pass so that no cache inside a complex carries over
from one pass to the next.  Each job returns a plain JSON-like result that
``check`` compares with ``references.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import novikov.cli as cli
import novikov.constructions as constructions
import novikov.bounds as bounds
import novikov.hodge as hodge
import novikov.scalars as scalars
import novikov.serialization as serialization
import novikov.twisted as twisted
import novikov.wang as wang
from novikov.cocycles import ZeroCochain, gauge_transform

WORKLOADS = ("product-exact", "exact-sweep", "float-spectral")

# product-exact: L is drawn from these; all cost the same to within noise
PRODUCT_LAMBDAS = ("1", "2", "-1", "1/2", "3", "-3/2", "2/3", "9/7")
# exact-sweep: lambda = a/b with 1 <= |a|, b <= 9, lambda != 1 (1 has its own slot)
SWEEP_LAMBDAS = tuple(sorted(
    {Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 10)} - {Fraction(1)}
))
# exact-sweep: lambda = 1 plus this many seeded lambdas on each of torus3 and
# its 2- and 3-sheet covers, equal weight on each complex; with the
# mapping-torus, Wang and number-field jobs a pass holds 49 exact calls
SWEEP_SHEETS = (1, 2, 3)
SWEEP_SEEDED = 14
GAUGE_RANGE = 4
NF_LAMBDA = "nf:x^2-3*x+1:x"
MT_LAMBDAS = ("2", "1")
# float-spectral: one lambda below 1, 1.0 itself, and the inverse of the first
FLOAT_LOW = (0.5, 0.625, 0.8)
BOUNDS_N = (3, 4, 5)
BOUNDS_B = (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass
class Job:
    key: str          # reference key; also names the job in the trace
    kind: str
    run: Callable[[], object]


@dataclass
class Fixtures:
    root: Path
    torus3: tuple
    torus2: tuple
    circle3: tuple
    flip: list
    payloads: dict


def load_fixtures(root: Path) -> Fixtures:
    fx = root / "fixtures"
    payloads = {
        name: json.loads((fx / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("torus3", "torus2", "circle3")
    }
    flip = json.loads((fx / "torus2_flip_map.json").read_text(encoding="utf-8"))
    return Fixtures(
        root=root,
        torus3=serialization.load_complex(fx / "torus3.json"),
        torus2=serialization.load_complex(fx / "torus2.json"),
        circle3=serialization.load_complex(fx / "circle3.json"),
        flip=flip,
        payloads=payloads,
    )


def _fresh(fixtures: Fixtures, name: str):
    """A new complex object for one job, so no per-object cache is shared."""
    return serialization.complex_from_json(fixtures.payloads[name])


def _gauged(fixtures: Fixtures, rng):
    k, theta = _fresh(fixtures, "torus3")
    f = ZeroCochain(
        {v: rng.randint(-GAUGE_RANGE, GAUGE_RANGE) for v in range(k.vertex_count)}
    )
    return k, gauge_transform(theta, f)


def _silent(fn):
    # the CLI prints a human table on stderr; keep it out of the bench log
    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            return fn()
    return run


# ---------------------------------------------------------------------------
# product-exact


def _cli_results(argv: list[str], out: Path) -> dict:
    """Run one ``novikov`` invocation in-process; its report's ``results``."""
    try:
        code = cli.main(argv + ["--output", str(out)])
    except SystemExit as exc:  # usage errors exit from inside main
        code = exc.code
    if code != 0:
        raise RuntimeError(f"novikov {argv[0]} exited {code}")
    return json.loads(out.read_bytes())["results"]


def _product_job(fixtures: Fixtures, lam: str, out: Path) -> Job:
    fx = fixtures.root / "fixtures"
    # "--lambda=L", not "--lambda L": argparse reads "-3/2" as an option
    argv = [
        "product", "--left", str(fx / "torus3.json"), "--right",
        str(fx / "circle3.json"), f"--lambda={lam}",
    ]

    def run():
        results = _cli_results(argv, out)
        profile = results["profiles"][0]
        return {
            "counts": results["counts"],
            "factors": [f["dims"] for f in profile["factors"]],
            "product": profile["product"]["dims"],
            "convolution_ok": results["convolution_ok"],
        }

    return Job(f"product|torus3|circle3|{lam}", "product", _silent(run))


# ---------------------------------------------------------------------------
# exact-sweep


def _profile_job(key, kind, k, theta, lam) -> Job:
    return Job(key, kind, lambda: list(twisted.betti_profile(k, theta, lam).dims))


def _cover_job(fixtures: Fixtures, rng, sheets: int, lam) -> Job:
    k, theta = _gauged(fixtures, rng)

    def run():
        cover = constructions.cyclic_cover(k, theta, sheets)
        return list(twisted.betti_profile(cover.complex, cover.theta_lift, lam).dims)

    return Job(f"betti|torus3|s{sheets}|{scalars.scalar_literal(lam)}", "betti", run)


def _mapping_torus_job(fixtures: Fixtures, lam: str, out: Path) -> Job:
    # through the CLI, so that cli.main and report_bytes are on a kept workload
    fx = fixtures.root / "fixtures"
    argv = [
        "mapping-torus", "--complex", str(fx / "torus2.json"), "--map",
        str(fx / "torus2_flip_map.json"), "--layers", "3", f"--lambda={lam}",
    ]

    def run():
        return _cli_results(argv, out)["profiles"][0]["dims"]

    return Job(f"mapping-torus|torus2|flip|3|{lam}", "mapping-torus", _silent(run))


def _wang_job(fixtures: Fixtures) -> Job:
    k, _ = _fresh(fixtures, "torus2")
    phi = constructions.SimplicialMap(k, k, fixtures.flip)

    def run():
        action = wang.induced_action(k, phi)
        blocks = [
            [[scalars.scalar_literal(v) for v in row] for row in action.block(p).rows()]
            for p in range(action.top_degree + 1)
        ]
        dims = {
            lam: list(wang.wang_dims(action, scalars.parse_scalar(lam)).dims)
            for lam in MT_LAMBDAS
        }
        return {"blocks": blocks, "dims": dims}

    return Job("wang|torus2|flip", "wang", run)


def _sweep_pass(fixtures: Fixtures, rng, out_dir: Path) -> list[Job]:
    jobs = []
    for sheets in SWEEP_SHEETS:
        lams = [Fraction(1)] + [rng.choice(SWEEP_LAMBDAS) for _ in range(SWEEP_SEEDED)]
        for lam in lams:
            if sheets == 1:
                k, theta = _gauged(fixtures, rng)
                jobs.append(_profile_job(
                    f"betti|torus3|s1|{scalars.scalar_literal(lam)}", "betti", k, theta, lam
                ))
            else:
                jobs.append(_cover_job(fixtures, rng, sheets, lam))
    jobs.extend(
        _mapping_torus_job(fixtures, lam, out_dir / f"mapping-torus-{lam}.json")
        for lam in MT_LAMBDAS
    )
    jobs.append(_wang_job(fixtures))
    k, theta = _gauged(fixtures, rng)
    jobs.append(_profile_job(
        f"betti-nf|torus3|s1|{NF_LAMBDA}", "betti-nf", k, theta,
        scalars.parse_scalar(NF_LAMBDA),
    ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# float-spectral


def float_lambdas(low: float) -> tuple[float, float, float]:
    return (low, 1.0, 1.0 / low)


def _hodge_job(fixtures: Fixtures, lam: float) -> Job:
    k, theta = _fresh(fixtures, "torus3")

    def run():
        # one CLI ``hodge`` lambda entry: every degree, dims then gaps
        dims = [hodge.harmonic_dim(k, theta, lam, p) for p in range(k.dim + 1)]
        gaps = [hodge.spectral_gap(k, theta, lam, p) for p in range(k.dim + 1)]
        return {"harmonic_dims": dims, "spectral_gaps": gaps}

    return Job(f"hodge|torus3|{lam!r}", "hodge", run)


def _float_cover_job(fixtures: Fixtures, sheets: int, lam: float) -> Job:
    k, theta = _fresh(fixtures, "torus3")
    if sheets == 1:
        return _profile_job(f"betti-float|torus3|s1|{lam!r}", "betti-float", k, theta, lam)

    def run():
        cover = constructions.cyclic_cover(k, theta, sheets)
        return list(twisted.betti_profile(cover.complex, cover.theta_lift, lam).dims)

    return Job(f"betti-float|torus3|s{sheets}|{lam!r}", "betti-float", run)


def _bounds_job(n: int) -> Job:
    # one ``bounds`` n-table: C(b) over the b grid, then B_n(1)
    def run():
        return {
            "c_of_b": [bounds.c_of_b(n, b) for b in BOUNDS_B],
            "b_n": bounds.b_n_detail(n, 1.0).value,
        }

    return Job(f"bounds|n={n}|x=1.0", "bounds", run)


def _float_pass(fixtures: Fixtures, rng) -> list[Job]:
    lams = float_lambdas(rng.choice(FLOAT_LOW))
    jobs = [_hodge_job(fixtures, lam) for lam in lams]
    jobs += [_float_cover_job(fixtures, s, lam) for s in (1, 3) for lam in lams]
    jobs += [_bounds_job(n) for n in BOUNDS_N]
    rng.shuffle(jobs)
    return jobs


def make_pass(workload: str, fixtures: Fixtures, rng, out_dir: Path) -> list[Job]:
    if workload == "product-exact":
        return [_product_job(fixtures, rng.choice(PRODUCT_LAMBDAS), out_dir / "product.json")]
    if workload == "exact-sweep":
        return _sweep_pass(fixtures, rng, out_dir)
    if workload == "float-spectral":
        return _float_pass(fixtures, rng)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(fixtures: Fixtures) -> None:
    """One exact and one float rank call on torus3's delta_1 (324 x 189).

    The first complex SVD in a process pays a one-off start-up cost that is
    an order of magnitude above the warm call; every CLI invocation pays it,
    so it belongs to set-up and not to the first timed job.
    """
    k, theta = fixtures.torus3
    for lam in (Fraction(2), 2.0):
        scalars.rank_with_flag(twisted.twisted_coboundary(k, theta, lam, 1))


# ---------------------------------------------------------------------------
# checks

FLOAT_RTOL = 1e-6
ROOT_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def check(kind: str, result, expected) -> bool:
    """Whether a job result matches its committed reference."""
    if expected is None:
        return False
    if kind == "hodge":
        if result["harmonic_dims"] != expected["harmonic_dims"]:
            return False
        pairs = list(zip(result["spectral_gaps"], expected["spectral_gaps"]))
        return len(pairs) == len(expected["spectral_gaps"]) and all(
            (a is None and b is None)
            or (a is not None and b is not None and _close(a, b, FLOAT_RTOL))
            for a, b in pairs
        )
    if kind == "bounds":
        roots = list(zip(result["c_of_b"], expected["c_of_b"]))
        return (
            len(roots) == len(expected["c_of_b"])
            and all(_close(a, b, ROOT_RTOL) for a, b in roots)
            and _close(result["b_n"], expected["b_n"], ROOT_RTOL)
        )
    return result == expected
