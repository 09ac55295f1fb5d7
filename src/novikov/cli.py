"""Command-line front end.

One job per invocation: a subcommand, its input files, and scalar options.
The machine-readable JSON report goes to stdout (or ``--output``), a small
plain-text table goes to stderr for humans.  Exit codes: 0 success, 2
validation problems (malformed files, bad cocycles, rejected maps), 3
numerical failures, 64 usage errors.

Reports from exact-backend jobs carry no timing field and are dumped with
sorted keys, so reruns produce byte-identical files.  Default tolerances
can be overridden by the environment variables NOVIKOV_TOLERANCE (rank
decisions) and NOVIKOV_HARMONIC_THRESHOLD (harmonic cutoffs); explicit
flags win over both.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__
from .bounds import BoundsConfig, b_n_detail, bc_limit_check, c_of_b, wallis
from .constructions import SimplicialMap, cyclic_cover, mapping_torus, product
from .errors import NovikovError, NumericalError
from .hodge import (
    DEFAULT_HARMONIC_THRESHOLD,
    InnerProduct,
    _dim_and_gap,
    laplacian_spectrum,
)
from .scalars import parse_scalar, scalar_literal
from .serialization import (
    SCHEMA,
    file_digest,
    load_action,
    load_complex,
    load_weights,
    report_bytes,
)
from .twisted import betti_profile, kunneth_check
from .verify import SUITES, run_suite
from .wang import wang_dims

USAGE_EXIT = 64
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _attach_negative_values(argv):
    """Rewrite ``--lambda -3/2`` as ``--lambda=-3/2``.

    argparse reads a separate "-3/2", "-1+2j" or "-0.5,2" as an option name.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--lambda", "--lambda-grid") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _env_float(name: str):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not a number") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="novikov", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"novikov {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_lambda_opts(p):
        p.add_argument(
            "--lambda",
            dest="lams",
            action="append",
            metavar="LIT",
            help="monodromy scalar literal: 2, 5/7, -1.5, 1+2j, nf:x^2-3*x+1:x "
            "(repeatable)",
        )
        p.add_argument(
            "--lambda-grid",
            metavar="A,B,...",
            help="comma-separated float monodromies, one profile per value",
        )
        p.add_argument("--backend", choices=("exact", "float"), default=None)
        p.add_argument("--tolerance", type=float, default=None, help="float rank cut")

    p = sub.add_parser("betti", help="twisted cohomology dimensions of a complex")
    p.add_argument("--complex", required=True, help="complex JSON with its cocycle")
    add_lambda_opts(p)
    p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("wang", help="dimension counts from a fiber cohomology action")
    p.add_argument("--action", required=True, help="action JSON (blocks per degree)")
    add_lambda_opts(p)
    p.add_argument("--output")

    p = sub.add_parser("product", help="staircase product of two complexes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_lambda_opts(p)
    p.add_argument("--output")

    p = sub.add_parser("mapping-torus", help="mapping torus of a self-isomorphism")
    p.add_argument("--complex", required=True)
    p.add_argument("--map", required=True, help="JSON list: image vertex per vertex")
    p.add_argument("--layers", type=int, default=3)
    add_lambda_opts(p)
    p.add_argument("--output")

    p = sub.add_parser("cover", help="cyclic cover classified by the cocycle")
    p.add_argument("--complex", required=True)
    p.add_argument("--sheets", type=int, required=True)
    add_lambda_opts(p)
    p.add_argument("--output")

    p = sub.add_parser("hodge", help="harmonic dimensions and spectral gaps")
    p.add_argument("--complex", required=True)
    p.add_argument("--lambda", dest="lams", action="append", metavar="LIT")
    p.add_argument("--lambda-grid", metavar="A,B,...")
    p.add_argument("--weights", help="weights JSON for the inner product")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--output")

    p = sub.add_parser("bounds", help="omega_n, C(b), B_n(x), and the b*C(b) table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--grid", metavar="B1,B2,...", help="decreasing b grid for the table")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--complex", help="fixture for theorem21")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--output")

    return parser


def _parse_lambdas(args, parser):
    """Literals from --lambda and floats from --lambda-grid, in order."""
    backend = getattr(args, "backend", None)
    lams = []
    for lit in args.lams or ():
        lams.append((lit, parse_scalar(lit, backend=backend)))
    if getattr(args, "lambda_grid", None):
        for piece in args.lambda_grid.split(","):
            value = float(piece)
            lams.append((piece.strip(), value))
    if not lams:
        parser.error("at least one --lambda or --lambda-grid value is required")
    return lams


def _input_entry(path: str) -> dict:
    return {"path": path, "sha256": file_digest(path)}


def _table(headers, rows) -> str:
    widths = [len(h) for h in headers]
    text_rows = [[str(c) for c in row] for row in rows]
    for row in text_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _require_cocycle(theta, path):
    if theta is None:
        raise NovikovError(f"{path} carries no cocycle; this command needs one")
    return theta


def _profile_rows(profiles):
    return [
        (p["lambda"], " ".join(str(d) for d in p["dims"]), p["euler"], p["backend"])
        for p in profiles
    ]


def _run_betti(args, parser):
    lams = _parse_lambdas(args, parser)
    k, theta = load_complex(args.complex)
    _require_cocycle(theta, args.complex)
    profiles = [
        betti_profile(k, theta, lam, backend=args.backend, tolerance=args.tolerance)
        for _, lam in lams
    ]
    results = {"counts": list(k.counts()), "profiles": [p.to_json() for p in profiles]}
    exact = all(p.backend != "float" for p in profiles)
    table = _table(("lambda", "dims", "euler", "backend"), _profile_rows(results["profiles"]))
    return results, {"complex": _input_entry(args.complex)}, exact, table


def _run_wang(args, parser):
    lams = _parse_lambdas(args, parser)
    action = load_action(args.action)
    profiles = [wang_dims(action, lam, args.tolerance, args.backend) for _, lam in lams]
    results = {"profiles": [p.to_json() for p in profiles]}
    exact = all(p.backend != "float" for p in profiles)
    table = _table(("lambda", "dims", "euler", "backend"), _profile_rows(results["profiles"]))
    return results, {"action": _input_entry(args.action)}, exact, table


def _run_product(args, parser):
    lams = _parse_lambdas(args, parser)
    kl, tl = load_complex(args.left)
    kr, tr = load_complex(args.right)
    _require_cocycle(tl, args.left)
    _require_cocycle(tr, args.right)
    prod = product(kl, kr)
    combined = prod.combine_cocycles(tl, tr)
    profiles = []
    convolution_ok = True
    for _, lam in lams:
        left = betti_profile(kl, tl, lam, backend=args.backend, tolerance=args.tolerance)
        right = betti_profile(kr, tr, lam, backend=args.backend, tolerance=args.tolerance)
        total = betti_profile(
            prod.complex, combined, lam, backend=args.backend, tolerance=args.tolerance
        )
        convolution_ok = convolution_ok and kunneth_check(left, right, total)
        profiles.append({"factors": [left.to_json(), right.to_json()], "product": total.to_json()})
    results = {
        "counts": list(prod.complex.counts()),
        "profiles": profiles,
        "convolution_ok": convolution_ok,
    }
    exact = all(p["product"]["backend"] != "float" for p in profiles)
    table = _table(
        ("lambda", "product dims", "convolution"),
        [
            (p["product"]["lambda"], " ".join(map(str, p["product"]["dims"])), convolution_ok)
            for p in profiles
        ],
    )
    inputs = {"left": _input_entry(args.left), "right": _input_entry(args.right)}
    return results, inputs, exact, table


def _load_map(path, k) -> SimplicialMap:
    with open(path, encoding="utf-8") as fh:
        images = json.load(fh)
    if not isinstance(images, list):
        raise NovikovError("map file must hold a JSON list of image vertices")
    return SimplicialMap(k, k, images)


def _run_mapping_torus(args, parser):
    lams = _parse_lambdas(args, parser)
    k, _ = load_complex(args.complex)
    phi = _load_map(args.map, k)
    torus = mapping_torus(k, phi, layers=args.layers)
    profiles = [
        betti_profile(
            torus.complex,
            torus.fiber_cocycle,
            lam,
            backend=args.backend,
            tolerance=args.tolerance,
        )
        for _, lam in lams
    ]
    results = {
        "layers": args.layers,
        "holonomy_period": torus.holonomy_period,
        "counts": list(torus.complex.counts()),
        "profiles": [p.to_json() for p in profiles],
    }
    exact = all(p.backend != "float" for p in profiles)
    table = _table(("lambda", "dims", "euler", "backend"), _profile_rows(results["profiles"]))
    inputs = {"complex": _input_entry(args.complex), "map": _input_entry(args.map)}
    return results, inputs, exact, table


def _run_cover(args, parser):
    lams = _parse_lambdas(args, parser)
    k, theta = load_complex(args.complex)
    _require_cocycle(theta, args.complex)
    cover = cyclic_cover(k, theta, args.sheets)
    rows = []
    monotone = True
    pairs = []
    exact = True
    for lit, lam in lams:
        base = betti_profile(k, theta, lam, backend=args.backend, tolerance=args.tolerance)
        lifted = betti_profile(
            cover.complex, cover.theta_lift, lam, backend=args.backend, tolerance=args.tolerance
        )
        monotone = monotone and all(b <= c for b, c in zip(base.dims, lifted.dims))
        exact = exact and base.backend != "float" and lifted.backend != "float"
        pairs.append({"base": base.to_json(), "cover": lifted.to_json()})
        rows.append(
            (
                base.to_json()["lambda"],
                " ".join(map(str, base.dims)),
                " ".join(map(str, lifted.dims)),
            )
        )
    results = {"sheets": args.sheets, "profiles": pairs, "monotone_ok": monotone}
    table = _table(("lambda", "base dims", "cover dims"), rows)
    return results, {"complex": _input_entry(args.complex)}, exact, table


def _run_hodge(args, parser):
    lams = _parse_lambdas(args, parser)
    k, theta = load_complex(args.complex)
    _require_cocycle(theta, args.complex)
    weights = None
    inputs = {"complex": _input_entry(args.complex)}
    if args.weights:
        weights = InnerProduct(k, load_weights(args.weights))
        inputs["weights"] = _input_entry(args.weights)
    threshold = args.threshold
    if threshold is None:
        threshold = _env_float("NOVIKOV_HARMONIC_THRESHOLD")
    if threshold is None:
        threshold = DEFAULT_HARMONIC_THRESHOLD
    entries = []
    for lit, lam in lams:
        dims, gaps = zip(*(
            _dim_and_gap(laplacian_spectrum(k, theta, lam, p, weights), threshold)
            for p in range(k.dim + 1)
        ))
        entries.append(
            {"lambda": lit, "harmonic_dims": list(dims), "spectral_gaps": list(gaps)}
        )
    results = {"threshold": threshold, "entries": entries}
    table = _table(
        ("lambda", "harmonic dims", "gaps"),
        [
            (
                e["lambda"],
                " ".join(map(str, e["harmonic_dims"])),
                " ".join("-" if g is None else f"{g:.6g}" for g in e["spectral_gaps"]),
            )
            for e in entries
        ],
    )
    return results, inputs, False, table


def _run_bounds(args, parser):
    if args.n < 2:
        raise NovikovError("--n must be at least 2")
    config = BoundsConfig()
    results = {"n": args.n, "omega": wallis(args.n)}
    rows = [("omega", f"{results['omega']:.12g}")]
    if args.b is not None:
        root = c_of_b(args.n, args.b, config)
        results["c_of_b"] = {"b": args.b, "root": root, "b_times_root": args.b * root}
        rows.append((f"C({args.b:g})", f"{root:.12g}"))
    if args.x is not None:
        detail = b_n_detail(args.n, args.x, config)
        results["b_n"] = {"x": args.x, **detail.to_json()}
        rows.append((f"B_n({args.x:g})", f"{detail.value:.12g} (tail <= {detail.tail_bound:.3g})"))
    if args.grid:
        grid = [float(piece) for piece in args.grid.split(",")]
        table_data = bc_limit_check(args.n, grid, config)
        results["bc_table"] = table_data.to_json()
        for row in table_data.rows:
            rows.append((f"b*C at b={row.b:g}", f"{row.bc:.12g} (gap {row.gap:.3g})"))
    table = _table(("quantity", "value"), rows)
    return results, {}, False, table


def _run_verify(args, parser):
    k = theta = None
    inputs = {}
    if args.complex:
        k, theta = load_complex(args.complex)
        inputs["complex"] = _input_entry(args.complex)
    result = run_suite(args.suite, k, theta, seed=args.seed, trials=args.trials)
    table = _table(
        ("check", "verdict"),
        [(v.name, "pass" if v.passed else "FAIL") for v in result.verdicts],
    )
    return result.to_json(), inputs, True, table


_RUNNERS = {
    "betti": _run_betti,
    "wang": _run_wang,
    "product": _run_product,
    "mapping-torus": _run_mapping_torus,
    "cover": _run_cover,
    "hodge": _run_hodge,
    "bounds": _run_bounds,
    "verify": _run_verify,
}


def _parameters(args) -> dict:
    skip = {"command", "output", "lams"}
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        params[key.replace("_", "-")] = value
    if getattr(args, "lams", None):
        params["lambda"] = list(args.lams)
    return params


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command is None:
        parser.error("a command is required")
    if getattr(args, "tolerance", "absent") is None:
        args.tolerance = _env_float("NOVIKOV_TOLERANCE")

    started = time.perf_counter()
    try:
        results, inputs, exact, table = _RUNNERS[args.command](args, parser)
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return NUMERICAL_EXIT
    except (NovikovError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT

    report = {
        "format": "novikov/report",
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "parameters": _parameters(args),
        "results": results,
        "versions": {"novikov": __version__},
    }
    if not exact:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)

    payload = report_bytes(report)
    if getattr(args, "output", None):
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    sys.stderr.write(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
