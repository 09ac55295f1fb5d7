"""Command-line front end.

One job per invocation: a subcommand, its input files, and scalar options.
The machine-readable JSON report goes to stdout (or ``--output``), a small
plain-text table goes to stderr for humans.  Exit codes: 0 success, 2
validation problems (malformed files, bad cocycles, rejected maps), 3
numerical failures, 64 usage errors.

Every job has one shape: ``main`` parses the lambdas of the commands that
take them, the runner computes and returns the backends it ran in, and
``main`` names every file argument given under ``inputs`` with its digest
and adds ``timing_seconds`` exactly when ``"float"`` is among the backends
(``hodge`` and ``bounds`` are float computations, ``verify`` is exact).
Reports are dumped with sorted keys, so an exact job's reruns produce
byte-identical files.  Lambda literals are parsed as written;
``--backend`` and ``--tolerance`` go to the library calls, whose one
backend decision applies them.  An absent ``--tolerance`` or
``--threshold`` takes the library default and stays out of the report's
parameters.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .bounds import b_n_detail, bc_limit_check, c_of_b, wallis
from .constructions import SimplicialMap, cyclic_cover, mapping_torus, product
from .errors import NovikovError, NumericalError
from .hodge import DEFAULT_HARMONIC_THRESHOLD, InnerProduct, _dim_and_gap, _spectra
from .scalars import parse_scalar, scalar_literal
from .serialization import (
    SCHEMA,
    file_digest,
    load_action,
    load_complex,
    load_weights,
    report_bytes,
)
from .twisted import kunneth_check, reduce
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="novikov", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"novikov {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # option groups shared by several subcommands, declared once each
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the JSON report here instead of stdout")
    lambdas = argparse.ArgumentParser(add_help=False)
    lambdas.add_argument(
        "--lambda",
        dest="lams",
        action="append",
        metavar="LIT",
        help="monodromy scalar literal: 2, 5/7, -1.5, 1+2j, nf:x^2-3*x+1:x (repeatable)",
    )
    lambdas.add_argument(
        "--lambda-grid",
        metavar="A,B,...",
        help="comma-separated float monodromies, one profile per value",
    )
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=("exact", "float"), default=None)
    backend.add_argument("--tolerance", type=float, default=None, help="float rank cut")
    profile = [lambdas, backend, output]

    p = sub.add_parser("betti", parents=profile, help="twisted cohomology dimensions of a complex")
    p.add_argument("--complex", required=True, help="complex JSON with its cocycle")

    p = sub.add_parser(
        "wang", parents=profile, help="dimension counts from a fiber cohomology action"
    )
    p.add_argument("--action", required=True, help="action JSON (blocks per degree)")

    p = sub.add_parser("product", parents=profile, help="staircase product of two complexes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("mapping-torus", parents=profile, help="mapping torus of a self-isomorphism")
    p.add_argument("--complex", required=True)
    p.add_argument("--map", required=True, help="JSON list: image vertex per vertex")
    p.add_argument("--layers", type=int, default=3)

    p = sub.add_parser("cover", parents=profile, help="cyclic cover classified by the cocycle")
    p.add_argument("--complex", required=True)
    p.add_argument("--sheets", type=int, required=True)

    p = sub.add_parser(
        "hodge", parents=[lambdas, output], help="harmonic dimensions and spectral gaps"
    )
    p.add_argument("--complex", required=True)
    p.add_argument("--weights", help="weights JSON for the inner product")
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser(
        "bounds", parents=[output], help="omega_n, C(b), B_n(x), and the b*C(b) table"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--grid", metavar="B1,B2,...", help="decreasing b grid for the table")

    p = sub.add_parser("verify", parents=[output], help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--complex", help="fixture for theorem21")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)

    return parser


def _parse_lambdas(args, parser):
    """(literal, value) pairs from --lambda, then floats from --lambda-grid."""
    lams = [(lit, parse_scalar(lit)) for lit in args.lams or ()]
    if args.lambda_grid:
        lams.extend((piece.strip(), float(piece)) for piece in args.lambda_grid.split(","))
    if not lams:
        parser.error("at least one --lambda or --lambda-grid value is required")
    return lams


def _table(headers, rows) -> str:
    widths = [len(h) for h in headers]
    text_rows = [[str(c) for c in row] for row in rows]
    for row in text_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _load_with_cocycles(*paths):
    """Load every complex file, then require a cocycle on each, in that order."""
    loaded = [load_complex(path) for path in paths]
    for path, (_, theta) in zip(paths, loaded):
        if theta is None:
            raise NovikovError(f"{path} carries no cocycle; this command needs one")
    return loaded


def _profiles(args, lams, *spaces):
    """Each (complex, cocycle) reduced once: per lambda, one profile per space."""
    residuals = [reduce(k, theta) for k, theta in spaces]
    return [[r.profile(lam, args.backend, args.tolerance) for r in residuals] for _, lam in lams]


def _dims_text(profile) -> str:
    return " ".join(map(str, profile.dims))


def _profile_table(profiles) -> str:
    return _table(
        ("lambda", "dims", "euler", "backend"),
        [(scalar_literal(p.lam), _dims_text(p), p.euler, p.backend) for p in profiles],
    )


def _run_betti(args, lams):
    [(k, theta)] = _load_with_cocycles(args.complex)
    profiles = [p for (p,) in _profiles(args, lams, (k, theta))]
    results = {"counts": list(k.counts()), "profiles": [p.to_json() for p in profiles]}
    backends = [p.backend for p in profiles]
    return results, backends, _profile_table(profiles)


def _run_wang(args, lams):
    action = load_action(args.action)
    profiles = [wang_dims(action, lam, args.tolerance, args.backend) for _, lam in lams]
    results = {"profiles": [p.to_json() for p in profiles]}
    backends = [p.backend for p in profiles]
    return results, backends, _profile_table(profiles)


def _run_product(args, lams):
    (kl, tl), (kr, tr) = _load_with_cocycles(args.left, args.right)
    prod = product(kl, kr)
    spaces = ((kl, tl), (kr, tr), (prod.complex, prod.combine_cocycles(tl, tr)))
    triples = _profiles(args, lams, *spaces)
    convolution_ok = all(kunneth_check(*triple) for triple in triples)
    results = {
        "counts": list(prod.complex.counts()),
        "profiles": [
            {"factors": [left.to_json(), right.to_json()], "product": total.to_json()}
            for left, right, total in triples
        ],
        "convolution_ok": convolution_ok,
    }
    table = _table(
        ("lambda", "product dims", "convolution"),
        [(scalar_literal(total.lam), _dims_text(total), convolution_ok) for *_, total in triples],
    )
    return results, [p.backend for triple in triples for p in triple], table


def _load_map(path, k) -> SimplicialMap:
    with open(path, encoding="utf-8") as fh:
        images = json.load(fh)
    if not isinstance(images, list):
        raise NovikovError("map file must hold a JSON list of image vertices")
    return SimplicialMap(k, k, images)


def _run_mapping_torus(args, lams):
    k, _ = load_complex(args.complex)
    phi = _load_map(args.map, k)
    torus = mapping_torus(k, phi, layers=args.layers)
    profiles = [p for (p,) in _profiles(args, lams, (torus.complex, torus.fiber_cocycle))]
    results = {
        "layers": args.layers,
        "holonomy_period": torus.holonomy_period,
        "counts": list(torus.complex.counts()),
        "profiles": [p.to_json() for p in profiles],
    }
    return results, [p.backend for p in profiles], _profile_table(profiles)


def _run_cover(args, lams):
    [(k, theta)] = _load_with_cocycles(args.complex)
    cover = cyclic_cover(k, theta, args.sheets)
    pairs = _profiles(args, lams, (k, theta), (cover.complex, cover.theta_lift))
    results = {
        "sheets": args.sheets,
        "profiles": [{"base": base.to_json(), "cover": lifted.to_json()} for base, lifted in pairs],
        "monotone_ok": all(
            b <= c for base, lifted in pairs for b, c in zip(base.dims, lifted.dims)
        ),
    }
    table = _table(
        ("lambda", "base dims", "cover dims"),
        [(scalar_literal(base.lam), _dims_text(base), _dims_text(lifted)) for base, lifted in pairs],
    )
    backends = [p.backend for pair in pairs for p in pair]
    return results, backends, table


def _run_hodge(args, lams):
    [(k, theta)] = _load_with_cocycles(args.complex)
    weights = InnerProduct(k, load_weights(args.weights) if args.weights else None)
    threshold = DEFAULT_HARMONIC_THRESHOLD if args.threshold is None else args.threshold
    entries = []
    for lit, lam in lams:
        spectra = _spectra(k, theta, lam, weights, range(k.dim + 1))
        dims, gaps = zip(*(_dim_and_gap(s, threshold) for s in spectra))
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
    return results, ["float"], table


def _run_bounds(args, lams):
    if args.n < 2:
        raise NovikovError("--n must be at least 2")
    results = {"n": args.n, "omega": wallis(args.n)}
    rows = [("omega", f"{results['omega']:.12g}")]
    if args.b is not None:
        root = c_of_b(args.n, args.b)
        results["c_of_b"] = {"b": args.b, "root": root, "b_times_root": args.b * root}
        rows.append((f"C({args.b:g})", f"{root:.12g}"))
    if args.x is not None:
        detail = b_n_detail(args.n, args.x)
        results["b_n"] = {"x": args.x, **detail.to_json()}
        rows.append((f"B_n({args.x:g})", f"{detail.value:.12g} (tail <= {detail.tail_bound:.3g})"))
    if args.grid:
        grid = [float(piece) for piece in args.grid.split(",")]
        table_data = bc_limit_check(args.n, grid)
        results["bc_table"] = table_data.to_json()
        for row in table_data.rows:
            rows.append((f"b*C at b={row.b:g}", f"{row.bc:.12g} (gap {row.gap:.3g})"))
    table = _table(("quantity", "value"), rows)
    return results, ["float"], table


def _run_verify(args, lams):
    k = theta = None
    if args.complex:
        k, theta = load_complex(args.complex)
    result = run_suite(args.suite, k, theta, seed=args.seed, trials=args.trials)
    table = _table(
        ("check", "verdict"),
        [(v.name, "pass" if v.passed else "FAIL") for v in result.verdicts],
    )
    return result.to_json(), ["exact"], table


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

    started = time.perf_counter()
    try:
        lams = _parse_lambdas(args, parser) if "lams" in args else None
        results, backends, table = _RUNNERS[args.command](args, lams)
        inputs = {
            name: {"path": path, "sha256": file_digest(path)}
            for name in ("action", "complex", "left", "map", "right", "weights")
            if (path := getattr(args, name, None))
        }
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
    if "float" in backends:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)

    payload = report_bytes(report)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    sys.stderr.write(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
