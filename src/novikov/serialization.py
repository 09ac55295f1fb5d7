"""JSON persistence for complexes, cocycles, actions, weights, and reports.

One format, four payload kinds, each tagged with a ``format`` string and a
``schema`` version so files stay self-describing:

* ``novikov/complex``: vertex count plus maximal simplices, optionally
  carrying the closed edge cocycle the computations need.
* ``novikov/action``: the square matrix blocks of a graded cohomology
  self-map, keyed by degree.
* ``novikov/weights``: positive diagonal inner-product weights per degree.
* ``novikov/report``: what a CLI run saw and computed.

Exact scalars are written as literal strings ("5/7", "nf:x^2-3*x+1:x") and
round-trip losslessly through ``parse_scalar``; floats stay JSON numbers.
Reports are dumped with sorted keys, and exact-backend reports carry no
timing field, so identical jobs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

from .cocycles import OneCocycle
from .complexes import SimplicialComplex, _number
from .scalars import parse_scalar, scalar_literal
from .wang import FiberCohomologyAction

SCHEMA = "v1"

__all__ = [
    "SCHEMA",
    "complex_to_json",
    "complex_from_json",
    "save_complex",
    "load_complex",
    "action_to_json",
    "action_from_json",
    "load_action",
    "weights_from_json",
    "load_weights",
    "report_bytes",
    "file_digest",
]


def _encode_value(value, mode: str):
    if mode == "float":
        return float(value)
    return int(value)


def _integer(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{what} must be an integer, got {raw!r}")
    return raw


def _lists(value, what: str) -> list:
    """value, which must be a JSON list of JSON lists."""
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ValueError(f"{what} must be a list of lists")
    return value


def _expect_format(payload: dict, kind: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    tag = payload.get("format")
    if tag != kind:
        raise ValueError(f"expected format {kind!r}, found {tag!r}")
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")


def complex_to_json(k: SimplicialComplex, theta: OneCocycle | None = None) -> dict:
    payload = {
        "format": "novikov/complex",
        "schema": SCHEMA,
        "vertex_count": k.vertex_count,
        "maximal_simplices": [list(s) for s in k.maximal_simplices()],
    }
    if theta is not None:
        payload["cocycle"] = {
            "mode": theta.mode,
            "values": [
                [u, v, _encode_value(theta.value(u, v), theta.mode)]
                for (u, v) in k.edges
            ],
        }
    return payload


def complex_from_json(payload: dict):
    """Rebuild (complex, cocycle or None) from its JSON form."""
    _expect_format(payload, "novikov/complex")
    k = SimplicialComplex.build(
        _lists(payload["maximal_simplices"], "'maximal_simplices'"),
        vertex_count=payload.get("vertex_count"),
    )
    raw = payload.get("cocycle")
    if raw is None:
        return k, None
    if not isinstance(raw, dict):
        raise ValueError("'cocycle' must be a JSON object")
    # each value is keyed by the complex's own edge tuple; OneCocycle checks
    # the mode, then each value
    edges = {e: e for e in k.edges}
    values = {}
    for entry in _lists(raw["values"], "cocycle 'values'"):
        u, v, val = entry
        edge = (_integer(u, "an edge endpoint"), _integer(v, "an edge endpoint"))
        if edge not in edges:
            raise ValueError(f"cocycle value on {edge}, which is not an increasing edge")
        if edge in values:
            raise ValueError(f"cocycle lists edge {edge} twice")
        values[edges[edge]] = val
    missing = [e for e in k.edges if e not in values]
    if missing:
        raise ValueError(f"cocycle misses {len(missing)} edges, first {missing[0]}")
    return k, OneCocycle(values, mode=raw.get("mode", "exact"))


def save_complex(path, k: SimplicialComplex, theta: OneCocycle | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json(k, theta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_complex(path):
    with open(path, encoding="utf-8") as fh:
        return complex_from_json(json.load(fh))


def action_to_json(action: FiberCohomologyAction) -> dict:
    blocks = {}
    for p in range(action.top_degree + 1):
        block = action.block(p)
        blocks[str(p)] = [
            [scalar_literal(block.entry(i, j)) for j in range(block.ncols)]
            for i in range(block.nrows)
        ]
    return {"format": "novikov/action", "schema": SCHEMA, "blocks": blocks}


def _keyed_by_degree(payload: dict, field: str) -> dict:
    value = payload[field]
    if not isinstance(value, dict):
        raise ValueError(f"{field!r} must be a JSON object keyed by degree")
    return value


def action_from_json(payload: dict) -> FiberCohomologyAction:
    _expect_format(payload, "novikov/action")
    blocks = {}
    for key, rows in _keyed_by_degree(payload, "blocks").items():
        blocks[int(key)] = [
            [parse_scalar(str(e)) for e in row] for row in _lists(rows, f"block {key!r}")
        ]
    return FiberCohomologyAction.from_blocks(blocks)


def load_action(path) -> FiberCohomologyAction:
    with open(path, encoding="utf-8") as fh:
        return action_from_json(json.load(fh))


def weights_from_json(payload: dict) -> dict:
    _expect_format(payload, "novikov/weights")
    out = {}
    for key, vec in _keyed_by_degree(payload, "weights").items():
        if not isinstance(vec, list):
            raise ValueError(f"weights {key!r} must be a list of numbers")
        out[int(key)] = [_number(w, "a weight") for w in vec]
    return out


def load_weights(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return weights_from_json(json.load(fh))


def report_bytes(report: dict) -> bytes:
    """Canonical byte form of a report: sorted keys, two-space indent."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
