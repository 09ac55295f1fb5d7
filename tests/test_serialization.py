import gc
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from novikov.cocycles import OneCocycle, ZeroCochain, gauge_transform
from novikov.complexes import circle
from novikov.constructions import torus_grid
from novikov.serialization import (
    action_from_json,
    action_to_json,
    complex_from_json,
    complex_to_json,
    file_digest,
    load_complex,
    report_bytes,
    save_complex,
    weights_from_json,
)
from novikov.twisted import betti_profile
from novikov.wang import FiberCohomologyAction

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


def rebuilt(payload):
    return complex_from_json(json.loads(json.dumps(payload)))


def test_complex_round_trip_preserves_profiles():
    k, theta = torus_pair()
    k2, t2 = rebuilt(complex_to_json(k, theta))
    assert k2 == k and t2 == theta
    for lam in (Fraction(1), Fraction(2), Fraction(5, 7)):
        assert betti_profile(k, theta, lam).dims == betti_profile(k2, t2, lam).dims


def test_complex_without_cocycle():
    k, _ = torus_pair()
    k2, t2 = rebuilt(complex_to_json(k))
    assert k2 == k and t2 is None


def test_float_cocycle_round_trip():
    k, theta = torus_pair()
    tf = OneCocycle({e: 0.5 * theta.value(*e) for e in k.edges}, mode="float")
    _, t2 = rebuilt(complex_to_json(k, tf))
    assert t2.mode == "float"
    assert t2.value(0, 3) == 0.5


def test_complex_validation_errors():
    k, theta = torus_pair()
    good = complex_to_json(k, theta)
    bad = dict(good, format="novikov/action")
    with pytest.raises(ValueError):
        complex_from_json(bad)
    bad = dict(good, schema="v9")
    with pytest.raises(ValueError):
        complex_from_json(bad)
    short = json.loads(json.dumps(good))
    short["cocycle"]["values"] = short["cocycle"]["values"][:-1]
    with pytest.raises(ValueError):
        complex_from_json(short)
    fractional = json.loads(json.dumps(good))
    fractional["cocycle"]["values"][0][2] = "1/2"
    with pytest.raises(ValueError):
        complex_from_json(fractional)
    wrong_mode = json.loads(json.dumps(good))
    wrong_mode["cocycle"]["mode"] = "symbolic"
    with pytest.raises(ValueError):
        complex_from_json(wrong_mode)


def test_malformed_cocycle_or_simplex_raises():
    c = circle(3)
    good = complex_to_json(c, OneCocycle({(0, 1): 1, (0, 2): 0, (1, 2): 0}))
    assert rebuilt(good)[0] == c
    duplicated = json.loads(json.dumps(good))
    duplicated["cocycle"]["values"].insert(1, [0, 1, 5])  # a second value on (0, 1)
    non_edge = json.loads(json.dumps(good))
    non_edge["cocycle"]["values"].append([0, 5, 7])
    boolean_vertex = json.loads(json.dumps(good))
    boolean_vertex["maximal_simplices"][0] = [0, True]  # JSON true equals 1
    for payload in (duplicated, non_edge, boolean_vertex):
        with pytest.raises(ValueError):
            complex_from_json(payload)


def test_action_round_trip_with_fractions():
    action = FiberCohomologyAction.from_blocks(
        {0: [[1]], 1: [[Fraction(5, 7), 1], [0, 2]]}
    )
    back = action_from_json(json.loads(json.dumps(action_to_json(action))))
    assert back.top_degree == 1
    assert back.block(1).entry(0, 0) == Fraction(5, 7)
    assert back.block(0).entry(0, 0) == 1


def test_action_validation_errors():
    good = {"format": "novikov/action", "schema": "v1", "blocks": {"0": [["1"]]}}
    assert action_from_json(good).fiber_dims() == (1,)
    for blocks in ([[["1"]]], {"-1": [["2"]], "0": [["1"]]}):
        with pytest.raises(ValueError):
            action_from_json(dict(good, blocks=blocks))


def test_weights_payload():
    payload = {
        "format": "novikov/weights",
        "schema": "v1",
        "weights": {"0": [1, 2, 3], "1": [0.5, 0.5, 0.5]},
    }
    out = weights_from_json(payload)
    assert out == {0: [1.0, 2.0, 3.0], 1: [0.5, 0.5, 0.5]}
    with pytest.raises(ValueError):
        weights_from_json({"format": "novikov/weights", "schema": "v2", "weights": {}})
    with pytest.raises(ValueError):
        weights_from_json(dict(payload, weights=[[1, 2, 3]]))


def test_save_load_and_digest(tmp_path):
    k, theta = torus_pair()
    path = tmp_path / "t.json"
    save_complex(path, k, theta)
    k2, t2 = load_complex(path)
    assert k2 == k and t2 == theta
    digest = file_digest(path)
    assert len(digest) == 64
    save_complex(path, k, theta)
    assert file_digest(path) == digest


def test_report_bytes_canonical():
    assert report_bytes({"b": 1, "a": [2]}) == report_bytes({"a": [2], "b": 1})
    assert report_bytes({"x": 1}).endswith(b"\n")


def _gauged(payload, f):
    """A loaded complex and its gauged cocycle; the loaded cocycle is dropped."""
    k, theta = complex_from_json(payload)
    return k, gauge_transform(theta, f)


def test_a_gauged_input_holds_only_its_tables_and_values():
    # torus3 (27/189/324/162 simplices) gauged: its simplex tuples, the level
    # tuples and one value dict keyed by the complex's own edge tuples, 58 KiB;
    # a position dict per level would add about 26 KiB
    payload = json.loads((FIXTURES / "torus3.json").read_text(encoding="utf-8"))
    f = ZeroCochain({v: (7 * v) % 9 - 4 for v in range(27)})
    gc.collect()
    tracemalloc.start()
    try:
        held = _gauged(payload, f)
        gc.collect()  # empties the free lists, whose blocks would count as held
        footprint = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[0].counts() == (27, 189, 324, 162)
    assert footprint <= 70 * 1024, footprint / 1024
