"""Every value type is immutable, and compares as its kind promises.

Value types compare equal across two separate constructions; the hashed
ones hash equal, and the others, which hold dicts, arrays or matrices,
refuse ``hash`` with TypeError.  Identity types compare equal only to
themselves.  Every dataclass of the package has a case here.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import novikov
from novikov.bounds import BcRow, BcTable, ProductValue
from novikov.cocycles import OneCocycle, ZeroCochain
from novikov.complexes import circle
from novikov.constructions import SimplicialMap, cyclic_cover, mapping_torus, product
from novikov.hodge import InnerProduct, hodge_decompose
from novikov.scalars import Matrix, MinimalPolynomial, NumberFieldElement
from novikov.twisted import betti_profile, reduce
from novikov.verify import Verdict, run_suite
from novikov.wang import FiberCohomologyAction, wang_dims


def _rotation():
    c = circle(3)
    return SimplicialMap(c, c, [1, 2, 0])


def _theta():
    return OneCocycle({(0, 1): 1, (1, 2): 0, (0, 2): 1})


def _swap():
    return FiberCohomologyAction([[[1]], [[0, 1], [1, 0]]])


def _bc_row():
    return BcRow(0.5, 1.25, 1.5)


# (factory, fields to assign, equality: "value", "hashed value" or "identity")
CASES = {
    "SimplicialComplex": (lambda: circle(4), ("vertex_count", "simplices"), "hashed value"),
    "OneCocycle": (_theta, ("values", "mode"), "value"),
    "FiberCohomologyAction": (_swap, ("matrices",), "value"),
    "MinimalPolynomial": (
        lambda: MinimalPolynomial.parse("x^2-3*x+1"), ("coeffs",), "hashed value"
    ),
    "NumberFieldElement": (
        lambda: NumberFieldElement.generator(MinimalPolynomial.parse("x^2-2")),
        ("coeffs", "minpoly"),
        "hashed value",
    ),
    "Matrix": (
        lambda: Matrix.from_rows([[1, 2], [3, 4]]),
        ("nrows", "ncols", "entries", "backend"),
        "value",
    ),
    "ZeroCochain": (lambda: ZeroCochain({0: 1}), ("values", "mode"), "identity"),
    "SimplicialMap": (_rotation, ("source", "target", "vertex_map"), "identity"),
    "InnerProduct": (
        lambda: InnerProduct(circle(3), {0: [1.0, 2.0, 3.0]}), ("complex", "_vectors"), "identity"
    ),
    "ProductComplex": (
        lambda: product(circle(3), circle(3)), ("left", "right", "complex"), "identity"
    ),
    "MappingTorus": (
        lambda: mapping_torus(circle(3), _rotation()),
        ("base", "map", "layers", "complex", "fiber_cocycle"),
        "identity",
    ),
    "CoveringData": (
        lambda: cyclic_cover(circle(3), _theta(), 2),
        ("base", "sheets", "complex", "theta_lift", "base_theta"),
        "identity",
    ),
    "ProductValue": (
        lambda: ProductValue(1.5, 1e-9, 12), ("value", "tail_bound", "terms"), "hashed value"
    ),
    "BcRow": (_bc_row, ("b", "bc", "omega"), "hashed value"),
    "BcTable": (
        lambda: BcTable(4, (_bc_row(),), True, True, 1.375),
        ("n", "rows", "gap_decreasing", "upper_bound_ok", "floor_estimate"),
        "hashed value",
    ),
    # arrays compare elementwise, so equality by value would raise
    "HodgeParts": (
        lambda: hodge_decompose(circle(3), _theta(), 2.0, 0, np.ones(3)),
        ("harmonic", "exact", "coexact", "residual"),
        "identity",
    ),
    "Reduction": (
        lambda: reduce(circle(3), _theta()), ("complex", "theta", "sizes", "deltas"), "value"
    ),
    "BettiProfile": (
        lambda: betti_profile(circle(3), _theta(), Fraction(2)),
        ("dims", "euler", "lam", "backend", "tolerance", "ill_conditioned"),
        "hashed value",
    ),
    "Verdict": (
        lambda: Verdict("duality", True, {"nontrivial_class": True}),
        ("name", "passed", "detail"),
        "value",
    ),
    "SuiteResult": (
        lambda: run_suite("sol-nonvanishing"), ("suite", "seed", "verdicts"), "value"
    ),
    "WangProfile": (
        lambda: wang_dims(_swap(), Fraction(2)),
        ("dims", "euler", "lam", "backend", "tolerance", "fiber_dims"),
        "hashed value",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_types_are_frozen(name):
    factory, fields, equality = CASES[name]
    a, b = factory(), factory()
    assert type(a).__name__ == name
    for attr in fields:
        value = getattr(b, attr)  # a field the type lacks fails here
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
    assert a == a
    if equality == "identity":
        assert a != b
    else:
        assert a == b
    if equality == "hashed value":
        assert hash(a) == hash(b)
    elif equality == "value":
        with pytest.raises(TypeError):
            hash(a)


def test_every_dataclass_has_a_case():
    defined = set()
    for info in pkgutil.iter_modules(novikov.__path__):
        module = importlib.import_module(f"novikov.{info.name}")
        defined.update(
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        )
    assert defined - set(CASES) == set()
