"""Every value type is immutable, and compares as its kind promises.

Value types compare equal across two separate constructions (and the
hashable ones hash equal); identity types compare equal only to themselves.
"""

import pytest

from novikov.cocycles import OneCocycle, ZeroCochain
from novikov.complexes import circle
from novikov.constructions import SimplicialMap, cyclic_cover, mapping_torus, product
from novikov.hodge import InnerProduct
from novikov.scalars import Matrix, MinimalPolynomial, NumberFieldElement
from novikov.wang import FiberCohomologyAction


def _rotation():
    c = circle(3)
    return SimplicialMap(c, c, [1, 2, 0])


def _theta():
    return OneCocycle({(0, 1): 1, (1, 2): 0, (0, 2): 1})


# (factory, fields to assign, equality: "value", "hashed value" or "identity")
CASES = {
    "SimplicialComplex": (lambda: circle(4), ("vertex_count", "simplices", "_index"), "hashed value"),
    "OneCocycle": (_theta, ("values", "mode"), "value"),
    "FiberCohomologyAction": (
        lambda: FiberCohomologyAction([[[1]], [[0, 1], [1, 0]]]), ("matrices",), "value"
    ),
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_types_are_frozen(name):
    factory, fields, equality = CASES[name]
    a, b = factory(), factory()
    assert type(a).__name__ == name
    for attr in fields:
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(b, attr))
    assert a == a
    if equality == "identity":
        assert a != b
    else:
        assert a == b
    if equality == "hashed value":
        assert hash(a) == hash(b)
