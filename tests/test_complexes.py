import dataclasses
import random
from pathlib import Path

import pytest

from dense_reference import boundary
from novikov.cocycles import holonomy, zero_cocycle
from novikov.complexes import (
    SimplicialComplex,
    circle,
    euler_characteristic,
    path_complex,
    point,
    sphere_boundary,
)
from novikov.constructions import product
from novikov.errors import InvalidLoopError
from novikov.serialization import load_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_build_face_closure_counts():
    k = SimplicialComplex.build([[0, 1, 2]])
    assert k.counts() == (3, 3, 1)
    assert k.simplices[1] == ((0, 1), (0, 2), (1, 2))
    assert k.dim == 2
    assert euler_characteristic(k) == 1


def test_build_with_isolated_vertices_and_dedup():
    k = SimplicialComplex.build([[0, 1], [1, 0], [2, 1]], vertex_count=5)
    assert k.vertex_count == 5
    assert k.counts() == (5, 2)
    assert k.simplices[0] == ((0,), (1,), (2,), (3,), (4,))


def test_build_rejects_malformed():
    with pytest.raises(ValueError):
        SimplicialComplex.build([[0, 0, 1]])
    with pytest.raises(ValueError):
        SimplicialComplex.build([[0, -1]])
    with pytest.raises(ValueError):
        SimplicialComplex.build([[0, 7]], vertex_count=3)
    with pytest.raises(ValueError):
        SimplicialComplex.build([[]])


def test_build_requires_a_natural_vertex_count():
    for count in ("3", 2.5, True, -5):
        with pytest.raises(ValueError):
            SimplicialComplex.build([], vertex_count=count)
    assert SimplicialComplex.build([], vertex_count=0).counts() == (0,)


def test_immutability_and_lookup():
    k = circle(4)
    with pytest.raises(AttributeError):
        k.vertex_count = 9
    assert k.simplex_index((0, 3)) == k.edges.index((0, 3))
    assert k.has_simplex((3, 0))
    assert not k.has_simplex((1, 3))
    with pytest.raises(KeyError):
        k.simplex_index((1, 3))


def test_a_complex_stores_only_its_simplex_tables():
    names = [f.name for f in dataclasses.fields(SimplicialComplex)]
    assert names == ["vertex_count", "simplices"]


def test_direct_construction_sorts_each_level():
    k = SimplicialComplex(3, [[(2,), (0,), (1,)], [(1, 2), (0, 1)]])
    assert k.simplices == (((0,), (1,), (2,)), ((0, 1), (1, 2)))
    built = SimplicialComplex.build([(1, 2), (0, 1)])
    assert k == built and hash(k) == hash(built)


def test_lookups_give_each_simplex_its_position_in_its_level():
    circle3, torus2, torus3 = (
        load_complex(FIXTURES / f"{name}.json")[0] for name in ("circle3", "torus2", "torus3")
    )
    for k in (circle3, torus2, torus3, product(torus3, circle3).complex):
        for level in k.simplices:
            for i, s in enumerate(level):
                assert k.simplex_index(s) == i
                assert k.has_simplex(s) and k.has_simplex(s[::-1])


def test_lookups_refuse_what_is_not_a_simplex():
    k = circle(4)
    absent = [(1, 3), (0, 0), (4,), (0, 1, 2), (), ("a",), (0.5, 1), ("a", 1), (None,), ([0],)]
    for s in absent:
        assert k.has_simplex(s) is False, s
        with pytest.raises(KeyError):
            k.simplex_index(s)
    # has_simplex sorts its query, simplex_index reads it as given
    assert k.has_simplex((3, 0))
    with pytest.raises(KeyError):
        k.simplex_index((3, 0))
    with pytest.raises(InvalidLoopError):
        holonomy(k, zero_cocycle(k), ["a", "b", "c"])


def test_circle_generator():
    k = circle(3)
    assert k.counts() == (3, 3)
    assert euler_characteristic(k) == 0
    assert circle(6).counts() == (6, 6)
    with pytest.raises(ValueError):
        circle(2)


def test_sphere_boundary_generator():
    s2 = sphere_boundary(2)
    assert s2.counts() == (4, 6, 4)
    assert euler_characteristic(s2) == 2
    s3 = sphere_boundary(3)
    assert s3.counts() == (5, 10, 10, 5)
    assert euler_characteristic(s3) == 0
    with pytest.raises(ValueError):
        sphere_boundary(0)


def test_point_path_and_named_generator():
    assert point().counts() == (1,)
    assert path_complex(3).counts() == (4, 3)


def test_boundary_signs_on_triangle():
    k = SimplicialComplex.build([[0, 1, 2]])
    d2 = boundary(k, 2)
    # boundary of (0,1,2) = (1,2) - (0,2) + (0,1) in the sorted edge order
    col = [d2[i, 0] for i in range(3)]
    assert col == [1, -1, 1]
    d1 = boundary(k, 1)
    assert d1.shape == (3, 3)
    assert boundary(k, 0).shape == (0, 3)
    with pytest.raises(ValueError):
        boundary(k, 3)


def test_boundary_of_boundary_vanishes():
    rng = random.Random(7)
    fixtures = [sphere_boundary(2), sphere_boundary(3), circle(5)]
    for _ in range(5):
        maximal = [
            tuple(rng.sample(range(7), rng.randint(2, 4))) for _ in range(6)
        ]
        fixtures.append(SimplicialComplex.build(maximal))
    for k in fixtures:
        for p in range(2, k.dim + 1):
            prod = boundary(k, p - 1) @ boundary(k, p)
            assert all(v == 0 for v in prod.flat)


def test_maximal_simplices_roundtrip():
    rng = random.Random(19)
    for _ in range(10):
        maximal = [
            tuple(rng.sample(range(8), rng.randint(1, 4))) for _ in range(5)
        ]
        k = SimplicialComplex.build(maximal, vertex_count=8)
        again = SimplicialComplex.build(k.maximal_simplices(), vertex_count=8)
        assert again == k


def _maximal_by_subset_scan(k):
    """Reference rule: a simplex is maximal iff no higher simplex contains it."""
    out = []
    for p in range(k.dim, -1, -1):
        for s in k.simplices[p]:
            covered = any(
                set(s) <= set(t)
                for q in range(p + 1, k.dim + 1)
                for t in k.simplices[q]
            )
            if not covered:
                out.append(s)
    return sorted(out, key=lambda s: (len(s), s))


def test_maximal_simplices_match_subset_scan_on_non_pure_complexes():
    rng = random.Random(23)
    fixtures = [point(), circle(4), sphere_boundary(3), path_complex(3)]
    fixtures.append(SimplicialComplex.build([], vertex_count=0))
    for _ in range(200):
        n = rng.randint(1, 9)
        maximal = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 5))))
            for _ in range(rng.randint(0, 7))
        ]
        fixtures.append(SimplicialComplex.build(maximal, vertex_count=n + rng.randint(0, 2)))
    pure = 0
    for k in fixtures:
        found = k.maximal_simplices()
        assert found == _maximal_by_subset_scan(k), k
        pure += len({len(s) for s in found}) == 1
    assert pure < len(fixtures) // 2  # mostly non-pure, isolated vertices included

