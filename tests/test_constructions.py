import gc
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from novikov import constructions
from novikov.cocycles import (
    OneCocycle,
    ZeroCochain,
    coboundary_of,
    gauge_transform,
    holonomy,
    zero_cocycle,
)
from novikov.complexes import SimplicialComplex, circle, euler_characteristic, point
from novikov.constructions import (
    CoveringData,
    SimplicialMap,
    cyclic_cover,
    mapping_torus,
    product,
    torus_grid,
    torus_grid_map,
)
from novikov.errors import ConstructionError, InvalidMapError
from novikov.serialization import complex_to_json, load_complex
from novikov.twisted import betti_profile, kunneth_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def winding_theta(m, w=1):
    values = {e: 0 for e in circle(m).edges}
    values[(0, 1)] = w
    return OneCocycle(values)


def torus_theta(m=3, w=1):
    """Pullback of the winding cocycle along (i, j) -> i on torus_grid."""
    k = torus_grid(m)
    base = winding_theta(m, w)
    values = {}
    for (u, v) in k.edges:
        a, b = u // m, v // m
        values[(u, v)] = base.value(a, b) if a != b else 0
    return k, OneCocycle(values)


def test_simplicial_map_validation_and_collapse():
    k = circle(4)
    with pytest.raises(InvalidMapError):
        SimplicialMap(k, k, [0, 2, 1, 3])  # sends edge (0,1) to the non-edge (0,2)
    with pytest.raises(InvalidMapError):
        SimplicialMap(k, k, [0, 1, 2])
    with pytest.raises(InvalidMapError):
        SimplicialMap(k, k, [0, 1, 2, 7])
    with pytest.raises(InvalidMapError):  # JSON true would read as vertex 1
        SimplicialMap(k, k, [0, True, 2, 3])
    collapse = SimplicialMap(circle(3), point(), [0, 0, 0])
    assert not collapse.is_isomorphism()
    assert collapse.image_simplex((0, 1)) == (0,)
    rot = SimplicialMap(k, k, [1, 2, 3, 0])
    assert rot.is_isomorphism()
    twice = rot.compose(rot)
    assert twice.vertex_map == (2, 3, 0, 1)
    via_dict = SimplicialMap(k, k, {0: 1, 1: 2, 2: 3, 3: 0})
    assert via_dict.vertex_map == rot.vertex_map


def test_product_of_circles_is_torus():
    prod = product(circle(3), circle(3))
    k = prod.complex
    assert k.counts() == (9, 27, 18)
    assert euler_characteristic(k) == 0
    theta = prod.combine_cocycles(winding_theta(3), zero_cocycle(circle(3)))
    assert betti_profile(k, theta, Fraction(1)).dims == (1, 2, 1)
    for lam in (Fraction(2), Fraction(5, 7)):
        assert betti_profile(k, theta, lam).dims == (0, 0, 0)


def test_product_with_point_is_identity_shape():
    prod = product(point(), circle(3))
    assert prod.complex.counts() == circle(3).counts()
    theta = prod.combine_cocycles(
        zero_cocycle(point()), winding_theta(3)
    )
    assert betti_profile(prod.complex, theta, Fraction(2)).dims == (0, 0)
    assert betti_profile(prod.complex, theta, Fraction(1)).dims == (1, 1)


def test_product_association_gives_same_complex():
    c = circle(3)
    left = product(product(c, c).complex, c).complex
    right = product(c, product(c, c).complex).complex
    assert left.counts() == (27, 189, 324, 162)
    assert left == right
    assert euler_characteristic(left) == 0


def test_three_torus_profiles():
    c = circle(3)
    t2 = product(c, c)
    t3 = product(t2.complex, c)
    theta2 = t2.combine_cocycles(winding_theta(3), zero_cocycle(c))
    theta3 = t3.combine_cocycles(theta2, zero_cocycle(c))
    assert betti_profile(t3.complex, theta3, Fraction(1)).dims == (1, 3, 3, 1)
    assert betti_profile(t3.complex, theta3, Fraction(2)).dims == (0, 0, 0, 0)


def test_kunneth_convolution_on_products():
    cases = [
        (3, 4, 1, 2, Fraction(1)),
        (3, 4, 1, 2, Fraction(-1)),
        (3, 3, 1, 0, Fraction(2)),
        (4, 3, 2, 1, Fraction(-1)),
    ]
    for ml, mr, wl, wr, lam in cases:
        cl, cr = circle(ml), circle(mr)
        tl, tr = winding_theta(ml, wl), winding_theta(mr, wr)
        prod = product(cl, cr)
        combined = prod.combine_cocycles(tl, tr)
        pa = betti_profile(cl, tl, lam)
        pb = betti_profile(cr, tr, lam)
        pp = betti_profile(prod.complex, combined, lam)
        assert kunneth_check(pa, pb, pp), (ml, mr, wl, wr, lam)


def test_mapping_torus_of_point_is_circle():
    ident = SimplicialMap(point(), point(), [0])
    mt = mapping_torus(point(), ident, layers=5)
    assert mt.complex == circle(5)
    assert mt.holonomy_period == 5
    assert holonomy(mt.complex, mt.fiber_cocycle, [0, 1, 2, 3, 4]) == 5
    assert betti_profile(mt.complex, mt.fiber_cocycle, Fraction(1)).dims == (1, 1)
    assert betti_profile(mt.complex, mt.fiber_cocycle, Fraction(2)).dims == (0, 0)


def test_mapping_torus_identity_circle_is_torus():
    c = circle(3)
    ident = SimplicialMap(c, c, [0, 1, 2])
    mt = mapping_torus(c, ident, layers=3)
    assert mt.complex.counts() == (9, 27, 18)
    assert euler_characteristic(mt.complex) == 0
    assert betti_profile(mt.complex, mt.fiber_cocycle, Fraction(1)).dims == (1, 2, 1)
    assert betti_profile(mt.complex, mt.fiber_cocycle, Fraction(2)).dims == (0, 0, 0)


def test_mapping_torus_counts_and_vertical_holonomy():
    k = torus_grid(3)
    swap = torus_grid_map(3, [[0, 1], [1, 0]])
    mt = mapping_torus(k, swap, layers=3)
    assert mt.complex.counts() == (27, 189, 324, 162)
    # vertex 0 = (0, 0) is fixed by the swap, so its vertical loop closes;
    # vertex v on layer r is v * 3 + r
    loop = [0 * 3 + r for r in range(3)]
    assert holonomy(mt.complex, mt.fiber_cocycle, loop) == 3
    # fiber edges carry no holonomy
    fiber_edge = (0 * 3 + 0, 1 * 3 + 0)
    assert mt.fiber_cocycle.value(*fiber_edge) == 0


def test_mapping_torus_rejections():
    c = circle(3)
    ident = SimplicialMap(c, c, [0, 1, 2])
    with pytest.raises(ConstructionError):
        mapping_torus(c, ident, layers=2)
    collapse = SimplicialMap(c, point(), [0, 0, 0])
    with pytest.raises(ConstructionError):
        mapping_torus(c, collapse, layers=3)
    with pytest.raises(ConstructionError):
        mapping_torus(point(), ident, layers=3)


def _unglued_tower_counts(base, layers):
    """Counts of `layers` stacked prisms over the base, less the top copy.

    The seam identifies the top copy of the base with the bottom one, so
    this is what the glued mapping torus must count.
    """
    tower = []
    for s in base.maximal_simplices():
        for level in range(layers):
            bottom = [v * (layers + 1) + level for v in s]
            top = [v * (layers + 1) + level + 1 for v in s]
            tower += [tuple(bottom[: i + 1] + top[i:]) for i in range(len(s))]
    counts = SimplicialComplex.build(
        tower, vertex_count=base.vertex_count * (layers + 1)
    ).counts()
    base_counts = base.counts() + (0,)
    return tuple(c - base_counts[r] for r, c in enumerate(counts))


def test_mapping_torus_counts_match_an_unglued_tower():
    rng = random.Random(31)
    gluings = []
    for _ in range(200):
        n = rng.randint(1, 7)
        maximal = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(0, 5))
        ]
        k = SimplicialComplex.build(maximal, vertex_count=n + rng.randint(0, 1))
        gluings.append((k, SimplicialMap(k, k, range(k.vertex_count)), (3, 4)))
    torus2, _ = load_complex(FIXTURES / "torus2.json")
    flip = json.loads((FIXTURES / "torus2_flip_map.json").read_text())
    gluings.append((torus2, SimplicialMap(torus2, torus2, flip), (3, 4, 5)))
    grid = torus_grid(3)
    for matrix in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, -1], [1, 0]]):
        gluings.append((grid, torus_grid_map(3, matrix), (3, 4, 5)))
    for base, phi, layer_counts in gluings:
        for layers in layer_counts:
            glued = mapping_torus(base, phi, layers).complex
            assert glued.counts() == _unglued_tower_counts(base, layers), (base, layers)


def test_mapping_torus_builds_one_complex_and_checks_its_counts(monkeypatch):
    c = circle(3)
    ident = SimplicialMap(c, c, [0, 1, 2])
    build = SimplicialComplex.build.__func__
    vertex_counts = []

    def counting(cls, maximal, vertex_count=None):
        vertex_counts.append(vertex_count)
        return build(cls, maximal, vertex_count)

    monkeypatch.setattr(SimplicialComplex, "build", classmethod(counting))
    mapping_torus(c, ident, layers=4)
    assert vertex_counts == [12]
    # a prism split that drops simplices must trip the count check
    monkeypatch.setattr(
        constructions, "_staircase_paths", lambda p, q: [[(i, 0) for i in range(p + 1)] + [(p, 1)]]
    )
    with pytest.raises(ConstructionError, match="seam gluing"):
        mapping_torus(c, ident, layers=4)


def test_torus_grid_map_accepts_finite_order_matrices():
    for m in (3, 4, 5):
        for mat in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]],
                    [[0, 1], [1, 0]], [[1, -1], [1, 0]]):
            phi = torus_grid_map(m, mat)
            assert phi.is_isomorphism()
        shifted = torus_grid_map(m, [[1, 0], [0, 1]], shift=(1, 2))
        assert shifted.is_isomorphism()


def test_torus_grid_map_rejects_infinite_order_matrices():
    # these generate infinite cyclic subgroups of GL2(Z), so no finite
    # complex can carry them as automorphisms; the triangle check agrees
    for m in (3, 4, 5):
        for mat in ([[2, 1], [1, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]):
            with pytest.raises(InvalidMapError):
                torus_grid_map(m, mat)
    with pytest.raises(ConstructionError):
        torus_grid(2)


def test_cyclic_cover_of_circle_is_hexagon():
    cover = cyclic_cover(circle(3), winding_theta(3), 2)
    k = cover.complex
    assert k.counts() == (6, 6)
    assert euler_characteristic(k) == 0
    assert set(k.edges) == {(0, 3), (1, 2), (2, 4), (3, 5), (0, 4), (1, 5)}
    assert holonomy(k, cover.theta_lift, [0, 3, 5, 1, 2, 4]) == 2
    # base dims embed componentwise; strict inequality at lambda = -1
    base = betti_profile(circle(3), winding_theta(3), Fraction(-1))
    lifted = betti_profile(k, cover.theta_lift, Fraction(-1))
    assert base.dims == (0, 0)
    assert lifted.dims == (1, 1)


def test_cyclic_cover_of_torus():
    k, theta = torus_theta(3)
    cover = cyclic_cover(k, theta, 3)
    assert cover.complex.counts() == (27, 81, 54)
    assert euler_characteristic(cover.complex) == 0
    assert betti_profile(cover.complex, cover.theta_lift, Fraction(1)).dims == (1, 2, 1)
    for lam in (Fraction(1), Fraction(-1), Fraction(2)):
        b = betti_profile(k, theta, lam).dims
        c = betti_profile(cover.complex, cover.theta_lift, lam).dims
        assert all(x <= y for x, y in zip(b, c))


def test_cyclic_cover_validation_and_deck():
    with pytest.raises(ConstructionError):
        cyclic_cover(circle(3), winding_theta(3), 0)
    float_theta = OneCocycle(
        {(0, 1): 1.0, (1, 2): 0.0, (0, 2): 0.0}, mode="float"
    )
    with pytest.raises(ConstructionError):
        cyclic_cover(circle(3), float_theta, 2)
    tri = SimplicialComplex.build([[0, 1, 2]])
    unclosed = OneCocycle({(0, 1): 1, (1, 2): 0, (0, 2): 0})
    with pytest.raises(ConstructionError):
        cyclic_cover(tri, unclosed, 2)
    cover = cyclic_cover(circle(3), winding_theta(3), 3)
    deck = cover.deck_map(1)
    assert deck.is_isomorphism()
    three = deck.compose(deck).compose(deck)
    assert three.vertex_map == tuple(range(cover.complex.vertex_count))
    v = cover.vertex_id(2, 1)
    assert cover.project_vertex(v) == 2
    assert cover.sheet_of(v) == 1


def test_sheets_one_cover_is_base():
    k, theta = torus_theta(3)
    cover = cyclic_cover(k, theta, 1)
    assert cover.complex.counts() == k.counts()
    assert isinstance(cover, CoveringData)


def test_every_cocycle_is_keyed_by_its_complex_edge_tuples():
    torus3, theta = load_complex(FIXTURES / "torus3.json")
    circle3, gamma = load_complex(FIXTURES / "circle3.json")
    torus2, _ = load_complex(FIXTURES / "torus2.json")
    flip = json.loads((FIXTURES / "torus2_flip_map.json").read_text(encoding="utf-8"))
    cover = cyclic_cover(torus3, theta, 3)
    pc = product(torus3, circle3)
    mt = mapping_torus(torus2, SimplicialMap(torus2, torus2, flip), 3)
    cases = [
        (torus3, theta),  # complex_from_json
        (cover.complex, cover.theta_lift),
        (pc.complex, pc.combine_cocycles(theta, gamma)),
        (mt.complex, mt.fiber_cocycle),
    ]
    rng = random.Random(26)
    for k, built in cases:
        f = ZeroCochain({v: rng.randint(-4, 4) for v in range(k.vertex_count)})
        for cocycle in (built, gauge_transform(built, f), coboundary_of(f, k), zero_cocycle(k)):
            assert len(cocycle.values) == len(k.edges)
            assert all(key is e for key, e in zip(sorted(cocycle.values), k.edges)), k


def face_closure_cover(base, theta, sheets):
    """The declared cross-check of ``cyclic_cover``: the face closure of the
    lifted maximal simplices, and the lift of theta read edge by edge."""
    maximal = set()
    for s in base.maximal_simplices():
        offsets = [theta.value(s[0], v) if v != s[0] else 0 for v in s]
        for r in range(sheets):
            maximal.add(tuple(sorted(v * sheets + (r + o) % sheets for v, o in zip(s, offsets))))
    cover = SimplicialComplex.build(sorted(maximal), vertex_count=base.vertex_count * sheets)
    lift = {e: theta.value(e[0] // sheets, e[1] // sheets) for e in cover.edges}
    return cover, lift


def test_cyclic_cover_lifts_each_level_as_face_closure_would():
    inputs = {f: load_complex(FIXTURES / f"{f}.json") for f in ("circle3", "torus2", "torus3")}
    torus3, theta = inputs["torus3"]
    rng = random.Random(28)
    f = ZeroCochain({v: rng.randint(-4, 4) for v in range(torus3.vertex_count)})
    inputs["gauged torus3"] = (torus3, gauge_transform(theta, f))
    pc = product(torus3, inputs["circle3"][0])
    inputs["torus3 x circle3"] = (pc.complex, pc.combine_cocycles(theta, inputs["circle3"][1]))
    torus2 = inputs["torus2"][0]
    flip = json.loads((FIXTURES / "torus2_flip_map.json").read_text(encoding="utf-8"))
    mt = mapping_torus(torus2, SimplicialMap(torus2, torus2, flip), 3)
    inputs["flip mapping torus"] = (mt.complex, mt.fiber_cocycle)
    for name, (base, cocycle) in inputs.items():
        for sheets in range(1, 6):
            cover = cyclic_cover(base, cocycle, sheets)
            k, lift = cover.complex, cover.theta_lift
            ref, ref_lift = face_closure_cover(base, cocycle, sheets)
            assert k.vertex_count == ref.vertex_count, (name, sheets)
            assert k.simplices == ref.simplices, (name, sheets)  # in the same order
            assert hash(k) == hash(ref) and k == ref
            assert complex_to_json(k, lift) == complex_to_json(ref, OneCocycle(ref_lift))
            assert lift.values == ref_lift
            assert all(key is e for key, e in zip(lift.values, k.edges)), (name, sheets)


def test_face_closure_and_covers_peak_at_most_half_again_what_they_hold():
    # a built level used to sit next to its face set and its sorted list, and
    # each maximal simplex was copied twice: the product peaked at 2.0 times
    # what it holds and its 3-sheet cover, closed from lifted maximal
    # simplices, at 2.1 times
    torus3, theta = load_complex(FIXTURES / "torus3.json")
    circle3, gamma = load_complex(FIXTURES / "circle3.json")

    def footprint(build):
        gc.collect()
        tracemalloc.start()
        try:
            held = build()
            gc.collect()  # empties the free lists, whose blocks would count as held
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, size, peak

    pc, size, peak = footprint(lambda: product(torus3, circle3))
    assert peak <= 1.5 * size, (size, peak)
    lift = pc.combine_cocycles(theta, gamma)
    cover, size, peak = footprint(lambda: cyclic_cover(pc.complex, lift, 3))
    assert cover.complex.counts() == (243, 3645, 12150, 14580, 5832)
    assert peak <= 1.5 * size, (size, peak)
