import random

import pytest

from novikov.complexes import SimplicialComplex, circle, sphere_boundary
from novikov.constructions import product, torus_grid
from novikov.cocycles import (
    OneCocycle,
    ZeroCochain,
    coboundary_of,
    gauge_transform,
    holonomy,
    is_exact,
    validate_closed,
    zero_cocycle,
)
from novikov.errors import IncompleteCocycleError, InvalidLoopError


def circle3_theta():
    # holonomy 1 around the circle: all of it on edge (0,1)
    return OneCocycle({(0, 1): 1, (1, 2): 0, (0, 2): 0})


def test_cocycle_value_orientation():
    t = circle3_theta()
    assert t.value(0, 1) == 1
    assert t.value(1, 0) == -1
    with pytest.raises(IncompleteCocycleError):
        t.value(0, 5)
    with pytest.raises(InvalidLoopError):
        t.value(2, 2)


def test_mode_validation():
    with pytest.raises(ValueError):
        OneCocycle({(0, 1): 0.5}, mode="exact")
    with pytest.raises(ValueError):
        OneCocycle({(1, 0): 1})
    with pytest.raises(ValueError):
        OneCocycle({(0, 1): float("inf")}, mode="float")
    f = OneCocycle({(0, 1): 0.5}, mode="float")
    assert f.value(1, 0) == -0.5
    # a float value is a real number in the float range, and the mode is
    # checked before any value
    for bad in (True, "1.5", 10**400, None):
        with pytest.raises(ValueError):
            OneCocycle({(0, 1): bad}, mode="float")
        with pytest.raises(ValueError):
            ZeroCochain({0: bad}, mode="float")
    for build in (OneCocycle, ZeroCochain):
        with pytest.raises(ValueError, match="unknown cocycle mode"):
            build({}, mode="weird")
    # JSON true would read as vertex 1
    with pytest.raises(ValueError):
        OneCocycle({(False, True): 1})
    with pytest.raises(ValueError):
        OneCocycle({(0, True): 1})
    with pytest.raises(ValueError):
        ZeroCochain({True: 1})


def test_validate_closed_exact_and_missing():
    k = SimplicialComplex.build([[0, 1, 2]])
    good = OneCocycle({(0, 1): 2, (1, 2): 3, (0, 2): 5})
    bad = OneCocycle({(0, 1): 2, (1, 2): 3, (0, 2): 4})
    assert validate_closed(k, good)
    assert not validate_closed(k, bad)
    with pytest.raises(IncompleteCocycleError):
        validate_closed(k, OneCocycle({(0, 1): 2}))


def test_validate_closed_float_tolerance():
    k = SimplicialComplex.build([[0, 1, 2]])
    t = OneCocycle({(0, 1): 0.25, (1, 2): 0.5, (0, 2): 0.75 + 1e-15}, mode="float")
    assert validate_closed(k, t)
    t2 = OneCocycle({(0, 1): 0.25, (1, 2): 0.5, (0, 2): 0.80}, mode="float")
    assert not validate_closed(k, t2)
    # the coboundary of a large potential closes up to the rounding of each
    # triangle sum, which exceeds CLOSEDNESS_TOLERANCE here
    grid = torus_grid(3)
    for seed in range(20):
        rng = random.Random(seed)
        f = {v: rng.uniform(-1e4, 1e4) for v in range(grid.vertex_count)}
        assert validate_closed(grid, coboundary_of(ZeroCochain(f, mode="float"), grid))
    # a residual of 1e-9 at the 1e4 scale is not rounding
    t3 = OneCocycle({(0, 1): 1e4, (1, 2): 1e4, (0, 2): 2e4 + 1e-9}, mode="float")
    assert not validate_closed(k, t3)


def test_holonomy_examples():
    k = circle(3)
    t = circle3_theta()
    # 1 + 0 - 0, edge (0,2) traversed against its orientation
    assert holonomy(k, t, [0, 1, 2]) == 1
    assert holonomy(k, t, [0, 1, 2, 0]) == 1
    assert holonomy(k, t, [2, 1, 0]) == -1
    assert holonomy(k, t, [0]) == 0
    assert holonomy(k, t, [0, 0]) == 0
    with pytest.raises(InvalidLoopError):
        holonomy(k, t, [])
    with pytest.raises(InvalidLoopError):
        holonomy(circle(4), zero_cocycle(circle(4)), [0, 2])


def test_gauge_transform_direct_evaluation():
    k = circle(3)
    t = circle3_theta()
    f = ZeroCochain({0: 0, 1: 1, 2: 0})
    t2 = gauge_transform(t, f)
    # theta + delta f evaluated edge by edge
    assert t2.values == {(0, 1): 2, (1, 2): -1, (0, 2): 0}
    assert holonomy(k, t2, [0, 1, 2]) == holonomy(k, t, [0, 1, 2])
    with pytest.raises(ValueError):
        gauge_transform(t, ZeroCochain({0: 0.5}, mode="float"))


def test_gauge_preserves_holonomy_random():
    rng = random.Random(3)
    k = sphere_boundary(2)
    for _ in range(20):
        theta = OneCocycle(
            {e: rng.randint(-4, 4) for e in k.edges}
        )
        f = ZeroCochain({v: rng.randint(-5, 5) for v in range(k.vertex_count)})
        t2 = gauge_transform(theta, f)
        loop = [0, 1, 2, 3, 1]  # arbitrary closed walk on the sphere skeleton
        assert holonomy(k, t2, loop) == holonomy(k, theta, loop)


def test_coboundary_is_exact_and_closed():
    k = sphere_boundary(2)
    f = ZeroCochain({v: v * v for v in range(k.vertex_count)})
    t = coboundary_of(f, k)
    assert validate_closed(k, t)
    g = is_exact(k, t)
    assert g is not None
    assert g.value(0) == 0  # pinned at the least vertex
    assert coboundary_of(g, k) == t


def test_is_exact_detects_holonomy():
    k = circle(3)
    assert is_exact(k, circle3_theta()) is None
    assert is_exact(k, zero_cocycle(k)) is not None


def test_is_exact_matches_cycle_holonomies_random():
    # exactness iff every fundamental cycle of a spanning forest has zero
    # holonomy; brute-check on small random complexes
    rng = random.Random(41)
    for _ in range(15):
        maximal = [
            tuple(rng.sample(range(6), rng.randint(2, 3))) for _ in range(5)
        ]
        k = SimplicialComplex.build(maximal, vertex_count=6)
        if k.dim < 1:
            continue
        theta = OneCocycle({e: rng.randint(-2, 2) for e in k.edges})

        parent = {}
        for root in range(k.vertex_count):
            if root in parent:
                continue
            parent[root] = None
            stack = [root]
            while stack:
                u = stack.pop()
                for (a, b) in k.edges:
                    if u in (a, b):
                        w = b if a == u else a
                        if w not in parent:
                            parent[w] = u
                            stack.append(w)

        def to_root(v):
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path

        flat = True
        for (u, v) in k.edges:
            pu, pv = to_root(u), to_root(v)
            if pu[-1] != pv[-1]:
                continue  # different components, no cycle through this edge
            # walk u -> root -> v; the implicit closing step uses edge (v, u)
            if holonomy(k, theta, pu + pv[::-1]) != 0:
                flat = False
                break
        g = is_exact(k, theta)
        assert (g is not None) == flat
        # the same integers as floats: the same verdict and potential
        g_float = is_exact(
            k, OneCocycle({e: float(x) for e, x in theta.values.items()}, mode="float")
        )
        assert (g_float is not None) == flat
        if g is not None:
            assert g_float.values == {v: float(x) for v, x in g.values.items()}


def test_is_exact_float_mode():
    k = circle(4)
    f = ZeroCochain({v: 0.25 * v for v in range(4)}, mode="float")
    t = coboundary_of(f, k)
    g = is_exact(k, t)
    assert g is not None and g.mode == "float"
    assert abs(g.value(3) - (f.value(3) - f.value(0))) < 1e-9
    t_hol = OneCocycle(
        {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): -1.0}, mode="float"
    )
    assert is_exact(k, t_hol) is None


def _spread_holonomy(m, hol):
    # hol spread evenly over the m steps 0 -> 1 -> ... -> m-1 -> 0
    step = hol / m
    values = {(i, i + 1): step for i in range(m - 1)}
    values[(0, m - 1)] = -step
    return OneCocycle(values, mode="float")


@pytest.mark.parametrize(
    "m, hol, exact",
    [(1000, 5e-8, False), (10, 2e-9, False), (1000, 5e-10, True), (10, 5e-10, True)],
)
def test_is_exact_float_bounds_each_holonomy(m, hol, exact):
    # the verdict reads the holonomy of the loop, not a residual spread over
    # its edges, so a finer triangulation does not hide it
    assert (is_exact(circle(m), _spread_holonomy(m, hol)) is not None) == exact


@pytest.mark.parametrize(
    "k",
    [torus_grid(3), product(torus_grid(3), circle(3)).complex],
    ids=["torus3", "torus3xcircle3"],
)
def test_is_exact_float_recovers_seeded_potential(k):
    rng = random.Random(7)
    for _ in range(5):
        f = ZeroCochain(
            {v: rng.uniform(-30, 30) for v in range(k.vertex_count)}, mode="float"
        )
        g = is_exact(k, coboundary_of(f, k))
        assert g is not None
        for v in range(k.vertex_count):
            assert abs(g.value(v) - (f.value(v) - f.value(0))) <= 1e-12
