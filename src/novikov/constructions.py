"""Complexes built from other complexes: products, mapping tori, covers.

All three constructions here follow the staircase (ordered-chain) pattern:
a simplex of the result is a monotone chain of vertex pairs whose
projections are simplices of the inputs.  That convention is what makes
cocycles transport cleanly, since every edge of the result projects to an
edge or a vertex of each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .complexes import SimplicialComplex, _natural
from .cocycles import OneCocycle, validate_closed
from .errors import ConstructionError, InvalidMapError

__all__ = [
    "SimplicialMap",
    "ProductComplex",
    "product",
    "MappingTorus",
    "mapping_torus",
    "CoveringData",
    "cyclic_cover",
    "torus_grid",
    "torus_grid_map",
]


@dataclass(frozen=True, slots=True, eq=False)
class SimplicialMap:
    """Vertex map between complexes that sends simplices to simplices.

    Collapses are allowed (several vertices may share an image) as long as
    the image vertex set of every simplex is again a simplex of the target.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: tuple

    def __post_init__(self):
        source, target, vm = self.source, self.target, self.vertex_map
        if isinstance(vm, dict):
            vm = [vm.get(v) for v in range(source.vertex_count)]
        vm = tuple(vm)
        if len(vm) != source.vertex_count:
            raise InvalidMapError(
                f"vertex map covers {len(vm)} vertices, complex has "
                f"{source.vertex_count}"
            )
        for v, w in enumerate(vm):
            if not (_natural(w) and w < target.vertex_count):
                raise InvalidMapError(f"vertex {v} maps to invalid vertex {w!r}")
        object.__setattr__(self, "vertex_map", vm)
        for s in source.maximal_simplices():
            img = self.image_simplex(s)
            if not target.has_simplex(img):
                raise InvalidMapError(
                    f"image {img} of simplex {s} is not a simplex of the target"
                )

    def image_vertex(self, v: int) -> int:
        return self.vertex_map[v]

    def image_simplex(self, simplex):
        """Sorted image vertex tuple; shorter than the input if it collapses."""
        return tuple(sorted(set(self.vertex_map[v] for v in simplex)))

    def is_isomorphism(self) -> bool:
        return (
            self.source.vertex_count == self.target.vertex_count
            and len(set(self.vertex_map)) == self.source.vertex_count
            and self.source.counts() == self.target.counts()
        )

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target != self.source:
            raise InvalidMapError("composition needs matching complexes")
        return SimplicialMap(
            other.source,
            self.target,
            [self.vertex_map[w] for w in other.vertex_map],
        )

    def __repr__(self):
        return f"SimplicialMap({self.source.vertex_count} vertices)"


def _staircase_paths(p: int, q: int):
    """Unit-step lattice paths (0,0) -> (p,q), each a maximal chain."""
    paths = []

    def walk(i, j, acc):
        acc = acc + [(i, j)]
        if i == p and j == q:
            paths.append(acc)
            return
        if i < p:
            walk(i + 1, j, acc)
        if j < q:
            walk(i, j + 1, acc)

    walk(0, 0, [])
    return paths


@dataclass(frozen=True, slots=True, eq=False)
class ProductComplex:
    """Staircase triangulation of a product, with the pair indexing."""

    left: SimplicialComplex
    right: SimplicialComplex
    complex: SimplicialComplex

    def pair(self, v: int) -> tuple[int, int]:
        return divmod(v, self.right.vertex_count)

    def combine_cocycles(self, theta: OneCocycle, gamma: OneCocycle) -> OneCocycle:
        """theta on the left factor plus gamma on the right, edge by edge.

        Every product edge projects to an edge or vertex of each factor, so
        the sum is well defined; it is closed whenever both inputs are.
        """
        mode = "float" if "float" in (theta.mode, gamma.mode) else "exact"
        fill = 0 if mode == "exact" else 0.0
        values = {}
        for e in self.complex.edges:
            a, b = self.pair(e[0])
            a2, b2 = self.pair(e[1])
            val = fill
            if a != a2:
                val = val + theta.value(a, a2)
            if b != b2:
                val = val + gamma.value(b, b2)
            values[e] = val
        return OneCocycle(values, mode=mode)


def product(left: SimplicialComplex, right: SimplicialComplex) -> ProductComplex:
    """Staircase product triangulating |left| x |right|."""
    n_r = right.vertex_count
    maximal = set()
    for s in left.maximal_simplices():
        for t in right.maximal_simplices():
            for path in _staircase_paths(len(s) - 1, len(t) - 1):
                maximal.add(tuple(s[i] * n_r + t[j] for i, j in path))
    k = SimplicialComplex.build(sorted(maximal), vertex_count=left.vertex_count * n_r)
    return ProductComplex(left, right, k)


@dataclass(frozen=True, slots=True, eq=False)
class MappingTorus:
    """Prism tower over a complex, glued top to bottom through a map."""

    base: SimplicialComplex
    map: SimplicialMap
    layers: int
    complex: SimplicialComplex
    fiber_cocycle: OneCocycle

    @property
    def holonomy_period(self) -> int:
        return self.layers


def mapping_torus(base: SimplicialComplex, phi: SimplicialMap, layers: int = 3) -> MappingTorus:
    """Mapping torus of a simplicial automorphism.

    The base is extruded through `layers` prism levels and the top copy is
    identified with the bottom one through phi.  At least three levels are
    required: with two, a prism over the seam would share its layer pair
    {0, 1} with an interior prism and distinct simplices would collide.
    """
    if not isinstance(phi, SimplicialMap) or phi.source != base or phi.target != base:
        raise ConstructionError("phi must be a self-map of the base complex")
    if not phi.is_isomorphism():
        raise ConstructionError("mapping torus needs a simplicial isomorphism")
    if layers < 3:
        raise ConstructionError("need at least 3 layers to avoid identifications")

    def vid(v, r):
        return v * layers + r

    maximal = []
    for s in base.maximal_simplices():
        for level in range(layers):
            bottom = [vid(v, level) for v in s]
            if level + 1 < layers:
                top = [vid(v, level + 1) for v in s]
            else:
                top = [vid(phi.image_vertex(v), 0) for v in s]
            # the staircase of s x [0, 1]: (i, 0) is bottom[i], (i, 1) top[i]
            levels = (bottom, top)
            for path in _staircase_paths(len(s) - 1, 1):
                maximal.append(tuple(sorted(levels[j][i] for i, j in path)))
    glued = SimplicialComplex.build(maximal, vertex_count=base.vertex_count * layers)
    # each layer adds a copy of the base plus, in dimension r, r staircase
    # simplices over every r-simplex of the base (one per step position)
    # and r over every (r-1)-simplex (one per vertex taken on both levels)
    f = base.counts() + (0,)
    expect = tuple(
        layers * ((r + 1) * f[r] + r * f[r - 1]) for r in range(len(glued.counts()))
    )
    if glued.counts() != expect:
        raise ConstructionError(
            f"seam gluing produced {glued.counts()}, expected {expect}"
        )

    values = {}
    for e in glued.edges:
        ru, rv = e[0] % layers, e[1] % layers
        if ru == rv:
            step = 0
        elif rv == ru + 1 or (ru, rv) == (layers - 1, 0):
            step = 1
        elif ru == rv + 1 or (ru, rv) == (0, layers - 1):
            step = -1
        else:  # non-adjacent layers cannot share an edge
            raise ConstructionError(f"edge {e} spans layers {(ru, rv)}")
        values[e] = step
    fiber = OneCocycle(values)
    if not validate_closed(glued, fiber):
        raise ConstructionError("fiber cocycle failed to close")
    return MappingTorus(base, phi, layers, glued, fiber)


@dataclass(frozen=True, slots=True, eq=False)
class CoveringData:
    """Cyclic cover of a complex, classified by a cocycle mod sheets."""

    base: SimplicialComplex
    sheets: int
    complex: SimplicialComplex
    theta_lift: OneCocycle
    base_theta: OneCocycle

    def vertex_id(self, v: int, sheet: int) -> int:
        return v * self.sheets + sheet % self.sheets

    def project_vertex(self, vertex: int) -> int:
        return vertex // self.sheets

    def sheet_of(self, vertex: int) -> int:
        return vertex % self.sheets

    def deck_map(self, shift: int = 1) -> SimplicialMap:
        """Deck transformation advancing every sheet index by shift."""
        vm = [
            self.vertex_id(self.project_vertex(w), self.sheet_of(w) + shift)
            for w in range(self.complex.vertex_count)
        ]
        return SimplicialMap(self.complex, self.complex, vm)


def cyclic_cover(base: SimplicialComplex, theta: OneCocycle, sheets: int) -> CoveringData:
    """Connected-or-not cyclic cover determined by theta reduced mod sheets.

    Every level of the base is lifted directly: a simplex (v0 < ... < vp)
    lifts, for each sheet r of its leading vertex, to the simplex whose
    vertex vj sits on sheet r + theta(v0, vj), read as
    ``theta.values[(v0, vj)]`` since v0 < vj.  Closedness of theta makes
    the lift independent of the choice of leading vertex, so each face of a
    lifted simplex is the lift of a face and every lifted level is
    face-closed; no face closure runs.  Vertex vj on sheet x is
    vj * sheets + x, so a lift is increasing, and grouping a sorted level
    by v0, then by r, keeps each lifted level sorted.  An edge of the cover
    carries the value of the base edge it lifts, keyed by the cover's own
    edge tuple.
    """
    if sheets < 1:
        raise ConstructionError("sheets must be a positive integer")
    if theta.mode != "exact":
        raise ConstructionError("covers need an integer cocycle")
    if not validate_closed(base, theta):
        raise ConstructionError("cocycle is not closed on the base")
    values = theta.values
    levels = []
    for level in base.simplices:
        lifted = []
        for v0, group in groupby(level, itemgetter(0)):
            rests = [[(v * sheets, values[v0, v]) for v in s[1:]] for s in group]
            for r in range(sheets):
                head = (v0 * sheets + r,)
                for rest in rests:
                    lifted.append(head + tuple([w + (r + x) % sheets for w, x in rest]))
        levels.append(lifted)
    cover = SimplicialComplex(base.vertex_count * sheets, levels)
    expect = tuple(c * sheets for c in base.counts())
    if cover.counts() != expect:
        raise ConstructionError(
            f"lift produced counts {cover.counts()}, expected {expect}"
        )
    lift = OneCocycle({e: values[e[0] // sheets, e[1] // sheets] for e in cover.edges})
    return CoveringData(base, sheets, cover, lift, theta)


def torus_grid(m: int) -> SimplicialComplex:
    """m x m staircase torus: every grid square carries the same diagonal.

    Vertex (i, j) has index i*m + j; squares split along the diagonal from
    (i, j) to (i+1, j+1).  m >= 3 keeps the identifications simplicial.
    """
    if m < 3:
        raise ConstructionError("torus grid needs m >= 3")
    tris = []
    for i in range(m):
        for j in range(m):
            a = i * m + j
            b = ((i + 1) % m) * m + j
            c = ((i + 1) % m) * m + (j + 1) % m
            d = i * m + (j + 1) % m
            tris.append(tuple(sorted((a, b, c))))
            tris.append(tuple(sorted((a, d, c))))
    return SimplicialComplex.build(sorted(set(tris)), vertex_count=m * m)


def torus_grid_map(m: int, matrix, shift=(0, 0)) -> SimplicialMap:
    """Affine self-map (i, j) -> A(i, j) + shift of the staircase torus.

    Only integer matrices that send the three staircase edge directions
    (1,0), (0,1), (1,1) to staircase directions mod m give simplicial maps;
    everything else is rejected by the triangle check in SimplicialMap.
    The hyperbolic and shear matrices of torus-bundle fame fail this for
    every m, because they have infinite order while every simplicial
    automorphism of a fixed finite complex has finite order.
    """
    k = torus_grid(m)
    (a, b), (c, d) = matrix
    si, sj = shift
    vm = []
    for v in range(m * m):
        i, j = divmod(v, m)
        vm.append(((a * i + b * j + si) % m) * m + (c * i + d * j + sj) % m)
    return SimplicialMap(k, k, vm)
