"""Closed 1-cochains (cocycles) and 0-cochains on a simplicial complex.

A OneCocycle stores one value per increasing edge (u, v), u < v, keyed by
the edge tuple it is given (every builder here passes the complex's own),
so no edge is stored twice; reading the reversed edge negates the value.
Exact mode keeps integer values so that monodromy weights lambda**theta(e)
stay inside the scalar field; float mode allows real values.  Closedness
means the signed sum over every triangle vanishes: exactly in exact mode,
and in float mode to within CLOSEDNESS_TOLERANCE or the rounding of the
triangle sum, whichever is larger.  Exactness is one spanning-forest walk
in both modes: it means every fundamental-cycle holonomy vanishes, exactly
in exact mode and to within EXACTNESS_RESIDUAL (relative to max |theta|)
in float mode.  The module is pure combinatorics; it builds no matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .complexes import SimplicialComplex, _natural
from .errors import IncompleteCocycleError, InvalidLoopError

__all__ = [
    "OneCocycle",
    "ZeroCochain",
    "validate_closed",
    "holonomy",
    "is_exact",
    "gauge_transform",
    "coboundary_of",
    "zero_cocycle",
    "CLOSEDNESS_TOLERANCE",
    "EXACTNESS_RESIDUAL",
]

CLOSEDNESS_TOLERANCE = 1e-12
EXACTNESS_RESIDUAL = 1e-9
# four units of rounding per unit of |x| + |y| + |z| in a float triangle sum
_ROUNDING = 4 * sys.float_info.epsilon


def _check_mode_value(value, mode):
    if mode == "exact":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                "exact cocycles take integer edge values, got "
                f"{value!r} ({type(value).__name__})"
            )
        return value
    if mode == "float":
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("non-finite cocycle value")
        return v
    raise ValueError(f"unknown cocycle mode {mode!r}")


@dataclass(frozen=True, slots=True)
class OneCocycle:
    """Integer or real valued 1-cochain indexed by increasing edges."""

    values: dict
    mode: str = "exact"

    def __post_init__(self):
        cleaned = {}
        for key, val in dict(self.values).items():
            u, v = key
            if not (_natural(u) and _natural(v) and u < v):
                raise ValueError(
                    f"edge keys must be increasing pairs of ints >= 0, got {(u, v)}"
                )
            key = key if type(key) is tuple else (u, v)  # a complex's edge is kept
            cleaned[key] = _check_mode_value(val, self.mode)
        object.__setattr__(self, "values", cleaned)

    def value(self, u: int, v: int):
        """Signed value on the oriented edge u -> v."""
        if u == v:
            raise InvalidLoopError("degenerate edge (u, u)")
        key = (u, v) if u < v else (v, u)
        try:
            raw = self.values[key]
        except KeyError:
            raise IncompleteCocycleError(f"no cocycle value on edge {key}") from None
        return raw if u < v else -raw

    def __repr__(self):
        return f"OneCocycle({len(self.values)} edges, mode={self.mode})"


@dataclass(frozen=True, slots=True, eq=False)
class ZeroCochain:
    """Vertex-indexed potential, the f in theta + delta f."""

    values: dict
    mode: str = "exact"

    def __post_init__(self):
        cleaned = {}
        for v, val in dict(self.values).items():
            if not _natural(v):
                raise ValueError(f"vertex keys must be ints >= 0, got {v!r}")
            cleaned[v] = _check_mode_value(val, self.mode)
        object.__setattr__(self, "values", cleaned)

    def value(self, v: int):
        return self.values.get(v, 0 if self.mode == "exact" else 0.0)

    def __repr__(self):
        return f"ZeroCochain({len(self.values)} vertices, mode={self.mode})"


def zero_cocycle(k: SimplicialComplex) -> OneCocycle:
    return OneCocycle({e: 0 for e in k.edges})


def _require_cover(k: SimplicialComplex, theta: OneCocycle):
    missing = [e for e in k.edges if e not in theta.values]
    if missing:
        raise IncompleteCocycleError(
            f"cocycle misses {len(missing)} edges, first {missing[:3]}"
        )


def validate_closed(k: SimplicialComplex, theta: OneCocycle) -> bool:
    """True when the signed sum over every 2-simplex vanishes.

    Exact mode demands exact zero.  Float mode allows a triangle residual
    up to max(CLOSEDNESS_TOLERANCE, 4 eps (|x| + |y| + |z|)) for its edge
    values x, y, z: the rounding of the triangle sum itself, so that the
    coboundary of a large float potential is closed.
    Raises IncompleteCocycleError when edge values are missing.
    """
    _require_cover(k, theta)
    if k.dim < 2:
        return True
    # triangles are sorted, so their three edges are stored keys
    values = theta.values
    if theta.mode == "exact":
        for (a, b, c) in k.simplices[2]:
            if values[a, b] + values[b, c] - values[a, c]:
                return False
        return True
    for (a, b, c) in k.simplices[2]:
        x, y, z = values[a, b], values[b, c], values[a, c]
        bound = max(CLOSEDNESS_TOLERANCE, _ROUNDING * (abs(x) + abs(y) + abs(z)))
        if abs(x + y - z) > bound:
            return False
    return True


def holonomy(k: SimplicialComplex, theta: OneCocycle, loop):
    """Signed edge sum along a cyclic vertex sequence.

    The loop is cyclic: the closing step from the last vertex back to the
    first is implicit when they differ.  Repeated consecutive vertices
    contribute nothing; any other step must be an edge of the complex.
    """
    seq = list(loop)
    if not seq:
        raise InvalidLoopError("empty loop")
    total = 0 if theta.mode == "exact" else 0.0
    steps = list(zip(seq, seq[1:] + seq[:1]))
    for u, v in steps:
        if u == v:
            continue
        if not k.has_simplex((min(u, v), max(u, v))):
            raise InvalidLoopError(f"loop step {(u, v)} is not an edge")
        total += theta.value(u, v)
    return total


def _forest(k: SimplicialComplex, theta: OneCocycle):
    """The one spanning-forest walk of (k, theta): ``(f, root, tree)``.

    Each component is entered at its least vertex, its root, where f is
    pinned to 0, and walked depth first from a stack; a vertex is reached
    along its tree edge (u, v), which sets f(v) = f(u) + theta(u, v).
    ``root`` maps every vertex to its root and ``tree`` holds the positions
    of the tree edges in ``k.edges``.  Every edge must carry a value.
    """
    edges, values = k.edges, theta.values
    adj = [[] for _ in range(k.vertex_count)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    zero = 0 if theta.mode == "exact" else 0.0
    f, root, tree = {}, [None] * k.vertex_count, set()
    for r in range(k.vertex_count):
        if root[r] is not None:
            continue
        f[r], root[r] = zero, r
        stack = [r]
        while stack:
            u = stack.pop()
            for v, i in adj[u]:
                if root[v] is None:
                    x = values[edges[i]]
                    f[v] = f[u] + (x if u < v else -x)
                    root[v] = r
                    tree.add(i)
                    stack.append(v)
    return f, root, tree


def is_exact(k: SimplicialComplex, theta: OneCocycle):
    """A potential f with delta f = theta, or None.

    One walk in both modes, ``_forest``, which ``twisted.reduce`` reads
    too: f is pinned to 0 at the least vertex of each connected component
    and read off along a spanning forest, then every edge is checked.  On
    a non-tree edge the residual f(v) - f(u) - theta(u, v) is the holonomy
    of its fundamental cycle, so theta is accepted when every such holonomy
    vanishes: exactly in exact mode, to within
    EXACTNESS_RESIDUAL * max(1, max |theta|) in float mode, however finely
    a loop is triangulated.
    """
    _require_cover(k, theta)
    f, _, _ = _forest(k, theta)
    values = theta.values
    bound = 0 if theta.mode == "exact" else EXACTNESS_RESIDUAL * max(
        [1.0] + [abs(values[e]) for e in k.edges]
    )
    for e in k.edges:
        if abs(f[e[1]] - f[e[0]] - values[e]) > bound:
            return None
    return ZeroCochain(f, mode=theta.mode)


def coboundary_of(f: ZeroCochain, k: SimplicialComplex) -> OneCocycle:
    """delta f as a OneCocycle on the edges of k."""
    vals = {e: f.value(e[1]) - f.value(e[0]) for e in k.edges}
    return OneCocycle(vals, mode=f.mode)


def gauge_transform(theta: OneCocycle, f: ZeroCochain) -> OneCocycle:
    """theta + delta f, keyed by theta's own edge tuples.

    Modes must match; the result stays closed and keeps every loop
    holonomy because delta f contributes a telescoping sum.
    """
    if theta.mode != f.mode:
        raise ValueError(f"mode mismatch: cocycle {theta.mode}, potential {f.mode}")
    vals = {e: val + f.value(e[1]) - f.value(e[0]) for e, val in theta.values.items()}
    return OneCocycle(vals, mode=theta.mode)
