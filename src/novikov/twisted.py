"""Cohomology of rank-one local systems twisted by a closed 1-cocycle.

Given a closed integer (or real) cocycle theta and a nonzero monodromy
parameter lambda, each oriented edge u -> v carries the weight
lambda**theta(u, v).  The twisted coboundary transports the omitted leading
vertex along its first edge:

    (delta f)(v0..v_{p+1}) = w(v0, v1) f(v1..v_{p+1})
                             + sum_{i>=1} (-1)^i f(v0..^v_i..v_{p+1})

Closedness of theta gives w(v0,v1) w(v1,v2) = w(v0,v2) on every triangle,
which is exactly what makes delta delta = 0.  At lambda = 1 this is the
ordinary simplicial coboundary (the transpose of the boundary matrix).

Betti numbers do not need the full complex.  With t standing for lambda,
every nonzero coboundary entry is t**theta(e) or +-1, a unit of the ring
Z[t, 1/t] of Laurent polynomials.  ``reduce`` checks that theta is closed
and eliminates pairs of cells on unit entries once, before any lambda is
chosen (Kaczynski-Mrozek-Slusarek, 1998; Forman, 1998; Skoldberg, 2006):
degree 0 along the spanning-forest walk that ``cocycles.is_exact`` reads
too, which leaves a row t**holonomy - 1 (up to a unit) per non-tree edge;
the top degree along a spanning forest of the dual graph, its transpose,
where every (d-1)-face of a closed d-manifold has two top cofaces; and each
degree between by ``_eliminate``, which pairs free rows first, with no
Schur update.  What is left is a residual complex, often of about the size
of its cohomology, with the same cohomology at every lambda != 0.  The
residual is a held value, and
``Reduction.profile`` evaluates it at any lambda, as often as asked:

    dims[p] = #residual C^p - rank delta_p - rank delta_{p-1}.

Every lambda takes one route: ``_shifts`` divides each residual row and
column by a monomial, ``_power`` evaluates what is left, and
``scalars._rank`` ranks it, exactly for rational / number field lambda and
through singular values for float lambda.  The reduction and its
evaluation are pure Python; every dense array is built in ``scalars`` or
``hodge``.  ``betti_profile`` is ``reduce`` plus one ``Reduction.profile``.
One face rule, ``_rows``, writes the coboundary entries of this module and
of Wang: over Z[t, 1/t] for ``reduce``, and at lambda for Wang and
``twisted_coboundary``, which read the full assembly ``_coboundary_rows``.
Hodge builds its scaled coboundaries as numpy arrays from a face table of
its own, and ``_coboundary_rows`` is the declared cross-check of those
arrays: the tests hold the two to the same bytes.
All functions are pure and safe to call from concurrent readers; results
depend only on their arguments.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from heapq import heappop, heappush

from .complexes import SimplicialComplex
from .cocycles import OneCocycle, _forest, validate_closed
from .errors import BackendMismatchError, NumericalError
from .scalars import Matrix, _arithmetic, _rank, scalar_literal

__all__ = [
    "twisted_coboundary",
    "Reduction",
    "reduce",
    "BettiProfile",
    "betti_profile",
    "kunneth_check",
]


def _monodromy(theta: OneCocycle, lam, backend=None, tolerance=None):
    """Lambda's half of a local system's check; returns ``_arithmetic``'s triple.

    Exact backends require integer theta so the weights lambda**theta(e)
    live in the scalar field; the float backend accepts real exponents
    through the principal power branch.
    """
    lam, backend, tol = _arithmetic(lam, backend=backend, tolerance=tolerance)
    if backend != "float" and theta.mode != "exact":
        raise BackendMismatchError(
            "exact lambda needs an integer cocycle; use float lambda "
            "for real-valued theta"
        )
    return lam, backend, tol


def _require_closed(k: SimplicialComplex, theta: OneCocycle) -> None:
    """Theta's half: closed on k (IncompleteCocycleError when an edge lacks a value)."""
    if not validate_closed(k, theta):
        raise ValueError("cocycle is not closed on this complex")


def _local_system(k, theta, lam, backend=None, tolerance=None):
    """The whole check of a local system: lambda's half, then theta's."""
    checked = _monodromy(theta, lam, backend, tolerance)
    _require_closed(k, theta)
    return checked


def _rows(k: SimplicialComplex, theta: OneCocycle, p: int, power, signs, dropped=()):
    """delta_p as sparse rows, one {column: entry} dict per (p+1)-simplex.

    This is the face rule of ``reduce``, Wang and ``twisted_coboundary``,
    and the declared cross-check of Hodge's array assembly.  Face 0 of tau
    carries power(theta(tau0, tau1)), the transport along the leading edge,
    which is increasing, so its value is the stored one; face i carries
    signs[i % 2], the sign (-1)**i.  Columns in ``dropped`` are left out.
    The complex stores no positions, so level p is mapped here, once;
    delta_dim has no rows and maps none.
    """
    if p < 0 or p > k.dim:
        raise ValueError(f"degree {p} out of range for dim {k.dim}")
    if p == k.dim:
        return []
    index = {s: i for i, s in enumerate(k.simplices[p])}
    values = theta.values
    rows = []
    for tau in k.simplices[p + 1]:
        row = {}
        c = index[tau[1:]]
        if c not in dropped:
            row[c] = power(values[tau[:2]])
        for i in range(1, len(tau)):
            c = index[tau[:i] + tau[i + 1 :]]
            if c not in dropped:
                row[c] = signs[i % 2]
        rows.append(row)
    return rows


def _weight(lam):
    """x -> lam**x, the transport weight at a lambda from ``_local_system``.

    Exact weights are Fraction or NumberFieldElement; float weights are
    complex, and one past the float range raises NumericalError.  CPython
    takes a negative integer power as 1 / z**-x, which is nan once z**-x
    overflows, so a non-finite power is taken again through ``_power``:
    one that only underflows comes back finite.
    """
    if not isinstance(lam, (float, complex)):
        return lambda x: lam ** x
    z = complex(lam)

    def weight(x):
        try:
            w = z ** complex(x)
            if not cmath.isfinite(w):
                w = _power(z, x)
            if cmath.isfinite(w):
                return w
        except (OverflowError, ZeroDivisionError):
            pass
        raise NumericalError(f"lambda**theta = {lam}**{x} leaves the float range")

    return weight


def _coboundary_rows(k: SimplicialComplex, theta: OneCocycle, lam, p: int):
    """delta_p at a lambda from ``_local_system``.

    Its entries are never a plain int, which would turn exact elimination
    into float arithmetic.
    """
    weight = _weight(lam)
    one = weight(0)
    # not -one, whose float form has a -0.0 imaginary part
    return _rows(k, theta, p, weight, (one, 0 - one))


def twisted_coboundary(
    k: SimplicialComplex, theta: OneCocycle, lam, p: int
) -> Matrix:
    """Matrix of delta_p : C^p -> C^{p+1} for the twisted complex.

    Rows are (p+1)-simplices, columns are p-simplices.  Degree dim gives
    the empty 0 x n_dim matrix; a degree below 0 or above dim raises
    ValueError.  The rank and Hodge pipelines read the sparse assembly
    directly; this densifies it.
    """
    lam, _, _ = _local_system(k, theta, lam)
    rows = _coboundary_rows(k, theta, lam, p)
    cols = k.n_simplices(p)
    # the field's own zero, shared by every empty cell
    ent = [0 * _weight(lam)(0)] * (len(rows) * cols)
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[r * cols + c] = v
    return Matrix(len(rows), cols, ent)


# Laurent polynomials in t = lambda are {exponent: integer coefficient} dicts.
# The sign entries are shared; elimination builds new dicts, never edits one.
_SIGNS = ({0: 1}, {0: -1})


@dataclass(frozen=True, slots=True)
class Reduction:
    """The twisted complex over Z[t, 1/t] after pair elimination on units.

    ``complex`` and ``theta`` are the inputs themselves, not copies.
    ``sizes[p]`` counts the residual p-cells.  ``deltas[p]`` is the residual
    delta_p as sparse rows, one {column: Laurent polynomial} dict per
    residual (p+1)-cell, with columns numbered among the residual p-cells.
    """

    complex: SimplicialComplex
    theta: OneCocycle
    sizes: tuple[int, ...]
    deltas: tuple[tuple[dict, ...], ...]

    def profile(self, lam, backend=None, tolerance=None) -> BettiProfile:
        """All twisted cohomology dimensions at lambda, ranked on the residual.

        Only lambda is checked here; ``reduce`` checked theta.  backend
        "float" forces numeric rank on an exact lambda; exact backends run
        tolerance-free.  Every lambda takes one route, ``_shifts``, ``_power``
        and ``scalars._rank``.  The ill_conditioned flag reports whether any
        singular value of a residual coboundary fell near the rank cut
        (float backend only).  The residual is read, never edited.
        """
        lam, backend, tol = _monodromy(self.theta, lam, backend, tolerance)
        z, pick = lam, min
        if backend == "float":
            weight = _weight(lam)
            for e in self.complex.edges:
                weight(self.theta.values[e])  # NumericalError once one leaves the float range
            z = complex(lam)
            pick = max if abs(z) >= 1 else min
        ranked = []
        for rows, n in zip(self.deltas, self.sizes):
            row_shifts, column_shifts = _shifts(rows, pick)
            values = []
            for row, shift in zip(rows, row_shifts):
                scaled = {}
                for c, ent in row.items():
                    s = shift + column_shifts[c]
                    scaled[c] = sum(y * _power(z, x - s) for x, y in ent.items())
                values.append(scaled)
            ranked.append(_rank(values, n, backend, tol, floor=1.0))
        ranks = [r for r, _ in ranked]
        dims = tuple(n - r - q for n, r, q in zip(self.sizes, ranks, [0] + ranks))
        euler = sum((-1) ** p * d for p, d in enumerate(dims))
        return BettiProfile(dims, euler, lam, backend, tol, any(ill for _, ill in ranked))


def _laurent_rows(k: SimplicialComplex, theta: OneCocycle, p: int, dropped):
    """delta_p over Z[t, 1/t] without the columns in ``dropped``."""
    return _rows(k, theta, p, lambda x: {x: 1}, _SIGNS, dropped)


def _eliminate(rows, ncols):
    """Pair elimination in place on the Laurent rows of one delta_p, 1 <= p <= dim - 2.

    A row is taken up as soon as it is free, with one live entry: when
    that entry is a unit +-t**e, no other entry of the row is live, so the
    pair needs no Schur update (coreduction; Mrozek-Batko, 2009).  When no
    row is free, the next row in order is taken up.  A row pivots on a unit
    entry whose column is shortest, and every other row of that column
    takes the Schur complement row -= (entry / pivot) * pivot row.  Pivot
    rows become None.  A pivot column is marked dead and stays in the rows
    that hold it, so a reader filters dead columns out, as ``reduce`` does
    once per residual.  Returns the pivots as (row, column, unit) and each
    row's count of live entries, what a row left unpaired keeps.
    """
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    live = [len(row) for row in rows]
    dead = bytearray(ncols)
    free = [r for r in range(len(rows) - 1, -1, -1) if live[r] == 1]  # lowest on top
    in_order = iter(range(len(rows)))
    pivots = []
    while True:
        r = free.pop() if free else next(in_order, None)
        if r is None:
            return pivots, live
        row = rows[r]
        if row is None:
            continue
        a = None
        for c, ent in row.items():
            if not dead[c] and len(ent) == 1 and (a is None or len(holders[c]) < len(holders[a])):
                ((_, y),) = ent.items()
                if y == 1 or y == -1:
                    a = c
        if a is None:
            continue
        unit = row[a]
        ((e, s),) = unit.items()
        pivots.append((r, a, unit))
        rows[r] = None
        dead[a] = 1
        # the other live entries divided by -unit; s is +-1, its own inverse
        rest = [
            (c, [(x - e, -y * s) for x, y in ent.items()], holders[c])
            for c, ent in row.items() if not dead[c]
        ]
        held_a = holders[a]
        held_a.discard(r)
        for _, _, held in rest:
            held.discard(r)
        for j in held_a:
            target = rows[j]
            n = live[j] - 1
            factor = target[a].items()
            for c, ent, held in rest:
                old = target.get(c)
                new = dict(old) if old else {}
                for x, y in factor:
                    for x2, y2 in ent:
                        z = x + x2
                        v = new.get(z, 0) + y * y2
                        if v:
                            new[z] = v
                        else:
                            del new[z]
                if new:
                    target[c] = new
                    if not old:
                        held.add(j)
                        n += 1
                elif old:
                    del target[c]
                    held.discard(j)
                    n -= 1
            live[j] = n
            if n == 1:
                free.append(j)


def _dual_forest(rows, ncols, weight):
    """Pair the top degree in place along a spanning forest of the dual graph.

    ``rows`` is delta_{d-1} over Z[t, 1/t] straight from ``_laurent_rows``,
    one row per d-simplex, every entry a unit.  The top simplices are the
    nodes; two are joined through each column that exactly two of them
    hold, and a column with one holder grounds its component.  A row T
    reached from P through column c pairs with c and carries the unit
    u(T) = -u(P) M[P, c] / M[T, c], with u = 1 at its component's root.
    Eliminating those pairs from the leaves up adds u(T) row T into the
    root, and the Schur update of each pair touches its parent alone, so
    the root keeps sum u(T) M[T, c] on every column c the tree leaves: the
    transpose of degree 0's forest walk.  In a grounded component the root
    then pairs with the grounding column, which no other row holds, and
    nothing is kept.

    ``weight[c]`` counts the entries that column c's own row one degree
    down carries into the residual; a tree column takes that row out with
    it.  So the tree is a maximum-weight spanning forest: each component is
    entered at its last unvisited row, a row reached first takes in every
    row it reaches through columns of positive weight, heaviest first
    (Prim), and the walk then goes on breadth first.  Paired rows become
    None; tree columns stay in the rows that hold them, and a reader drops
    them with the pivots.  Returns the pivots as (row, column, unit), like
    ``_eliminate``.
    """
    count, mate = [0] * ncols, [0] * ncols
    heavy = bytearray(len(rows))  # rows holding a column of positive weight
    for r, row in enumerate(rows):
        for c in row:
            count[c] += 1
            mate[c] ^= r  # of two holders, either one's number xor mate is the other's
            if weight[c]:
                heavy[r] = 1
    unit = [None] * len(rows)  # u(T) = sign * t**exponent, as (exponent, sign)
    tree = bytearray(ncols)
    pivots = []

    def attach(r, c):
        """The row across column c from r joins the tree below r."""
        other = mate[c] ^ r
        e, s = unit[r]
        ((x, y),) = rows[r][c].items()
        step = rows[other][c]
        ((x2, y2),) = step.items()
        unit[other] = (e + x - x2, -s * y * y2)
        pivots.append((other, c, step))
        tree[c] = 1
        component.append(other)
        return other

    def claim(r):
        """Every row r reaches through columns of positive weight, heaviest first."""
        todo = []
        while True:
            for c in rows[r]:
                if weight[c] and count[c] == 2 and unit[mate[c] ^ r] is None:
                    heappush(todo, (-weight[c], c, r))
            while todo:
                _, c, r = heappop(todo)
                if unit[mate[c] ^ r] is None:
                    break
            else:
                return
            r = attach(r, c)

    for root in range(len(rows) - 1, -1, -1):
        if unit[root] is not None:
            continue
        unit[root] = (0, 1)
        component, ground, kept = [root], None, {}
        if heavy[root]:
            claim(root)
        for r in component:  # grows as the walk goes: breadth first
            e, s = unit[r]
            for c, ent in rows[r].items():
                held = count[c]
                if held == 2 and unit[mate[c] ^ r] is None:
                    other = attach(r, c)
                    if heavy[other]:
                        claim(other)
                    continue
                if tree[c]:
                    continue
                if held == 1 and ground is None:
                    ground = c
                ((x, y),) = ent.items()
                poly = kept.setdefault(c, {})
                z = e + x
                v = poly.get(z, 0) + s * y
                if v:
                    poly[z] = v
                else:
                    del poly[z]
            rows[r] = None
        if ground is not None:
            # the root's entry there is one monomial: no other row holds it
            pivots.append((root, ground, kept[ground]))
        else:
            rows[root] = {c: poly for c, poly in kept.items() if poly}
    return pivots


def reduce(k: SimplicialComplex, theta: OneCocycle) -> Reduction:
    """Shrink the twisted complex of (k, theta) over Z[t, 1/t], for every lambda.

    Pairs (a in C^p, b in C^{p+1}) are eliminated on a unit entry of
    delta_p: the Schur complement replaces delta_p, row a of delta_{p-1} is
    deleted and column b of delta_{p+1} is dropped when degree p + 1 is
    assembled.  The deletions rely on delta delta = 0, so theta must be
    closed, and that is checked first.  Degree 0 needs no elimination: the
    spanning-forest walk ``cocycles._forest`` pairs each vertex but a
    component's root with its tree edge, and a non-tree edge (a, b) keeps
    the row t**(theta(a, b) - f(b)) - t**(-f(a)) at its root, which is
    t**(-f(a)) (t**holonomy - 1) for the potential f of the walk.  The top
    degree d - 1 >= 1 needs none either: ``_dual_forest`` pairs each top
    simplex but a root with a (d-1)-cell along a spanning forest of the
    dual graph, its transpose, preferring the cells whose rows one degree
    down are longest, so that what the residual keeps is short.  Degrees 1
    to d - 2 run ``_eliminate``.  Entries keep integer coefficients, and a
    real theta gives real exponents.
    """
    _require_closed(k, theta)
    f, root, tree = _forest(k, theta)
    values = theta.values
    roots = [v for v in range(k.vertex_count) if root[v] == v]
    below_number = {v: i for i, v in enumerate(roots)}
    below = [None] * len(k.edges)  # rows of delta_0 for the non-tree edges
    for i, e in enumerate(k.edges):
        if i not in tree:
            x, y = values[e] - f[e[1]], -f[e[0]]
            # a zero holonomy cancels the row
            below[i] = {root[e[0]]: {x: 1, y: -1}} if x != y else {}
    live = [len(row) if row else 0 for row in below]  # entries each row keeps
    sizes, deltas = [len(roots)], []
    dropped = tree  # p-cells paired with a (p-1)-cell
    for p in range(1, k.dim + 1):
        rows = _laurent_rows(k, theta, p, dropped)
        if p < k.dim - 1:
            paired, live = _eliminate(rows, k.n_simplices(p))
        elif p == k.dim - 1:
            paired = _dual_forest(rows, k.n_simplices(p), live)
        else:
            paired = ()
        gone = dropped | {a for _, a, _ in paired}
        keep = [c for c in range(k.n_simplices(p)) if c not in gone]
        deltas.append(tuple(
            {below_number[c]: ent for c, ent in below[r].items() if c in below_number}
            for r in keep
        ))
        sizes.append(len(keep))
        dropped = {b for b, _, _ in paired}
        below = rows
        below_number = {c: i for i, c in enumerate(keep)}
    deltas.append(())
    return Reduction(k, theta, tuple(sizes), tuple(deltas))


def _power(lam, x):
    """lam**x at a lambda from ``_local_system``, exact when lambda is.

    A complex lambda takes exp(x log lam) on the principal branch, where
    |lam**x| <= 1, and an integer power multiplies out lam or 1/lam,
    whichever is at most 1 in magnitude, so it never overflows; for |x| <=
    100 it also never leaves the real axis, and past that CPython takes the
    polar form.
    """
    if x != int(x):
        return lam ** complex(x)
    return (1 / lam) ** -int(x) if x < 0 else lam ** int(x)


def _shifts(rows, pick):
    """The monomials that divide residual rows before they are ranked.

    Each row is first divided by lam**shift, with shift its pick-most
    exponent; then each column by its own pick-most monomial of what is
    left.  Returns the row shifts, a list, and the column shifts, a dict.
    Scaling a row or a column by a unit leaves the rank alone.  ``pick`` is
    min at an exact lambda, so no power is negative and a number-field
    lambda is never inverted.  At a float lambda it is max when |lambda| >= 1
    and min otherwise, so that no power exceeds 1 in magnitude and none can
    overflow, and the column pass keeps a column that no row leads from
    shrinking below the rank cut.  Every scaled row and column holds a term
    of magnitude 1 before any cancellation, so ``Reduction.profile`` ranks
    float residuals against an absolute scale of 1, as the full delta_p
    with its +-1 entries would be: a real theta that closes only up to
    rounding leaves t**x - t**(x + eps) where the exact residual has a
    zero, and that noise must not set the rank cut.
    """
    row_shifts = [pick(x for ent in row.values() for x in ent) if row else 0 for row in rows]
    column_shifts = {}
    for row, shift in zip(rows, row_shifts):
        for c, ent in row.items():
            x = pick(ent) - shift
            column_shifts[c] = pick(column_shifts[c], x) if c in column_shifts else x
    return row_shifts, column_shifts


@dataclass(frozen=True, slots=True)
class BettiProfile:
    """Twisted cohomology dimensions with their computation context."""

    dims: tuple[int, ...]
    euler: int
    lam: object
    backend: str
    tolerance: float | None
    ill_conditioned: bool

    def to_json(self) -> dict:
        return {
            "lambda": scalar_literal(self.lam),
            "backend": self.backend,
            "dims": list(self.dims),
            "euler": self.euler,
            "ill_conditioned": self.ill_conditioned,
            "tolerance": self.tolerance,
        }


def betti_profile(
    k: SimplicialComplex,
    theta: OneCocycle,
    lam,
    backend: str | None = None,
    tolerance: float | None = None,
) -> BettiProfile:
    """All twisted cohomology dimensions of (k, theta, lambda): ``reduce``
    and one ``Reduction.profile``.  A caller with several lambdas holds the
    reduction instead."""
    return reduce(k, theta).profile(lam, backend, tolerance)


def kunneth_check(
    factor_a: BettiProfile, factor_b: BettiProfile, product: BettiProfile
) -> bool:
    """Whether the product profile is the convolution of the factors."""
    da, db, dp = factor_a.dims, factor_b.dims, product.dims
    if len(dp) != len(da) + len(db) - 1:
        return False
    conv = [0] * len(dp)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    return tuple(conv) == dp
