"""Scalar backends and exact/float linear algebra.

Three scalar backends are supported and deliberately kept simple:

* ``exact``  -- arbitrary-precision rationals (``fractions.Fraction``),
* ``nf``     -- elements of a number field Q[x]/(m) for a monic irreducible m,
* ``float``  -- complex double precision.

``_arithmetic`` is the one place that chooses the backend and tolerance of
a computation: lambda's kind joins the entries' kind (number field or float
beats exact, number field with float raises BackendMismatchError), and only
float has a tolerance.  A Matrix infers its backend by the same join, and
its rank runs exactly (division-controlled elimination) or through singular
values accordingly.  All exact routines are deterministic: pivot order
depends only on the matrix, never on hashing or timing.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BackendMismatchError, NumericalError, ReducibilityError

__all__ = [
    "MinimalPolynomial",
    "NumberFieldElement",
    "Matrix",
    "rank_with_flag",
    "parse_scalar",
    "scalar_literal",
    "DEFAULT_FLOAT_TOLERANCE",
]

DEFAULT_FLOAT_TOLERANCE = 1e-10

# ---------------------------------------------------------------------------
# polynomial helpers (dense, ascending coefficients, Fraction entries)


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _ptrim(out)


def _pneg(a):
    return [-v for v in a]


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _ptrim(out)


def _pdivmod(a, b):
    """Quotient and remainder in Q[x]; b must be nonzero."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        coef = a[-1] / lead
        q[shift] = coef
        for i, v in enumerate(b):
            a[shift + i] -= coef * v
        a = _ptrim(a)
    return _ptrim(q), a


def _pxgcd(a, b):
    """Half-extended gcd in Q[x]: returns (g, s) with s*a = g modulo b."""
    r0, r1 = _ptrim(a), _ptrim(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
    return r0, s0


def _rational(text: str) -> Fraction:
    """Fraction(text), refusing a zero denominator with ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?)?"
    r"(?:\*?(?P<var>x)(?:(?:\^|\*\*)(?P<exp>\d+))?)?$"
)


def parse_polynomial(text: str) -> tuple[Fraction, ...]:
    """Parse strings like ``x^2-3*x+1`` into ascending coefficients."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial string")
    # split keeping signs: insert separators before + and - that start a term
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    coeffs: dict[int, Fraction] = {}
    for piece in pieces:
        sign = Fraction(1)
        body = piece
        if body[0] in "+-":
            if body[0] == "-":
                sign = Fraction(-1)
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {piece!r} in {text!r}")
        coef = _rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    deg = max(coeffs)
    return tuple(coeffs.get(i, Fraction(0)) for i in range(deg + 1))


def format_polynomial(coeffs) -> str:
    """Inverse of parse_polynomial, canonical descending form."""
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            xpow = "x" if exp == 1 else f"x^{exp}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


@dataclass(frozen=True, slots=True)
class MinimalPolynomial:
    """A monic polynomial over Q presented as the modulus of a number field.

    Irreducibility is not verified up front (no factoring here); it is
    certified lazily, in the sense that any inversion that stumbles on a
    nontrivial factor raises ReducibilityError carrying that factor.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_ptrim(Fraction(c) for c in self.coeffs))
        if len(cs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if cs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def parse(cls, text: str) -> "MinimalPolynomial":
        return cls(parse_polynomial(text))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        return format_polynomial(self.coeffs)

    def __repr__(self):
        return f"MinimalPolynomial({self})"


@dataclass(frozen=True, slots=True, init=False, eq=False)
class NumberFieldElement:
    """An element of Q[x]/(m), stored as coefficients of degree < deg(m).

    Supports mixed arithmetic with ints and Fractions (lifted to constants).
    Division uses the extended Euclidean algorithm; dividing by a zero
    divisor of a reducible modulus raises ReducibilityError instead of
    returning garbage.
    """

    coeffs: tuple
    minpoly: MinimalPolynomial

    def __init__(self, coeffs, minpoly: MinimalPolynomial):
        if not isinstance(minpoly, MinimalPolynomial):
            minpoly = MinimalPolynomial(minpoly)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) >= len(minpoly.coeffs):
            _, cs = _pdivmod(cs, list(minpoly.coeffs))
        cs = cs + [Fraction(0)] * (minpoly.degree - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "minpoly", minpoly)

    @classmethod
    def generator(cls, minpoly: MinimalPolynomial) -> "NumberFieldElement":
        return cls((0, 1), minpoly)

    @classmethod
    def constant(cls, value, minpoly: MinimalPolynomial) -> "NumberFieldElement":
        return cls((Fraction(value),), minpoly)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.minpoly != self.minpoly:
                raise BackendMismatchError(
                    "number field elements with different minimal polynomials: "
                    f"{self.minpoly} vs {other.minpoly}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement.constant(other, self.minpoly)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(_padd(self.coeffs, o.coeffs), self.minpoly)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(_pneg(self.coeffs), self.minpoly)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(_pmul(self.coeffs, o.coeffs), self.minpoly)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        a = _ptrim(list(self.coeffs))
        if not a:
            raise ZeroDivisionError("inverse of zero number field element")
        g, s = _pxgcd(a, list(self.minpoly.coeffs))
        if len(g) - 1 > 0:
            # gcd of degree >= 1 certifies the modulus factors
            lead = g[-1]
            factor = tuple(c / lead for c in g)
            raise ReducibilityError(
                f"modulus {self.minpoly} is reducible; found factor "
                f"{format_polynomial(factor)}",
                factor=factor,
            )
        ginv = 1 / g[0]
        return NumberFieldElement([c * ginv for c in s], self.minpoly)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        e = abs(n)
        out = NumberFieldElement.constant(1, self.minpoly)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NumberFieldElement.constant(other, self.minpoly)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.minpoly == other.minpoly and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.minpoly))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __str__(self):
        return format_polynomial(self.coeffs)

    def __repr__(self):
        return f"<{self} mod {self.minpoly}>"


# ---------------------------------------------------------------------------
# matrices

_EXACT = "exact"
_NF = "nf"
_FLOAT = "float"


def _classify(value):
    if isinstance(value, NumberFieldElement):
        return _NF
    if isinstance(value, bool):
        raise ValueError("boolean matrix entries are ambiguous; use 0/1")
    if isinstance(value, (int, Fraction)):
        return _EXACT
    if isinstance(value, (float, complex)):
        return _FLOAT
    raise ValueError(f"unsupported scalar type {type(value).__name__}")


def _join(kinds) -> str:
    """Backend of these kinds together: nf or float beats exact; nf + float raises."""
    kinds = set(kinds)
    if _NF in kinds and _FLOAT in kinds:
        raise BackendMismatchError("number field and float scalars do not mix")
    return _NF if _NF in kinds else _FLOAT if _FLOAT in kinds else _EXACT


def _arithmetic(lam, entries=_EXACT, backend=None, tolerance=None):
    """The one backend decision: (lam, backend, tolerance) of a computation.

    The backend joins lambda's kind with the entries' kind; a requested
    backend may move exact to float and must otherwise agree.  Lambda comes
    back in that backend (NumericalError past the float range), zero and
    non-finite lambdas are refused, and the tolerance is None when exact.
    """
    kind = _classify(lam)
    chosen = _join((kind, entries))
    if backend == _FLOAT and chosen == _EXACT:
        chosen = _FLOAT
    elif backend not in (None, chosen):
        raise BackendMismatchError(
            f"lambda {scalar_literal(lam)} with {entries} entries has backend "
            f"{chosen!r}, requested {backend!r}"
        )
    if kind == _EXACT:
        lam = _float_of(lam) if chosen == _FLOAT else Fraction(lam)
    if lam == 0:
        raise ValueError("monodromy parameter lambda must be nonzero")
    if chosen != _FLOAT:
        return lam, chosen, None
    if not cmath.isfinite(lam):
        raise ValueError(f"monodromy parameter lambda must be finite, got {lam!r}")
    return lam, chosen, DEFAULT_FLOAT_TOLERANCE if tolerance is None else tolerance


@dataclass(frozen=True, slots=True, eq=False)
class Matrix:
    """Dense matrix over one scalar backend.

    Entries are stored row-major in a flat tuple.  Construction coerces
    ints/Fractions into the backend ``_join`` gives for the kinds present
    and rejects non-finite floats.
    """

    nrows: int
    ncols: int
    entries: tuple
    backend: str = field(init=False)

    def __post_init__(self):
        nrows, ncols, entries = self.nrows, self.ncols, list(self.entries)
        if len(entries) != nrows * ncols:
            raise ValueError(
                f"matrix {nrows}x{ncols} needs {nrows * ncols} entries, "
                f"got {len(entries)}"
            )
        kinds = set()
        minpoly = None
        for v in entries:
            kind = _classify(v)
            kinds.add(kind)
            if kind == _NF:
                if minpoly is None:
                    minpoly = v.minpoly
                elif v.minpoly != minpoly:
                    raise BackendMismatchError(
                        "mixed minimal polynomials in one matrix"
                    )
        inferred = _join(kinds)
        if inferred == _NF:
            entries = [
                v if isinstance(v, NumberFieldElement)
                else NumberFieldElement.constant(v, minpoly)
                for v in entries
            ]
        elif inferred == _FLOAT:
            coerced = []
            for v in entries:
                c = complex(_float_of(v)) if isinstance(v, (int, Fraction)) else complex(v)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError("non-finite float matrix entry")
                coerced.append(c)
            entries = coerced
        else:
            entries = [v if isinstance(v, Fraction) else Fraction(v) for v in entries]
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "backend", inferred)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [v for r in rows for v in r]
        return cls(nrows, ncols, flat)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def to_numpy(self) -> np.ndarray:
        if self.backend == _NF:
            raise BackendMismatchError(
                "number field matrices have no canonical float embedding"
            )
        if self.backend == _EXACT:
            data = [complex(_float_of(v)) for v in self.entries]
        else:
            data = list(self.entries)
        return np.array(data, dtype=complex).reshape(self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, backend={self.backend})"


# ---------------------------------------------------------------------------
# rank


def _reduce_columns(columns):
    """Left-to-right column reduction with lowest-row pivots.

    The one exact elimination in the package.  Keys of a column dict are
    rows; keys < 0 are tags, which follow the column operations but are
    never chosen as pivots (the [D; I] bookkeeping).  Each fixed pivot
    column is normalized so its pivot entry is 1; a new column is reduced
    against existing pivots until it exposes a fresh pivot row or only tags
    are left.  Yields, per column, None if it took a pivot and otherwise
    its leftover, a dict of tags only.  A tagged leftover holds the unique
    coordinates of the column on the pivot columns to its left, so it is
    what a dense rref gives.  Entirely exact and deterministic.
    """
    pivots: dict[int, dict] = {}
    for col in columns:
        col = {r: v for r, v in col.items() if v != 0}
        while col and (low := max(col)) >= 0:
            piv = pivots.get(low)
            if piv is None:
                inv = 1 / col[low]
                pivots[low] = {r: v * inv for r, v in col.items()}
                col = None
                break
            factor = col.pop(low)
            for r, v in piv.items():
                if r == low:
                    continue
                nv = col.get(r, 0) - factor * v
                if nv == 0:
                    col.pop(r, None)
                else:
                    col[r] = nv
        yield col


def _exact_rank_columns(columns) -> int:
    """Rank of untagged sparse columns: the number that take a pivot."""
    return sum(left is None for left in _reduce_columns(columns))


def _float_rank(a: np.ndarray, tolerance: float, floor: float = 0.0):
    """(rank, ill_conditioned) from singular values.

    Rank counts singular values above tolerance * max(sigma_max, floor); the
    flag trips when any singular value sits within a factor of ten of that
    cut, i.e. the answer would move under a modest tolerance change.  The
    floor gives the cut an absolute scale for matrices whose entries are
    rounding noise around zero.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("float rank needs a finite tolerance > 0")
    if a.size == 0:
        return 0, False
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0, False
    cut = tolerance * max(float(s[0]), floor)
    rnk = int(np.count_nonzero(s > cut))
    ill = bool(np.any((s > cut / 10.0) & (s < cut * 10.0)))
    return rnk, ill


def _rank(rows, ncols, backend, tolerance, floor=0.0):
    """(rank, ill_conditioned) of sparse {column: value} rows in a backend.

    The one rank entry.  Exact backends eliminate the rows as the columns
    of the transpose, whose rank is the same; float makes them a dense
    complex array, refused (NumericalError) past the float range, and ranks
    it through singular values.  The tolerance and floor are
    ``_float_rank``'s; the flag is always False when exact.
    """
    if backend != _FLOAT:
        return _exact_rank_columns(rows), False
    a = np.zeros((len(rows), ncols), dtype=complex)
    for r, row in enumerate(rows):
        for c, v in row.items():
            a[r, c] = v
    if not np.isfinite(a).all():
        raise NumericalError("a matrix entry leaves the float range")
    return _float_rank(a, tolerance, floor)


def rank_with_flag(m: Matrix, tolerance: float | None = None):
    """(rank, ill_conditioned) of a matrix in its own backend, through ``_rank``."""
    # a bare matrix meets no lambda; 1 is exact and leaves the join to m
    _, backend, tol = _arithmetic(1, m.backend, tolerance=tolerance)
    rows = [{j: v for j, v in enumerate(m.row(i)) if v != 0} for i in range(m.nrows)]
    return _rank(rows, m.ncols, backend, tol)


# ---------------------------------------------------------------------------
# scalar literals


def _float_of(value) -> float:
    """float(value), with NumericalError when it leaves the float range."""
    try:
        return float(value)
    except OverflowError:
        raise NumericalError("exact scalar leaves the float range") from None


def parse_scalar(text: str):
    """Parse a scalar literal.

    Accepted forms: integers "2", rationals "5/7", decimals "2.5"/"1e-3",
    complex "1+2j", and number field elements "nf:<minpoly>:<element>"
    (e.g. "nf:x^2-3*x+1:x").  The kind is the literal's own; a computation
    moves it to its backend through ``_arithmetic``.
    """
    text = text.strip()
    if text.startswith("nf:"):
        parts = text.split(":", 2)
        if len(parts) != 3:
            raise ValueError("number field literal must be nf:<minpoly>:<element>")
        minpoly = MinimalPolynomial.parse(parts[1])
        return NumberFieldElement(parse_polynomial(parts[2]), minpoly)
    if re.fullmatch(r"[+-]?\d+(?:/\d+)?", text):
        return _rational(text)
    try:
        return complex(text) if "j" in text else float(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse scalar literal {text!r}") from exc


def scalar_literal(value) -> str:
    """Canonical string form of a scalar, inverse-ish of parse_scalar."""
    if isinstance(value, NumberFieldElement):
        return f"nf:{value.minpoly}:{format_polynomial(value.coeffs)}"
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if isinstance(value, complex):
        if value.imag == 0:
            return repr(value.real)
        return repr(value)
    return repr(float(value))
