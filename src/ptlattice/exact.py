"""Exact reality maps: where the spectrum of a family is real, from its discriminant.

The real count of a family's spectrum changes only at real roots of the
discriminant D(t) = disc_lambda det(H(t) - lambda).  For a family whose
entries fold into Q[t], this module builds D exactly, takes its square-free
core D / gcd(D, D'), isolates the core's real roots by Descartes' rule
(``poly``), rounds each correctly to a double, and counts the real
eigenvalues of every cell between two roots exactly, at a short dyadic t
inside the cell.  That is a family's *reality map*; ``domain_report`` reads
its intervals and exceptional points off it.

Folding.  ``ExactField``, the package's one folder of entry expressions
(``custom`` infers a document's validity with it too), runs a family's entry
closures on elements a(t) * sqrt(r(t)) with a, r in Q[t], and parses each
literal exactly as the document states it.  The fold lays the entries out
with ``lattice.layout`` and reads the inputs of det(H(t) - lambda) off the
rows with ``lattice.determinant_inputs``, as the float-lift oracle does, so
the lattice's signs are read from the layout, not restated here.  Band and
corner products are in Q[t], since sqrt(r)^2 = r; a ring's cycle term
a(t) sqrt(R(t)) folds where R is the square of some s in Q[t] without a
root inside the validity range, where sqrt(R) = +-s.  A radical on the
diagonal, a sum of different radicals, a nested sqrt, a division by a
non-constant or a ring whose R is not such a square does not fold, and
``folded`` returns None.  A family that folds has no map where its
discriminant is identically 0 (an eigenvalue repeated at every t) or its
degree bound exceeds MAX_DISC_DEGREE, where a cold build costs more than
the grid scan of a unit range.  ``reality_map`` returns None for all those
families, and their domains come from the float path of ``domains``.  It
builds from the fold ``folded`` caches, which the oracle of ``charpoly``
reads too, so each family is folded once.

The discriminant is the resultant Res(P, dP/dlambda), taken at
floor(w n (n - 1)) + 1 integer points and interpolated; w, the largest of
deg a_ii and half the degree of each band and corner product, bounds each
eigenvalue's growth as |t|^w and so the degree (the cycle term's degree over
n is the mean of those halves).
The points may lie outside the validity range: the folded inputs are
polynomials there too.

The module imports no numpy; folds and maps are cached per family.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

from .lattice import determinant_inputs, layout
from .poly import (
    _add,
    _bordered_charpoly,
    _derivative,
    _peval,
    _pseudo_remainder,
    _trim,
    dyadic_fraction,
    integer_polynomial,
    real_root_brackets,
    refine_to_double,
    root_side,
    square_free_part,
)

# Largest discriminant degree bound floor(w n (n - 1)) the engine builds.
# About here a cold build of a generic document costs what the float path's
# grid of 2001 points (one unit of t) costs; below it the build is cheaper.
MAX_DISC_DEGREE = 30

# Largest decimal exponent of a literal the engine parses exactly.
_MAX_EXPONENT = 400


class _NotFolding(Exception):
    """An entry leaves Q[t] * sqrt(Q[t]), or the family leaves the engine's scope."""


# Polynomials in t: ascending tuples of Fractions without trailing zeros.


def _pmul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(_trim(out))


def _pscale(p, c) -> tuple:
    return tuple(_trim([c * x for x in p]))


_ONE = (Fraction(1),)


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if (num * num, den * den) == (q.numerator, q.denominator) else None


def _poly_sqrt(r):
    """s in Q[t] with s^2 == r and a positive leading coefficient, or None."""
    if not r or (len(r) - 1) % 2:
        return None
    lead = _rational_sqrt(r[-1])
    if lead is None:
        return None
    m = (len(r) - 1) // 2
    s = [Fraction(0)] * m + [lead]
    for k in reversed(range(m)):  # the coefficient of t^(m+k) fixes s_k
        s[k] = (r[m + k] - sum(s[i] * s[m + k - i] for i in range(k + 1, m))) / (2 * lead)
    s = tuple(_trim(s))
    return s if _pmul(s, s) == r else None


class _Radical:
    """a(t) * sqrt(r(t)) over Q[t]; r is (1,) for a polynomial, and for zero."""

    __slots__ = ("a", "r")

    def __init__(self, a, r=_ONE):
        self.a = tuple(_trim(a))
        self.r = r if self.a else _ONE

    def sqrt(self) -> _Radical:
        if self.r != _ONE:
            raise _NotFolding("nested sqrt")
        if len(self.a) <= 1:
            root = _rational_sqrt(self.a[0] if self.a else Fraction(0))
            if root is not None:
                return _Radical((root,))
        return _Radical(_ONE, self.a)

    def __add__(self, other) -> _Radical:
        other = _coerce(other)
        if not other.a:
            return self
        if self.a and self.r != other.r:
            raise _NotFolding("a sum of different radicals")
        return _Radical(_add(self.a, other.a), other.r)

    __radd__ = __add__

    def __neg__(self) -> _Radical:
        return _Radical(_pscale(self.a, -1), self.r)

    def __sub__(self, other) -> _Radical:
        return self + -_coerce(other)

    def __rsub__(self, other) -> _Radical:
        return _coerce(other) + -self

    def __mul__(self, other) -> _Radical:
        other = _coerce(other)
        a = _pmul(self.a, other.a)
        if self.r == _ONE or other.r == _ONE:
            return _Radical(a, other.r if self.r == _ONE else self.r)
        if self.r == other.r:  # sqrt(r)^2 = r wherever the entry is defined
            return _Radical(_pmul(a, self.r))
        return _Radical(a, _pmul(self.r, other.r))

    __rmul__ = __mul__

    def __truediv__(self, other) -> _Radical:
        other = _coerce(other)
        if len(other.a) != 1 or len(other.r) != 1:
            raise _NotFolding("a division by a non-constant")
        # x / (a sqrt(r)) = x * sqrt(r) / (a r) for constants a, r.
        scale = 1 / (other.a[0] * other.r[0])
        return self * _Radical((scale,), other.r)

    def __rtruediv__(self, other) -> _Radical:
        return _coerce(other) / self


def _coerce(x) -> _Radical:
    if isinstance(x, _Radical):
        return x
    if isinstance(x, (int, Fraction)) or (isinstance(x, float) and math.isfinite(x)):
        return _Radical((Fraction(x),))
    raise _NotFolding(f"an entry of type {type(x).__name__}")


_T = _Radical((Fraction(0), Fraction(1)))


class ExactField:
    """Arithmetic namespace that folds entries into a(t) * sqrt(r(t)) over Q[t].

    The entry closures run on it unchanged, with t the generator of Q[t];
    ``num`` parses a decimal literal exactly, as the model document states
    it.  An operation that leaves the form raises _NotFolding.
    """

    @staticmethod
    def sqrt(x):
        return _coerce(x).sqrt()

    @staticmethod
    def num(text: str):
        _, _, exponent = text.lower().partition("e")
        if exponent and abs(int(exponent)) > _MAX_EXPONENT:
            raise _NotFolding(f"literal {text} beyond 1e{_MAX_EXPONENT}")
        return _Radical((Fraction(text),))


def _between(x, y) -> Fraction:
    """The dyadic of fewest bits in the open interval (x, y); None is unbounded.

    x == y returns x, a point the caller knows to be inside its cell.
    """
    if x is not None and x == y:
        return x
    k = 0
    while True:
        lo = None if x is None else math.floor(x * 2**k) + 1
        hi = None if y is None else math.ceil(y * 2**k) - 1
        if lo is None or hi is None or lo <= hi:
            m = 0 if lo is None or lo <= 0 else lo
            return Fraction(m if hi is None or m <= hi else hi, 2**k)
        k += 1


def _homogeneous(p, m: int, d: int, e: int) -> int:
    """p(m / d) * d**e, an integer for integer coefficients and e >= deg p."""
    h, dk = 0, 1
    for c in reversed(p):
        h = h * m + c * dk
        dk *= d
    return h * d ** (e + 1 - len(p))


class _Folded(NamedTuple):
    """The inputs of the recurrence for det(L H(t) - mu) as integer polynomials in t.

    L is a common denominator of the folded entries.  Scaling H by L scales
    every eigenvalue by L, so the discriminant keeps its roots and every
    real count stays the same, and at a rational t all arithmetic is on ints.
    """

    diag: tuple  # L a_ii
    bands: tuple  # L^2 times each band product
    gammabeta: tuple  # L^2 times the corner product
    cycle: tuple  # L^n times the cycle term
    scale: int  # L
    width: int  # W, the least integer >= w
    degree_bound: int  # floor(w n (n - 1)) >= the discriminant's degree in t

    def charpoly_at(self, t) -> tuple[list, int]:
        """(p, S): det(S H(t) - nu) = sum p_k nu^k on integers, at a rational t.

        With t = m / D in lowest terms, S = D^W L.  Every input of the
        recurrence is then an integer: a polynomial of degree at most kW
        (k = 1 on the diagonal, 2 for a band pair, n for the cycle) at m / D
        times D^(kW).  At an integer t, S is L.
        """
        m, d = t.as_integer_ratio()
        w, n = self.width, len(self.diag)
        p = _bordered_charpoly(
            [_homogeneous(q, m, d, w) for q in self.diag],
            [_homogeneous(q, m, d, 2 * w) for q in self.bands],
            _homogeneous(self.gammabeta, m, d, 2 * w),
            _homogeneous(self.cycle, m, d, n * w),
        )
        return p, d**w * self.scale


def _validity_sign(s, t_min: float, t_max: float) -> int:
    """The one sign of s on (t_min, t_max); _NotFolding where s has a root there."""
    lo = None if t_min == -math.inf else Fraction(t_min)
    hi = None if t_max == math.inf else Fraction(t_max)
    core = square_free_part(integer_polynomial(s))
    for bracket in real_root_brackets(core):
        above = lo is None or root_side(core, bracket, lo) > 0
        below = hi is None or root_side(core, bracket, hi) < 0
        if above and below:
            raise _NotFolding("the square root of prod(r_i) has a root inside the validity range")
    value = _peval(s, _between(lo, hi))
    return (value > 0) - (value < 0)


def _fold(family) -> _Folded:
    """The folded inputs of the family's characteristic polynomial."""
    n = family.n
    try:
        diag = [_coerce(x) for x in family.diag_fn(_T, ExactField)]
        upper = [_coerce(x) for x in family.upper_fn(_T, ExactField)]
    except Exception as exc:
        # The closures may be any caller's; where they do not fold, the
        # float path evaluates them, and raises whatever is the model's error.
        raise _NotFolding(f"an entry does not fold: {exc!r}") from None
    diag, bands, gammabeta, cycle = determinant_inputs(layout(n, diag, upper, family.topology))
    if any(x.r != _ONE for x in diag):
        raise _NotFolding("a radical on the diagonal")
    bands = [x.a for x in bands]
    gammabeta, cycle = _coerce(gammabeta).a, _coerce(cycle)
    halves = [Fraction(len(p) - 1, 2) for p in bands + [gammabeta]]
    w = max([0] + [len(x.a) - 1 for x in diag] + halves)
    bound = math.floor(w * n * (n - 1))
    s = _poly_sqrt(cycle.r)  # (1,) where no radical is left
    if s is None:
        raise _NotFolding("the ring's product of radicands is not a square")
    cycle = _pscale(_pmul(cycle.a, s), _validity_sign(s, family.t_min, family.t_max))
    inputs = [(x.a, 1) for x in diag] + [(p, 2) for p in bands]
    inputs += [(gammabeta, 2), (cycle, n)]
    scale = math.lcm(*(c.denominator for p, _ in inputs for c in p))
    polys = [tuple(int(c * scale**e) for c in p) for p, e in inputs]
    return _Folded(tuple(polys[:n]), tuple(polys[n:-2]), *polys[-2:], scale, math.ceil(w), bound)


def polynomial(expr) -> list | None:
    """Ascending Fraction coefficients of expr(t, ExactField) in Q[t]; None where it leaves Q[t]."""
    try:
        x = _coerce(expr(_T, ExactField))
    except _NotFolding:
        return None
    return list(x.a) if x.r == _ONE else None


@functools.lru_cache(maxsize=64)
def folded(family) -> _Folded | None:
    """The family's folded characteristic polynomial; None where it does not fold."""
    try:
        return _fold(family)
    except _NotFolding:
        return None


def _resultant(a, b) -> int:
    """Res(a, b) of integer polynomials with deg a >= deg b >= 1.

    The subresultant remainder sequence (Collins 1967; Cohen, Algorithm
    3.3.7): every division in it is exact, so it stays in the integers.
    """
    g = h = s = 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            s = -s
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        a, b = b, [c // (g * h**delta) for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
        if len(b) == 1:
            return s * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


def _interpolate(xs, ys) -> list:
    """Ascending coefficients of the polynomial through (xs, ys), by Newton's form."""
    c = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in reversed(range(j, len(xs))):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    p = [c[-1]]
    for x, ci in zip(reversed(xs[:-1]), reversed(c[:-1])):  # p = p (t - x) + c_i
        p = [ci - x * p[0]] + [p[k - 1] - x * p[k] for k in range(1, len(p))] + [p[-1]]
    return p


class RealityMap(NamedTuple):
    """The real roots of a family's discriminant and the real count between them.

    degree: the discriminant's degree in t.  core: ascending integer
    coefficients of its square-free core.  roots: every real root of the
    core, correctly rounded to a double, ascending.  counts: the exact real
    eigenvalue count of each cell, counts[i] on the cell below roots[i] and
    counts[-1] above the last root.
    """

    degree: int
    core: tuple
    roots: tuple
    counts: tuple

    def count_above(self, t: float) -> int:
        """Real count on the doubles just above t."""
        return self.counts[bisect_right(self.roots, t)]

    def roots_inside(self, lo: float, hi: float) -> list:
        """The distinct rounded roots strictly inside (lo, hi), ascending."""
        return sorted(set(self.roots[bisect_right(self.roots, lo) : bisect_left(self.roots, hi)]))

    def holds(self, t: float, count: int) -> bool:
        """Whether t lies strictly inside a cell of the given real count."""
        return t not in self.roots and self.count_above(t) == count

    def widest_cell(self, lo: float, hi: float, count: int):
        """(a, b): the widest overlap of [lo, hi] with a cell of that count, or None."""
        edges = (-math.inf, *self.roots, math.inf)
        overlaps = [
            (max(lo, a), min(hi, b))
            for a, b, c in zip(edges, edges[1:], self.counts)
            if c == count and max(lo, a) < min(hi, b)
        ]
        return max(overlaps, key=lambda ab: ab[1] - ab[0], default=None)


def _build(fold: _Folded) -> RealityMap | None:
    xs = [(j + 1) // 2 * (-1) ** (j + 1) for j in range(fold.degree_bound + 1)]  # 0, 1, -1, ...
    ys = []
    for x in xs:
        p, _ = fold.charpoly_at(x)
        ys.append(_resultant(p, _derivative(p)))
    disc = integer_polynomial(_interpolate(xs, ys))
    if not disc:
        return None  # an eigenvalue repeated at every t
    core = square_free_part(disc)
    roots, brackets = [], []
    for bracket in real_root_brackets(core):
        value, (a, b, k) = refine_to_double(core, bracket)
        roots.append(value)
        brackets.append((dyadic_fraction(a, k), dyadic_fraction(b, k)))
    # Refined bracket ends are not roots, so each cell holds the point between.
    lows = [None] + [b for _, b in brackets]
    highs = [a for a, _ in brackets] + [None]
    counts = [
        len(real_root_brackets(integer_polynomial(fold.charpoly_at(_between(x, y))[0])))
        for x, y in zip(lows, highs)
    ]
    return RealityMap(len(disc) - 1, tuple(core), tuple(roots), tuple(counts))


@functools.lru_cache(maxsize=64)
def reality_map(family) -> RealityMap | None:
    """The family's reality map, built on first use from its fold; None where it has none."""
    fold = folded(family)
    if fold is None or fold.degree_bound > MAX_DISC_DEGREE:
        return None
    return _build(fold)
