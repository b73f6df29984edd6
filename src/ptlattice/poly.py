"""Exact polynomial kernel on Python integers and rationals.

Polynomials are ascending coefficient lists, ``[]`` being zero.  The
characteristic-polynomial recurrence of a lattice matrix, the primitive
remainder-sequence gcd and Yun's square-free split serve both the
characteristic-polynomial oracle (``charpoly``) and the exact reality engine
(``exact``); the engine's square-free part tries a gcd modulo a prime
before the one over the integers.  Real roots of a square-free integer
polynomial are isolated by Descartes' rule of signs with bisection on
integer Taylor shifts (Collins and Akritas, SYMSAC 1976), and each is
refined by its sign alone, evaluated by integer Horner at dyadic points,
until it is the correctly rounded double.

The module imports no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


def _add(p, q) -> list:
    """Sum of polynomials: ascending coefficient lists of ints, [] being zero."""
    return [a + b for a, b in zip_longest(p, q, fillvalue=0)]


def _tridiag_charpoly(diag, bands) -> list:
    """Ascending coefficients of det(T - lambda I) for a tridiagonal block.

    bands[k] is the product T[k+1, k] * T[k, k+1] of the k-th band pair.
    """
    prev, cur = [], [1]
    for k, a in enumerate(diag):
        coupling = bands[k - 1] if k else 0
        nxt = _add([a * c for c in cur], [0] + [-c for c in cur])
        prev, cur = cur, _add(nxt, [-coupling * c for c in prev])
    return cur


def _bordered_charpoly(diag, bands, gammabeta, cycle) -> list:
    """det(M - lambda I) for tridiagonal M plus corners gamma = M[1,n], beta = M[n,1].

    Laplace expansion along the border column gives D_{1..n} - gamma*beta*D_{2..n-1}
    + cycle, D the band-minor charpolys and the cycle term
    (-1)^(n+1) * (gamma*prod(sub) + beta*prod(sup)).  The entries may be ints
    or Fractions; with n < 3 the corners are band entries and are ignored.
    """
    p = _tridiag_charpoly(diag, bands)
    if len(diag) < 3 or not (gammabeta or cycle):
        return p
    inner = _tridiag_charpoly(diag[1:-1], bands[1:-1])
    p = _add(p, [-gammabeta * c for c in inner])
    p[0] += cycle
    return p


def _trim(p) -> list:
    """p without trailing zero coefficients."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _peval(p, x):
    """p(x) by Horner's rule, for an int or Fraction x."""
    h = 0
    for c in reversed(p):
        h = h * x + c
    return h


def _primitive(p) -> list:
    """p over its content, leading coefficient positive."""
    p = _trim(p)
    g = math.gcd(*p) if p else 1
    return [c // (g if p[-1] > 0 else -g) for c in p]


def _derivative(p) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _pseudo_remainder(a, b) -> list:
    """The remainder of lc(b)^(deg a - deg b + 1) a by b, integer polynomials.

    Where deg a < deg b it is a itself.
    """
    r, lead = list(a), b[-1]
    for shift in reversed(range(len(a) - len(b) + 1)):
        q = r[shift + len(b) - 1]
        r = [c * lead for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= q * c
    del r[len(b) - 1 :]
    return _trim(r)


def _gcd(a, b) -> list:
    """Primitive gcd, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _quotient(a, b) -> list:
    """a / b for a primitive b that divides a: the quotient is integral (Gauss)."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for s in reversed(range(len(q))):
        q[s] = a[s + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            a[s + j] -= q[s] * c
    return q


def _square_free(p):
    """Yun's decomposition: pairs (f, k), each f square-free, p ~ prod f^k.

    A p that the modular test of square_free_part shows square-free is its
    own decomposition, without the integer remainder sequence.
    """
    dp = _derivative(p)
    if len(p) > 1 and p[-1] % _PRIME and _gcd_degree_mod(p, dp, _PRIME) == 0:
        yield _primitive(p), 1
        return
    a = _gcd(p, dp)
    b, c = _quotient(p, a), _quotient(dp, a)
    k = 1
    while len(b) > 1:
        d = _add(c, [-x for x in _derivative(b)])
        a = _gcd(b, d)
        yield a, k
        b, c = _quotient(b, a), _quotient(d, a)
        k += 1


def integer_polynomial(coeffs) -> list:
    """The primitive integer polynomial with the roots of rational coefficients."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (scale // c.denominator) for c in coeffs])


# A Mersenne prime for the modular square-free test.
_PRIME = 2**61 - 1


def _gcd_degree_mod(a, b, q: int) -> int:
    """Degree of gcd(a mod q, b mod q) over GF(q), q prime; -1 where both vanish."""
    a, b = _trim(c % q for c in a), _trim(c % q for c in b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % q, len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] = (a[shift + j] - f * c) % q
            a = _trim(a)
        a, b = b, a
    return len(a) - 1


def square_free_part(p) -> list:
    """p / gcd(p, p'): each root of a non-zero integer p once.

    Where q does not divide lc(p), the integer gcd reduces mod q to a
    divisor of the modular gcd of the same degree; so a modular gcd of
    degree 0 shows p square-free without the integer remainder sequence.
    """
    p = _primitive(p)
    if len(p) < 2:
        return p
    dp = _derivative(p)
    if p[-1] % _PRIME and _gcd_degree_mod(p, dp, _PRIME) == 0:
        return p
    return _quotient(p, _gcd(p, dp))


# ------------------------------------------------------------- real roots


def _taylor_shift(p) -> list:
    """Coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _sign_changes(p) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_roots(p, bits: int) -> list:
    """Brackets of the roots of p in (0, 2^bits), ascending; p(0) != 0.

    A bracket (a, b, k) is the open interval (a / 2^k, b / 2^k) holding one
    root, or the root a / 2^k itself when a == b.  Each node is
    q(y) = 2^(k d) p(2^bits (c + y) / 2^k) on y in (0, 1), whose root count
    Descartes' rule bounds by the sign changes of (1 + y)^d q(1 / (1 + y)).
    """
    d = len(p) - 1
    if bits >= 0:
        q = [c << (bits * i) for i, c in enumerate(p)]
    else:
        q = [c << (-bits * (d - i)) for i, c in enumerate(p)]
    found, stack = [], [(q, 0, 0)]
    while stack:
        q, c, k = stack.pop()
        if not q[0]:  # a root at the left end, which a parent split at
            found.append((c, c, k - bits))
            q = q[1:]
        changes = _sign_changes(_taylor_shift(q[::-1]))
        if changes == 1:
            found.append((c, c + 1, k - bits))
        elif changes > 1:
            half = [x << (len(q) - 1 - i) for i, x in enumerate(q)]  # 2^d q(y / 2)
            stack.append((_taylor_shift(half), 2 * c + 1, k + 1))
            stack.append((half, 2 * c, k + 1))
    return found


def real_root_brackets(p) -> list:
    """Disjoint brackets (a, b, k) of the real roots of a square-free integer p.

    Ascending; each is the open interval (a / 2^k, b / 2^k) holding exactly
    one root, or the dyadic root a / 2^k itself when a == b.  A bracket's
    ends may be other roots, so an end is a root or not only by its sign.
    """
    p = _primitive(p)
    zero = []
    if p and not p[0]:
        zero, p = [(0, 0, 0)], p[1:]
    if len(p) < 2:
        return zero
    deg, lead = len(p) - 1, p[-1].bit_length()
    # Fujiwara's bound: every root lies below 2^bits in modulus.
    bits = max((c.bit_length() - lead) // (deg - i) + 2 for i, c in enumerate(p[:-1]) if c)
    mirrored = [-c if i % 2 else c for i, c in enumerate(p)]  # p(-x)
    negative = [(-b, -a, k) for a, b, k in reversed(_positive_roots(mirrored, bits))]
    return negative + zero + _positive_roots(p, bits)


def sign_at(p, a: int, k: int) -> int:
    """Sign of the integer polynomial p at the dyadic a / 2^k."""
    if k <= 0:
        h = _peval(p, a << -k)
    else:  # 2^(k deg) p(a / 2^k)
        h = p[-1] if p else 0
        for i, c in enumerate(reversed(p[:-1]), 1):
            h = h * a + (c << (k * i))
    return (h > 0) - (h < 0)


def dyadic_fraction(a: int, k: int) -> Fraction:
    return Fraction(a, 1 << k) if k >= 0 else Fraction(a << -k)


def dyadic_float(a: int, k: int) -> float:
    """a / 2^k correctly rounded to a double; beyond the doubles, an infinity."""
    try:
        return a / (1 << k) if k >= 0 else float(a << -k)
    except OverflowError:
        return math.copysign(math.inf, a)


def root_side(p, bracket, x) -> int:
    """1, 0 or -1 as the root in a bracket of p lies above, at or below the dyadic x.

    x is a Fraction whose denominator is a power of two.  Where x falls
    inside the bracket, the sign of p at x decides against the sign just
    right of the bracket's left end.
    """
    a, b, k = bracket
    lo, hi = dyadic_fraction(a, k), dyadic_fraction(b, k)
    if a == b:
        return (lo > x) - (lo < x)
    if x <= lo or x >= hi:
        return 1 if x <= lo else -1
    side = sign_at(p, x.numerator, x.denominator.bit_length() - 1)
    return side and (1 if side == _rising(p, a, k) else -1)


def _rising(p, a: int, k: int) -> int:
    """Sign of p just right of a / 2^k, a simple root of p or no root."""
    return sign_at(p, a, k) or sign_at(_derivative(p), a, k)


def refine_to_double(p, bracket) -> tuple:
    """Narrow a bracket of a simple root of p until it rounds to one double.

    Bisects on the sign of p alone.  The side of a midpoint is read against
    the sign of p just right of the left end, which is the derivative's sign
    where that end is itself a root.  The narrowed bracket's ends are not
    roots, so a cell between two roots is never empty of non-roots.
    Returns the correctly rounded root and the narrowed bracket.
    """
    a, b, k = bracket
    if a == b:
        return dyadic_float(a, k), bracket
    rising = _rising(p, a, k)
    open_a, open_b = sign_at(p, a, k) != 0, sign_at(p, b, k) != 0
    while not (open_a and open_b) or dyadic_float(a, k) != dyadic_float(b, k):
        m, a, b, k = a + b, 2 * a, 2 * b, k + 1
        side = sign_at(p, m, k)
        if not side:
            return dyadic_float(m, k), (m, m, k)
        if side == rising:
            a, open_a = m, True
        else:
            b, open_b = m, True
    return dyadic_float(a, k), (a, b, k)
