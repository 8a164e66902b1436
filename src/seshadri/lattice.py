"""Exact arithmetic substrate: integer square roots and surd signs.

Kept here, with the package's two error types:

* integer square-root helpers (ceil_sqrt, is_square); the floor is
  math.isqrt itself,
* exact sign decisions for numbers of the form a + b*sqrt(q) with a, b, q
  rational and q >= 0.

Divisor classes t*L - m_1*E_1 - ... - m_n*E_n are plain data where they are
used: a degree and a multiplicity tuple.

No floating point is used anywhere, display included (render.truncate2
floors a surd with isqrt); decisions that look like "t < m*sqrt(n)" are
settled by comparing squares of integers or rationals.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

Q = Fraction
Rational = int | Fraction

NEGATIVE = -1
ZERO = 0
POSITIVE = 1


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class InvalidInput(ValueError):
    """Structurally bad input (wrong length, degenerate vector, ...)."""


def ceil_sqrt(x: int) -> int:
    """Smallest integer s >= 0 with s*s >= x."""
    if x <= 0:
        return 0
    return isqrt(x - 1) + 1


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign(x: Rational) -> int:
    if x > 0:
        return POSITIVE
    if x < 0:
        return NEGATIVE
    return ZERO


class QuadraticExpr(namedtuple("QuadraticExpr", "a b q")):
    """The real number a + b*sqrt(q), with a, b, q rational and q >= 0.

    The sign is decidable from (a, b, q) alone by comparing a^2 with b^2*q,
    so no square root is ever extracted.  q is not normalized to squarefree
    form; values like n - 1/mu are used as-is.  The parts are stored as
    Fractions whatever rationals are given.
    """

    __slots__ = ()

    def __new__(cls, a: Rational, b: Rational, q: Rational) -> "QuadraticExpr":
        self = super().__new__(cls, Fraction(a), Fraction(b), Fraction(q))
        if self.q < 0:
            raise DomainError(f"radicand must be >= 0, got {self.q}")
        return self

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))


# A closed-form value: a rational, or a surd in Q(sqrt(n)).
Value = Fraction | QuadraticExpr


def sign_of(x: QuadraticExpr) -> int:
    """Exact sign of a + b*sqrt(q).

    When a and b agree in sign the answer is immediate; when they disagree
    the dominant term is found by comparing a^2 against b^2*q.
    """
    if x.q == 0 or x.b == 0:
        return _sign(x.a)
    sa = _sign(x.a)
    sb = _sign(x.b)
    if sa == ZERO:
        return sb
    if sa == sb:
        return sa
    lhs = x.a * x.a
    rhs = x.b * x.b * x.q
    if lhs > rhs:
        return sa
    if lhs < rhs:
        return sb
    return ZERO


def compare_values(x: Rational | QuadraticExpr, y: Rational | QuadraticExpr) -> int:
    """Compare two values that are rationals or surds over a common radicand.

    Used when ranking closed-form bounds; raises if the radicands genuinely
    differ (never happens for the bounds handled here, which all live in
    Q(sqrt(n)) for a single n).
    """
    xa, xb, xq = _as_triple(x)
    ya, yb, yq = _as_triple(y)
    if xb != 0 and yb != 0 and xq != yq:
        raise DomainError(f"incomparable radicands {xq} and {yq}")
    q = xq if xb != 0 else yq
    return sign_of(QuadraticExpr(xa - ya, xb - yb, q))


def _as_triple(x: Rational | QuadraticExpr) -> tuple[Fraction, Fraction, Fraction]:
    if isinstance(x, QuadraticExpr):
        return x.a, x.b, x.q
    return Fraction(x), Fraction(0), Fraction(0)
