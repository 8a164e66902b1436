"""Enumeration of prospective abnormal classes C(t, m, k) and their e-values.

For n >= 10 general points, every class of an abnormal curve is almost
uniform: C(t, m, k) = t*L - m*(E_1 + ... + E_n) - k*E_1 (the exceptional
index is fixed to 1, all permutations being equivalent for general points).
The admissible (t, m, k) satisfy a short list of exact integer and rational
constraints:

  (b)  -m < k  and  k^2 * (n-1) < n * min(m, m+k)
  (c)  m^2*n - m <= t^2 < m^2*n                      when k = 0,
       m^2*n + 2mk + max(k^2-m, k^2-(m+k), 0) <= t^2
                        and  n*t^2 < n*(m^2*n + 2mk) + k^2   when k != 0
  (d)  t^2 - (m+k)^2 - (n-1)*m^2 - 3t + m*n + k >= -2

and, when 0 < m < n and k != 0, the sharper almost-uniform constraints

       m + k > 0,  k^2 <= m,  2mk = t^2 - m^2*n,  m*sqrt(n)-1 < t < m*sqrt(n)+1.

For k = 0 the window m^2*n - m <= t^2 < m^2*n holds at most one t.  Any t
in it has t^2 >= 10m^2 - m > (3m - 1)^2, so t >= 3m, and consecutive squares
there lie 2t + 1 > m apart, farther than the width m of the window; the
largest t with t^2 < m^2*n is the only one that can reach it.  For nonsquare
n that is t = isqrt(m^2*n), and with the remainder r = m^2*n - t^2 the
window reads 0 < r <= m.  For square n, m^2*n is a square, so the largest
such t is m*sqrt(n) - 1, whose square lies 2m*sqrt(n) - 1 > m below m^2*n:
there is no k = 0 class.

The k = 0 classes come from a walk over the few m that can hold one, not a
test at every m.  Let n be nonsquare, theta = sqrt(n), d = isqrt(n),
delta = 1/(2d), and for q >= 1 let x_q = {q*theta} = q*theta - isqrt(q^2*n)
and y_q = 1 - x_q.

  * The window.  0 < r <= m gives t >= sqrt(m^2*n - m) = m*sqrt(n - 1/m),
    so x_m = r/(m*theta + t) <= 1/(theta + sqrt(n - 1/m)) < 1/(2d), as
    theta > d and n - 1/m >= d^2 (n - d^2 >= 1 >= 1/m).  So every k = 0
    class has x_m < delta; call such m the returns.
  * The gaps.  Let a be the least q with x_q < delta and b the least q
    with y_q < delta.  Then x_a + y_b >= delta: otherwise a > b would give
    x_{a-b} = x_a + y_b < delta with 0 < a - b < a, and a < b would give
    y_{b-a} = x_a + y_b < delta with 0 < b - a < b.
  * The step: the three-gap theorem (N. B. Slater, "Gaps and steps for the
    sequence n*theta mod 1", Proc. Cambridge Philos. Soc. 63, 1967),
    proved here for this window.  The least return is a.  From a return m
    with x = x_m, the next return is

        m + a      with x_{m+a} = x + x_a,              when x < delta - x_a;
        m + b      with x_{m+b} = x - y_b,              when x >= y_b;
        m + a + b  with x_{m+a+b} = x + x_a - y_b,      otherwise.

    As delta - x_a <= y_b, the three cases split [0, delta), and each new
    value lies in [0, delta); the third is at least delta - y_b > 0 and
    below x_a.  No return comes sooner.  A gap g to a return has x + x_g
    in [0, delta) or [1, 1 + delta), so x_g < delta - x (then g >= a) or
    y_g <= x (then g >= b).  In the first case a g < a needs
    y_g <= x < delta - x_a, and then x_{a-g} = x_a + y_g < delta with
    0 < a - g < a.  In the second a g < b needs x_g < delta - x <=
    delta - y_b, and then y_{b-g} = y_b + x_g < delta with 0 < b - g < b.
    In the third, g is neither a nor b, and a g < a + b needs either
    x_g < delta - x <= x_a, so g > a and y_{g-a} = x_a - x_g < delta with
    0 < g - a < b, or y_g <= x < y_b, so g > b and x_{g-b} = y_b - y_g <
    delta with 0 < g - b < a.  Each contradicts the least a or b.
  * The tests, in integers.  Let p_a = isqrt(a^2*n) and
    p_b = isqrt(b^2*n) + 1, so x_a = a*theta - p_a and
    y_b = p_b - b*theta.  With t = isqrt(m^2*n) at a return m, the next
    return's t is t + p_a, t + p_b or t + p_a + p_b, since the new x lies
    in [0, 1).  x < delta - x_a reads
    4d^2*(m + a)^2*n < (2d*(t + p_a) + 1)^2, and x >= y_b reads
    (t + p_b)^2 < (m + b)^2*n (never equal, n being nonsquare).  The two
    cases exclude each other, so the order of the tests does not matter.
  * a and b are one-sided semiconvergent denominators.  Write
    L(q, p) = q*theta - p.  Lemma: if u = (q_u, p_u) and z = (q_z, p_z)
    are integer vectors with q_u, q_z >= 0, q_u*p_z - p_u*q_z = +-1, and
    L(u), L(z) of opposite signs, every integer (q, p) with
    0 < q < q_u + q_z has L(q, p) outside the open interval between L(u)
    and L(z).  It is alpha*u + beta*z with integers alpha and beta, not
    both >= 1 (then q >= q_u + q_z) nor both <= 0 (then q <= 0); so one is
    >= 1 and the other <= 0, and L = alpha*L(u) + beta*L(z) lies beyond
    the L of the one >= 1.  Let p_k/q_k be the convergents of theta with
    partial quotients a_k, v_k = (q_k, p_k) and v_{-1} = (0, 1): L(v_k)
    has the sign of (-1)^k and consecutive v_k have determinant +-1.  The
    semiconvergents v_{k-1} + j*v_k, j = 1..a_{k+1}, lie on the side of
    v_{k-1}, with |L| falling in j down to |L(v_{k+1})|.  The lemma, on
    the pair (v_{k-1} + (j - 1)*v_k, v_k), says each has the least q whose
    x_q (on the lower side, k odd) or y_q (on the upper side, k even) is
    below the |L| of the one before it.  Along the lower side (from v_0)
    and the upper side (from v_{-1}) |L| falls, so a is the denominator of
    the first lower semiconvergent with L < delta, and b that of the first
    upper one with -L < delta; their numerators are p_a and p_b.
  * Finding them.  The partial quotients come from the usual exact
    recurrence for the complete quotients alpha_k = (P_k + sqrt(n))/Q_k of
    sqrt(n).  As theta = (alpha_{k+1}*p_k + p_{k-1})/(alpha_{k+1}*q_k +
    q_{k-1}), |L(v_k)| = 1/(alpha_{k+1}*q_k + q_{k-1}) and
    L(v_{k-1}) = -alpha_{k+1}*L(v_k), so |L(v_{k-1} + j*v_k)| =
    (alpha_{k+1} - j)*|L(v_k)|, and it is below delta exactly when
    (2d - q_k)*alpha_{k+1} < 2d*j + q_{k-1}.  While the side has no gap
    yet, this fails at j = 0, where the vector is v_{k-1}, the side's last
    semiconvergent so far (or v_{-1}, with |L| = 1).  So
    w = 2d - q_k > 0, as q_{k-1} >= 1 for k >= 1 and q_0 = 1 < 2d.  With
    P = P_{k+1} and Q = Q_{k+1}, the inequality reads
    j > R = (w*P + sqrt(w^2*n) - Q*q_{k-1})/(2d*Q), with R >= 0.  The
    least such j is floor(R) + 1, and floor(R) takes isqrt(w^2*n) for the
    irrational root (adding a fraction below 1 to an integer numerator
    cannot pass the next multiple of 2d*Q).  The run
    holds the side's first semiconvergent below delta exactly when that j
    is at most a_{k+1}.

The walk up to m_max costs O(m_max/sqrt(n) + log n) integer operations,
against the m_max square roots of a test at each m.

For 0 < m < n and k != 0, the almost-uniform constraints force m | t^2.
With m = a^2*s, s squarefree, the degree is t = a*s*j for one j next to
a*sqrt(n), so each m has at most one class, and one loop over
a <= isqrt(n - 1) finds them all: the table of `pinned_classes` (proof in
`enumerate_szcor`).  For square n the table is empty: below m = n there is
no class at all.  These classes and the gaps of the k = 0 walk form the
`class_table` of n, which depends on n alone: one table serves every
window of m.

For m >= n and k != 0 the enumeration runs over t, with one k per t.  By (b)
every admissible k has |k| <= K = isqrt((nm - 1) // (n - 1)): for k > 0,
k^2*(n-1) < nm, and for k < 0, k^2*(n-1) < n(m + k) < nm.  K < m, since
m^2*(n-1) > nm - 1 for m >= 2.  The lower bound of (c) is at least
m^2*n + 2mk and its upper bound grows with k, so every admissible t satisfies

       m^2*n - 2mK <= t^2 <= (n*(m^2*n + 2mK) + K^2 - 1) // n.

The window may hold a t whose k breaks (b); (b) is checked on every
candidate, so such a t yields nothing.

For a fixed t, the lower bound of (c) gives 2mk <= t^2 - m^2*n.  The upper
bound gives 2mk > t^2 - m^2*n - k^2/n, and k^2/n < m/(n-1) < 2m by (b), so
2mk > t^2 - m^2*n - 2m.  Hence k = floor((t^2 - m^2*n) / (2m)) is the only
candidate, and (b)-(d) are checked on it as written.  The t window holds
about 2*sqrt(m/n) + 1 integers, against the ~2*sqrt(m) values of k.

Each candidate carries the exact rational e = e(t, m, k) at which the nef
test class sqrt(n + delta)*L - sum(E_i) meets it with value zero; the minimum
e over the candidates that survive exclusion fixes the certified bound.

Where e can sit.  With s = mn + k and gap = s^2 - n*t^2, e = s^2/(n*gap).
For k = 0, gap = n*(m^2*n - t^2) with 1 <= m^2*n - t^2 <= m by (c), so
e >= m.  Every class with k != 0 that meets (b) and (c) has e > m(n - 1):

  * (c) reads m^2*n^2 + 2mnk <= n*t^2 < m^2*n^2 + 2mnk + k^2 (the max term
    only raises the lower bound), so 0 < gap <= k^2;
  * (b) times n*m gives n*m(n - 1)*k^2 < n^2*m*min(m, m + k);
  * n^2*m*min(m, m + k) <= s^2: for k > 0, n^2*m^2 < (mn + k)^2; for k < 0,
    n^2*m*(m + k) <= m^2*n^2 + 2mnk + k^2 is n^2*m*k <= 2mnk + k^2, that is
    n^2*m >= 2mn + k after dividing by k < 0, which holds as n >= 2;

so n*gap*m(n - 1) <= n*m(n - 1)*k^2 < s^2.  Hence no k != 0 class with
m(n - 1) >= e can undercut a level e, whatever its t.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import isqrt
from operator import attrgetter

from .lattice import DomainError, InvalidInput

_BY_M = attrgetter("m")


class CandidateTriple(namedtuple("CandidateTriple", "n t m k")):
    """A prospective abnormal class C(t, m, k) for n general points."""

    __slots__ = ()

    def __new__(cls, n: int, t: int, m: int, k: int) -> "CandidateTriple":
        if n < 10:
            raise DomainError(f"candidate analysis requires n >= 10, got {n}")
        if t < 1 or m < 1:
            raise InvalidInput(f"t and m must be positive, got t={t}, m={m}")
        return super().__new__(cls, n, t, m, k)

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def mult_sum(self) -> int:
        return self.m * self.n + self.k

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.m, 0 if self.k == 0 else 1, self.k, self.t)

    def label(self) -> str:
        return f"C({self.t},{self.m},{self.k})"


def szcor_b(n: int, m: int, k: int) -> bool:
    return -m < k and k * k * (n - 1) < n * min(m, m + k)


def szcor_c(n: int, t: int, m: int, k: int) -> bool:
    t2 = t * t
    base = m * m * n
    if k == 0:
        return base - m <= t2 < base
    lo = base + 2 * m * k + max(k * k - m, k * k - (m + k), 0)
    # upper bound t^2 < base + 2mk + k^2/n, cleared of the denominator
    return lo <= t2 and n * t2 < n * (base + 2 * m * k) + k * k


def szcor_d(n: int, t: int, m: int, k: int) -> bool:
    return t * t - (m + k) ** 2 - (n - 1) * m * m - 3 * t + m * n + k >= -2


def szcor_conditions(n: int, t: int, m: int, k: int) -> bool:
    """Conditions (a)-(d) for C(t, m, k); (a) is t > 0, m > 0."""
    return t > 0 and m > 0 and szcor_b(n, m, k) and szcor_c(n, t, m, k) and szcor_d(n, t, m, k)


def lemaaa_conditions(n: int, t: int, m: int, k: int) -> bool:
    """Almost-uniform tightenings, valid for 0 < m < n and k != 0."""
    if not (0 < m < n and k != 0):
        raise DomainError("tightenings apply only for 0 < m < n and k != 0")
    if m + k <= 0 or k * k > m:
        return False
    if t * t - m * m * n != 2 * m * k:
        return False
    # m*sqrt(n) - 1 < t < m*sqrt(n) + 1
    return (t + 1) ** 2 > m * m * n and (t - 1) ** 2 < m * m * n


def return_gaps(n: int) -> tuple[int, int, int, int] | None:
    """(a, p_a, b, p_b) of the k = 0 walk of nonsquare n, None for square
    n: a is the least q with {q*sqrt(n)} < 1/(2d), b the least q with
    {q*sqrt(n)} > 1 - 1/(2d), d = isqrt(n), p_a = isqrt(a^2*n) and
    p_b = isqrt(b^2*n) + 1.  Both are read off the one-sided
    semiconvergents of sqrt(n) (proof in the module docstring)."""
    d = isqrt(n)
    if d * d == n:
        return None
    e = 2 * d
    # v_{k-1}, v_k and the complete quotient (big_p + sqrt(n))/big_q, from k = 0
    q0, p0, q1, p1 = 0, 1, 1, d
    big_p, big_q, a_k = 0, 1, d
    # found[lower] for the upper and the lower side; v_0 = (1, d) opens the
    # lower side, and sqrt(n) - d < 1/(2d) reads 4d^2*n < (2d^2 + 1)^2
    found = [None, (1, d) if 4 * d * d * n < (e * d + 1) ** 2 else None]
    lower = 0  # the side of v_{k-1}, where the run v_{k-1} + j*v_k lies
    while None in found:
        big_p = a_k * big_q - big_p
        big_q = (n - big_p * big_p) // big_q
        a_k = (d + big_p) // big_q  # a_{k+1}
        if found[lower] is None:
            # the least j with (2d - q_k)*alpha_{k+1} < 2d*j + q_{k-1}
            w = e - q1
            j = (w * big_p + isqrt(w * w * n) - big_q * q0) // (e * big_q) + 1
            if j <= a_k:
                found[lower] = (q0 + j * q1, p0 + j * p1)
        q0, p0, q1, p1 = q1, p1, q0 + a_k * q1, p0 + a_k * p1
        lower = 1 - lower
    return found[1] + found[0]


def window_returns(
    n: int, gaps: tuple[int, int, int, int], m_max: int
) -> Iterator[tuple[int, int]]:
    """(m, isqrt(m^2*n)) for each m <= m_max with {m*sqrt(n)} < 1/(2d),
    d = isqrt(n), in increasing m: the three-gap walk of the module
    docstring over nonsquare n, from the least such m, with the
    `return_gaps` of n."""
    a, p_a, b, p_b = gaps
    d = isqrt(n)
    c, e = 4 * d * d * n, 2 * d
    m, t = a, p_a
    while m <= m_max:
        yield m, t
        # the three-gap step: x < delta - x_a, x >= y_b, or neither
        if c * (m + a) ** 2 < (e * (t + p_a) + 1) ** 2:
            m, t = m + a, t + p_a
        elif (t + p_b) ** 2 < (m + b) ** 2 * n:
            m, t = m + b, t + p_b
        else:
            m, t = m + a + b, t + p_a + p_b


def k0_classes(
    n: int, gaps: tuple[int, int, int, int] | None, m_min: int, m_max: int
) -> list[CandidateTriple]:
    """The k = 0 classes with m_min <= m <= m_max, in increasing m: the
    `window_returns` of n that pass 0 < r <= m and condition (d).  gaps
    is the `return_gaps` of n, None for square n, which has no such
    class."""
    out: list[CandidateTriple] = []
    if gaps is None:
        return out
    for m, t in window_returns(n, gaps, m_max):
        if m >= m_min:
            r = m * m * n - t * t
            if 0 < r <= m and szcor_d(n, t, m, 0):
                out.append(CandidateTriple(n, t, m, 0))
    return out


def pinned_classes(n: int) -> tuple[CandidateTriple, ...]:
    """Every k != 0 class of n with m < n, in increasing m.

    By the lemma in `enumerate_szcor`, each is (t, m, k) = (a*s*j, a^2*s,
    s*(j^2 - a^2*n)/2) with s squarefree, j the one of isqrt(a^2*n) and
    isqrt(a^2*n) + 1 with |j^2 - a^2*n| <= 2a, if either, and
    s*(j^2 - a^2*n)^2 <= 4a^2.  Every such triple with an even
    s*(j^2 - a^2*n), s squarefree or not, is checked against the
    constraints as written.
    """
    by_m: dict[int, CandidateTriple] = {}
    for a in range(1, isqrt(n - 1) + 1):
        a2 = a * a
        j = isqrt(a2 * n)
        g = j * j - a2 * n
        if g < -2 * a or g == 0:
            # j0 gives k = 0 or misses |g| <= 2a: only j0 + 1 can meet it
            g += 2 * j + 1
            j += 1
            if g > 2 * a:
                continue
        # k^2 <= m reads s*g^2 <= 4a^2; an s that is not squarefree only
        # finds again the one class of its m
        for s in range(1, min(4 * a2 // (g * g), (n - 1) // a2) + 1):
            if s * g % 2:
                continue
            t, m, k = a * s * j, a2 * s, s * g // 2
            if lemaaa_conditions(n, t, m, k) and szcor_conditions(n, t, m, k):
                by_m[m] = CandidateTriple(n, t, m, k)
    return tuple(sorted(by_m.values(), key=_BY_M))


class ClassTable(namedtuple("ClassTable", "n gaps pinned")):
    """What `enumerate_szcor` reads of n besides its t-scan at m >= n,
    built by `class_table`: gaps, the `return_gaps` of the k = 0 walk,
    and pinned, the `pinned_classes` of n, every k != 0 class with m < n.
    It depends on n alone, so one table serves every window of m."""

    __slots__ = ()


def class_table(n: int) -> ClassTable:
    """The table of n: the gaps of its k = 0 walk and its pinned classes."""
    return ClassTable(n, return_gaps(n), pinned_classes(n))


def enumerate_szcor(
    n: int, m_max: int, m_min: int = 1, table: ClassTable | None = None
) -> list[CandidateTriple]:
    """All candidates with m_min <= m <= m_max, sorted by (m, k=0 first, k, t).

    table is the `class_table` of n; without one, the call builds its own,
    and a table of another n is refused.  The table gives every class
    below m = n; a loop over m runs only for the k != 0 classes at m >= n.

    For k = 0 the classes come from `k0_classes`: the walk over the m with
    {m*sqrt(n)} < 1/(2d), d = isqrt(n), steps by the gaps of the table
    (three-gap theorem, proved in the module docstring), and each return
    passes the window test 0 < r <= m and condition (d).  Every call walks
    from the least return, so any window gives what a fresh table gives.

    For k != 0 and m < n the classes are read from the table's pinned
    classes.  The lemma behind them: the almost-uniform constraints give
    2mk = t^2 - m^2*n, so m | t^2.  Write m = a^2*s with s squarefree.
    Each prime p has v_p(m) = 2v_p(a) + 1 if p | s and 2v_p(a) if not, and
    2v_p(t) >= v_p(m), so v_p(t) >= v_p(a) + 1 if p | s and
    v_p(t) >= v_p(a) if not: a*s | t.  With t = a*s*j, dividing
    2mk = t^2 - m^2*n by a^2*s gives 2k = s*(j^2 - a^2*n), and k != 0
    makes j^2 != a^2*n.  Then k^2 <= m reads s*(j^2 - a^2*n)^2 <= 4a^2,
    and m*sqrt(n) - 1 < t < m*sqrt(n) + 1, divided by a*s >= 1, gives
    |j - a*sqrt(n)| < 1, so j is j0 = isqrt(a^2*n) or j0 + 1.  The k^2
    bound needs |j^2 - a^2*n| <= 2a, and only one of the two can meet it:
    their distances a^2*n - j0^2 and (j0 + 1)^2 - a^2*n sum to
    2j0 + 1 > 4a, as j0 >= isqrt(10a^2) >= 3a.  So a loop over
    a <= isqrt(n - 1) (a^2 <= m < n), that j and the s the k^2 bound
    allows finds every class, and the s loop is empty for most a.  m
    determines a and s, so each m < n has at most one k != 0 class.
    O(sqrt(n)) work per table, against a test at each of the n - 1 values
    of m.

    For m >= n the scan runs over t, not k: condition (c), with |k| <= K
    from condition (b), bounds t, and each t in that window admits only
    k = floor((t^2 - m^2*n) / (2m)), which `szcor_conditions` then checks
    (see the module docstring).  O(sqrt(m/n) + 1) work per m >= n.

    The order is one stable sort by m.  The walk gives at most one class
    per m, in increasing m.  The k != 0 list is in increasing m too:
    the pinned classes, at most one per m < n, then the scan, m by m from
    max(m_min, n).  Within one m >= n, every t in the window has
    t^2 >= m^2*n - 2mK > m^2*(n - 2) >= 8m^2 (K < m), so t > 2m and each
    step t -> t + 1 adds 2t + 1 > 2m to t^2: k = floor((t^2 - m^2*n) / (2m))
    strictly increases with t, and so does (k, t).  The k = 0 classes come
    before the k != 0 list, and a stable sort keeps that order among
    classes of equal m, so each m gives its k = 0 class first and then its
    k != 0 classes in (k, t) order.
    """
    if n < 10:
        raise DomainError(f"enumeration requires n >= 10, got {n}")
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if m_min < 1:
        raise DomainError(f"m_min must be >= 1, got {m_min}")
    if table is None:
        table = class_table(n)
    elif table.n != n:
        raise InvalidInput(f"the class table is of n = {table.n}, not n = {n}")
    knz = [c for c in table.pinned if m_min <= c.m <= m_max]
    for m in range(max(m_min, n), m_max + 1):
        # k != 0: one k per degree t, with |k| <= K by condition (b)
        base = m * m * n
        k_max = isqrt((n * m - 1) // (n - 1))
        t_hi2 = (n * (base + 2 * m * k_max) + k_max * k_max - 1) // n
        # from ceil(sqrt(x)) = isqrt(x - 1) + 1, x = base - 2mK >= m^2*(n - 2) > 0
        for t in range(isqrt(base - 2 * m * k_max - 1) + 1, isqrt(t_hi2) + 1):
            k = (t * t - base) // (2 * m)
            if k != 0 and szcor_conditions(n, t, m, k):
                knz.append(CandidateTriple(n, t, m, k))
    return sorted(k0_classes(n, table.gaps, m_min, m_max) + knz, key=_BY_M)


def e_value(c: CandidateTriple) -> Fraction:
    """Exact e of an abnormal candidate; its f is n*e.

    e is defined by (1/sqrt(n)) * sqrt(1 - 1/(e*n)) = t/(m*n + k), which
    rearranges to e = (mn+k)^2 / (n*((mn+k)^2 - n*t^2)).
    """
    s = c.mult_sum
    gap = s * s - c.n * c.t * c.t
    if gap <= 0:
        raise DomainError(f"{c.label()} is not abnormal for n={c.n}")
    return Fraction(s * s, c.n * gap)
