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

Each m costs one integer square root: t = isqrt(m^2*n) and the remainder
r = m^2*n - t^2, so 0 <= r <= 2t.  r = 0 exactly when m^2*n is a square,
that is when n is (m^2*n = s^2 makes n = (s/m)^2 a rational square, hence
an integer one).

For k = 0 the window m^2*n - m <= t^2 < m^2*n holds at most one t.  Any t
in it has t^2 >= 10m^2 - m > (3m - 1)^2, so t >= 3m, and consecutive squares
there lie 2t + 1 > m apart, farther than the width m of the window; the
largest t with t^2 < m^2*n is the only one that can reach it.  For nonsquare
n that is t = isqrt(m^2*n), and the window reads 0 < r <= m.  For square n,
r = 0 and the largest such t is m*sqrt(n) - 1, whose square lies
2m*sqrt(n) - 1 > m below m^2*n: there is no k = 0 class.

For 0 < m < n and k != 0, the almost-uniform constraints force m | t^2.
With m = a^2*s, s squarefree, the degree is t = a*s*j for one j next to
a*sqrt(n), so each m has at most one class, and one loop over
a <= isqrt(n - 1) finds them all: the table of `pinned_classes` (proof in
`enumerate_szcor`).  For square n the table is empty: below m = n there is
no class at all.

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
from fractions import Fraction
from math import isqrt

from .lattice import DomainError, InvalidInput, ceil_sqrt


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


class PinnedClasses(namedtuple("PinnedClasses", "n m_top by_m")):
    """The k != 0 classes of n with m <= m_top < n, built by
    `pinned_classes`: by_m maps each m that has a class to that class."""

    __slots__ = ()


def pinned_classes(n: int, m_top: int) -> PinnedClasses:
    """Every k != 0 class of n with m <= min(m_top, n - 1).

    By the lemma in `enumerate_szcor`, each is (t, m, k) = (a*s*j, a^2*s,
    s*(j^2 - a^2*n)/2) with s squarefree, j the one of isqrt(a^2*n) and
    isqrt(a^2*n) + 1 with |j^2 - a^2*n| <= 2a, if either, and
    s*(j^2 - a^2*n)^2 <= 4a^2.  Every such triple with an even
    s*(j^2 - a^2*n), s squarefree or not, is checked against the
    constraints as written.
    """
    m_top = min(m_top, n - 1)
    by_m: dict[int, CandidateTriple] = {}
    for a in range(1, isqrt(m_top) + 1):
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
        for s in range(1, min(4 * a2 // (g * g), m_top // a2) + 1):
            if s * g % 2:
                continue
            t, m, k = a * s * j, a2 * s, s * g // 2
            if lemaaa_conditions(n, t, m, k) and szcor_conditions(n, t, m, k):
                by_m[m] = CandidateTriple(n, t, m, k)
    return PinnedClasses(n, m_top, by_m)


def enumerate_szcor(
    n: int, m_max: int, m_min: int = 1, pinned: PinnedClasses | None = None
) -> list[CandidateTriple]:
    """All candidates with m_min <= m <= m_max, sorted by (m, k=0 first, k, t).

    Each m starts from t = isqrt(m^2*n) and r = m^2*n - t^2 (see the
    module docstring).  For k = 0 the degree window m^2*n - m <= t^2 < m^2*n
    holds a class only at this t and only when 0 < r <= m; r = 0 means n is
    a square, with no k = 0 class.

    For k != 0 and m < n the classes are read from pinned, a table of n
    that must cover m <= min(m_max, n - 1); without one, the call builds
    its own with `pinned_classes`.  The lemma behind the table: the
    almost-uniform constraints give 2mk = t^2 - m^2*n, so m | t^2.  Write
    m = a^2*s with s squarefree.  Each prime p has v_p(m) = 2v_p(a) + 1 if
    p | s and 2v_p(a) if not, and 2v_p(t) >= v_p(m), so v_p(t) >= v_p(a) + 1
    if p | s and v_p(t) >= v_p(a) if not: a*s | t.  With t = a*s*j,
    dividing 2mk = t^2 - m^2*n by a^2*s gives 2k = s*(j^2 - a^2*n), and
    k != 0 makes j^2 != a^2*n.  Then k^2 <= m reads
    s*(j^2 - a^2*n)^2 <= 4a^2, and m*sqrt(n) - 1 < t < m*sqrt(n) + 1,
    divided by a*s >= 1, gives |j - a*sqrt(n)| < 1, so j is
    j0 = isqrt(a^2*n) or j0 + 1.  The k^2 bound needs
    |j^2 - a^2*n| <= 2a, and only one of the two can meet it: their
    distances a^2*n - j0^2 and (j0 + 1)^2 - a^2*n sum to 2j0 + 1 > 4a, as
    j0 >= isqrt(10a^2) >= 3a.  So a loop over a <= isqrt(n - 1) (a^2 <= m
    < n), that j and the s the k^2 bound allows finds every class, and
    the s loop is empty for most a.  m determines a and s, so each m < n
    has at most one k != 0 class.  O(sqrt(n)) work per table, against a
    test at each of the n - 1 values of m.

    For m >= n the scan runs over t, not k: condition (c), with |k| <= K
    from condition (b), bounds t, and each t in that window admits only
    k = floor((t^2 - m^2*n) / (2m)), which `szcor_conditions` then checks
    (see the module docstring).  O(sqrt(m/n) + 1) work per m >= n.

    The order needs no sort.  m increases and each m emits its k = 0 class
    first.  Below m = n, it has at most one k != 0 class.  From m = n on,
    every t in the window has
    t^2 >= m^2*n - 2mK > m^2*(n - 2) >= 8m^2 (K < m), so t > 2m and each
    step t -> t + 1 adds 2t + 1 > 2m to t^2: k = floor((t^2 - m^2*n) / (2m))
    strictly increases with t.
    """
    if n < 10:
        raise DomainError(f"enumeration requires n >= 10, got {n}")
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if m_min < 1:
        raise DomainError(f"m_min must be >= 1, got {m_min}")
    if pinned is None:
        pinned = pinned_classes(n, m_max)
    elif pinned.n != n or pinned.m_top < min(m_max, n - 1):
        raise InvalidInput(f"the pinned table covers m <= {pinned.m_top} at n = {pinned.n}, "
                           f"not m <= {min(m_max, n - 1)} at n = {n}")
    by_m = pinned.by_m
    out: list[CandidateTriple] = []
    for m in range(m_min, m_max + 1):
        base = m * m * n
        t = isqrt(base)
        r = base - t * t
        # k = 0: t^2 in [base - m, base); r = 0 (square n) admits none
        if 0 < r <= m and szcor_d(n, t, m, 0):
            out.append(CandidateTriple(n, t, m, 0))
        if m < n:
            if m in by_m:
                out.append(by_m[m])
        else:
            # k != 0: one k per degree t, with |k| <= K by condition (b)
            k_max = isqrt((n * m - 1) // (n - 1))
            t_hi2 = (n * (base + 2 * m * k_max) + k_max * k_max - 1) // n
            for t in range(ceil_sqrt(base - 2 * m * k_max), isqrt(t_hi2) + 1):
                k = (t * t - base) // (2 * m)
                if k != 0 and szcor_conditions(n, t, m, k):
                    out.append(CandidateTriple(n, t, m, k))
    return out


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
