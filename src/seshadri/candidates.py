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

For k = 0 the window m^2*n - m <= t^2 < m^2*n holds at most one t, namely
t = isqrt(m^2*n - 1).  Any t in it has t^2 >= 10m^2 - m > (3m - 1)^2, so
t >= 3m, and consecutive squares there lie 2t + 1 > m apart, farther than
the width m of the window; the largest t with t^2 < m^2*n is the only one
that can reach it.

For m >= n and k != 0 the enumeration runs over t, with one k per t.  By (b)
the nonzero k lie in [k_min, k_max] with k_max = isqrt((nm-1)//(n-1)) and
k_min = -j, j the largest integer with j^2*(n-1) + n*j < n*m (that forces
j < m), or k_min = 1 when j = 0.  The lower bound of (c) is at least
m^2*n + 2mk and its upper bound grows with k, so every admissible t satisfies

       m^2*n + 2m*k_min <= t^2 <= (n*(m^2*n + 2m*k_max) + k_max^2 - 1) // n.

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


def enumerate_szcor(n: int, m_max: int, m_min: int = 1) -> list[CandidateTriple]:
    """All candidates with m_min <= m <= m_max, sorted by (m, k=0 first, k, t).

    For k = 0 the degree window m^2*n - m <= t^2 < m^2*n holds at most
    t = isqrt(m^2*n - 1) (see the module docstring).  For k != 0 and
    m < n the almost-uniform constraints pin t to one of the at most two
    integers adjacent to m*sqrt(n) and force k = (t^2 - m^2*n) / (2m).  For
    m >= n the scan runs over t, not k: condition (c) over the k range of
    condition (b) bounds t, and each t in that window admits only
    k = floor((t^2 - m^2*n) / (2m)), which `szcor_conditions` then checks
    (see the module docstring).  O(sqrt(m/n) + 1) work per m >= n.

    The order needs no sort.  m increases and each m emits its k = 0 class
    first.  Below m = n, k = (t^2 - m^2*n) / (2m) grows with t over
    t = tm, tm + 1.  From m = n on, every t in the window has
    t^2 >= m^2*n + 2m*k_min > m^2*(n - 2) >= 8m^2, so t > 2m and each step
    t -> t + 1 adds 2t + 1 > 2m to t^2: k = floor((t^2 - m^2*n) / (2m))
    strictly increases with t.
    """
    if n < 10:
        raise DomainError(f"enumeration requires n >= 10, got {n}")
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if m_min < 1:
        raise DomainError(f"m_min must be >= 1, got {m_min}")
    out: list[CandidateTriple] = []
    for m in range(m_min, m_max + 1):
        base = m * m * n
        # k = 0: the one t with t^2 < base that can reach base - m
        t = isqrt(base - 1)
        if t * t >= base - m and szcor_d(n, t, m, 0):
            out.append(CandidateTriple(n, t, m, 0))
        if m < n:
            # k != 0 pinned by the almost-uniform constraints; t >= isqrt(10m^2)
            # >= 3, and num != 0 with 2m | num makes k nonzero
            tm = isqrt(base)
            for t in (tm, tm + 1):
                num = t * t - base
                if num == 0 or num % (2 * m) != 0:
                    continue
                k = num // (2 * m)
                if not lemaaa_conditions(n, t, m, k):
                    continue
                if szcor_conditions(n, t, m, k):
                    out.append(CandidateTriple(n, t, m, k))
        else:
            # k != 0: one k per degree t
            k_lo, k_hi = _k_bounds(n, m)
            t_hi2 = (n * (base + 2 * m * k_hi) + k_hi * k_hi - 1) // n
            for t in range(ceil_sqrt(base + 2 * m * k_lo), isqrt(t_hi2) + 1):
                k = (t * t - base) // (2 * m)
                if k != 0 and szcor_conditions(n, t, m, k):
                    out.append(CandidateTriple(n, t, m, k))
    return out


def _k_bounds(n: int, m: int) -> tuple[int, int]:
    """Least and greatest nonzero k admitted by condition (b), for m >= 1.

    The admitted k are exactly the nonzero integers between the two.  The
    greatest is isqrt((nm - 1) // (n - 1)).  The least is -j for the largest
    j with j^2*(n-1) + n*j < n*m (such j is below m), or 1 when j = 0.
    """
    k_hi = isqrt((n * m - 1) // (n - 1))
    # floor of the positive root of (n-1)j^2 + nj - nm; one step down when
    # that root is itself an integer
    j = (isqrt(n * n + 4 * (n - 1) * n * m) - n) // (2 * (n - 1))
    while j * j * (n - 1) + n * j >= n * m:
        j -= 1
    return (-j if j else 1), k_hi


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
