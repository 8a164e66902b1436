"""Shared reference implementations and helpers for the test suite."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

import pytest

from seshadri.candidates import (
    CandidateTriple,
    lemaaa_conditions,
    szcor_conditions,
    szcor_d,
)
from seshadri.lattice import DomainError, InvalidInput, ceil_sqrt, floor_sqrt


def unload_literal(mults):
    """Reference unloading: smallest violating index first, one move at a time.

    Interior move at j: add 1 to entry j-1 and subtract 1 from entry j (the
    class meets E_j - E_{j+1} negatively); tail move: raise a negative last
    entry by 1.  Independent of the production implementation.
    """
    b = list(mults)
    n = len(b)
    cap = (n * (1 + sum(abs(x) for x in b))) ** 2 + n
    steps = 0
    while True:
        j = None
        for i in range(1, n):
            if b[i - 1] < b[i]:
                j = i
                break
        if j is None and b[n - 1] < 0:
            j = n
        if j is None:
            return tuple(b)
        if j == n:
            b[n - 1] += 1
        else:
            b[j - 1] += 1
            b[j] -= 1
        steps += 1
        assert steps <= cap, "literal unloading diverged"


def step_normal_form_literal(b, r):
    """Reference specialization step on a list: subtract 1 from the first r
    entries of a normal-form vector, re-sort, and raise entries driven to -1
    back to 0 (the unloading fixpoint for such inputs).  In place."""
    for i in range(r):
        b[i] -= 1
    b.sort(reverse=True)
    i = len(b) - 1
    while i >= 0 and b[i] < 0:
        b[i] = 0
        i -= 1


def criterion_literal(t0, mults, cfg):
    """Reference criterion: walk the whole trace of t0 as a list, checking
    D_i . C <= g - 1 while t_i >= d, then the final inequality at j."""
    d, r, g = cfg.d, cfg.r, cfg.g
    t = t0
    b = list(mults)
    while t >= d:
        if d * t - sum(b[:r]) > g - 1:
            return False
        t -= d
        step_normal_form_literal(b, r)
    return (t + 1) * (t + 2) <= 2 * sum(b[:r])


def alpha_lower_bound_literal(mults, cfg):
    """Reference 1 + max{t : criterion} over the window
    [0, ceil(sum(m)/sqrt(n)) + d], one full trace walk per t."""
    total = sum(mults)
    hi = isqrt(total * total // cfg.n)
    while hi * hi * cfg.n < total * total:
        hi += 1
    hi += cfg.d
    for t in range(hi, -1, -1):
        if criterion_literal(t, mults, cfg):
            return t + 1
    return 1


def brute_force_candidates(n, m_max):
    """Naive triple loop over (t, m, k), applying the admissibility
    predicates verbatim; the enumeration oracle."""
    out = []
    root = isqrt(n - 1) + 1
    for m in range(1, m_max + 1):
        for k in range(-m, m + 1):
            for t in range(1, (m + 1) * root + 1):
                if not szcor_conditions(n, t, m, k):
                    continue
                if k != 0 and 0 < m < n and not lemaaa_conditions(n, t, m, k):
                    continue
                out.append((t, m, k))
    return sorted(out)


def enumerate_szcor_literal(n: int, m_max: int) -> list[CandidateTriple]:
    """Reference enumeration: for m >= n, scan the raw window of condition
    (c) over every nonzero k that condition (b) admits, O(sqrt(m)) per m."""
    if n < 10:
        raise DomainError(f"enumeration requires n >= 10, got {n}")
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    out: list[CandidateTriple] = []
    for m in range(1, m_max + 1):
        base = m * m * n
        # k = 0: t^2 in [base - m, base)
        for t in range(max(1, ceil_sqrt(base - m)), floor_sqrt(base - 1) + 1):
            if szcor_d(n, t, m, 0):
                out.append(CandidateTriple(n, t, m, 0))
        if m < n:
            # k != 0 pinned by the almost-uniform constraints
            tm = floor_sqrt(base)
            for t in (tm, tm + 1):
                if t < 1:
                    continue
                num = t * t - base
                if num == 0 or num % (2 * m) != 0:
                    continue
                k = num // (2 * m)
                if k == 0:
                    continue
                if not lemaaa_conditions(n, t, m, k):
                    continue
                if szcor_conditions(n, t, m, k):
                    out.append(CandidateTriple(n, t, m, k))
        else:
            for k in k_range_literal(n, m):
                lo = base + 2 * m * k + max(k * k - m, k * k - (m + k), 0)
                # n*t^2 <= n*(base + 2mk) + k^2 - 1
                hi2 = (n * (base + 2 * m * k) + k * k - 1) // n
                if hi2 < 0:
                    continue
                for t in range(max(1, ceil_sqrt(lo)), floor_sqrt(hi2) + 1):
                    if szcor_conditions(n, t, m, k):
                        out.append(CandidateTriple(n, t, m, k))
    out.sort(key=CandidateTriple.sort_key)
    return out


def k_range_literal(n: int, m: int) -> Iterable[int]:
    """Nonzero k admitted by condition (b), for a fixed m."""
    k = 1
    while k * k * (n - 1) < n * m:
        yield k
        k += 1
    k = -1
    while m + k > 0 and k * k * (n - 1) < n * (m + k):
        yield k
        k -= 1


def passes_testlem(h: Sequence[int], t: int, delta) -> bool:
    """Finiteness test for a prospective class t*L - h_1*E_1 - ... - h_n*E_n;
    the oracle that enumeration outputs are checked against.

    With gamma the number of nonzero h_i and a the least positive h_i, checks

      (a)  h_1^2 + ... + h_n^2 < (1 + n/delta)^2 / gamma
      (b)  h_1^2 + ... + h_n^2 - a <= t^2 < (h_1 + ... + h_n)^2 / (n + delta)

    exactly, over the rationals.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    h = [int(x) for x in h]
    if any(x < 0 for x in h):
        raise InvalidInput("multiplicities must be non-negative")
    n = len(h)
    gamma = sum(1 for x in h if x != 0)
    if gamma == 0:
        raise InvalidInput("all-zero multiplicity vector")
    a = min(x for x in h if x > 0)
    sq = sum(x * x for x in h)
    s = sum(h)
    t2 = Fraction(t * t)
    cond_a = Fraction(sq) < (1 + Fraction(n) / delta) ** 2 / gamma
    cond_b = sq - a <= t2 and t2 < Fraction(s * s) / (n + delta)
    return cond_a and cond_b


def ceil_frac(num, den):
    return -((-num) // den)


@pytest.fixture(scope="session")
def rng():
    import random

    return random.Random(0x5E5)
