"""Shared reference implementations and helpers for the test suite."""
from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import add
from pathlib import Path
from typing import Iterable, Optional, Sequence

import pytest

import seshadri
from seshadri.bounds import DEFAULT_M_BUDGET_CAP, BoundReport
from seshadri.candidates import (
    CandidateTriple,
    e_value,
    enumerate_szcor,
    lemaaa_conditions,
    pinned_classes,
    szcor_conditions,
    szcor_d,
)
from seshadri.effectivity import SpecializationConfig
from seshadri.exclusions import ExclusionDb, ExclusionResult, default_db, is_excluded
from seshadri.lattice import DomainError, InvalidInput, QuadraticExpr, ceil_sqrt, is_square


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


def head_sums_list(mults: Sequence[int], r: int, count: int) -> list[int]:
    """Reference S_0, ..., S_count as one full list: the list walk of
    step_normal_form_literal runs until the vector is balanced (its largest
    and smallest entries differ by at most 1), and every later entry is
    built from the balanced closed form S_i = r*(T_i // n) + min(T_i mod n, r)
    with T_i = max(T - r*(i - b), 0)."""
    n = len(mults)
    b = list(mults)
    sums: list[int] = []
    while len(sums) <= count and max(b) - min(b) > 1:
        sums.append(sum(b[:r]))
        step_normal_form_literal(b, r)
    total = sum(b)
    live = count + 1 - len(sums)
    totals = range(total, max(total - r * live, -1), -r)
    sums += [r * (t // n) + min(t % n, r) for t in totals]
    sums += [0] * (live - len(totals))
    return sums


def interior_lows_list(sums: Sequence[int], d: int) -> list[int]:
    """Reference prefix minima: lows[q] = min over i <= q of d^2*i + S_i."""
    dd = d * d
    return list(accumulate(map(add, sums, range(0, dd * len(sums), dd)), min))


def compute_bound_literal(
    n: int,
    db: Optional[ExclusionDb] = None,
    m_budget_cap: int = DEFAULT_M_BUDGET_CAP,
) -> tuple[BoundReport, Fraction, bool]:
    """Reference round driver: every round re-enumerates m from 1 and sorts
    all candidates by (e, sort_key) afresh.  Returns the report with the f
    and the budget-limited flag that this loop finds on its own, to compare
    with the report's derived f and budget_limited."""
    if n < 10:
        raise DomainError(f"bounds are computed for n >= 10, got {n}")
    if is_square(n):
        raise DomainError(f"n = {n} is a square: eps(n) = 1/sqrt(n) exactly, no f(n)")
    if m_budget_cap < 1:
        raise DomainError(f"m_budget_cap must be >= 1, got {m_budget_cap}")
    if db is None:
        db = default_db()

    verdicts: dict[CandidateTriple, ExclusionResult] = {}
    m_max = min(16, m_budget_cap)
    while True:
        cands = sorted(enumerate_szcor(n, m_max), key=lambda c: (e_value(c), c.sort_key()))
        excluded: list[tuple[CandidateTriple, str]] = []
        mu: Optional[Fraction] = None
        blocker: Optional[CandidateTriple] = None
        for c in cands:
            res = verdicts.get(c)
            if res is None:
                res = is_excluded(c, db)
                verdicts[c] = res
            if res.excluded:
                excluded.append((c, res.reason))
                continue
            mu = e_value(c)
            blocker = c
            break
        if mu is not None and m_max >= mu:
            budget_limited = False
            break
        if m_max >= m_budget_cap:
            budget_limited = True
            cover = Fraction(m_max + 1)
            if mu is None or cover < mu:
                mu = cover
                blocker = None
            break
        grown = max(2 * m_max, 32)
        if mu is not None:
            # grow toward ceil(mu), geometrically to avoid overshooting when a
            # smaller-e candidate is still hiding between m_max and the target
            grown = min(grown, ceil_frac(mu.numerator, mu.denominator))
        m_max = min(m_budget_cap, grown)
    report = BoundReport(
        n=n,
        mu=mu,
        blocker=blocker,
        exclusions_used=tuple(excluded),
        m_checked=m_max,
        m_budget_cap=m_budget_cap,
    )
    return report, n * mu, budget_limited


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


def pinned_by_divisibility(n: int, m_max: int, m_min: int = 1) -> list[CandidateTriple]:
    """Reference k != 0 classes with m_min <= m <= m_max and m < n, in
    enumeration order: at each m, t = isqrt(m^2*n) and r = m^2*n - t^2, and
    the pinned degrees t and t + 1 need 2m to divide r != 0 or 2t + 1 - r.
    The per-m branch `enumerate_szcor` ran before its pinned table."""
    out: list[CandidateTriple] = []
    for m in range(m_min, min(m_max, n - 1) + 1):
        base = m * m * n
        t = isqrt(base)
        r = base - t * t
        # k != 0 pinned by the almost-uniform constraints: degree t has
        # t^2 - base = -r, degree t + 1 has 2t + 1 - r > 0 (r <= 2t), and
        # 2mk must equal it; t >= isqrt(10m^2) >= 3
        if r and r % (2 * m) == 0:
            k = -(r // (2 * m))
            if lemaaa_conditions(n, t, m, k) and szcor_conditions(n, t, m, k):
                out.append(CandidateTriple(n, t, m, k))
        num = 2 * t + 1 - r
        if num % (2 * m) == 0:
            k = num // (2 * m)
            if lemaaa_conditions(n, t + 1, m, k) and szcor_conditions(n, t + 1, m, k):
                out.append(CandidateTriple(n, t + 1, m, k))
    return out


def pinned_table_classes(n: int, m_max: int, m_min: int = 1) -> list[CandidateTriple]:
    """The classes of `pinned_classes(n)` with m_min <= m <= m_max, in
    enumeration order, to compare with pinned_by_divisibility."""
    return [c for c in pinned_classes(n) if m_min <= c.m <= m_max]


def k0_by_isqrt(n: int, m_max: int, m_min: int = 1) -> list[CandidateTriple]:
    """Reference k = 0 classes with m_min <= m <= m_max, in increasing m:
    one integer square root per m, t = isqrt(m^2*n) and r = m^2*n - t^2,
    and the window 0 < r <= m.  The per-m test `enumerate_szcor` ran before
    the three-gap walk of `k0_classes`."""
    out: list[CandidateTriple] = []
    for m in range(m_min, m_max + 1):
        base = m * m * n
        t = isqrt(base)
        r = base - t * t
        # k = 0: t^2 in [base - m, base); r = 0 (square n) admits none
        if 0 < r <= m and szcor_d(n, t, m, 0):
            out.append(CandidateTriple(n, t, m, 0))
    return out


def window_returns_by_isqrt(n: int, m_max: int) -> list[tuple[int, int]]:
    """Reference `window_returns` of nonsquare n: every m <= m_max with
    t = isqrt(m^2*n) and 4d^2*m^2*n < (2d*t + 1)^2, d = isqrt(n), that is
    {m*sqrt(n)} < 1/(2d), as (m, t)."""
    d = isqrt(n)
    c = 4 * d * d * n
    return [(m, t) for m in range(1, m_max + 1)
            if c * m * m < (2 * d * (t := isqrt(m * m * n)) + 1) ** 2]


def return_gaps_by_search(n: int) -> tuple[int, int, int, int]:
    """Reference `return_gaps` of nonsquare n: q = 1, 2, ... in turn, with
    t = isqrt(q^2*n) and d = isqrt(n), until both the least q with
    {q*sqrt(n)} < 1/(2d) (4d^2*q^2*n < (2d*t + 1)^2) and the least q with
    {q*sqrt(n)} > 1 - 1/(2d) (4d^2*q^2*n > (2d*(t + 1) - 1)^2) are found.
    Returns (a, isqrt(a^2*n), b, isqrt(b^2*n) + 1)."""
    d = isqrt(n)
    c = 4 * d * d * n
    lower = upper = None
    q = 0
    while lower is None or upper is None:
        q += 1
        t = isqrt(q * q * n)
        if lower is None and c * q * q < (2 * d * t + 1) ** 2:
            lower = (q, t)
        if upper is None and c * q * q > (2 * d * (t + 1) - 1) ** 2:
            upper = (q, t + 1)
    return lower + upper


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
        for t in range(max(1, ceil_sqrt(base - m)), isqrt(base - 1) + 1):
            if szcor_d(n, t, m, 0):
                out.append(CandidateTriple(n, t, m, 0))
        if m < n:
            # k != 0 pinned by the almost-uniform constraints
            tm = isqrt(base)
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
                for t in range(max(1, ceil_sqrt(lo)), isqrt(hi2) + 1):
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


def candidate_mults(c: CandidateTriple) -> tuple[int, ...]:
    """Multiplicity vector of C(t, m, k), sorted nonincreasingly."""
    if c.k >= 0:
        return (c.m + c.k,) + (c.m,) * (c.n - 1)
    return (c.m,) * (c.n - 1) + (c.m + c.k,)


def ceil_r_config(n: int) -> SpecializationConfig:
    """The specialization with r = ceil(d*sqrt(n)) in place of the default
    floor; for nonsquare n it has n*d^2 < r^2, so the walk has no cut."""
    d = isqrt(n)
    return SpecializationConfig(n=n, d=d, r=ceil_sqrt(d * d * n))


def theoremone_weak_c(n: int) -> QuadraticExpr:
    """Weaker companion of the odd-Delta case: n(n - 5*sqrt(n) + 1)."""
    return QuadraticExpr(Fraction(n * (n + 1)), Fraction(-5 * n), Fraction(n))


def theoremone_weak_d(n: int) -> QuadraticExpr:
    """Weaker companion of the even-Delta case: n(n - 5*sqrt(n) + 2)/2."""
    return QuadraticExpr(Fraction(n * (n + 2), 2), Fraction(-5 * n, 2), Fraction(n))


def ceil_frac(num, den):
    return -((-num) // den)


@pytest.fixture(scope="session")
def rng():
    import random

    return random.Random(0x5E5)


def _fresh_run(code: str) -> subprocess.CompletedProcess:
    root = str(Path(seshadri.__file__).resolve().parent.parent)
    code = f"import sys\nsys.path.insert(0, {root!r})\n" + code
    return subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)


def fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports the package
    under test; a nonzero exit raises.  -S -E: no site hooks or
    environment, so only the package's own imports count."""
    return _fresh_run(code).stdout


def fresh_cli(*argv: str) -> tuple[str, str]:
    """stdout and stderr of seshadri.cli.main(argv) in a new interpreter, as
    fresh_python runs it, which loads json on first use; a nonzero exit
    raises."""
    done = _fresh_run(f"import seshadri.cli\nsys.exit(seshadri.cli.main({list(argv)!r}))\n")
    return done.stdout, done.stderr
