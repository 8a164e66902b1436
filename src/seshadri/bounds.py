"""Certified f(n) bounds: the per-n fixpoint driver and closed-form evaluators.

The driver enumerates candidate classes with m up to a moving budget,
excludes what it can, and takes mu = min e over the survivors.  The bound
eps(n) >= (1/sqrt(n)) * sqrt(1 - 1/(mu*n)) is certified once coverage holds,
i.e. once every class that could be abnormal at level mu (m < mu for k = 0,
m*(n-1) < mu for k != 0) has been enumerated and either excluded or seen to
have e >= mu.  f(n) = n*mu; larger is better.

The closed-form evaluators give weaker but formulaic f(n) values from the
case analysis on Delta = n - floor(sqrt(n))^2, plus the uniform-multiplicity
consequences f = 21(n-2), 42(n-2), (n^2 - 5n*sqrt(n))/2 and f = 21n.
"""
from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import partial
from math import ceil, isqrt
from operator import itemgetter

from .candidates import CandidateTriple, e_value, enumerate_szcor
from .effectivity import SpecializationConfig
from .exclusions import ExclusionDb, default_db, is_excluded
from .lattice import (
    DomainError,
    Q,
    QuadraticExpr,
    Rational,
    Value,
    compare_values,
    is_square,
    sign_of,
)

# A candidate's place in the walk: (e, sort_key), unique per candidate.
_Key = tuple[Fraction, tuple[int, ...]]

DEFAULT_M_BUDGET_CAP = 5000


class Coverage(namedtuple("Coverage", "m_checked_k0 m_checked_knz")):
    """How far the candidate enumeration was pushed, per k-regime."""

    __slots__ = ()


class BoundReport(namedtuple("BoundReport", "n mu blocker exclusions_used coverage m_budget_cap")):
    """Certified bound for one n, with its exclusion certificate: mu, the
    blocker (None when the budget ran out first) and the (candidate, reason)
    pairs excluded below mu.  f = n*mu, budget_limited and the specialization
    (n's default) follow from these, so no field holds them.  Building one
    does not check; check re-tests what compute_bound guarantees on a
    decoded one."""

    __slots__ = ()

    @property
    def f(self) -> Fraction:
        return self.n * self.mu

    @property
    def budget_limited(self) -> bool:
        """mu lies above the coverage: the m budget ran out first."""
        return self.mu > min(self.coverage)

    def check(self) -> None:
        """Raise ValueError unless this report holds what compute_bound
        guarantees: a blocker of this n gives e = mu, no blocker means
        budget-limited at mu = cap + 1, and budget-limited means coverage
        (cap, cap) and mu <= cap + 1."""
        n, mu, blocker, _, coverage, cap = self
        if blocker is not None and (blocker.n != n or e_value(blocker) != mu):
            raise ValueError(f"blocker {blocker.label()} does not give mu = {mu}")
        if blocker is None and not (self.budget_limited and mu == cap + 1):
            raise ValueError(f"no blocker, yet not budget-limited at mu = {cap + 1}")
        if self.budget_limited and (coverage != (cap, cap) or mu > cap + 1):
            raise ValueError(f"budget-limited at cap {cap}, yet coverage {tuple(coverage)}, mu = {mu}")


def compute_bound(
    n: int,
    db: ExclusionDb | None = None,
    m_budget_cap: int = DEFAULT_M_BUDGET_CAP,
) -> BoundReport:
    """Run the fixpoint: enumerate, exclude, contract mu, grow m until covered.

    Candidates are walked in increasing e; the first one that cannot be
    excluded is the blocker and fixes mu.  If the enumeration budget is
    exhausted before coverage, mu is the least of the survivor's e and the
    first uncovered level, m_max + 1, and the report is budget-limited.

    The budget grows in rounds (16, 32, 64, ..., capped by ceil(mu)), and
    each round enumerates only the new m, those above the previous budget.
    A round sorts only its new candidates by (e, sort_key) and decides, in
    that order, those keyed below the least survivor so far, stopping at the
    first survivor.  No candidate list or verdict cache carries over between
    rounds; the exclusions keyed below the final survivor, in key order, are
    the walk a full sort of every m would give.
    """
    if n < 10:
        raise DomainError(f"bounds are computed for n >= 10, got {n}")
    if is_square(n):
        raise DomainError(f"n = {n} is a square: eps(n) = 1/sqrt(n) exactly, no f(n)")
    if m_budget_cap < 1:
        raise DomainError(f"m_budget_cap must be >= 1, got {m_budget_cap}")
    if db is None:
        db = default_db()

    # best is the least survivor so far, with its key.  That key never goes
    # up, so each candidate keyed below the final one was decided in its own
    # round.
    best: tuple[_Key, CandidateTriple] | None = None
    ruled_out: list[tuple[_Key, CandidateTriple, str]] = []
    m_done = 0
    m_max = min(16, m_budget_cap)
    while True:
        fresh = [((e_value(c), c.sort_key()), c) for c in enumerate_szcor(n, m_max, m_done + 1)]
        fresh.sort(key=itemgetter(0))
        m_done = m_max
        for key, c in fresh:
            if best is not None and key >= best[0]:
                break
            res = is_excluded(c, db)
            if not res.excluded:
                best = (key, c)
                break
            ruled_out.append((key, c, res.reason))
        mu, blocker = (best[0][0], best[1]) if best else (None, None)
        if mu is not None and m_max >= mu:
            break
        if m_max >= m_budget_cap:
            if mu is None or m_max + 1 < mu:
                mu, blocker = Fraction(m_max + 1), None
            break
        grown = 2 * m_max
        if mu is not None:
            # grow toward ceil(mu), geometrically to avoid overshooting when a
            # smaller-e candidate is still hiding between m_max and the target
            grown = min(grown, ceil(mu))
        m_max = min(m_budget_cap, grown)
    ruled_out.sort(key=itemgetter(0))
    return BoundReport(
        n=n,
        mu=mu,
        blocker=blocker,
        exclusions_used=tuple((c, why) for key, c, why in ruled_out if best is None or key < best[0]),
        coverage=Coverage(m_checked_k0=m_max, m_checked_knz=m_max),
        m_budget_cap=m_budget_cap,
    )


def _worker_count(jobs: int, tasks: int) -> int:
    """Workers to start for `tasks` jobs: at most `jobs`, one per CPU and
    one per task, and at least one."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def bounds_for_ns(
    ns: Iterable[int],
    db: ExclusionDb | None = None,
    m_budget_cap: int = DEFAULT_M_BUDGET_CAP,
    jobs: int = 1,
) -> dict[int, BoundReport]:
    """Deterministic map n -> report over a set of n, optionally in parallel.

    Every n uses its own default specialization; inputs are immutable, so
    workers share nothing.
    """
    if db is None:
        db = default_db()
    ns = sorted(set(ns))
    workers = _worker_count(jobs, len(ns))
    if workers == 1:
        return {n: compute_bound(n, db=db, m_budget_cap=m_budget_cap) for n in ns}
    from concurrent.futures import ProcessPoolExecutor

    work = partial(compute_bound, db=db, m_budget_cap=m_budget_cap)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return dict(zip(ns, pool.map(work, ns)))


class FormulaBound(namedtuple("FormulaBound", "name value source")):
    """One evaluable closed-form bound: its f(n) value, None when the
    formula does not apply."""

    __slots__ = ()

    @property
    def applicable(self) -> bool:
        return self.value is not None


def mu_n(n: int) -> int:
    """The explicit mu certified by the uniform-degree hypothesis, n >= 17.

    With d = floor(sqrt(n)), Delta = n - d^2 and delta = floor(Delta/2):

      odd Delta:  floor(d*(d-3 + (d(d-3)-1)/((d-3)(d^2+delta+1)))
                        * (d^2+delta)/(d^2-delta^2)) + 1
      even Delta: floor(d*(d-3 + (d(d-3)-1)/((d-3)(d^2+delta)))
                        * (d^2+delta-1)/(2d^2-(delta-1)^2)) + 1

    evaluated in exact rational arithmetic.
    """
    if n < 17:
        raise DomainError(f"mu_n requires n >= 17, got {n}")
    if is_square(n):
        raise DomainError(f"mu_n requires nonsquare n, got {n}")
    d = isqrt(n)
    big_delta = n - d * d
    delta = big_delta // 2
    if big_delta % 2 == 1:
        inner = d - 3 + Q(d * (d - 3) - 1, (d - 3) * (d * d + delta + 1))
        val = d * inner * Q(d * d + delta, d * d - delta * delta)
    else:
        inner = d - 3 + Q(d * (d - 3) - 1, (d - 3) * (d * d + delta))
        val = d * inner * Q(d * d + delta - 1, 2 * d * d - (delta - 1) ** 2)
    return val.numerator // val.denominator + 1


def _check_mu_range(n: int, mu: Rational) -> Fraction:
    if n < 10:
        raise DomainError(f"requires n >= 10, got {n}")
    if is_square(n):
        raise DomainError(f"requires nonsquare n, got {n}")
    mu = Fraction(mu)
    if not 1 <= mu <= n * (n - 1):
        raise DomainError(f"mu out of range [1, n(n-1)]: {mu}")
    return mu


def lemcc_hypothesis(n: int, mu: Rational) -> bool:
    """Exact check of ((mu-1)*r + g - 1)/d >= (mu-1) * sqrt(n - 1/mu)."""
    mu = _check_mu_range(n, mu)
    cfg = SpecializationConfig.default(n)
    lhs = Q((mu - 1) * cfg.r + cfg.g - 1, cfg.d)
    diff = QuadraticExpr(lhs, -(mu - 1), n - 1 / mu)
    return sign_of(diff) >= 0


class BestKnown(namedtuple("BestKnown", "f_best source")):
    """The largest f known for n, a Value, and what gives it."""

    __slots__ = ()


def _at_least_one(v: QuadraticExpr) -> QuadraticExpr | None:
    """v when v >= 1, else None: f <= 0 would claim eps(n) > 1/sqrt(n), and
    0 < f < 1 makes sqrt(1 - 1/f) imaginary."""
    return v if sign_of(QuadraticExpr(v.a - 1, v.b, v.q)) >= 0 else None


def all_formula_bounds(n: int, db: ExclusionDb | None = None) -> list[FormulaBound]:
    """Every evaluable closed-form bound for n, applicable or not.

    The six cases on Delta = n - d^2, d = floor(sqrt(n)), of which several may
    apply: (a) (2n-1)^2, (b) n(n-1), (c) n(d(d-3)+1), (d) n(d(d-3)+2)/2,
    (e) n^2 for odd Delta with 2d-1 > Delta >= 4*n^(1/4)+1 (decided exactly as
    (Delta-1)^4 >= 256n), (f) n(n*sqrt(n) - 5n + 5*sqrt(n) - 1)/2; none for a
    square n, which admits no abnormal curve.  Then the uniform-multiplicity
    consequences 21(n-2), 42(n-2), (n^2 - 5n*sqrt(n))/2 and 21n, each resting
    on CCMO or Dumnicki only while that source is enabled in db; the explicit
    certificate n*mu_n(n); and the imported reference value, if any.  A value
    below 1 bounds nothing and is inapplicable; only the two surds fall there
    (correm-quad up to n = 25, theoremone-f at n = 14).
    """
    if n < 10:
        raise DomainError(f"formulas require n >= 10, got {n}")
    if db is None:
        db = default_db()
    from .tables import REFERENCE_F

    ccmo = "CCMO" in db.enabled_sources
    square = is_square(n)
    out = []
    if not square:
        d = isqrt(n)
        delta = n - d * d
        odd = delta % 2 == 1
        e_ok = odd and 2 * d - 1 > delta and (delta - 1) ** 4 >= 256 * n
        # n*(n*sqrt(n) - 5n + 5*sqrt(n) - 1)/2 = -n(5n+1)/2 + (n(n+5)/2) * sqrt(n)
        f_val = (_at_least_one(QuadraticExpr(Q(-n * (5 * n + 1), 2), Q(n * (n + 5), 2), Q(n)))
                 if delta == 2 * d - 1 else None)
        out += [
            FormulaBound("theoremone-a", Q((2 * n - 1) ** 2) if delta == 1 else None, "Delta=1 case (Biran)"),
            FormulaBound("theoremone-b", Q(n * (n - 1)) if delta == 2 else None, "Delta=2 case"),
            FormulaBound("theoremone-c", Q(n * (d * (d - 3) + 1)) if delta > 2 and odd else None,
                         "odd Delta > 2 case"),
            FormulaBound("theoremone-d", Q(n * (d * (d - 3) + 2), 2) if delta > 3 and not odd else None,
                         "even Delta > 3 case"),
            FormulaBound("theoremone-e", Q(n * n) if e_ok else None, "large odd Delta case"),
            FormulaBound("theoremone-f", f_val, "Delta=2d-1 case"),
        ]
    out += [
        FormulaBound("correm-21", Q(21 * (n - 2)) if ccmo else None, "uniform m < 21 (CCMO)"),
        FormulaBound("correm-42", Q(42 * (n - 2)) if "Dumnicki" in db.enabled_sources else None,
                     "uniform m <= 42 (Dumnicki)"),
        FormulaBound("correm-quad", _at_least_one(QuadraticExpr(Q(n * n, 2), Q(-5 * n, 2), Q(n))),
                     "uniform quadratic case"),
        FormulaBound("circ", Q(21 * n) if ccmo else None, "almost-uniform refinement of CCMO"),
    ]
    lemcc = None
    if n >= 17 and not square:
        m = mu_n(n)
        lemcc = Q(n * m) if lemcc_hypothesis(n, m) else None
    out.append(FormulaBound("lemcc", lemcc, "explicit uniform-degree certificate"))
    if n in REFERENCE_F:
        value, source = REFERENCE_F[n]
        out.append(FormulaBound("reference-table", Q(value), source))
    return out


def best_known(n: int, report: BoundReport, db: ExclusionDb | None = None) -> BestKnown:
    """Maximum of the algorithmic f, the applicable formulas, and the
    embedded reference values; ties resolve toward the algorithmic result.
    Raises DomainError when report is for another n, or n < 10."""
    if report.n != n:
        raise DomainError(f"the report is for n = {report.n}, not n = {n}")
    best: Value = report.f
    source = "algorithm"
    for fb in all_formula_bounds(n, db=db):
        if fb.value is None:
            continue
        if compare_values(fb.value, best) > 0:
            best = fb.value
            source = fb.name if fb.name != "reference-table" else f"reference ({fb.source})"
    return BestKnown(f_best=best, source=source)
