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

from .candidates import CandidateTriple, class_table, e_value, enumerate_szcor
from .effectivity import SpecializationConfig
from .exclusions import ExclusionDb, default_db, is_excluded
from .lattice import (
    DomainError,
    InvalidInput,
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


class BoundReport(namedtuple("BoundReport", "n mu blocker exclusions_used m_checked m_budget_cap")):
    """Certified bound for one n, with its exclusion certificate: mu, the
    blocker (None when the budget ran out first), the (candidate, reason)
    pairs excluded below mu, in key order, and m_checked, the largest m the
    enumeration covered, for every k.  f = n*mu, budget_limited and the
    specialization (n's default) follow from these, so no field holds them.
    Building one does not check; check re-tests what compute_bound
    guarantees on a decoded one."""

    __slots__ = ()

    @property
    def f(self) -> Fraction:
        return self.n * self.mu

    @property
    def budget_limited(self) -> bool:
        """mu lies above the covered m: the m budget ran out first."""
        return self.mu > self.m_checked

    def check(self) -> None:
        """Raise ValueError unless this report holds what compute_bound
        guarantees: a blocker of this n gives e = mu, no blocker means
        budget-limited at mu = cap + 1, and budget-limited means
        m_checked == cap and mu <= cap + 1.  The exclusions are classes of
        this n with strictly increasing keys (e, sort_key), and with a
        blocker every key is below the blocker's; with none, the list runs
        past mu up to the least survivor above the level.  An emptied list
        still passes: only rulings listed are checked, not that the list is
        complete."""
        n, mu, blocker, exclusions, m_checked, cap = self
        if blocker is not None and (blocker.n != n or e_value(blocker) != mu):
            raise ValueError(f"blocker {blocker.label()} does not give mu = {mu}")
        if blocker is None and not (self.budget_limited and mu == cap + 1):
            raise ValueError(f"no blocker, yet not budget-limited at mu = {cap + 1}")
        if self.budget_limited and (m_checked != cap or mu > cap + 1):
            raise ValueError(f"budget-limited at cap {cap}, yet m_checked = {m_checked}, mu = {mu}")
        last = None
        top = None if blocker is None else (mu, blocker.sort_key())
        for c, _ in exclusions:
            if c.n != n:
                raise ValueError(f"exclusion {c.label()} is a class of n = {c.n}, not {n}")
            key = (e_value(c), c.sort_key())
            if last is not None and key <= last:
                raise ValueError(f"exclusion {c.label()} is not keyed above the one before it")
            if top is not None and key >= top:
                raise ValueError(f"exclusion {c.label()} is not keyed below the blocker {blocker.label()}")
            last = key


def compute_bound(
    n: int,
    db: ExclusionDb | None = None,
    m_budget_cap: int = DEFAULT_M_BUDGET_CAP,
) -> BoundReport:
    """Run the fixpoint: enumerate, exclude, contract mu, grow m until covered.

    Candidates are walked in increasing e; the first one that cannot be
    excluded is the blocker and fixes mu.  Both k-regimes are enumerated to
    the same last budget m_max, which the report stores as m_checked.  If
    the budget is exhausted before coverage, mu is the least of the
    survivor's e and the first uncovered level, m_max + 1, and the report
    is budget-limited.

    The budget grows in rounds (16, 32, 64, ..., capped by ceil(mu)), and
    each round enumerates only the new m, those above the previous budget.
    A round sorts only its new candidates by (e, sort_key) and decides, in
    that order, those keyed below the least survivor so far, stopping at the
    first survivor.  One `class_table` of n, built per call for
    m <= min(n - 1, cap) and passed to each round, holds the gaps of the
    k = 0 walk, which each round takes from the least return, and the
    k != 0 classes below m = n.  No candidate list or verdict cache
    carries over between rounds; the exclusions keyed below the final
    survivor, in key order, are the walk a full sort of every m would give.

    best, the least survivor so far, starts as a phantom survivor at the
    level cap + 1 (cap = m_budget_cap) with no class, so mu starts at
    cap + 1 and only classes with e <= cap + 1 are keyed below it.  A round
    therefore decides only those; while the phantom is best, the rest wait
    on one list.  If the phantom is still best after the last round, that
    list is walked in key order, up to its first survivor; otherwise it is
    dropped undecided.  The reports are those of deciding every class in
    its round:
    - A run ends either at m_max >= mu, so mu <= m_max <= cap, or at
      m_max = cap with mu = min(least survivor's e, cap + 1).  So the
      blocker and mu never come from a class with e > cap + 1.
    - Let a survivor with e > cap + 1 be the least so far.  Every class
      with e <= cap + 1 is keyed below it, so each round still decides
      them all.  The next budget is min(cap, 2*m_max, ceil(mu)), and
      ceil(mu) > cap, so the rounds grow as with the phantom; the stop
      test m_max >= min(mu, cap) holds only at m_max = cap, as with the
      phantom, and there mu is cap + 1 with no blocker, the phantom's.
    - So such a class reaches the report only through exclusions_used,
      and only in a budget-limited report with no blocker: there the
      classes with e > cap + 1 excluded below the least survivor are
      listed (at the default cap, 23 at n = 527, 57 at n = 574 and 63 at
      n = 623).  Every round's classes with e > cap + 1 are on the list,
      so walking it in key order finds that survivor and those exclusions.
    """
    if n < 10:
        raise DomainError(f"bounds are computed for n >= 10, got {n}")
    if is_square(n):
        raise DomainError(f"n = {n} is a square: eps(n) = 1/sqrt(n) exactly, no f(n)")
    _require_cap(m_budget_cap)
    if db is None:
        db = default_db()

    # best is the least survivor so far, with its key; it starts as the
    # phantom at the level.  A round's classes have m <= cap, so the
    # phantom's key sorts above exactly those with e <= cap + 1.  The key
    # (level, (cap,)) would do as well: it differs only at a class with
    # e = cap + 1 and m = cap, and there is none, since a k = 0 class has
    # e = m^2/rho with 1 <= rho <= m (and cap + 1 does not divide cap^2),
    # and a k != 0 class has e > m(n - 1).  best's key never goes up, so
    # each candidate keyed below the final one was decided in its own round.
    level = m_budget_cap + 1
    best: tuple[_Key, CandidateTriple | None] = ((Fraction(level), (level,)), None)
    ruled_out: list[tuple[_Key, CandidateTriple, str]] = []
    beyond: list[tuple[_Key, CandidateTriple]] = []
    table = class_table(n, m_budget_cap)
    m_done = 0
    m_max = min(16, m_budget_cap)
    while True:
        fresh = [((e_value(c), c.sort_key()), c) for c in enumerate_szcor(n, m_max, m_done + 1, table)]
        fresh.sort(key=itemgetter(0))
        m_done = m_max
        best = _decide(fresh, db, best, ruled_out)
        (mu, _), blocker = best
        if blocker is None:
            beyond += [item for item in fresh if item[0] > best[0]]
        if m_max >= min(mu, m_budget_cap):
            break
        # grow toward ceil(mu), geometrically to avoid overshooting when a
        # smaller-e candidate is still hiding between m_max and the target
        m_max = min(m_budget_cap, 2 * m_max, ceil(mu))
    if blocker is None:
        # budget-limited with no blocker: the exclusions listed run up to
        # the least survivor above the level
        beyond.sort(key=itemgetter(0))
        best = _decide(beyond, db, None, ruled_out)
    ruled_out.sort(key=itemgetter(0))
    return BoundReport(
        n=n,
        mu=mu,
        blocker=blocker,
        exclusions_used=tuple((c, why) for key, c, why in ruled_out if best is None or key < best[0]),
        m_checked=m_max,
        m_budget_cap=m_budget_cap,
    )


def _require_cap(m_budget_cap: int) -> None:
    """InvalidInput unless the cap is an int (bool is not one), DomainError
    unless it is at least 1."""
    if type(m_budget_cap) is not int:
        raise InvalidInput(f"m_budget_cap must be an integer, got {m_budget_cap!r}")
    if m_budget_cap < 1:
        raise DomainError(f"m_budget_cap must be >= 1, got {m_budget_cap}")


def _decide(
    keyed: Iterable[tuple[_Key, CandidateTriple]],
    db: ExclusionDb,
    best: tuple[_Key, CandidateTriple | None] | None,
    ruled_out: list[tuple[_Key, CandidateTriple, str]],
) -> tuple[_Key, CandidateTriple | None] | None:
    """Decide keyed candidates in key order, those keyed below best (all of
    them when best is None), up to the first survivor; append each
    exclusion to ruled_out and return the least survivor, best or the new
    one."""
    for key, c in keyed:
        if best is not None and key >= best[0]:
            break
        res = is_excluded(c, db)
        if not res.excluded:
            return key, c
        ruled_out.append((key, c, res.reason))
    return best


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
    workers share nothing.  A jobs that is not an int (bool is not one)
    raises InvalidInput before any pool starts; jobs <= 1 runs serially.
    """
    _require_cap(m_budget_cap)
    if type(jobs) is not int:
        raise InvalidInput(f"jobs must be an integer, got {jobs!r}")
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
