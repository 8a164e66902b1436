"""Bound driver, closed-form evaluators, and best-known aggregation."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import frontier
import seshadri.bounds as bounds
from conftest import (
    ceil_frac,
    compute_bound_literal,
    theoremone_weak_c,
    theoremone_weak_d,
)
from seshadri.bounds import (
    DEFAULT_M_BUDGET_CAP,
    _worker_count,
    all_formula_bounds,
    best_known,
    bounds_for_ns,
    compute_bound,
    lemcc_hypothesis,
    mu_n,
)
from seshadri.candidates import e_value, enumerate_szcor
from seshadri.exclusions import default_db, is_excluded
from seshadri.lattice import DomainError, InvalidInput, QuadraticExpr, compare_values, is_square, sign_of
from seshadri.render import value_to_json
from seshadri.tables import REFERENCE_F, TABLE_B

Q = Fraction
GOLDEN = Path(__file__).parent / "golden"


def nonsquares(lo, hi):
    return [n for n in range(lo, hi + 1) if not is_square(n)]


def formulas(n, db=None):
    return {fb.name: fb for fb in all_formula_bounds(n, db)}


class TestComputeBound:
    @pytest.mark.parametrize("n, cap", [(10, DEFAULT_M_BUDGET_CAP), (10, 5), (41, DEFAULT_M_BUDGET_CAP),
                                        (99, DEFAULT_M_BUDGET_CAP), (3001, 64)])
    def test_report_passes_its_check(self, n, cap):
        compute_bound(n, m_budget_cap=cap).check()

    def test_ten_points_with_full_database(self):
        rep = compute_bound(10)
        assert rep.f == Q(313600, 310)
        assert rep.mu == Q(313600, 3100)
        assert (rep.blocker.t, rep.blocker.m, rep.blocker.k) == (177, 56, 0)
        assert not rep.budget_limited
        used = {(c.t, c.m, c.k): reason for c, reason in rep.exclusions_used}
        assert used[(79, 25, 0)] == "Miranda"
        assert used[(22, 7, 0)] == "CCMO"
        assert (6, 2, -1) in used

    def test_ten_points_without_miranda(self):
        db = default_db().with_sources(disable=("Miranda",))
        rep = compute_bound(10, db=db)
        assert rep.f == Q(62500, 90)
        assert (rep.blocker.t, rep.blocker.m, rep.blocker.k) == (79, 25, 0)

    def test_eleven_points(self):
        rep = compute_bound(11)
        assert rep.f == Q(123904, 308)
        assert (rep.blocker.t, rep.blocker.m, rep.blocker.k) == (106, 32, 0)

    def test_square_points_rejected(self):
        for n in (16, 25, 49):
            with pytest.raises(DomainError):
                compute_bound(n)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            compute_bound(9)

    def test_budget_limited_report(self):
        rep = compute_bound(10, m_budget_cap=5)
        assert rep.budget_limited
        assert rep.blocker is None
        assert rep.mu == 6 and rep.f == 60
        assert rep.m_checked == 5

    def test_budget_limited_with_survivor(self):
        # cap below the blocker's own e: the bound is the covered level
        rep = compute_bound(10, m_budget_cap=30)
        assert rep.budget_limited
        assert rep.mu == 31 and rep.f == 310

    def test_coverage_certificate(self):
        # for a sample of n: coverage bounds, blocker consistency, and the
        # completeness of the exclusion list below the certified level
        db = default_db()
        for n in nonsquares(10, 50):
            rep = compute_bound(n, db=db)
            assert not rep.budget_limited, n
            mu = rep.mu
            assert rep.m_checked >= ceil_frac(mu.numerator, mu.denominator) - 1
            knz_need = ceil_frac(mu.numerator, mu.denominator * (n - 1)) - 1
            assert rep.m_checked >= knz_need
            assert mu == e_value(rep.blocker)
            excluded = {(c.t, c.m, c.k) for c, _ in rep.exclusions_used}
            for c in enumerate_szcor(n, rep.m_checked):
                if e_value(c) < mu:
                    assert (c.t, c.m, c.k) in excluded, (n, c)
                    assert is_excluded(c, db).excluded, (n, c)

    def test_database_monotonicity(self):
        # switching a source on never decreases the certified f: Miranda off
        # <= default <= Dumnicki on, CCMO off <= default, unique-cubic off
        # <= default
        base = default_db()
        weaker = [base.with_sources(disable=(s,)) for s in ("Miranda", "CCMO", "unique-cubic")]
        richer = base.with_sources(enable=("Dumnicki",))
        for n in nonsquares(10, 99):
            f = compute_bound(n, db=base).f
            assert compute_bound(n, db=richer).f >= f, n
            for db in weaker:
                assert compute_bound(n, db=db).f <= f, (n, sorted(db.enabled_sources))

    def test_f_never_drops_as_the_m_cap_grows(self):
        caps = (1, 2, 3, 5, 8, 16, 17, 31, 40, 64, 100, 200, 5000)
        for n in nonsquares(10, 99):
            fs = [compute_bound(n, m_budget_cap=cap).f for cap in caps]
            assert fs == sorted(fs), (n, fs)

    def test_parallel_map_matches_serial(self):
        ns = [10, 11, 12, 13, 14]
        serial = bounds_for_ns(ns, jobs=1)
        parallel = bounds_for_ns(ns, jobs=2)
        assert serial == parallel


class TestRoundDriverOracle:
    """compute_bound enumerates each m once and decides each candidate in
    its own round; the conftest driver re-enumerates and re-sorts every
    round."""

    def test_table_b(self):
        for row in TABLE_B:
            assert compute_bound(row.n) == compute_bound_literal(row.n)[0], row.n

    @pytest.mark.parametrize("n, cap", [(527, 5000), (3001, 512), (10, 5), (10, 30)])
    def test_budget_points(self, n, cap):
        assert compute_bound(n, m_budget_cap=cap) == compute_bound_literal(n, m_budget_cap=cap)[0]

    @pytest.mark.parametrize("cap", [3, 16, 64, 200])
    def test_caps_that_cut_mid_run(self, cap):
        # classes above cap + 1 wait for the end of the run; at these caps
        # the cut falls inside the run for many n
        for n in nonsquares(10, 60):
            assert compute_bound(n, m_budget_cap=cap) == compute_bound_literal(n, m_budget_cap=cap)[0], n

    @pytest.mark.parametrize("n", [574, 623])
    def test_budget_limited_without_blocker(self, n):
        # the exclusions listed run past cap + 1, up to the least survivor
        rep = compute_bound(n)
        assert rep.blocker is None and any(e_value(c) > rep.mu for c, _ in rep.exclusions_used)
        assert rep == compute_bound_literal(n)[0]

    @pytest.mark.parametrize("n, cap", [(58, 168), (218, 288), (338, 168)])
    def test_blocker_at_the_level(self, n, cap):
        # the blocker's e is exactly cap + 1, so it is decided in its round
        rep = compute_bound(n, m_budget_cap=cap)
        assert rep.blocker is not None and rep.mu == cap + 1
        assert rep == compute_bound_literal(n, m_budget_cap=cap)[0]

    def test_no_class_above_the_level_is_decided_when_one_below_survives(self, monkeypatch):
        decided = []
        decide = bounds.is_excluded

        def recording(c, db):
            decided.append(c)
            return decide(c, db)

        monkeypatch.setattr(bounds, "is_excluded", recording)
        for n in [*(row.n for row in TABLE_B), 1000, 2000]:
            decided.clear()
            rep = compute_bound(n)
            assert rep.blocker is not None, n
            assert max(e_value(c) for c in decided) <= DEFAULT_M_BUDGET_CAP + 1, n

    @pytest.mark.parametrize("change", [{"disable": ("Miranda",)}, {"enable": ("Dumnicki",)}])
    def test_toggled_databases(self, change):
        db = default_db().with_sources(**change)
        for n in nonsquares(10, 60):
            assert compute_bound(n, db=db) == compute_bound_literal(n, db=db)[0], n

    @pytest.mark.parametrize("cap", [1, 5, 16, 17, 64, 512, 5000])
    def test_f_and_budget_limited_are_the_oracles(self, cap):
        # the report derives f = n*mu and budget_limited from mu and
        # m_checked; the oracle keeps its own f and flag from its own loop.
        # Every report passes check, also those with no blocker that list
        # exclusions above mu (n = 527 at cap 5000)
        bare = default_db().with_sources(disable=("CCMO", "Miranda", "unique-cubic"))
        flags = set()
        for db in (default_db(), bare):
            for n in [*nonsquares(10, 99), 527, 1000, 3001]:
                rep = compute_bound(n, db=db, m_budget_cap=cap)
                want, f, limited = compute_bound_literal(n, db=db, m_budget_cap=cap)
                assert (rep, rep.f, rep.budget_limited) == (want, f, limited), (n, db.enabled_sources)
                rep.check()
                flags.add(limited)
        # none of these reports has mu <= 5, so caps 1 and 5 limit them all;
        # at every larger cap some are budget-limited and some are not
        assert flags == ({True} if cap <= 5 else {True, False})

    @pytest.mark.parametrize("n, cap", [(10, 5000), (10, 30), (41, 5000), (527, 5000), (3001, 512)])
    def test_each_m_is_enumerated_once(self, monkeypatch, n, cap):
        ranges = []
        enumerate_all = bounds.enumerate_szcor

        def recording(n, m_max, m_min=1, table=None):
            ranges.append((m_min, m_max))
            return enumerate_all(n, m_max, m_min, table)

        monkeypatch.setattr(bounds, "enumerate_szcor", recording)
        rep = compute_bound(n, m_budget_cap=cap)
        covered = [m for lo, hi in ranges for m in range(lo, hi + 1)]
        assert covered == list(range(1, rep.m_checked + 1))
        assert all(lo <= hi for lo, hi in ranges)


@pytest.mark.parametrize("cap", [True, 100.5, "5"])
@pytest.mark.parametrize("run", [lambda cap: compute_bound(41, m_budget_cap=cap),
                                 lambda cap: bounds_for_ns([41], m_budget_cap=cap)],
                         ids=["compute_bound", "bounds_for_ns"])
def test_a_cap_that_is_not_an_int_is_refused(run, cap):
    # True once gave mu = 2 with m_checked True, and 100.5 a report
    # carrying cap 100.5
    with pytest.raises(InvalidInput) as info:
        run(cap)
    assert str(info.value) == f"m_budget_cap must be an integer, got {cap!r}"


@pytest.mark.parametrize("jobs", [2.5, True, "2", None])
def test_jobs_that_is_not_an_int_is_refused(monkeypatch, jobs):
    # 2.5 and True once ran without complaint; the refusal comes before
    # any pool is sized or started
    def no_pool(*args):
        raise AssertionError("a pool was sized")

    monkeypatch.setattr(bounds, "_worker_count", no_pool)
    with pytest.raises(InvalidInput) as info:
        bounds_for_ns([10], jobs=jobs)
    assert str(info.value) == f"jobs must be an integer, got {jobs!r}"


class TestWorkerCount:
    """The pool size bounds_for_ns would use; no pool is started here."""

    def test_capped_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _worker_count(3, 10) == 3
        assert _worker_count(64, 10) == 4
        assert _worker_count(64, 2) == 2
        assert _worker_count(4, 0) == 1

    def test_nonpositive_jobs_run_serially(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _worker_count(0, 10) == 1
        assert _worker_count(-3, 10) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _worker_count(8, 10) == 1


class TestCaseFormulas:
    def test_delta_one(self):
        bounds = formulas(17)
        assert bounds["theoremone-a"].applicable
        assert bounds["theoremone-a"].value == 1089

    def test_delta_two(self):
        bounds = formulas(11)
        assert bounds["theoremone-b"].applicable
        assert bounds["theoremone-b"].value == 110

    def test_large_odd_delta(self):
        bounds = formulas(77)
        assert bounds["theoremone-e"].applicable
        assert bounds["theoremone-e"].value == 5929
        # delta = 13 is also odd and > 2, so the generic odd case applies too
        assert bounds["theoremone-c"].applicable

    def test_gate_of_large_odd_delta_is_exact(self):
        # n = 94 has delta = 13 but (13-1)^4 = 20736 < 256*94 = 24064
        bounds = formulas(94)
        assert not bounds["theoremone-e"].applicable

    def test_top_delta(self):
        # n(n*sqrt(n) - 5n + 5*sqrt(n) - 1)/2 at n = 14 is -497 + 133*sqrt(14)
        # = 0.64..., below 1, so it is not a bound
        assert not formulas(14)["theoremone-f"].applicable
        bounds = formulas(23)
        assert bounds["theoremone-f"].applicable
        v = bounds["theoremone-f"].value
        assert isinstance(v, QuadraticExpr)
        # at n = 23: -1334 + 322*sqrt(23)
        assert v.a == -1334 and v.b == 322 and v.q == 23

    def test_values_below_one_are_inapplicable(self):
        # correm-quad, (n^2 - 5n*sqrt(n))/2, is <= 0 up to n = 25
        for n in range(10, 26):
            assert not formulas(n)["correm-quad"].applicable, n
        assert formulas(26)["correm-quad"].applicable
        for n in range(10, 1200):
            for fb in all_formula_bounds(n):
                if fb.applicable:
                    assert compare_values(fb.value, 1) >= 0, (n, fb)

    def test_squares_give_empty_list(self):
        assert [name for name in formulas(16) if name.startswith("theoremone")] == []

    def test_stronger_beats_weaker_everywhere(self):
        from math import isqrt

        for n in nonsquares(10, 999):
            d = isqrt(n)
            delta = n - d * d
            if delta > 2 and delta % 2 == 1:
                w = theoremone_weak_c(n)
                diff = QuadraticExpr(Q(n * (d * (d - 3) + 1)) - w.a, -w.b, w.q)
                assert sign_of(diff) >= 0, n
            if delta > 3 and delta % 2 == 0:
                w = theoremone_weak_d(n)
                diff = QuadraticExpr(Q(n * (d * (d - 3) + 2), 2) - w.a, -w.b, w.q)
                assert sign_of(diff) >= 0, n

    def test_uniform_consequences(self):
        with_dumnicki = default_db().with_sources(enable=("Dumnicki",))
        vals = {name: fb.value for name, fb in formulas(10, with_dumnicki).items()}
        assert vals["correm-21"] == 168
        assert vals["circ"] == 210
        assert vals["correm-42"] == 336

    def test_uniform_quadratic_exact_at_square(self):
        vals = {name: fb.value for name, fb in formulas(100).items()}
        quad = vals["correm-quad"]
        assert sign_of(QuadraticExpr(quad.a - 2500, quad.b, quad.q)) == 0


class TestExplicitMu:
    def test_golden_values(self):
        assert mu_n(47) == 71
        assert mu_n(18) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_n(16)
        with pytest.raises(DomainError):
            mu_n(25)
        with pytest.raises(DomainError):
            mu_n(15)

    def test_certifies_its_own_hypothesis_up_to_999(self):
        for n in range(17, 1000):
            if is_square(n):
                continue
            assert lemcc_hypothesis(n, mu_n(n)), n


class TestHypothesisCheckers:
    def test_level_one_always_holds(self):
        for n in (10, 11, 26, 99):
            assert lemcc_hypothesis(n, 1) is True

    def test_golden_pair(self):
        assert lemcc_hypothesis(47, 71) is True

    def test_out_of_range_level(self):
        with pytest.raises(DomainError):
            lemcc_hypothesis(10, 0)
        with pytest.raises(DomainError):
            lemcc_hypothesis(10, 10 * 9 + 1)

    def test_square_n_rejected(self):
        with pytest.raises(DomainError):
            lemcc_hypothesis(16, 5)


class TestBestKnown:
    def test_reference_value_for_41(self):
        # Harbourne's 1025 comes from the algorithm, not from an import
        rep = compute_bound(41)
        bk = best_known(41, rep)
        assert bk == (1025, "algorithm")

    def test_delta_one_formula_and_reference_agree_at_17(self):
        rep = compute_bound(17)
        bk = best_known(17, rep)
        assert bk == (1089, "theoremone-a")

    def test_algorithm_wins_at_10(self):
        rep = compute_bound(10)
        bk = best_known(10, rep)
        assert bk.f_best == Q(313600, 310)
        assert bk.source == "algorithm"

    def test_report_of_another_n_is_refused(self):
        # f(10) = 1011.61 is no bound for n = 12, whose Table-B value is 300.52
        with pytest.raises(DomainError, match="the report is for n = 10, not n = 12"):
            best_known(12, compute_bound(10))

    def test_dumnicki_formula_respects_database_switch(self):
        rep = compute_bound(41)
        enabled = default_db().with_sources(enable=("Dumnicki",))
        assert best_known(41, rep).f_best == 1025
        assert best_known(41, rep, enabled).f_best == 42 * 39

    def test_golden_10_to_399(self):
        # pinned before the formula families merged into all_formula_bounds
        # and the redundant reference imports were dropped
        want = json.loads((GOLDEN / "best-known-10..399.json").read_text(encoding="utf-8"))
        db = default_db()
        got = {}
        for n in nonsquares(10, 399):
            bk = best_known(n, compute_bound(n, db=db), db)
            got[str(n)] = {"f": value_to_json(bk.f_best), "source": bk.source}
        assert got == want

    def test_all_formula_bounds_names(self):
        names = {fb.name for fb in all_formula_bounds(19)}
        assert {"theoremone-a", "correm-21", "correm-42", "correm-quad",
                "circ", "lemcc", "reference-table"} <= names

    def test_every_import_is_needed(self):
        # an imported value must beat everything the package derives at its
        # n, or it only relabels a derived one
        for n, (value, _) in REFERENCE_F.items():
            derived = [compute_bound(n).f] + [
                fb.value for fb in all_formula_bounds(n)
                if fb.applicable and fb.name != "reference-table"
            ]
            assert all(compare_values(Q(value), v) > 0 for v in derived), n


class TestFrontierGolden:
    """tests/golden/frontier-10..3001.txt pins the default report of every
    nonsquare n in 10..3001.  Tier-1 recomputes every 10th line for run
    time; `python tests/frontier.py --check --jobs 2` checks them all."""

    def test_golden_lists_every_nonsquare_n(self):
        assert [int(line.split()[0]) for line in frontier.golden_lines()] == frontier.NS

    def test_every_tenth_n(self):
        want = frontier.golden_lines()[::10]
        assert frontier.frontier_lines([int(line.split()[0]) for line in want]) == want
