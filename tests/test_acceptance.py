"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the per-n sweep report.
"""
from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from conftest import (
    brute_force_candidates,
    ceil_frac,
    theoremone_weak_c,
    theoremone_weak_d,
    unload_literal,
)
from seshadri.bounds import (
    all_formula_bounds,
    best_known,
    bounds_for_ns,
    compute_bound,
    lemcc_hypothesis,
    mu_n,
)
from seshadri.candidates import CandidateTriple, e_value, enumerate_szcor
from seshadri.cli import main as cli_main
from seshadri.effectivity import (
    SpecializationConfig,
    _from_runs,
    _step_runs,
    _to_runs,
    alpha_lb_closed,
    alpha_lower_bound,
    d_sequence,
    semiuniformize,
)
from seshadri.exclusions import default_db
from seshadri.lattice import QuadraticExpr, is_square, sign_of
from seshadri.render import truncate2
from seshadri.tables import TABLE_A, TABLE_B, implied_f

Q = Fraction

NONSQUARES_10_99 = [n for n in range(10, 100) if not is_square(n)]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_reports():
    jobs = min(os.cpu_count() or 1, 8)
    t0 = time.perf_counter()
    reports = bounds_for_ns(NONSQUARES_10_99, db=default_db(), jobs=jobs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"sweep took {elapsed:.1f}s"
    return reports, elapsed


def test_criterion_1_table_a_reproduction(capsys):
    t0 = time.perf_counter()
    cands = enumerate_szcor(10, 182)
    elapsed = time.perf_counter() - t0
    rows = [(c.t, c.m, c.k, truncate2(e_value(c))) for c in cands]
    want = [(r.t, r.m, r.k, r.e_str) for r in TABLE_A]
    code = cli_main(["candidates", "--n", "10", "--m-max", "182"])
    out_lines = capsys.readouterr().out.strip().splitlines()[1:]
    cli_rows = [tuple(line.split()) for line in out_lines]
    want_str = [(str(t), str(m), str(k), e) for t, m, k, e in want]
    with capsys.disabled():
        report(
            "criterion 1: reference table of 32 test classes reproduced",
            rows == want and cli_rows == want_str and code == 0 and elapsed < 1.0,
            f"{len(rows)} rows in {elapsed*1000:.0f} ms",
        )


def test_criterion_2_exact_e_and_f_values():
    checks = [
        (e_value(CandidateTriple(10, 3, 1, 0)), Q(1)),
        (e_value(CandidateTriple(10, 6, 2, -1)), Q(361, 10)),
        (e_value(CandidateTriple(10, 22, 7, 0)), Q(49, 6)),
        (e_value(CandidateTriple(10, 177, 56, 0)), Q(313600, 3100)),
        (10 * e_value(CandidateTriple(10, 177, 56, 0)), Q(313600, 310)),
    ]
    ok = all(got == want for got, want in checks)
    printed = [truncate2(got) for got, _ in checks[:4]]
    report(
        "criterion 2: exact e/f values with printed truncations",
        ok and printed == ["1", "36.1", "8.16", "101.16"],
        "e(3,1,0), e(6,2,-1), e(22,7,0), e(177,56,0), f(177,56,0)",
    )


def test_criterion_3_ten_point_bound_under_both_configurations():
    t0 = time.perf_counter()
    full = compute_bound(10)
    reduced = compute_bound(10, db=default_db().with_sources(disable=("Miranda",)))
    elapsed = time.perf_counter() - t0
    ok = (
        full.f == Q(313600, 310)
        and (full.blocker.t, full.blocker.m, full.blocker.k) == (177, 56, 0)
        and reduced.f == Q(62500, 90)
        and (reduced.blocker.t, reduced.blocker.m, reduced.blocker.k) == (79, 25, 0)
        and elapsed < 5.0
    )
    report(
        "criterion 3: n=10 bound with and without the Miranda exclusion",
        ok,
        f"f = {truncate2(full.f)} / {truncate2(reduced.f)} in {elapsed:.2f}s",
    )


def test_criterion_4_reference_sweep(sweep_reports, capsys):
    reports, elapsed = sweep_reports
    hard_ok = True
    matches = 0
    deficit_lines = []
    for row in TABLE_B:
        rep = reports[row.n]
        target = implied_f(row)
        if rep.f > target:
            hard_ok = False
            deficit_lines.append(f"n={row.n}: EXCESS {truncate2(rep.f)} > {row.f_str}")
            continue
        if rep.f == target:
            matches += 1
            continue
        # every non-match must be a shortfall with a named surviving class
        if rep.f >= target or rep.blocker is None:
            hard_ok = False
            deficit_lines.append(f"n={row.n}: unexplained non-match")
            continue
        deficit_lines.append(
            f"n={row.n}: deficit {truncate2(rep.f)} < {row.f_str}, survivor {rep.blocker.label()}"
        )
    # every attributed Table-B value, imported or derived, is recovered
    attributed = {row.n: row for row in TABLE_B if row.source is not None}
    reference_ok = True
    for n, row in attributed.items():
        bk = best_known(n, reports[n])
        if bk.f_best != Q(row.f_str):
            reference_ok = False
            deficit_lines.append(f"n={n}: best-known misses the reference value")
    deficit_ns = sorted(
        row.n for row in TABLE_B
        if reports[row.n].f != implied_f(row)
    )
    unexplained = [n for n in deficit_ns if n not in attributed]
    with capsys.disabled():
        for line in deficit_lines:
            print("   ", line)
        report(
            "criterion 4: sweep over nonsquare 10 <= n <= 99",
            hard_ok and reference_ok and not unexplained,
            f"{matches}/{len(TABLE_B)} exact matches, deficits {deficit_ns} "
            f"(all attributed rows, recovered by best_known), {elapsed:.1f}s",
        )


def test_criterion_5_degree_bound_goldens():
    cfg = SpecializationConfig.default(10)
    ok = (
        alpha_lower_bound((1,) * 10, cfg) == 4
        and alpha_lb_closed(56, 0, cfg) == 169
        and alpha_lb_closed(25, 0, cfg) == 76
        and alpha_lb_closed(2, -1, cfg) == 6
    )
    report("criterion 5: degree-bound engine golden values", ok,
           "alpha(1^10)=4, closed(56,0)=169, closed(25,0)=76, closed(2,-1)=6")


def test_criterion_6_property_suites():
    rnd = random.Random(0xACCE97)
    details = []

    # unloading: one step on runs equals the literal rewriting of the
    # stepped vector, and lands in normal form
    for _ in range(1000):
        n = rnd.randint(1, 12)
        r = rnd.randint(1, n)
        b = sorted((rnd.randint(0, 9) for _ in range(n)), reverse=True)
        out = _from_runs(_step_runs(_to_runs(b), r))
        assert out == unload_literal([x - 1 for x in b[:r]] + b[r:]), (b, r)
        assert all(a >= c for a, c in zip(out, out[1:]))
        assert out[-1] >= 0
    details.append("unloading step x1000")

    # trace inequalities and omega' on almost-uniform inputs
    ns = [n for n in range(10, 41) if not is_square(n)]
    cases = 0
    while cases < 1000:
        n = rnd.choice(ns)
        m = rnd.randint(1, 30)
        kmax = isqrt(m)
        k = rnd.randint(-kmax, kmax)
        cfg = SpecializationConfig.default(n)
        d, r, g = cfg.d, cfg.r, cfg.g
        delta = n - d * d
        mults = (m + 1,) * k + (m,) * (n - k) if k >= 0 else (m,) * (n - 1) + (m + k,)
        total = m * n + k
        t = rnd.choice([1, (m * r + k + g - 1) // d, isqrt(m * m * n), total // d + 1])
        tr = d_sequence(t, mults, cfg)
        assert tr.omega_prime == ceil_frac(total, r), (n, m, k, t)
        for step in tr.steps[: tr.omega_prime]:
            assert step.dot_c <= d * t - (m * r + k), (n, m, k, t, step.index)
            if k < 0 and delta > 0 and delta % 2 == 0:
                assert step.dot_c <= d * t - m * r, (n, m, k, t, step.index)
        # dominance of the generic engine over the closed form
        if k * k <= m and (k == 0 or m < n):
            assert alpha_lower_bound(semiuniformize(n, m, k), cfg) >= alpha_lb_closed(m, k, cfg)
        cases += 1
    details.append("traces x1000")

    # enumeration against the brute-force oracle
    for n in range(10, 21):
        got = sorted((c.t, c.m, c.k) for c in enumerate_szcor(n, 30))
        assert got == brute_force_candidates(n, 30), n
    details.append("enumeration oracle n=10..20")

    # case-formula internal inequalities for all nonsquare n <= 999
    for n in range(10, 1000):
        if is_square(n):
            continue
        d = isqrt(n)
        delta = n - d * d
        if delta > 2 and delta % 2 == 1:
            w = theoremone_weak_c(n)
            assert sign_of(QuadraticExpr(Q(n * (d * (d - 3) + 1)) - w.a, -w.b, w.q)) >= 0, n
        if delta > 3 and delta % 2 == 0:
            w = theoremone_weak_d(n)
            assert sign_of(QuadraticExpr(Q(n * (d * (d - 3) + 2), 2) - w.a, -w.b, w.q)) >= 0, n
    details.append("formula inequalities n<=999")

    # the explicit level certifies its own hypothesis for all nonsquare n <= 999
    for n in range(17, 1000):
        if is_square(n):
            continue
        assert lemcc_hypothesis(n, mu_n(n)), n
    details.append("explicit-level hypothesis n<=999")

    report("criterion 6: property suites", True, "; ".join(details))


def test_criterion_7_formula_spot_values():
    t_one = {fb.name: fb.value for fb in all_formula_bounds(17) if fb.applicable}
    correm = {fb.name: fb.value for fb in all_formula_bounds(10)}
    ok = (
        t_one.get("theoremone-a") == 1089
        and correm["correm-21"] == 168
        and correm["circ"] == 210
        and mu_n(47) == 71
    )
    report("criterion 7: formula spot values", ok,
           "f(17)=1089, f(10) includes 168 and 210, explicit level mu(47)=71")
