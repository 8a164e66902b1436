#!/usr/bin/env python3
"""Sweep certified f(n) over a range of n and compare with the reference table.

Examples:
    python scripts/run_sweep.py --n-min 10 --n-max 99 --jobs 2
    python scripts/run_sweep.py --n-min 10 --n-max 30 --disable Miranda
    python scripts/run_sweep.py --n-min 10 --n-max 50 --enable Dumnicki
"""
from __future__ import annotations

import argparse
import time

from seshadri.bounds import best_known, bounds_for_ns
from seshadri.exclusions import default_db
from seshadri.lattice import InvalidInput, is_square
from seshadri.render import truncate2, truncate2_value
from seshadri.tables import TABLE_B_BY_N, implied_f


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=10)
    ap.add_argument("--n-max", type=int, default=99)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--m-cap", type=int, default=5000)
    ap.add_argument("--enable", action="append", default=[], help="enable an exclusion source")
    ap.add_argument("--disable", action="append", default=[], help="disable an exclusion source")
    args = ap.parse_args()

    try:
        db = default_db().with_sources(enable=tuple(args.enable), disable=tuple(args.disable))
    except InvalidInput as exc:
        ap.error(str(exc))
    ns = [n for n in range(args.n_min, args.n_max + 1) if n >= 10 and not is_square(n)]
    t0 = time.perf_counter()
    reports = bounds_for_ns(ns, db=db, m_budget_cap=args.m_cap, jobs=args.jobs)
    elapsed = time.perf_counter() - t0

    matches = 0
    print(f"{'n':>3} {'f(n)':>12} {'best known':>12} {'reference':>10} {'blocker':>16}  status")
    for n in ns:
        rep = reports[n]
        row = TABLE_B_BY_N.get(n)
        bk = best_known(n, rep, db)
        blocker = rep.blocker.label() if rep.blocker else "-"
        if row is None:
            status = "(no reference row)"
            ref = "-"
        else:
            ref = row.f_str
            target = implied_f(row)
            if truncate2(rep.f) == truncate2(target):
                status = "match"
                matches += 1
            elif rep.f < target:
                status = f"deficit (best known {truncate2_value(bk.f_best)} via {bk.source})"
            else:
                status = "EXCESS over reference"
        flag = " [budget-limited]" if rep.budget_limited else ""
        print(f"{n:>3} {truncate2(rep.f):>12} {truncate2_value(bk.f_best):>12} {ref:>10} {blocker:>16}  {status}{flag}")
    print(f"\n{matches}/{len(ns)} rows reproduce the reference exactly; {elapsed:.1f}s with jobs={args.jobs}")


if __name__ == "__main__":
    main()
