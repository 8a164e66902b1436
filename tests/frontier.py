"""Write or check tests/golden/frontier-10..3001.txt, the default-database,
default-cap report of every nonsquare n in 10..3001, one line per n:

    n mu blocker m_checked_k0 m_checked_knz exclusions sha

blocker is C(t,m,k) or "none", both m_checked columns hold the report's
one covered m, exclusions is the number of exclusions used, and sha is
the first 16 hex digits of the SHA-256 of the report's JSON rendering, so
the line pins the whole report.

    PYTHONPATH=src python tests/frontier.py --check [--jobs J]
    PYTHONPATH=src python tests/frontier.py --write [--jobs J]

Every report must pass BoundReport.check before its line is made.
--check recomputes every n and exits 1 on any difference from the golden;
--write rewrites it.  Tier-1 checks every 10th n, in tests/test_bounds.py.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from seshadri.bounds import BoundReport, bounds_for_ns
from seshadri.lattice import is_square
from seshadri.render import render_report

GOLDEN = Path(__file__).resolve().parent / "golden" / "frontier-10..3001.txt"
NS = [n for n in range(10, 3002) if not is_square(n)]


def frontier_line(rep: BoundReport) -> str:
    """rep's line, once rep passes BoundReport.check (ValueError if not)."""
    rep.check()
    sha = hashlib.sha256(render_report(rep, "json").encode()).hexdigest()[:16]
    blocker = rep.blocker.label() if rep.blocker else "none"
    m = rep.m_checked
    return f"{rep.n} {rep.mu} {blocker} {m} {m} {len(rep.exclusions_used)} {sha}"


def frontier_lines(ns, jobs: int = 1) -> list[str]:
    return [frontier_line(rep) for rep in bounds_for_ns(ns, jobs=jobs).values()]


def golden_lines() -> list[str]:
    return GOLDEN.read_text(encoding="ascii").splitlines()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the golden file")
    mode.add_argument("--write", action="store_true", help="rewrite the golden file")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across values of n")
    args = p.parse_args(argv)
    if args.write:
        GOLDEN.write_text("\n".join(frontier_lines(NS, args.jobs)) + "\n", encoding="ascii")
        return 0
    want = golden_lines()
    got = frontier_lines(NS, args.jobs)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    for w, g in bad:
        print(f"golden: {w}\n   now: {g}")
    print(f"{len(want) - len(bad)} of {len(want)} lines match {GOLDEN.name}")
    return 0 if want == got else 1


if __name__ == "__main__":
    sys.exit(main())
