"""Check the class table against the per-m tests it replaced, for every n
in 3002..10000, squares included.  For each n:

- the k != 0 classes with m < n that `candidates.pinned_classes` finds must
  equal, in order, those of `conftest.pinned_by_divisibility`;
- the k = 0 classes with m <= 2n + 50 that the three-gap walk of
  `candidates.k0_classes` finds must equal those of `conftest.k0_by_isqrt`;
- for nonsquare n, the gaps of `candidates.return_gaps` must equal the
  least ones that `conftest.return_gaps_by_search` finds.

    PYTHONPATH=src python tests/pinned.py [--jobs J]

Exits 1 on any difference.  Tier-1 checks every n in 10..3001, in
tests/test_candidates.py.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from conftest import k0_by_isqrt, pinned_by_divisibility, pinned_table_classes, return_gaps_by_search
from seshadri.candidates import k0_classes, return_gaps
from seshadri.lattice import is_square

NS = range(3002, 10001)


def differences(n: int) -> list[str]:
    """What of n's class table differs from its oracle."""
    bad = []
    if pinned_table_classes(n, n - 1) != pinned_by_divisibility(n, n - 1):
        bad.append("the pinned table differs from the divisibility branch")
    gaps = return_gaps(n)
    if not is_square(n) and gaps != return_gaps_by_search(n):
        bad.append(f"the return gaps {gaps} differ from the least ones {return_gaps_by_search(n)}")
    if k0_classes(n, gaps, 1, 2 * n + 50) != k0_by_isqrt(n, 2 * n + 50):
        bad.append("the k = 0 walk differs from the per-m square root test")
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across values of n")
    args = p.parse_args(argv)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            found = list(pool.map(differences, NS, chunksize=64))
    else:
        found = [differences(n) for n in NS]
    bad = 0
    for n, problems in zip(NS, found):
        for problem in problems:
            print(f"n = {n}: {problem}")
        bad += bool(problems)
    print(f"{len(NS) - bad} of {len(NS)} n match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
