"""Check the pinned table against the per-m divisibility branch it replaced,
for every n in 3002..10000, squares included: for each n, the k != 0
classes with m < n that `candidates.pinned_classes` finds must equal, in
order, those of `conftest.pinned_by_divisibility`.

    PYTHONPATH=src python tests/pinned.py [--jobs J]

Exits 1 on any difference.  Tier-1 checks every n in 10..3001, in
tests/test_candidates.py.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from conftest import pinned_by_divisibility, pinned_table_classes

NS = range(3002, 10001)


def matches(n: int) -> bool:
    return pinned_table_classes(n, n - 1) == pinned_by_divisibility(n, n - 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across values of n")
    args = p.parse_args(argv)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            ok = list(pool.map(matches, NS, chunksize=64))
    else:
        ok = [matches(n) for n in NS]
    bad = [n for n, good in zip(NS, ok) if not good]
    for n in bad:
        print(f"n = {n}: the pinned table differs from the divisibility branch")
    print(f"{len(NS) - len(bad)} of {len(NS)} n match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
