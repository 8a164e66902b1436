"""Command-line surface.

Subcommands:

  candidates --n N --m-max M [--format text|csv|json]
  alpha      --n N (--m M [--k K] | --mults v1,v2,...) [--trace]
  bound      --n N [--db PATH] [--m-cap C] [--format ...] [--strict]
  formulas   --n A..B [--db PATH] [--format ...]
  sweep      --n A..B [--db PATH] [--m-cap C]
  verify     --table A|B [--db PATH]

formulas and sweep take --n as N or A..B with 10 <= A <= B; any other spec
exits 2 with one message.  sweep reports f(n) for every nonsquare n in the
range and judges each n that has a Table-B row as verify does; `verify
--table B` is the sweep over the Table-B n at the default m cap.  Exclusion
sources are switched with a database file (`--db`), for example one written
by `default_db().with_sources(disable=("Miranda",)).save(path)`; verify
reads it for table B only, since table A uses no database.  Every command
uses n's default specialization, the only one proved to exclude one-sidedly.

Global flags: --jobs J >= 1 (parallelism across n), --cache PATH (cache of the
reports of bound, sweep and verify --table B, which alone open it, keyed by
(n, database JSON, m-cap, package version)).  No flag may be abbreviated,
and a usage error names the unknown flag, before the subcommand too.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget-
limited bound under --strict.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import __version__
from .bounds import DEFAULT_M_BUDGET_CAP, BoundReport, all_formula_bounds, best_known, bounds_for_ns
from .candidates import e_value, enumerate_szcor
from .effectivity import (
    SpecializationConfig,
    alpha_lb_closed,
    alpha_lower_bound,
    d_sequence,
    semiuniformize,
)
from .exclusions import ExclusionDb, default_db
from .lattice import DomainError, InvalidInput, is_square
from .render import (
    check_stored_copies,
    render_candidates,
    render_formulas,
    render_report,
    render_trace,
    report_from_json_dict,
    report_to_json_dict,
    truncate2,
)
from .tables import TABLE_A, TABLE_B, TABLE_B_BY_N, implied_f

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET_LIMITED = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seshadri",
        description="Certified lower bounds for multi-point Seshadri constants of the plane.",
        allow_abbrev=False,
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across values of n")
    p.add_argument("--cache", default=None, help="JSON report cache of bound, sweep and verify --table B")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("candidates", help="enumerate prospective abnormal classes", allow_abbrev=False)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m-max", type=int, required=True)
    c.add_argument("--format", choices=("text", "csv", "json"), default="text")
    c.set_defaults(run=_cmd_candidates)

    a = sub.add_parser("alpha", help="certified lower bounds for the degree of a fat-point curve",
                       allow_abbrev=False)
    a.add_argument("--n", type=int, required=True)
    vector = a.add_mutually_exclusive_group(required=True)
    vector.add_argument("--m", type=int, help="the semiuniform vector of C(t, m, k)")
    vector.add_argument("--mults", type=str, help="comma-separated multiplicities")
    a.add_argument("--k", type=int, help="k of the --m vector (default 0)")
    a.add_argument("--trace", action="store_true", help="dump the unloading trace of the witness degree")
    a.set_defaults(run=_cmd_alpha)

    b = sub.add_parser("bound", help="certified f(n) via the exclusion fixpoint", allow_abbrev=False)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--db", default=None, help="path to an exclusion database (JSON)")
    b.add_argument("--m-cap", type=int, default=DEFAULT_M_BUDGET_CAP)
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    b.add_argument("--strict", action="store_true", help="exit 3 if the bound is budget-limited")
    b.set_defaults(run=_cmd_bound)

    f = sub.add_parser("formulas", help="closed-form f(n) bounds", allow_abbrev=False)
    f.add_argument("--n", type=str, required=True, help="single n or range A..B, A >= 10")
    f.add_argument("--db", default=None)
    f.add_argument("--format", choices=("text", "csv", "json"), default="text")
    f.set_defaults(run=_cmd_formulas)

    s = sub.add_parser("sweep", help="certified f(n) over a range of n, judged against table B",
                       allow_abbrev=False)
    s.add_argument("--n", type=str, required=True, help="single n or range A..B, A >= 10")
    s.add_argument("--db", default=None, help="path to an exclusion database (JSON)")
    s.add_argument("--m-cap", type=int, default=DEFAULT_M_BUDGET_CAP)
    s.set_defaults(run=_cmd_sweep)

    v = sub.add_parser("verify", help="check the build against the embedded reference tables",
                       allow_abbrev=False)
    v.add_argument("--table", choices=("A", "B"), required=True)
    v.add_argument("--db", default=None, help="exclusion database of table B")
    v.set_defaults(run=_cmd_verify)
    return p


def _load_db(path: str | None) -> ExclusionDb:
    if path is None:
        return default_db()
    return ExclusionDb.load(path)


class _Cache:
    """Single-writer JSON cache of the bound reports of one database.

    A file that is not a JSON object is ignored with a warning on stderr, so
    every report is recomputed.  An entry is ignored the same way, and the
    recomputed report replaces it, unless it decodes as a report for its
    key's n and m cap whose stored f, budget-limited flag and second
    coverage copy equal what it holds or derives and that passes
    BoundReport.check; decoding refuses any specialization but n's
    default.  Keys carry the package version, so a
    report cached by another release is recomputed, not served.  A key
    holds no d or r: n alone fixes them.

    A key holds the database itself, as the compact, key-sorted JSON of its
    to_json_dict, so reports cached under one database are never served
    under another.  The text is made once, when a cache with a path opens;
    a cache with no path neither keys nor stores anything, so it never
    loads json.  An empty path raises ValueError, and a path in a
    directory that does not exist OSError, at once, before any work.
    flush replaces the file atomically with sorted compact JSON, written by
    json.dumps's C encoder.  A file with this release's keys is served in
    any JSON layout.
    """

    def __init__(self, path: str | None, db: ExclusionDb):
        self.path = path
        self.data: dict = {}
        self.dirty = False
        if path is None:
            return
        if not path:
            raise ValueError("--cache needs a file path, got an empty one")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"cannot write the cache {path}: no such directory")
        import json

        self.db_text = json.dumps(db.to_json_dict(), sort_keys=True, separators=(",", ":"))
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if not isinstance(data, dict):
                    raise ValueError("not a JSON object")
                self.data = data
            except ValueError as exc:
                sys.stderr.write(f"warning: ignoring corrupt cache {path} ({exc}); recomputing\n")

    def key(self, n: int, cap: int) -> str:
        return f"n={n}|db={self.db_text}|cap={cap}|v={__version__}"

    def get(self, n: int, cap: int) -> BoundReport | None:
        """The report cached for (n, cap), or None when there is none or it
        is malformed."""
        if not self.data:
            return None
        key = self.key(n, cap)
        if key not in self.data:
            return None
        try:
            entry = self.data[key]
            rep = report_from_json_dict(entry)
            if (rep.n, rep.m_budget_cap) != (n, cap):
                raise ValueError(f"entry is for n={rep.n}, cap={rep.m_budget_cap}")
            check_stored_copies(entry, rep)
            rep.check()
            return rep
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            sys.stderr.write(f"warning: ignoring malformed cache entry {key} ({reason}); recomputing\n")
            return None

    def put(self, rep: BoundReport) -> None:
        """Cache rep under the key of its own n and m cap."""
        if not self.path:
            return
        self.data[self.key(rep.n, rep.m_budget_cap)] = report_to_json_dict(rep)
        self.dirty = True

    def flush(self) -> None:
        if self.path and self.dirty:
            import json

            text = json.dumps(self.data, sort_keys=True, separators=(",", ":")) + "\n"
            tmp = f"{self.path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


def _cmd_candidates(args) -> int:
    cands = enumerate_szcor(args.n, args.m_max)
    sys.stdout.write(render_candidates(cands, args.format))
    return EXIT_OK


def _cmd_alpha(args) -> int:
    cfg = SpecializationConfig.default(args.n)
    closed: int | None = None
    if args.mults is not None:
        if args.k is not None:
            raise InvalidInput("--k applies to --m, not to --mults")
        mults = tuple(int(x) for x in args.mults.split(","))
    else:
        k = args.k or 0
        mults = semiuniformize(args.n, args.m, k)
        try:
            closed = alpha_lb_closed(args.m, k, cfg)
        except DomainError:
            closed = None
    bound = alpha_lower_bound(mults, cfg)
    sys.stdout.write(f"n = {cfg.n}, d = {cfg.d}, r = {cfg.r}, g = {cfg.g}\n")
    sys.stdout.write(f"mults = {','.join(str(x) for x in mults)}\n")
    sys.stdout.write(f"alpha >= {bound}   (specialization criterion)\n")
    if closed is not None:
        sys.stdout.write(f"alpha >= {closed}   (closed form)\n")
    if args.trace:
        witness = bound - 1
        trace = d_sequence(witness, mults, cfg)
        sys.stdout.write(render_trace(trace))
    return EXIT_OK


def _cmd_bound(args) -> int:
    rep = _cached_reports(args, [args.n], _load_db(args.db), args.m_cap)[args.n]
    sys.stdout.write(render_report(rep, args.format))
    if rep.budget_limited and args.strict:
        return EXIT_BUDGET_LIMITED
    return EXIT_OK


def _parse_range(spec: str) -> range:
    """The n of an --n given as N or A..B, with integers 10 <= A <= B."""
    message = f"--n needs N or A..B with integers 10 <= A <= B, got {spec}"
    a, sep, b = spec.partition("..")
    try:
        lo, hi = int(a), int(b if sep else a)
    except ValueError:
        raise InvalidInput(message) from None
    if not 10 <= lo <= hi:
        raise InvalidInput(message)
    return range(lo, hi + 1)


def _cmd_formulas(args) -> int:
    ns = _parse_range(args.n)
    db = _load_db(args.db)
    per_n = [(n, all_formula_bounds(n, db=db)) for n in ns]
    sys.stdout.write(render_formulas(per_n, args.format))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    ns = [n for n in _parse_range(args.n) if not is_square(n)]
    db = _load_db(args.db)
    return _print_sweep(ns, _cached_reports(args, ns, db, args.m_cap), db)


def _cmd_verify(args) -> int:
    if args.table == "A":
        return _verify_table_a()
    ns, db = [row.n for row in TABLE_B], _load_db(args.db)
    return _print_sweep(ns, _cached_reports(args, ns, db, DEFAULT_M_BUDGET_CAP), db)


def _cached_reports(args, ns: list[int], db: ExclusionDb, cap: int) -> dict[int, BoundReport]:
    """The reports for ns: cached ones are read, and the misses computed by
    one bounds_for_ns call, cached and flushed to the --cache file."""
    cache = _Cache(args.cache, db)
    reports: dict[int, BoundReport] = {}
    missing = []
    for n in ns:
        rep = cache.get(n, cap)
        if rep is None:
            missing.append(n)
        else:
            reports[n] = rep
    if missing:
        for n, rep in bounds_for_ns(missing, db=db, m_budget_cap=cap, jobs=args.jobs).items():
            reports[n] = rep
            cache.put(rep)
    cache.flush()
    return reports


def _verify_table_a() -> int:
    cands = enumerate_szcor(10, 182)
    ok = True
    if len(cands) != len(TABLE_A):
        sys.stdout.write(f"FAIL: expected {len(TABLE_A)} candidates, got {len(cands)}\n")
        ok = False
    for c, row in zip(cands, TABLE_A):
        got = (c.t, c.m, c.k, truncate2(e_value(c)))
        want = (row.t, row.m, row.k, row.e_str)
        if got != want:
            sys.stdout.write(f"FAIL: {got} != {want}\n")
            ok = False
    sys.stdout.write(f"table A: {'PASS' if ok else 'FAIL'} ({len(cands)} candidates)\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _print_sweep(ns: list[int], reports: dict[int, BoundReport], db: ExclusionDb) -> int:
    """One line per n and a table-B summary.  An n with a Table-B row is
    judged against the exact f implied by the row's class: equal to it is
    a match; above it, by any amount, is EXCESS, a hard failure; below
    it, a row with a
    reference value must have that value recovered by best_known.  An n
    without a row shows f, the blocker and best_known.  A range with no
    Table-B row ends in "table B: no rows in range" instead of a summary.
    Exit 1 on a hard failure, else 0."""
    hard_fail = False
    rows = 0
    matches = 0
    deficit_rows = []
    for n in ns:
        rep = reports[n]
        row = TABLE_B_BY_N.get(n)
        survivor = rep.blocker.label() if rep.blocker else "none"
        f = rep.f
        head = f"n={n:3d} f={truncate2(f):>9} table={row.f_str if row else '-':>9}"
        if row is None:
            bk = best_known(n, rep, db)
            line = (f"{head} no table row, blocker {survivor}; "
                    f"best known {truncate2(bk.f_best)} ({bk.source})")
        else:
            rows += 1
            target = implied_f(row)
            note = f"  [{row.note}]" if row.note else ""
            if f > target:
                line = f"{head} EXCESS (hard failure)"
                hard_fail = True
            elif f == target:
                matches += 1
                line = f"{head} match{note}"
            else:
                line = f"{head} deficit, survivor {survivor}"
                if row.source is not None:
                    bk = best_known(n, rep, db)
                    ref_ok = bk.f_best == Fraction(int(row.f_str))
                    line += f"; reference ({row.source}) gives {row.f_str}: {'OK' if ref_ok else 'MISSING'}"
                    hard_fail = hard_fail or not ref_ok
                else:
                    deficit_rows.append(n)
                line += note
        if rep.budget_limited:
            line += " [budget-limited]"
        sys.stdout.write(line + "\n")
    if not rows:
        sys.stdout.write("table B: no rows in range\n")
        return EXIT_OK
    sys.stdout.write(
        f"table B: {matches}/{rows} exact matches (vs class-implied exact values); "
        f"unexplained deficits: {deficit_rows or 'none'}\n"
    )
    if hard_fail:
        sys.stdout.write("table B: FAIL\n")
        return EXIT_VERIFY_FAIL
    sys.stdout.write("table B: PASS\n")
    return EXIT_OK


def _unknown_global_flag(argv: list[str]) -> str | None:
    """The first flag before the subcommand that is not a global flag.

    argparse skips such a flag and reads the word after it as the
    subcommand, so `--cach x.json bound` would be refused for `x.json`.
    """
    words = iter(argv)
    for word in words:
        if word in ("--jobs", "--cache"):
            next(words, None)
        elif not word.startswith("-"):
            return None
        elif word.split("=", 1)[0] not in ("--jobs", "--cache", "-h", "--help"):
            return word
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        flag = _unknown_global_flag(argv)
        if flag is not None:
            parser.error(f"unrecognized arguments: {flag}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be >= 1, got {args.jobs}\n")
        return EXIT_USAGE
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
