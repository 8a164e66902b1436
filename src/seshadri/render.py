"""Deterministic rendering and serialization of results.

Text mode truncates decimals (never rounds) to two places and trims
trailing zeros, matching the reference tables' convention ("36.1", "8.16").
JSON carries exact rationals as numerator/denominator strings and round-trips
losslessly; CSV emits one row per record with exact values alongside the
truncated display form.
"""
from __future__ import annotations

import io
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt, lcm

from .bounds import BoundReport, Coverage, FormulaBound
from .candidates import CandidateTriple, e_value
from .effectivity import SpecializationConfig, UnloadingTrace
from .lattice import DomainError, QuadraticExpr, Value


def truncate2(x: Value) -> str:
    """Decimal expansion of a rational or surd x truncated (toward zero) to
    two places, trailing zeros trimmed: 313600/310 -> '1011.61',
    361/10 -> '36.1', -497 + 133*sqrt(14) -> '0.64'.

    With q = v/w, sqrt(q) = sqrt(v*w)/w, so over a common denominator
    100*x = (p + s*sqrt(v*w)) / den with integers p, s and den > 0.  The
    floor of s*sqrt(v*w) is isqrt(s^2*v*w) when s >= 0 and minus the
    ceiling of that root when s < 0, and flooring the numerator before the
    division by den keeps the floor.  A negative floor means x < 0, and
    then -x is floored the same way.
    """
    a, b, q = x if isinstance(x, QuadraticExpr) else (x, 0, 0)
    den = lcm(a.denominator, b.denominator * q.denominator)
    p = 100 * a.numerator * (den // a.denominator)
    s = 100 * b.numerator * (den // (b.denominator * q.denominator))
    m = s * s * q.numerator * q.denominator
    root = isqrt(m)
    up = root + (root * root != m)
    scaled = (p + (root if s >= 0 else -up)) // den
    sign = ""
    if scaled < 0:
        sign, scaled = "-", (-p + (root if s <= 0 else -up)) // den
    whole, frac = divmod(scaled, 100)
    if frac == 0:
        return sign + str(whole)
    return sign + f"{whole}.{frac:02d}".rstrip("0")


def fraction_to_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _int_from_json(v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _str_from_json(v: object) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def fraction_from_json(d: dict) -> Fraction:
    return Fraction(int(_str_from_json(d["num"])), int(_str_from_json(d["den"])))


def value_to_json(x: Value) -> dict:
    if isinstance(x, Fraction):
        return {"kind": "rational", **fraction_to_json(x)}
    return {
        "kind": "quadratic",
        "a": fraction_to_json(x.a),
        "b": fraction_to_json(x.b),
        "q": fraction_to_json(x.q),
    }


def candidate_to_json(c: CandidateTriple) -> dict:
    return {"n": c.n, "t": c.t, "m": c.m, "k": c.k}


def candidate_from_json(d: dict) -> CandidateTriple:
    return CandidateTriple(n=_int_from_json(d["n"]), t=_int_from_json(d["t"]),
                           m=_int_from_json(d["m"]), k=_int_from_json(d["k"]))


def cfg_to_json(cfg: SpecializationConfig) -> dict:
    return {"n": cfg.n, "d": cfg.d, "r": cfg.r, "g": cfg.g}


def report_to_json_dict(rep: BoundReport) -> dict:
    return {
        "n": rep.n,
        "f": fraction_to_json(rep.f),
        "mu": fraction_to_json(rep.mu),
        "blocker": candidate_to_json(rep.blocker) if rep.blocker else None,
        "exclusions_used": [
            {"candidate": candidate_to_json(c), "reason": reason}
            for c, reason in rep.exclusions_used
        ],
        "coverage": {"m_checked_k0": rep.coverage.m_checked_k0,
                     "m_checked_knz": rep.coverage.m_checked_knz},
        "cfg": cfg_to_json(SpecializationConfig.default(rep.n)),
        "budget_limited": rep.budget_limited,
        "m_budget_cap": rep.m_budget_cap,
    }


def report_from_json_dict(d: dict) -> BoundReport:
    """Inverse of report_to_json_dict.  Values are type-checked, not coerced:
    a wrong-typed field raises TypeError, so a mistyped cache entry is
    recomputed rather than served.  The stored "cfg" must be n's default,
    the only specialization a report is computed under: another raises
    DomainError, and a g other than (d-1)(d-2)/2 raises ValueError.  "f" and
    "budget_limited" are not read, since the report derives both;
    check_stored_copies compares them with it."""
    n = _int_from_json(d["n"])
    cfg, default = d["cfg"], SpecializationConfig.default(n)
    stored = tuple(_int_from_json(cfg[field]) for field in ("n", "d", "r"))
    if stored != default:
        raise DomainError(f"the specialization {stored} is not the default {tuple(default)}")
    if _int_from_json(cfg["g"]) != default.g:
        raise ValueError(f"g = {cfg['g']} is not (d-1)(d-2)/2 = {default.g}")
    return BoundReport(
        n=n,
        mu=fraction_from_json(d["mu"]),
        blocker=candidate_from_json(d["blocker"]) if d["blocker"] is not None else None,
        exclusions_used=tuple(
            (candidate_from_json(e["candidate"]), _str_from_json(e["reason"]))
            for e in d["exclusions_used"]
        ),
        coverage=Coverage(
            m_checked_k0=_int_from_json(d["coverage"]["m_checked_k0"]),
            m_checked_knz=_int_from_json(d["coverage"]["m_checked_knz"]),
        ),
        m_budget_cap=_int_from_json(d["m_budget_cap"]),
    )


def check_stored_copies(d: dict, rep: BoundReport) -> None:
    """Raise unless the "f" and "budget_limited" stored in d equal what rep,
    d decoded, derives: TypeError for a wrong type, ValueError for a copy
    that mu and the coverage contradict."""
    budget_limited = d["budget_limited"]
    if not isinstance(budget_limited, bool):
        raise TypeError(f"budget_limited must be a bool, got {budget_limited!r}")
    if (f := fraction_from_json(d["f"])) != rep.f:
        raise ValueError(f"f = {f} is not n*mu = {rep.f}")
    if budget_limited != rep.budget_limited:
        raise ValueError(f"budget_limited is {budget_limited}, yet mu = {rep.mu} "
                         f"and the coverage is {tuple(rep.coverage)}")


def _csv_text(header: Sequence[str], rows) -> str:
    """header and rows as CSV lines ending in "\\n".  csv is imported here,
    so only a CSV command loads it."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, stable separators, trailing newline.
    json is imported here, so only a JSON command loads it."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def render_candidates(cands: Sequence[CandidateTriple], fmt: str) -> str:
    rows = [(c, e_value(c)) for c in cands]
    if fmt == "text":
        lines = [f"{'t':>6} {'m':>5} {'k':>4}  {'e':>10}"]
        for c, e in rows:
            lines.append(f"{c.t:>6} {c.m:>5} {c.k:>4}  {truncate2(e):>10}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(
            ["t", "m", "k", "e_num", "e_den", "e_trunc", "f_num", "f_den"],
            ([c.t, c.m, c.k, e.numerator, e.denominator, truncate2(e), f.numerator, f.denominator]
             for c, e, f in ((c, e, c.n * e) for c, e in rows)),
        )
    if fmt == "json":
        return dumps({
            "candidates": [
                {**candidate_to_json(c), "e": fraction_to_json(e), "f": fraction_to_json(c.n * e)}
                for c, e in rows
            ]
        })
    raise ValueError(f"unknown format {fmt!r}")


def render_report(rep: BoundReport, fmt: str) -> str:
    if fmt == "text":
        lines = []
        blocker = rep.blocker.label() if rep.blocker else "none"
        lines.append(
            f"n = {rep.n}: f = {truncate2(rep.f)} (exact {rep.f.numerator}/{rep.f.denominator}), "
            f"blocker {blocker}"
        )
        lines.append(
            f"mu = {truncate2(rep.mu)} (exact {rep.mu.numerator}/{rep.mu.denominator}); "
            f"coverage m <= {rep.coverage.m_checked_k0} (k=0), "
            f"m <= {rep.coverage.m_checked_knz} (k!=0)"
        )
        if rep.budget_limited:
            lines.append(f"BUDGET-LIMITED at m_cap = {rep.m_budget_cap}; bound is valid but not maximal")
        if rep.exclusions_used:
            lines.append("exclusions used:")
            for c, reason in rep.exclusions_used:
                lines.append(f"  {c.label():>16}  e = {truncate2(e_value(c)):>9}  [{reason}]")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        b = rep.blocker
        return _csv_text(
            ["n", "f_num", "f_den", "f_trunc", "mu_num", "mu_den",
             "blocker_t", "blocker_m", "blocker_k",
             "m_checked_k0", "m_checked_knz", "budget_limited", "exclusions"],
            [[
                rep.n, rep.f.numerator, rep.f.denominator, truncate2(rep.f),
                rep.mu.numerator, rep.mu.denominator,
                b.t if b else "", b.m if b else "", b.k if b else "",
                rep.coverage.m_checked_k0, rep.coverage.m_checked_knz,
                int(rep.budget_limited),
                ";".join(f"{c.label()}:{reason}" for c, reason in rep.exclusions_used),
            ]],
        )
    if fmt == "json":
        return dumps(report_to_json_dict(rep))
    raise ValueError(f"unknown format {fmt!r}")


def render_formulas(per_n: Sequence[tuple[int, Sequence[FormulaBound]]], fmt: str) -> str:
    if fmt == "text":
        lines = []
        for n, bounds in per_n:
            lines.append(f"n = {n}:")
            applicable = [fb for fb in bounds if fb.applicable]
            if not applicable:
                lines.append("  (no applicable formulas; n may be a square)")
            for fb in applicable:
                lines.append(f"  {fb.name:<16} f = {truncate2(fb.value):>10}   [{fb.source}]")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import json

        return _csv_text(
            ["n", "name", "applicable", "f_trunc", "f_json", "source"],
            ([
                n, fb.name, int(fb.applicable),
                truncate2(fb.value) if fb.value is not None else "",
                json.dumps(value_to_json(fb.value), sort_keys=True) if fb.value is not None else "",
                fb.source,
            ] for n, bounds in per_n for fb in bounds),
        )
    if fmt == "json":
        return dumps({
            "formulas": [
                {
                    "n": n,
                    "bounds": [
                        {
                            "name": fb.name,
                            "applicable": fb.applicable,
                            "value": value_to_json(fb.value) if fb.value is not None else None,
                            "trunc": truncate2(fb.value) if fb.value is not None else None,
                            "source": fb.source,
                        }
                        for fb in bounds
                    ],
                }
                for n, bounds in per_n
            ]
        })
    raise ValueError(f"unknown format {fmt!r}")


def render_trace(trace: UnloadingTrace) -> str:
    lines = [f"{'i':>4} {'t_i':>6} {'D_i.C':>7}  multiplicities"]
    for step in trace.steps:
        lines.append(f"{step.index:>4} {step.t:>6} {step.dot_c:>7}  {step.mults}")
    lines.append(f"j = {trace.j}, omega' = {trace.omega_prime}")
    return "\n".join(lines) + "\n"
