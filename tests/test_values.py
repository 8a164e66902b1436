"""The package's value types: immutable named tuples (collections.namedtuple)
that validate where they enter, print as Name(field=value), pickle for the
process pool, and keep typing, dataclasses and inspect off the import path
(and hashlib, csv and json with them)."""
from __future__ import annotations

import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import fresh_cli, fresh_python
from seshadri.bounds import BestKnown, BoundReport, FormulaBound, compute_bound
from seshadri.candidates import CandidateTriple
from seshadri.effectivity import (
    SpecializationConfig,
    TraceStep,
    UnloadingTrace,
    _head_sums,
    _HeadSums,
    d_sequence,
)
from seshadri.exclusions import (
    ExclusionDb,
    ExclusionResult,
    ExplicitClass,
    UniformBound,
    default_db,
)
from seshadri.lattice import DomainError, InvalidInput, QuadraticExpr
from seshadri.render import check_stored_copies, fraction_to_json, report_from_json_dict, report_to_json_dict
from seshadri.tables import TABLE_A, TABLE_B, TableARow, TableBRow

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
VERIFY_TABLE_B = PERFBENCH_GOLDEN / "verify-table-b.txt"


_REPORT = compute_bound(12)  # f = 6912/23, mu = 576/23, blocker C(83,24,0), m_checked = 32
_LIMITED = compute_bound(10, m_budget_cap=5)  # budget-limited: mu = 6, no blocker


def _report(rep, **fields):
    """Check rep with these fields."""
    rep._replace(**fields).check()


def _decode(rep, cfg):
    """Decode rep's JSON with this "cfg"."""
    report_from_json_dict(dict(report_to_json_dict(rep), cfg=cfg))


def _stored(rep, **fields):
    """Check the stored copies of rep's JSON with these fields."""
    d = dict(report_to_json_dict(rep), **fields)
    check_stored_copies(d, report_from_json_dict(d))


@pytest.mark.parametrize("make, error, message", [
    (lambda: CandidateTriple(9, 3, 1, 0), DomainError,
     "candidate analysis requires n >= 10, got 9"),
    (lambda: CandidateTriple(10, 0, 1, 0), InvalidInput,
     "t and m must be positive, got t=0, m=1"),
    (lambda: CandidateTriple(n=10, t=3, m=0, k=0), InvalidInput,
     "t and m must be positive, got t=3, m=0"),
    (lambda: SpecializationConfig(9, 3, 9), DomainError,
     "specialization requires n >= 10, got 9"),
    (lambda: SpecializationConfig(n=10, d=0, r=5), InvalidInput,
     "bad specialization parameters SpecializationConfig(n=10, d=0, r=5)"),
    (lambda: SpecializationConfig(10, 3, 0), InvalidInput,
     "bad specialization parameters SpecializationConfig(n=10, d=3, r=0)"),
    (lambda: SpecializationConfig(10, 3, 11), InvalidInput, "r = 11 exceeds n = 10"),
    (lambda: QuadraticExpr(1, 2, Fraction(-1, 3)), DomainError, "radicand must be >= 0, got -1/3"),
    (lambda: ExclusionDb((UniformBound(10, 20, "CCMO"), ExplicitClass(10, 3, 1, 0, "")), frozenset()),
     InvalidInput, "every exclusion entry needs a nonempty source"),
    # a stored report decodes only under n's default specialization, and a
    # malformed "cfg" raises what _Cache.get catches
    pytest.param(lambda: _decode(_REPORT, {"n": 13, "d": 3, "r": 10, "g": 1}), DomainError,
                 "the specialization (13, 3, 10) is not the default (12, 3, 10)",
                 id="report-cfg-of-another-n"),
    pytest.param(lambda: _decode(compute_bound(41), {"n": 41, "d": 5, "r": 32, "g": 6}), DomainError,
                 "the specialization (41, 5, 32) is not the default (41, 6, 38)",
                 id="report-cfg-not-the-default"),
    pytest.param(lambda: _decode(_REPORT, [12, 3, 10, 1]), TypeError,
                 "list indices must be integers or slices, not str", id="report-cfg-list"),
    pytest.param(lambda: _decode(_REPORT, {"n": 12, "d": 3.0, "r": 10, "g": 1}), TypeError,
                 "expected an integer, got 3.0", id="report-cfg-d-float"),
    pytest.param(lambda: _decode(_REPORT, {"n": 12, "d": 3, "r": 10, "g": 2}), ValueError,
                 "g = 2 is not (d-1)(d-2)/2 = 1", id="report-cfg-g-not-derived-from-d"),
    # the stored f, budget_limited and m_checked_knz are copies of what mu
    # and m_checked give, and check_stored_copies refuses one that
    # contradicts them
    pytest.param(lambda: _stored(_REPORT, f=fraction_to_json(Fraction(300))), ValueError,
                 "f = 300 is not n*mu = 6912/23", id="report-f-not-n-mu"),
    pytest.param(lambda: _stored(_REPORT, budget_limited=0), TypeError,
                 "budget_limited must be a bool, got 0", id="report-budget-limited-not-a-bool"),
    pytest.param(lambda: _stored(_REPORT, budget_limited=True), ValueError,
                 "budget_limited is True, yet mu = 576/23 and m_checked = 32",
                 id="report-limited-mu-within-the-coverage"),
    pytest.param(lambda: _stored(_REPORT, coverage={"m_checked_k0": 25, "m_checked_knz": 25}), ValueError,
                 "budget_limited is False, yet mu = 576/23 and m_checked = 25",
                 id="report-mu-above-the-coverage"),
    # a report holds what compute_bound guarantees, one row per invariant
    pytest.param(lambda: _report(_REPORT, blocker=CandidateTriple(13, 83, 24, 0)), ValueError,
                 "blocker C(83,24,0) does not give mu = 576/23", id="report-blocker-of-another-n"),
    pytest.param(lambda: _report(_REPORT, mu=Fraction(25)), ValueError,
                 "blocker C(83,24,0) does not give mu = 25", id="report-mu-not-the-blocker-e"),
    pytest.param(lambda: _report(_REPORT, blocker=None), ValueError,
                 "no blocker, yet not budget-limited at mu = 5001", id="report-no-blocker-not-limited"),
    pytest.param(lambda: _report(_LIMITED, mu=Fraction(5)), ValueError,
                 "no blocker, yet not budget-limited at mu = 6", id="report-no-blocker-mu-not-cap-plus-one"),
    pytest.param(lambda: _report(_LIMITED, m_checked=4), ValueError,
                 "budget-limited at cap 5, yet m_checked = 4, mu = 6", id="report-limited-below-the-cap"),
    pytest.param(lambda: _report(_REPORT, m_budget_cap=24, m_checked=24),
                 ValueError, "budget-limited at cap 24, yet m_checked = 24, mu = 576/23",
                 id="report-limited-mu-above-cap-plus-one"),
])
def test_validation_keeps_its_exception_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_an_emptied_exclusion_list_still_passes_check():
    # check tests the rulings listed, not that the list is complete
    _REPORT._replace(exclusions_used=()).check()
    _LIMITED._replace(exclusions_used=()).check()


def _read_stored(d: dict) -> BoundReport:
    """d decoded as _Cache.get reads an entry: decoded, its stored copies
    compared and the report checked."""
    rep = report_from_json_dict(d)
    check_stored_copies(d, rep)
    rep.check()
    return rep


def _perfbench_reports() -> dict[str, dict]:
    """The report of every label in perfbench's sweep and large-n goldens."""
    import json

    return {f"{name}:{label}": entry["report"]
            for name in ("sweep", "large-n")
            for label, entry in json.loads((PERFBENCH_GOLDEN / f"{name}.json").read_text(encoding="utf-8")).items()}


def test_perfbench_golden_reports_decode_check_and_round_trip():
    reports = _perfbench_reports()
    assert len(reports) == 84 + 3
    for label, d in reports.items():
        assert report_to_json_dict(_read_stored(d)) == d, label


def _append_exclusion(d, candidate):
    return dict(d, exclusions_used=[*d["exclusions_used"], {"candidate": candidate, "reason": "CCMO"}])


# perfbench's n = 13 report: blocker C(90,25,0), m_checked = 32 and four
# exclusions, C(18,5,0) first
@pytest.mark.parametrize("edit, error, message", [
    pytest.param(lambda d: dict(d, coverage=dict(d["coverage"], m_checked_knz=31)), ValueError,
                 "m_checked_knz = 31 is not m_checked_k0 = 32", id="coverage-copies-unequal"),
    pytest.param(lambda d: dict(d, coverage=dict(d["coverage"], m_checked_knz=None)), TypeError,
                 "expected an integer, got None", id="knz-coverage-not-an-int"),
    pytest.param(lambda d: _append_exclusion(d, {"n": 12, "t": 83, "m": 24, "k": 0}), ValueError,
                 "exclusion C(83,24,0) is a class of n = 12, not 13", id="exclusion-of-another-n"),
    pytest.param(lambda d: dict(d, exclusions_used=[d["exclusions_used"][1], d["exclusions_used"][0],
                                                    *d["exclusions_used"][2:]]), ValueError,
                 "exclusion C(18,5,0) is not keyed above the one before it", id="exclusions-swapped"),
    pytest.param(lambda d: dict(d, exclusions_used=d["exclusions_used"][:1] * 2), ValueError,
                 "exclusion C(18,5,0) is not keyed above the one before it", id="exclusion-twice"),
    pytest.param(lambda d: _append_exclusion(d, d["blocker"]), ValueError,
                 "exclusion C(90,25,0) is not keyed below the blocker C(90,25,0)",
                 id="exclusion-keyed-at-the-blocker"),
])
def test_edited_perfbench_golden_report_is_refused(edit, error, message):
    d = _perfbench_reports()["sweep:n13"]
    with pytest.raises(error) as info:
        _read_stored(edit(d))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("make, error, message", [
    (lambda: CandidateTriple(10, 3, 1, 0)._replace(t=0), InvalidInput,
     "t and m must be positive, got t=0, m=1"),
    (lambda: CandidateTriple._make((9, 3, 1, 0)), DomainError,
     "candidate analysis requires n >= 10, got 9"),
    (lambda: SpecializationConfig.default(10)._replace(r=11), InvalidInput, "r = 11 exceeds n = 10"),
    (lambda: QuadraticExpr(1, 2, 3)._replace(q=-1), DomainError, "radicand must be >= 0, got -1"),
    (lambda: QuadraticExpr._make((1, 2, -1)), DomainError, "radicand must be >= 0, got -1"),
    (lambda: default_db()._replace(entries=(ExplicitClass(10, 3, 1, 0, ""),)), InvalidInput,
     "every exclusion entry needs a nonempty source"),
    # each validated type both ways: namedtuple's own _make would skip __new__
    pytest.param(lambda: CandidateTriple(10, 3, 1, 0)._replace(n=9), DomainError,
                 "candidate analysis requires n >= 10, got 9", id="candidate-replace"),
    pytest.param(lambda: SpecializationConfig._make((10, 3, 11)), InvalidInput,
                 "r = 11 exceeds n = 10", id="cfg-make"),
    pytest.param(lambda: SpecializationConfig(10, 3, 9)._replace(n=9), DomainError,
                 "specialization requires n >= 10, got 9", id="cfg-replace"),
    pytest.param(lambda: ExclusionDb._make(((UniformBound(10, 20, ""),), frozenset())), InvalidInput,
                 "every exclusion entry needs a nonempty source", id="db-make"),
])
def test_replace_and_make_validate_like_the_constructor(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_keeps_the_type_and_coercion():
    c = CandidateTriple(10, 3, 1, 0)._replace(t=5)
    assert type(c) is CandidateTriple and c == CandidateTriple(10, 5, 1, 0)
    x = QuadraticExpr(1, 2, 3)._replace(b=Fraction(1, 2))
    assert type(x) is QuadraticExpr and all(type(part) is Fraction for part in x)


def test_quadratic_parts_are_fractions():
    x = QuadraticExpr(1, Fraction(1, 2), 3)
    assert x == (Fraction(1), Fraction(1, 2), Fraction(3))
    assert all(type(part) is Fraction for part in x)
    assert repr(x) == "QuadraticExpr(a=Fraction(1, 1), b=Fraction(1, 2), q=Fraction(3, 1))"


def _one_of_each():
    cfg = SpecializationConfig.default(10)
    rep = compute_bound(10)
    trace = d_sequence(5, (2,) * 10, cfg)
    return [
        CandidateTriple(10, 3, 1, 0),
        cfg,
        _head_sums((2,) * 10, cfg, 3),
        trace.steps[0],
        trace,
        QuadraticExpr(1, 2, 3),
        rep,
        FormulaBound("x", Fraction(1), "y"),
        BestKnown(Fraction(1), "algorithm"),
        UniformBound(10, 20, "CCMO"),
        ExplicitClass(10, 3, 1, 0, "unique-cubic"),
        default_db(),
        ExclusionResult(False),
        TABLE_A[0],
        TABLE_B[0],
    ]


def test_one_of_each_covers_every_value_type():
    assert {type(v).__name__ for v in _one_of_each()} == {
        "CandidateTriple", "SpecializationConfig", "_HeadSums", "TraceStep", "UnloadingTrace",
        "QuadraticExpr", "BoundReport", "FormulaBound", "BestKnown", "UniformBound",
        "ExplicitClass", "ExclusionDb", "ExclusionResult", "TableARow", "TableBRow",
    }


# Field order and defaults, as they were under typing.NamedTuple.
FIELDS = [
    (QuadraticExpr, ("a", "b", "q"), {}),
    (CandidateTriple, ("n", "t", "m", "k"), {}),
    (SpecializationConfig, ("n", "d", "r"), {}),
    (_HeadSums, ("sums", "lows", "start", "total", "zero", "n", "r", "dd"), {}),
    (TraceStep, ("index", "mults", "t", "dot_c"), {}),
    (UnloadingTrace, ("steps", "j", "omega_prime"), {}),
    (UniformBound, ("n_min", "m_max", "source"), {}),
    (ExplicitClass, ("n", "t", "m", "k", "source"), {}),
    (ExclusionDb, ("entries", "enabled_sources"), {}),
    (ExclusionResult, ("excluded", "reason"), {"reason": None}),
    (BoundReport, ("n", "mu", "blocker", "exclusions_used", "m_checked", "m_budget_cap"), {}),
    (FormulaBound, ("name", "value", "source"), {}),
    (BestKnown, ("f_best", "source"), {}),
    (TableARow, ("t", "m", "k", "e_str"), {}),
    (TableBRow, ("n", "f_str", "t", "m", "source", "note"), {"source": None, "note": None}),
]


def test_fields_are_pinned_for_every_value_type():
    assert {cls for cls, _, _ in FIELDS} == {type(v) for v in _one_of_each()}
    for cls, fields, defaults in FIELDS:
        assert (cls._fields, cls._field_defaults) == (fields, defaults), cls.__name__


@pytest.mark.parametrize("value", _one_of_each(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    # every class in the chain declares __slots__ = (), so there is no __dict__
    assert not hasattr(value, "__dict__")
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_is_name_and_fields():
    assert repr(CandidateTriple(10, 3, 1, 0)) == "CandidateTriple(n=10, t=3, m=1, k=0)"
    assert repr(SpecializationConfig.default(10)) == "SpecializationConfig(n=10, d=3, r=9)"
    assert repr(ExclusionResult(True, "CCMO")) == "ExclusionResult(excluded=True, reason='CCMO')"
    assert repr(TraceStep(0, (1,), 3, 2)) == "TraceStep(index=0, mults=(1,), t=3, dot_c=2)"
    assert repr(UnloadingTrace((), 0, 0)) == "UnloadingTrace(steps=(), j=0, omega_prime=0)"


@pytest.mark.parametrize("value", [
    pytest.param(compute_bound(10), id="report"),
    pytest.param(compute_bound(11, m_budget_cap=5), id="budget-limited"),
    pytest.param(default_db().with_sources(enable=("Dumnicki",)), id="db"),
    pytest.param(SpecializationConfig(41, 5, 32), id="cfg"),
    *(pytest.param(v, id=type(v).__name__) for v in _one_of_each()),
])
def test_pickle_round_trips(value):
    # the --jobs pool sends reports between processes
    again = pickle.loads(pickle.dumps(value))
    assert again == value and type(again) is type(value)


def test_cli_import_skips_dataclasses_and_inspect():
    # the import and default_db() that every command pays: hashlib's
    # _hashlib loads OpenSSL's libcrypto, csv is needed only for CSV output
    # and json only for JSON output, --db and --cache
    out = fresh_python(
        "import seshadri.cli\n"
        "seshadri.cli.default_db()\n"
        "print(sorted({'typing', 'json', 'dataclasses', 'inspect', '_hashlib', 'hashlib', 'csv'}\n"
        "             & set(sys.modules)))\n"
    )
    assert out == "[]\n"


def test_json_output_in_a_fresh_interpreter():
    assert fresh_cli("bound", "--n", "12", "--format", "json")[0] == (GOLDEN / "bound-12.json").read_text(
        encoding="utf-8")


def test_cold_and_warm_cache_in_fresh_interpreters(tmp_path):
    cache = str(tmp_path / "c.json")
    golden = VERIFY_TABLE_B.read_text(encoding="utf-8")
    assert fresh_cli("--cache", cache, "verify", "--table", "B")[0] == golden
    written = (tmp_path / "c.json").read_bytes()
    assert fresh_cli("--cache", cache, "verify", "--table", "B")[0] == golden
    assert (tmp_path / "c.json").read_bytes() == written


def test_cached_verify_never_loads_hashlib(tmp_path):
    # a cold run hashes the database to key what it writes, a warm one to
    # key what it reads
    out = fresh_python(
        "import contextlib, io\n"
        "import seshadri.cli\n"
        "for run in ('cold', 'warm'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = seshadri.cli.main(['--cache', {str(tmp_path / 'c.json')!r}, 'verify', '--table', 'B'])\n"
        "    print(run, code, '_hashlib' in sys.modules)\n"
    )
    assert out == "cold 0 False\nwarm 0 False\n"
