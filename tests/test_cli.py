"""Command-line surface: formats, round-trips, cache transparency, exit codes."""
from __future__ import annotations

import argparse
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_cli, fresh_python
from seshadri import __version__, cli
from seshadri.bounds import DEFAULT_M_BUDGET_CAP, compute_bound
from seshadri.candidates import CandidateTriple
from seshadri.cli import _Cache, main
from seshadri.exclusions import _ENTRY_KINDS, ExclusionDb, ExplicitClass, default_db
from seshadri.render import (
    candidate_to_json,
    check_stored_copies,
    fraction_to_json,
    report_from_json_dict,
    report_to_json_dict,
    truncate2,
)
from seshadri.lattice import QuadraticExpr, sign_of

Q = Fraction
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTruncation:
    def test_truncates_never_rounds(self):
        assert truncate2(Q(313600, 310)) == "1011.61"
        assert truncate2(Q(9801, 41)) == "239.04"  # 239.048... stays .04
        assert truncate2(Q(49, 6)) == "8.16"

    def test_trailing_zero_trimming(self):
        assert truncate2(Q(361, 10)) == "36.1"
        assert truncate2(Q(1)) == "1"
        assert truncate2(Q(1369)) == "1369"
        assert truncate2(Q(519841, 10)) == "51984.1"

    def test_surd_values(self):
        assert truncate2(QuadraticExpr(-497, 133, 14)) == "0.64"
        assert truncate2(QuadraticExpr(0, 1, 2)) == "1.41"
        assert truncate2(QuadraticExpr(0, -1, 2)) == "-1.41"
        assert truncate2(QuadraticExpr(0, 1, 4)) == "2"

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(), st.fractions(), st.fractions(min_value=0))
    @example(Q(3), Q(-1), Q(4))  # b*sqrt(q) a negative integer: the root is its own ceiling
    @example(Q(1, 200), Q(3, 400), Q(1))  # the fractional parts of a and b*sqrt(q) carry
    @example(Q(1, 3), Q(2, 7), Q(5, 11))  # q not an integer
    @example(Q(-29, 100), Q(0), Q(0))
    @example(Q(1, 1000), Q(-1, 100), Q(4))
    def test_is_the_exact_floor(self, a, b, q):
        # |x| lies in [z/100, (z+1)/100) for the printed magnitude z/100
        x = QuadraticExpr(a, b, q)
        text = truncate2(a if b == 0 else x)
        neg = text.startswith("-")
        z = Q(text.lstrip("-")) * 100
        assert z.denominator == 1 and neg == (sign_of(x) < 0)
        mag = QuadraticExpr(-a, -b, q) if neg else x
        assert sign_of(QuadraticExpr(mag.a - z / 100, mag.b, q)) >= 0
        assert sign_of(QuadraticExpr(mag.a - (z + 1) / 100, mag.b, q)) < 0


class TestCandidatesCommand:
    def test_text_matches_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "candidates", "--n", "10", "--m-max", "182")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 32
        assert lines[0].split() == ["3", "1", "0", "1"]
        assert lines[1].split() == ["6", "2", "-1", "36.1"]

    def test_csv_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "--jobs", "1", "candidates", "--n", "10",
                               "--m-max", "7", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,m,k,e_num,e_den,e_trunc,f_num,f_den"
        assert lines[3] == "22,7,0,49,6,8.16,245,3"

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "candidates", "--n", "11", "--m-max", "32",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        row = [c for c in data["candidates"] if c["t"] == 106][0]
        assert Q(int(row["e"]["num"]), int(row["e"]["den"])) == Q(123904, 11 * 308)
        # f = n*e, in lowest terms
        assert row["f"] == {"num": "2816", "den": "7"}


class TestCsvOutput:
    # pinned as printed before csv left the import path; the formulas golden
    # was re-taken when values below 1 became inapplicable
    @pytest.mark.parametrize("argv, golden", [
        (["bound", "--n", "12", "--format", "csv"], "bound-12.csv"),
        (["formulas", "--n", "10..12", "--format", "csv"], "formulas-10..12.csv"),
    ])
    def test_pinned(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_fresh_interpreter(self):
        # csv is imported on first use, so a process that has not loaded it
        # still prints CSV
        out = fresh_python(
            "import seshadri.cli\n"
            "assert 'csv' not in sys.modules\n"
            "sys.exit(seshadri.cli.main(['bound', '--n', '12', '--format', 'csv']))\n"
        )
        assert out == (GOLDEN / "bound-12.csv").read_text(encoding="utf-8")


class TestDisplayGoldens:
    # pinned as printed before the surd and rational truncations merged: the
    # formulas send every applicable surd through truncate2, and the sweep
    # lines print best_known values.  The formulas goldens were re-taken when
    # values below 1 became inapplicable and the seven reference rows the
    # package derives itself were dropped.
    @pytest.mark.parametrize("argv, golden", [
        (["formulas", "--n", "10..99"], "formulas-10..99.txt"),
        (["formulas", "--n", "10..30", "--format", "json"], "formulas-10..30.json"),
        (["sweep", "--n", "100..110"], "sweep-100..110.txt"),
    ])
    def test_pinned(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_formulas_with_none_applicable(capsys, tmp_path):
    # at the square n = 16 only the uniform consequences are listed; without
    # CCMO two are off, Dumnicki is off by default and correm-quad is < 1
    db = tmp_path / "db.json"
    db.write_text(default_db().with_sources(disable=("CCMO",)).to_json(), encoding="utf-8")
    code, out, err = run_cli(capsys, "formulas", "--n", "16", "--db", str(db))
    assert (code, err) == (0, "")
    assert out == "n = 16:\n  (no applicable formulas; n may be a square)\n"


class TestAlphaCommand:
    # pinned as printed while the walk still stepped a run-length form: 46
    # steps to balance at n = 574, and a 4-step walk traced in full
    @pytest.mark.parametrize("argv, golden", [
        (["alpha", "--n", "574", "--m", "2209", "--k", "-45"], "alpha-n574-m2209-k-45.txt"),
        (["alpha", "--n", "37", "--m", "30", "--k", "-5", "--trace"], "alpha-n37-m30-k-5-trace.txt"),
    ])
    def test_pinned(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_semiuniform_input(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--n", "10", "--m", "2", "--k", "-1")
        assert code == 0
        assert "alpha >= 7   (specialization criterion)" in out
        assert "alpha >= 6   (closed form)" in out

    def test_explicit_mults_and_trace(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--n", "10",
                               "--mults", "1,1,1,1,1,1,1,1,1,1", "--trace")
        assert code == 0
        assert out == (
            "n = 10, d = 3, r = 9, g = 1\n"
            "mults = 1,1,1,1,1,1,1,1,1,1\n"
            "alpha >= 4   (specialization criterion)\n"
            "   i    t_i   D_i.C  multiplicities\n"
            "   0      3       0  (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)\n"
            "   1      0      -1  (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
            "   2     -3      -9  (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
            "j = 1, omega' = 2\n"
        )

    def test_semiuniform_trace(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--n", "10", "--m", "2", "--k", "-1", "--trace")
        assert code == 0
        assert out == (
            "n = 10, d = 3, r = 9, g = 1\n"
            "mults = 2,2,2,2,2,2,2,2,2,1\n"
            "alpha >= 7   (specialization criterion)\n"
            "alpha >= 6   (closed form)\n"
            "   i    t_i   D_i.C  multiplicities\n"
            "   0      6       0  (2, 2, 2, 2, 2, 2, 2, 2, 2, 1)\n"
            "   1      3       0  (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)\n"
            "   2      0      -1  (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
            "   3     -3      -9  (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
            "j = 2, omega' = 3\n"
        )

    def test_closed_form_of_the_configured_n(self, capsys):
        code, out, err = run_cli(capsys, "alpha", "--n", "12", "--m", "5")
        assert (code, err) == (0, "")
        assert out == (
            "n = 12, d = 3, r = 10, g = 1\n"
            "mults = 5,5,5,5,5,5,5,5,5,5,5,5\n"
            "alpha >= 17   (specialization criterion)\n"
            "alpha >= 17   (closed form)\n"
        )


class TestBoundCommand:
    def test_text_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "10")
        assert code == 0
        assert "f = 1011.61 (exact 31360/31), blocker C(177,56,0)" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "11", "--format", "json")
        assert code == 0
        rep = report_from_json_dict(json.loads(out))
        assert rep == compute_bound(11)

    def test_strict_budget_limited_exit(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "10", "--m-cap", "5", "--strict")
        assert code == 3
        assert "BUDGET-LIMITED" in out

    def test_custom_db_file(self, capsys, tmp_path):
        from seshadri.exclusions import default_db

        path = tmp_path / "db.json"
        default_db().with_sources(disable=("Miranda",)).save(str(path))
        code, out, _ = run_cli(capsys, "bound", "--n", "10", "--db", str(path))
        assert code == 0
        assert "blocker C(79,25,0)" in out

    def test_cache_transparency(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        _, plain, _ = run_cli(capsys, "bound", "--n", "12")
        _, first, _ = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert cache.exists()
        _, second, _ = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert plain == first == second

    def test_cache_hit_is_used(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        data = json.loads(cache.read_text())
        (key, payload), = data.items()
        assert key.startswith("n=12|db=")
        # an entry that fits its key is served as stored: only the cached
        # report carries this reason
        payload["exclusions_used"][0]["reason"] = "from-the-cache"
        cache.write_text(json.dumps(data))
        _, out, _ = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert "[from-the-cache]" in out


def _at_the_cap(payload, blocker, mu):
    """The n = 12 payload made budget-limited at the default cap, with this
    blocker and mu."""
    cap = DEFAULT_M_BUDGET_CAP
    return dict(payload, budget_limited=True, mu=fraction_to_json(mu), f=fraction_to_json(12 * mu),
                blocker=candidate_to_json(blocker) if blocker else None,
                coverage={"m_checked_k0": cap, "m_checked_knz": cap})


class TestCacheRobustness:
    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", "\xff\xfe"])
    def test_corrupt_cache_warns_and_recomputes(self, capsys, tmp_path, content):
        cache = tmp_path / "cache.json"
        _, plain, _ = run_cli(capsys, "bound", "--n", "12")
        cache.write_bytes(content.encode("latin-1"))
        code, out, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert code == 0
        assert out == plain
        assert "warning: ignoring corrupt cache" in err
        (key,) = json.loads(cache.read_text())
        assert key.startswith("n=12|")
        code, warm, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert code == 0 and err == ""
        assert warm == plain

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda p: {"n": 11}, id="missing-keys"),
        pytest.param(lambda p: 7, id="number"),
        pytest.param(lambda p: "report", id="string"),
        pytest.param(lambda p: None, id="null"),
        pytest.param(lambda p: dict(p, f="x"), id="f-string"),
        pytest.param(lambda p: dict(p, coverage=None), id="coverage-null"),
        pytest.param(lambda p: dict(p, cfg=dict(p["cfg"], d="three")), id="cfg-d-string"),
        pytest.param(lambda p: dict(p, cfg=list(p["cfg"].values())), id="cfg-list"),
        pytest.param(lambda p: dict(p, f={"num": "1", "den": "0"}), id="zero-denominator"),
        pytest.param(lambda p: dict(p, budget_limited="no"), id="budget-limited-string"),
        pytest.param(lambda p: dict(p, m_budget_cap="7"), id="m-budget-cap-string"),
        pytest.param(lambda p: dict(p, f={"num": "999999", "den": "1"}), id="f-not-n-mu"),
        pytest.param(lambda p: report_to_json_dict(compute_bound(11)), id="report-of-another-n"),
        pytest.param(lambda p: dict(p, m_budget_cap=7), id="other-m-budget-cap"),
        pytest.param(lambda p: dict(p, cfg=dict(p["cfg"], r=p["cfg"]["r"] - 1)), id="other-cfg"),
        pytest.param(lambda p: dict(p, f={"num": "1", "den": "1"}, mu={"num": "1", "den": "12"}),
                     id="mu-not-the-blocker-e"),
        pytest.param(lambda p: dict(p, blocker=dict(p["blocker"], n=13)), id="blocker-of-another-n"),
        pytest.param(lambda p: dict(p, blocker=dict(p["blocker"], t=84)), id="blocker-not-abnormal"),
        pytest.param(lambda p: dict(p, cfg=dict(p["cfg"], g=2)), id="g-not-derived-from-d"),
        pytest.param(lambda p: dict(p, blocker=None, mu=fraction_to_json(Q(10**6)),
                                    f=fraction_to_json(Q(12 * 10**6)), exclusions_used=[]),
                     id="no-blocker-not-budget-limited"),
        pytest.param(lambda p: _at_the_cap(p, None, Q(5000)), id="no-blocker-mu-not-cap-plus-one"),
        pytest.param(lambda p: dict(p, budget_limited=True), id="budget-limited-below-the-cap"),
        pytest.param(lambda p: _at_the_cap(p, CandidateTriple(12, 627, 181, 0), Q(181 ** 2, 3)),
                     id="budget-limited-mu-above-cap-plus-one"),
        pytest.param(lambda p: dict(p, coverage=dict(p["coverage"], m_checked_k0=25)),
                     id="mu-above-k0-coverage"),
        pytest.param(lambda p: dict(p, coverage=dict(p["coverage"], m_checked_knz=25)),
                     id="mu-above-knz-coverage"),
    ])
    def test_malformed_entry_warns_and_recomputes(self, capsys, tmp_path, corrupt):
        cache = tmp_path / "cache.json"
        _, plain, _ = run_cli(capsys, "bound", "--n", "12")
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        (key, payload), = json.loads(cache.read_text()).items()
        cache.write_text(json.dumps({key: corrupt(payload)}))
        code, out, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert code == 0
        assert out == plain
        assert err.startswith(f"warning: ignoring malformed cache entry {key} (")
        assert "Traceback" not in err
        assert json.loads(cache.read_text()) == {key: payload}
        code, warm, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        assert code == 0 and err == ""
        assert warm == plain

    def test_entry_of_another_specialization_is_replaced(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        _, plain, _ = run_cli(capsys, "bound", "--n", "41")
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "41")
        (key, payload), = json.loads(cache.read_text()).items()
        assert payload["cfg"] == {"n": 41, "d": 6, "r": 38, "g": 10}
        cache.write_text(json.dumps({key: dict(payload, cfg={"n": 41, "d": 5, "r": 32, "g": 6})}))
        code, out, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "41")
        assert (code, out) == (0, plain)
        assert err == (f"warning: ignoring malformed cache entry {key} (DomainError: the specialization "
                       "(41, 5, 32) is not the default (41, 6, 38)); recomputing\n")
        assert json.loads(cache.read_text()) == {key: payload}

    def test_entry_with_a_flipped_budget_limited_flag_is_replaced(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        argv = ("bound", "--n", "10", "--m-cap", "5")
        _, plain, _ = run_cli(capsys, *argv)
        run_cli(capsys, "--cache", str(cache), *argv)
        (key, payload), = json.loads(cache.read_text()).items()
        assert payload["budget_limited"] is True
        cache.write_text(json.dumps({key: dict(payload, budget_limited=False)}))
        code, out, err = run_cli(capsys, "--cache", str(cache), *argv)
        assert (code, out) == (0, plain)
        assert err == (f"warning: ignoring malformed cache entry {key} (ValueError: budget_limited is "
                       "False, yet mu = 6 and m_checked = 5); recomputing\n")
        assert json.loads(cache.read_text()) == {key: payload}

    @pytest.mark.parametrize("edit, reason", [
        pytest.param(lambda p: dict(p, coverage=dict(p["coverage"], m_checked_knz=31)),
                     "m_checked_knz = 31 is not m_checked_k0 = 32", id="coverage-copies-unequal"),
        pytest.param(lambda p: dict(p, exclusions_used=[
            *p["exclusions_used"], {"candidate": {"n": 13, "t": 90, "m": 25, "k": 0}, "reason": "CCMO"}]),
                     "exclusion C(90,25,0) is a class of n = 13, not 12", id="exclusion-of-another-n"),
    ])
    def test_edited_entry_is_recomputed_in_a_fresh_interpreter(self, tmp_path, edit, reason):
        # both edits were once served with exit 0 and no warning
        cache = str(tmp_path / "c.json")
        plain, err = fresh_cli("bound", "--n", "12")
        assert err == ""
        fresh_cli("--cache", cache, "bound", "--n", "12")
        (key, payload), = json.loads((tmp_path / "c.json").read_text()).items()
        (tmp_path / "c.json").write_text(json.dumps({key: edit(payload)}))
        out, err = fresh_cli("--cache", cache, "bound", "--n", "12")
        assert out == plain
        assert err == f"warning: ignoring malformed cache entry {key} (ValueError: {reason}); recomputing\n"
        assert json.loads((tmp_path / "c.json").read_text()) == {key: payload}

    def test_budget_limited_entry_is_served(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        argv = ("bound", "--n", "10", "--m-cap", "5")
        _, plain, _ = run_cli(capsys, *argv)
        run_cli(capsys, "--cache", str(cache), *argv)
        data = json.loads(cache.read_text())
        (payload,) = data.values()
        assert payload["blocker"] is None and payload["budget_limited"]
        payload["exclusions_used"][0]["reason"] = "from-the-cache"
        cache.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "--cache", str(cache), *argv)
        assert code == 0 and err == ""
        assert out == plain.replace("[CCMO]", "[from-the-cache]", 1)

    def test_cache_path_that_is_a_directory_exits_2(self, capsys, tmp_path):
        # a directory, and a file in a directory that does not exist: both
        # fail before any report is computed or printed
        for path in (str(tmp_path), str(tmp_path / "nonexist" / "x.json")):
            code, out, err = run_cli(capsys, "--cache", path, "bound", "--n", "11")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "Traceback" not in err
            assert path in err and ".tmp" not in err

    @pytest.mark.parametrize("cache", [("--cache", ""), ("--cache=",)], ids=["separate", "joined"])
    @pytest.mark.parametrize("argv", [
        ("bound", "--n", "12"),
        ("sweep", "--n", "10..12"),
        ("verify", "--table", "B"),
    ], ids=["bound", "sweep", "verify-B"])
    def test_empty_cache_path_exits_2_before_any_work(self, capsys, monkeypatch, cache, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr(cli, "bounds_for_ns", no_work)
        code, out, err = run_cli(capsys, *cache, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --cache needs a file path, got an empty one\n"

    @pytest.mark.parametrize("argv", [
        ("candidates", "--n", "10", "--m-max", "3"),
        ("alpha", "--n", "10", "--m", "3"),
        ("formulas", "--n", "10..12"),
        ("verify", "--table", "A"),
    ], ids=["candidates", "alpha", "formulas", "verify-A"])
    def test_commands_without_reports_never_open_the_cache(self, capsys, tmp_path, argv):
        cache = tmp_path / "cache.json"
        cache.write_bytes(b"{not json")
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0 and plain[2] == ""
        assert run_cli(capsys, "--cache", str(cache), *argv) == plain
        assert cache.read_bytes() == b"{not json"

    def test_flush_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        cache = tmp_path / "cache.json"
        c = _Cache(str(cache), default_db())
        c.put(compute_bound(11))
        c.flush()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]
        again = _Cache(str(cache), default_db())
        key = again.key(11, DEFAULT_M_BUDGET_CAP)
        assert set(again.data) == {key}
        assert again.get(11, DEFAULT_M_BUDGET_CAP) == compute_bound(11)

    def test_failed_flush_keeps_the_old_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        cache.write_text('{"old": 1}\n')
        c = _Cache(str(cache), default_db())
        c.put(compute_bound(11))

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # encoding fails before the temporary file is written, the rename
        # after it
        for module, name in ((json, "dumps"), (os, "replace")):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, disk_full)
                with pytest.raises(OSError):
                    c.flush()
            assert cache.read_text() == '{"old": 1}\n'
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_file_is_sorted_compact_json(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        text = cache.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--table", "B"),
        ("bound", "--n", "12", "--format", "json"),
    ], ids=["verify-B", "bound-12"])
    def test_indented_file_of_an_earlier_release_is_served(self, capsys, tmp_path, monkeypatch, argv):
        cache = tmp_path / "cache.json"
        code, cold, err = run_cli(capsys, "--cache", str(cache), *argv)
        assert (code, err) == (0, "")
        data = json.loads(cache.read_text(encoding="utf-8"))
        with open(cache, "w", encoding="utf-8") as fh:
            # an indented layout: this release's keys are served in any
            # JSON layout (earlier releases' digest keys are recomputed)
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")
        indented = cache.read_bytes()

        def no_compute(*args, **kwargs):
            raise AssertionError("a report was recomputed on a warm cache")

        monkeypatch.setattr(cli, "bounds_for_ns", no_compute)
        assert run_cli(capsys, "--cache", str(cache), *argv) == (0, cold, "")
        assert cache.read_bytes() == indented

    def test_report_of_another_database_is_never_served(self, capsys, tmp_path):
        cache, db = tmp_path / "c.json", tmp_path / "nomiranda.json"
        default_db().with_sources(disable=("Miranda",)).save(str(db))
        _, plain, _ = run_cli(capsys, "bound", "--n", "10", "--db", str(db))
        assert "blocker C(79,25,0)" in plain
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "10")
        code, out, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "10", "--db", str(db))
        assert (code, out, err) == (0, plain, "")
        assert len(json.loads(cache.read_text())) == 2

    def test_same_database_from_a_file_is_served(self, capsys, tmp_path, monkeypatch):
        # a key holds the database's canonical text, not its layout on disk
        cache, db = tmp_path / "c.json", tmp_path / "default.json"
        default_db().save(str(db))
        _, cold, _ = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")

        def no_compute(*args, **kwargs):
            raise AssertionError("a report was recomputed on a warm cache")

        monkeypatch.setattr(cli, "bounds_for_ns", no_compute)
        assert run_cli(capsys, "--cache", str(cache), "bound", "--n", "12", "--db", str(db)) == (0, cold, "")
        assert len(json.loads(cache.read_text())) == 1


class TestCacheKeyText:
    @pytest.fixture
    def encodes(self, monkeypatch):
        """Every database encoded for a cache key."""
        calls = []
        to_json_dict = ExclusionDb.to_json_dict

        def counted(db):
            calls.append(db)
            return to_json_dict(db)

        monkeypatch.setattr(ExclusionDb, "to_json_dict", counted)
        return calls

    def test_once_per_cached_command(self, capsys, tmp_path, encodes):
        cache = tmp_path / "cache.json"
        for run in ("cold", "warm"):
            encodes.clear()
            code, _, err = run_cli(capsys, "--cache", str(cache), "verify", "--table", "B")
            assert (code, err) == (0, "")
            assert len(encodes) == 1, run

    def test_never_without_a_cache(self, capsys, encodes):
        code, _, _ = run_cli(capsys, "verify", "--table", "B")
        assert code == 0 and encodes == []

    def test_once_per_new_database(self, tmp_path, encodes):
        # a cache encodes its database when it opens, and only with a path
        cap = DEFAULT_M_BUDGET_CAP
        db, other = default_db(), default_db().with_sources(disable=("Miranda",))
        path = str(tmp_path / "cache.json")
        _Cache(None, db)
        assert encodes == []
        cache, other_cache = _Cache(path, db), _Cache(path, other)
        assert encodes == [db, other]
        keys = [cache.key(12, cap), cache.key(12, cap), other_cache.key(12, cap),
                _Cache(path, db).key(12, cap)]
        assert len(encodes) == 3
        assert keys[0] == keys[1] == keys[3] != keys[2]

    def test_database_reads_back_from_the_key(self, tmp_path):
        # the JSON object delimits itself, even around a source name that
        # looks like the fields after it, so no two databases share a key
        entry = ExplicitClass(n=10, t=79, m=25, k=0, source='x"}|cap=1|v=0')
        db = ExclusionDb(entries=(entry,), enabled_sources=frozenset({entry.source}))
        cache = _Cache(str(tmp_path / "cache.json"), db)
        key = cache.key(12, DEFAULT_M_BUDGET_CAP)
        text = key.split("|db=", 1)[1].rsplit("|cap=", 1)[0]
        assert ExclusionDb.from_json(text) == db


class TestCacheVersion:
    def test_pyproject_version_is_the_package_version(self):
        # cache keys carry __version__, so the two must move together; read
        # with a regex, as Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M) == [__version__]

    def test_key_carries_the_package_version(self, tmp_path):
        cache = _Cache(str(tmp_path / "cache.json"), default_db())
        key = cache.key(12, 5000)
        assert key.endswith(f"|v={__version__}")

    def test_key_of_the_default_database_is_pinned(self, tmp_path):
        # the database's text is part of every cache key: a new encoding of
        # the same database must not move every key
        cache = _Cache(str(tmp_path / "cache.json"), default_db())
        key = cache.key(12, DEFAULT_M_BUDGET_CAP)
        assert key == (
            'n=12|db={"enabled_sources":["CCMO","Miranda","unique-cubic"],"entries":['
            '{"kind":"uniform_bound","m_max":20,"n_min":10,"source":"CCMO"},'
            '{"kind":"uniform_bound","m_max":42,"n_min":10,"source":"Dumnicki"},'
            '{"k":0,"kind":"explicit_class","m":1,"n":10,"source":"unique-cubic","t":3},'
            '{"k":-1,"kind":"explicit_class","m":2,"n":10,"source":"unique-cubic","t":6},'
            '{"k":0,"kind":"explicit_class","m":25,"n":10,"source":"Miranda","t":79}]}'
            f'|cap=5000|v={__version__}'
        )

    def test_report_cached_by_another_version_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        _, plain, _ = run_cli(capsys, "bound", "--n", "12")
        run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
        (key, payload), = json.loads(cache.read_text()).items()
        payload["f"] = {"num": "999", "den": "1"}
        # another release's key, and this release's key in the layouts that
        # named the database by a digest and that spelled out n's d and r
        for old_key in (key.rsplit("|v=", 1)[0] + "|v=0.0.0-other",
                        f"n=12|d=3|r=10|db=8138c457c9f753a7|cap=5000|v={__version__}",
                        key.replace("n=12|", "n=12|d=3|r=10|", 1)):
            cache.write_text(json.dumps({old_key: payload}))
            code, out, err = run_cli(capsys, "--cache", str(cache), "bound", "--n", "12")
            assert code == 0 and err == ""
            assert out == plain
            assert set(json.loads(cache.read_text())) == {old_key, key}


_DB_ENTRY = {"kind": "uniform_bound", "n_min": 10, "m_max": 20, "source": "CCMO"}


class TestExclusionDbInput:
    def test_schema_matches_the_checker(self):
        # docs/exclusion_db.schema.json and the hand-written checker
        # describe one format: a field added to one must be added to both
        schema = json.loads((Path(__file__).resolve().parents[1] / "docs" / "exclusion_db.schema.json")
                            .read_text(encoding="utf-8"))
        assert (schema["type"], schema["additionalProperties"]) == ("object", False)
        assert sorted(schema["required"]) == sorted(schema["properties"]) == ["enabled_sources", "entries"]
        assert schema["properties"]["enabled_sources"] == {
            "type": "array", "items": {"type": "string", "minLength": 1}, "uniqueItems": True}
        entries = schema["properties"]["entries"]
        assert entries["type"] == "array"
        kinds = {}
        for variant in entries["items"]["oneOf"]:
            props = variant["properties"]
            assert (variant["type"], variant["additionalProperties"]) == ("object", False)
            assert sorted(variant["required"]) == sorted(props)
            assert props["source"] == {"type": "string", "minLength": 1}
            fields = {name: spec for name, spec in props.items() if name not in ("kind", "source")}
            assert all(spec["type"] == "integer" and set(spec) <= {"type", "minimum"} for spec in fields.values())
            kinds[props["kind"]["const"]] = {name: spec.get("minimum") for name, spec in fields.items()}
        assert kinds == {kind: fields for kind, (_, fields) in _ENTRY_KINDS.items()}

    @pytest.mark.parametrize("doc, message", [
        ({}, "lacks enabled_sources, entries"),
        ([], "top level must be a JSON object"),
        ({"entries": [], "enabled_sources": [], "extra": 1}, "unknown key(s) extra"),
        ({"entries": {}, "enabled_sources": []}, "entries must be a list"),
        ({"entries": [], "enabled_sources": "CCMO"}, "enabled_sources must be a list"),
        ({"entries": [7], "enabled_sources": []}, "entries[0] needs kind"),
        ({"entries": [{"kind": ["uniform_bound"]}], "enabled_sources": []}, "entries[0] needs kind"),
        ({"entries": [{"kind": "mystery", "source": "X"}], "enabled_sources": []}, "got 'mystery'"),
        ({"entries": [{k: v for k, v in _DB_ENTRY.items() if k != "m_max"}], "enabled_sources": ["CCMO"]},
         "entries[0] lacks m_max"),
        ({"entries": [dict(_DB_ENTRY, note="x")], "enabled_sources": ["CCMO"]}, "unknown key(s) note"),
        ({"entries": [dict(_DB_ENTRY, m_max=0)], "enabled_sources": ["CCMO"]}, "m_max must be >= 1, got 0"),
        ({"entries": [dict(_DB_ENTRY, n_min="10")], "enabled_sources": ["CCMO"]}, "n_min must be an integer"),
        ({"entries": [dict(_DB_ENTRY, m_max=20.5)], "enabled_sources": ["CCMO"]}, "m_max must be an integer"),
        ({"entries": [dict(_DB_ENTRY, m_max=True)], "enabled_sources": ["CCMO"]}, "m_max must be an integer"),
        ({"entries": [{"kind": "explicit_class", "n": 10, "t": 0, "m": 25, "k": 0, "source": "Miranda"}],
          "enabled_sources": ["Miranda"]}, "entries[0].t must be >= 1, got 0"),
        ({"entries": [dict(_DB_ENTRY, source="")], "enabled_sources": []}, "entries[0].source must be a nonempty"),
        ({"entries": [_DB_ENTRY], "enabled_sources": ["CCMO", ""]}, "enabled_sources[1] must be a nonempty"),
        ({"entries": [_DB_ENTRY], "enabled_sources": ["CCMO", "CCMO"]}, "enabled_sources has duplicates"),
        ({"entries": [_DB_ENTRY, {"kind": "explicit_class", "n": 10, "t": 79, "m": 25, "k": 0,
                                  "source": "Miranda"}],
          "enabled_sources": ["CCMO", "Mirand"]}, "no entry carries the enabled source(s) ['Mirand']"),
    ])
    def test_malformed_db_exits_2_without_traceback(self, capsys, tmp_path, doc, message):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "bound", "--n", "10", "--db", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: exclusion database: ") and message in err
        assert "Traceback" not in err

    def test_carried_source_may_stay_disabled(self):
        from seshadri.exclusions import ExclusionDb

        db = ExclusionDb.from_json_dict({"entries": [_DB_ENTRY], "enabled_sources": []})
        assert db.ruling(CandidateTriple(10, 22, 7, 0)) is None
        assert db.with_sources(enable=("CCMO",)).ruling(CandidateTriple(10, 22, 7, 0)) == "CCMO"

    def test_default_db_round_trips(self):
        from seshadri.exclusions import ExclusionDb, default_db

        db = default_db()
        again = ExclusionDb.from_json(db.to_json())
        assert again == db
        assert again.to_json() == db.to_json()


class TestJobsFlag:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, tmp_path, jobs):
        cache = tmp_path / "cache.json"
        code, out, err = run_cli(capsys, "--jobs", jobs, "--cache", str(cache), "verify", "--table", "A")
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not cache.exists()


class TestFormulasCommand:
    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "formulas", "--n", "17..17")
        assert code == 0
        assert "theoremone-a" in out and "1089" in out

    def test_single_and_square(self, capsys):
        code, out, _ = run_cli(capsys, "formulas", "--n", "16")
        assert code == 0
        assert "correm-21" in out  # uniform consequences hold for squares too


class TestVerifyCommand:
    def test_table_a_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table", "A")
        assert code == 0
        assert "PASS" in out

    def test_table_a_never_reads_the_database(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        code, out, err = run_cli(capsys, "verify", "--table", "A", "--db", str(bad))
        assert (code, out, err) == (0, "table A: PASS (32 candidates)\n", "")

    @pytest.mark.parametrize("edit, line", [
        (lambda rows: rows[:-1], "FAIL: expected 31 candidates, got 32"),
        (lambda rows: (rows[0]._replace(e_str="2"),) + rows[1:], "FAIL: (3, 1, 0, '1') != (3, 1, 0, '2')"),
    ])
    def test_table_a_mismatch_fails(self, capsys, monkeypatch, edit, line):
        monkeypatch.setattr(cli, "TABLE_A", edit(cli.TABLE_A))
        code, out, err = run_cli(capsys, "verify", "--table", "A")
        assert (code, err) == (1, "")
        assert out.splitlines() == [line, "table A: FAIL (32 candidates)"]


class TestSweepCommand:
    def test_table_b_range_is_verify_table_b(self, capsys):
        verify = run_cli(capsys, "verify", "--table", "B")
        sweep = run_cli(capsys, "sweep", "--n", "10..99")
        assert sweep == verify
        assert verify[0] == 0 and verify[1].endswith("table B: PASS\n")

    def test_reads_the_cache_verify_filled(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        _, verify_out, _ = run_cli(capsys, "--cache", str(cache), "verify", "--table", "B")
        filled = cache.read_bytes()

        def no_compute(*args, **kwargs):
            raise AssertionError("bounds_for_ns called on a warm cache")

        monkeypatch.setattr(cli, "bounds_for_ns", no_compute)
        code, out, err = run_cli(capsys, "--cache", str(cache), "sweep", "--n", "10..99")
        assert (code, out, err) == (0, verify_out, "")
        assert cache.read_bytes() == filled

    def test_rows_past_the_table_and_squares(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "95..101")
        assert code == 0
        lines = out.splitlines()
        assert [line[:5] for line in lines[:-2]] == ["n= 95", "n= 96", "n= 97", "n= 98", "n= 99", "n=101"]
        rep = compute_bound(101)
        assert lines[5] == (
            f"n=101 f={truncate2(rep.f):>9} table=        - no table row, "
            f"blocker {rep.blocker.label()}; best known 40401 (theoremone-a)"
        )
        assert lines[-2].startswith("table B: 5/5 exact matches")
        assert lines[-1] == "table B: PASS"

    def test_range_without_table_rows_claims_no_pass(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "101..103")
        assert code == 0
        lines = out.splitlines()
        assert [line[:5] for line in lines[:-1]] == ["n=101", "n=102", "n=103"]
        assert lines[-1] == "table B: no rows in range"

    def test_budget_limited_rows_are_marked(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "10..11", "--m-cap", "20")
        assert code == 0
        rows = out.splitlines()[:2]
        assert all(row.endswith(" [budget-limited]") for row in rows)

    def test_toggled_database_file(self, capsys, tmp_path):
        from seshadri.exclusions import default_db

        path = tmp_path / "db.json"
        default_db().with_sources(disable=("Miranda",)).save(str(path))
        code, out, _ = run_cli(capsys, "sweep", "--n", "10..10", "--db", str(path))
        assert code == 0
        assert out.splitlines()[0].endswith("deficit, survivor C(79,25,0)")

    def test_f_above_the_row_by_any_amount_is_excess(self, capsys, monkeypatch):
        # f exceeds the class-implied value by about 1e-13 relative, below the
        # printed precision: still a hard failure
        bounds_for_ns = cli.bounds_for_ns

        def raised(ns, **kwargs):
            reps = bounds_for_ns(ns, **kwargs)
            return {n: rep._replace(mu=rep.mu + Q(1, n * 10**10)) for n, rep in reps.items()}

        monkeypatch.setattr(cli, "bounds_for_ns", raised)
        code, out, err = run_cli(capsys, "sweep", "--n", "10..10")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "n= 10 f=  1011.61 table=  1011.61 EXCESS (hard failure)",
            "table B: 0/1 exact matches (vs class-implied exact values); unexplained deficits: none",
            "table B: FAIL",
        ]

    def test_reference_not_recovered_is_missing(self, capsys, monkeypatch):
        # C(117, 37) implies f = 13690 at n = 10, far above what best_known finds
        row = cli.TABLE_B_BY_N[10]._replace(f_str="13690", t=117, m=37, source="test")
        monkeypatch.setattr(cli, "TABLE_B_BY_N", {10: row})
        code, out, err = run_cli(capsys, "sweep", "--n", "10..10")
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == (
            "n= 10 f=  1011.61 table=    13690 deficit, survivor C(177,56,0); "
            "reference (test) gives 13690: MISSING"
        )
        assert out.splitlines()[-1] == "table B: FAIL"

    @pytest.mark.parametrize("command, spec", [
        *(pytest.param("sweep", spec, id=spec) for spec in ("9..20", "30..20", "abc")),
        *(pytest.param("formulas", spec, id=f"formulas-{spec}")
          for spec in ("5..12", "12..10", "10..", "..20", "abc")),
    ])
    def test_bad_range_exits_2(self, capsys, command, spec):
        code, out, err = run_cli(capsys, command, "--n", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: --n needs N or A..B with integers 10 <= A <= B, got {spec}\n"


def test_docstring_names_every_subcommand():
    lines = cli.__doc__.split("Subcommands:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    documented = [line.split()[0] for line in lines]
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == list(sub.choices)


_MULTS = "2,2,2,2,2,2,2,2,2,1"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["bogus-subcommand"]) == 2

    def test_missing_required(self, capsys):
        assert main(["candidates"]) == 2

    def test_domain_error_reported(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "16")
        assert code == 2
        assert "square" in err

    def test_m_cap_below_one(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--n", "12", "--m-cap", "0")
        assert (code, out, err) == (2, "", "error: m_budget_cap must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv", [
        pytest.param(("bound", "--n", "41", "--d", "5", "--r", "32"), id="bound-d-r"),
        pytest.param(("bound", "--n", "41", "--r", "32"), id="bound-r"),
        pytest.param(("alpha", "--n", "20", "--m", "4", "--d", "4"), id="alpha-d"),
        pytest.param(("alpha", "--n", "20", "--m", "4", "--r", "20"), id="alpha-r"),
        pytest.param(("alpha", "--n", "10", "--m", "5", "--mults", _MULTS), id="alpha-m-and-mults"),
        pytest.param(("alpha", "--n", "10", "--mults", _MULTS, "--k", "3"), id="alpha-k-with-mults"),
        pytest.param(("alpha", "--n", "10", "--k", "1"), id="alpha-no-vector"),
        # no flag is read by a prefix of its name
        pytest.param(("bound", "--n", "12", "--m", "5"), id="bound-m-for-m-cap"),
        pytest.param(("--cach", "c.json", "bound", "--n", "12"), id="cach-for-cache"),
        pytest.param(("sweep", "--n", "10..12", "--m", "3"), id="sweep-m-for-m-cap"),
    ])
    def test_flags_that_would_be_ignored_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(("--cach", "c.json", "bound", "--n", "12"), "--cach", id="cach"),
        pytest.param(("--cach=c.json", "bound", "--n", "12"), "--cach=c.json", id="cach-equals"),
        pytest.param(("--jobs", "2", "--jo", "2", "sweep", "--n", "10..12"), "--jo", id="jo-after-jobs"),
    ])
    def test_unknown_global_flag_is_named(self, capsys, tmp_path, monkeypatch, argv, flag):
        # argparse alone names the word after the flag as an invalid subcommand
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"seshadri: error: unrecognized arguments: {flag}\n")
        assert list(tmp_path.iterdir()) == []


def test_report_json_dict_round_trip():
    rep = compute_bound(10)
    assert report_from_json_dict(report_to_json_dict(rep)) == rep


def test_report_that_breaks_its_invariants_decodes_and_fails_its_check():
    # Decoding checks types and the specialization only, so a golden
    # comparison sees an unequal report; the cache serves an entry only
    # after check_stored_copies and BoundReport.check.
    d = report_to_json_dict(compute_bound(11))
    d["blocker"]["n"] = 12
    rep = report_from_json_dict(d)
    assert rep != compute_bound(11)
    with pytest.raises(ValueError, match=r"blocker C\(106,32,0\) does not give mu = 256/7"):
        rep.check()
    # f is derived from mu, so a bumped stored f decodes to the computed
    # report; its rendering differs from the stored JSON, and
    # check_stored_copies refuses it
    d = report_to_json_dict(compute_bound(11))
    d["f"]["num"] = str(int(d["f"]["num"]) + 1)
    rep = report_from_json_dict(d)
    assert rep == compute_bound(11) and report_to_json_dict(rep) != d
    with pytest.raises(ValueError, match=r"f = 2817/7 is not n\*mu = 2816/7"):
        check_stored_copies(d, rep)


class TestReferenceTables:
    def test_table_a_has_32_rows(self):
        from seshadri.tables import TABLE_A

        assert len(TABLE_A) == 32

    def test_table_b_covers_every_nonsquare(self):
        from math import isqrt

        from seshadri.tables import TABLE_B

        want = [n for n in range(10, 100) if isqrt(n) ** 2 != n]
        assert [row.n for row in TABLE_B] == want

    def test_exception_rows_are_tagged(self):
        from seshadri.tables import TABLE_B

        tags = {row.n: row.source for row in TABLE_B if row.source is not None}
        assert set(tags) == {17, 19, 22, 26, 37, 41, 50, 65, 82}
        assert tags[41] == "Harbourne"
        assert tags[19] == "Biran"

    def test_only_underived_values_are_imported(self):
        from seshadri.tables import REFERENCE_F, TABLE_B_BY_N

        assert REFERENCE_F == {19: (28900, "Biran"), 22: (38809, "Biran")}
        for n, (value, source) in REFERENCE_F.items():
            assert (str(value), source) == (TABLE_B_BY_N[n].f_str, TABLE_B_BY_N[n].source)

    def test_normalized_class_note_preserved(self):
        from seshadri.tables import TABLE_B_BY_N

        row = TABLE_B_BY_N[19]
        assert (row.t, row.m) == (170, 39)
        assert "C(170.39)" in row.note

    def test_printed_values_match_their_own_classes(self):
        # each printed f is the truncation of the exact value implied by the
        # row's class, except the two rows flagged as one digit short
        from seshadri.tables import TABLE_B, implied_f

        off_by_a_digit = []
        for row in TABLE_B:
            if truncate2(implied_f(row)) != row.f_str:
                off_by_a_digit.append(row.n)
                assert row.note is not None, row
        assert off_by_a_digit == [21, 79]
