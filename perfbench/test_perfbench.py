"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import copy
import random
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_smoke_passes():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: PASS"


def test_altered_golden_report_fails():
    golden = wl.load_golden("sweep.json")
    jobs = [(10, wl.bounds.DEFAULT_M_BUDGET_CAP), (11, wl.bounds.DEFAULT_M_BUDGET_CAP)]
    _, _, outputs, errors = wl.run_engine_pass(jobs, random.Random(0), lambda fn, *a: fn(*a), lambda s: 0.0)
    assert not errors and wl.check_engine(outputs, golden) == {}
    altered = copy.deepcopy(golden)
    altered["n11"]["report"]["f"]["num"] = str(int(altered["n11"]["report"]["f"]["num"]) + 1)
    assert set(wl.check_engine(outputs, altered)) == {"n11"}


def test_tail_has_ten_samples_above_or_is_the_maximum():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_cli_runs_start_no_pool():
    assert wl.cli_argv(Path("c.json"))[:2] == ["--jobs", "1"]
