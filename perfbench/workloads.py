"""The benchmark's workloads: their fixed job lists, one timed pass each,
and the correctness checks against the golden outputs in ``golden/``.

A pass returns per-job latencies and the outputs; checking happens after
the pass, outside its clock.  Every call into the package goes through a
module attribute (``bounds.compute_bound``, not a local name), so that the
tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import seshadri.bounds as bounds
import seshadri.cli as cli
import seshadri.render as render
import seshadri.tables as tables

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"

SWEEP_JOBS = tuple((row.n, bounds.DEFAULT_M_BUDGET_CAP) for row in tables.TABLE_B)
# n = 3001 at the default cap takes about 48 s; the cap of 512 keeps the
# budget-limited path in the pass at about 1.5 s.
LARGE_N_JOBS = ((1000, bounds.DEFAULT_M_BUDGET_CAP), (2000, bounds.DEFAULT_M_BUDGET_CAP), (3001, 512))
# The README runs verify with --jobs 2, but on a shared 2-vCPU machine the
# pool's speed follows the load on the second vCPU, which the calibration
# kernel cannot see: cold runs spread 0.32 between runs.  One worker keeps
# the cold run serial, in the same process as the command.
CLI_JOBS = 1
# One cache fill, then three reads of the filled cache.  This is a measuring
# choice, not observed usage: it puts the median job inside the warm runs and
# the tail inside the cold ones.  With one to one, the median is the mean of
# the slowest warm and the fastest cold run, and it spread 0.165 between runs.
CLI_WARM_PER_PASS = 3
CLI_TIMEOUT_S = 150

# Table-B status at the commit the golden files were taken from.
TABLE_B_STATUS = {"exact": 76, "recovered": 8, "excess": 0}


def job_label(n: int, cap: int) -> str:
    return f"n{n}" if cap == bounds.DEFAULT_M_BUDGET_CAP else f"n{n}-cap{cap}"


def engine_job(n: int, cap: int):
    """One job: a report for n through the serial sweep entry point
    (bounds_for_ns with jobs=1 runs compute_bound in-process), the best
    known value, and the JSON rendering."""
    rep = bounds.bounds_for_ns([n], m_budget_cap=cap)[n]
    best = bounds.best_known(n, rep)
    return rep, best, render.render_report(rep, "json")


def run_engine_pass(jobs, rng, call, between):
    """Run `jobs` in an order drawn from rng; call(fn, *args) runs one job.

    between(job_s) runs after each job and returns the seconds it took,
    which the pass's wall time leaves out.  Latencies are (label, start,
    seconds).
    """
    order = list(jobs)
    rng.shuffle(order)
    latencies, outputs, errors = [], {}, {}
    paused = 0.0
    start = perf_counter()
    for n, cap in order:
        t0 = perf_counter()
        try:
            outputs[(n, cap)] = call(engine_job, n, cap)
        except Exception as exc:  # a failed job is counted, the pass goes on
            errors[job_label(n, cap)] = f"{type(exc).__name__}: {exc}"
        latencies.append((job_label(n, cap), t0, perf_counter() - t0))
        paused += between(latencies[-1][2])
    return perf_counter() - start - paused, latencies, outputs, errors


def best_to_json(best) -> dict:
    return {"value": render.value_to_json(best.f_best), "source": best.source}


def check_engine(outputs, golden) -> dict:
    """Golden mismatches per job label; an empty dict means all match."""
    problems = {}
    for (n, cap), (rep, best, text) in outputs.items():
        want = golden[job_label(n, cap)]
        bad = []
        if json.loads(text) != want["report"]:
            bad.append("rendered report differs from golden")
        if render.report_from_json_dict(want["report"]) != rep:
            bad.append("golden report does not decode to the computed report")
        if best_to_json(best) != want["best_known"]:
            bad.append("best_known differs from golden")
        if bad:
            problems[job_label(n, cap)] = bad
    return problems


def table_b_status(outputs) -> dict:
    """Exact matches, Biran-style rows recovered by best_known, and EXCESS
    rows, counted from one sweep pass."""
    status = {"exact": 0, "recovered": 0, "excess": 0, "unexplained": 0}
    reports = {n: (rep, best) for (n, _), (rep, best, _) in outputs.items()}
    for row in tables.TABLE_B:
        if row.n not in reports:
            continue
        rep, best = reports[row.n]
        target = tables.implied_f(row)
        if rep.f > target:
            status["excess"] += 1
        elif render.truncate2(rep.f) == render.truncate2(target):
            status["exact"] += 1
        elif row.source is not None and best.f_best == Fraction(int(row.f_str)):
            status["recovered"] += 1
        else:
            status["unexplained"] += 1
    return status


def cli_argv(cache: Path) -> list[str]:
    return ["--jobs", str(CLI_JOBS), "--cache", str(cache), "verify", "--table", "B"]


def subprocess_env() -> dict:
    """Environment of a fresh interpreter that imports the package from
    src/ and keeps its bytecode cache, as an installed package would."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_subprocess(cache: Path) -> tuple[int, str, int]:
    """The README command `seshadri --jobs J --cache PATH verify --table B`,
    in a fresh interpreter.  Returns the exit code, the stdout and the
    interpreter's own peak RSS in KiB, from wait4 on it alone."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "seshadri.cli", *cli_argv(cache)],
        cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def cli_in_process(cache: Path) -> tuple[int, str, int]:
    """The same command through cli.main in this process, so that the
    tracer sees the engine layers.  There is no process of its own, so
    its peak RSS is 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cli_argv(cache))
    return code, buf.getvalue(), 0


def run_cli_pass(cache: Path, call, runner, between):
    """One cold run that fills an empty cache, then warm runs that read it;
    `between` as in run_engine_pass.  Also returns the largest peak RSS
    (KiB) of the runs' interpreters."""
    if cache.exists():
        cache.unlink()
    latencies, outputs, errors = [], [], {}
    paused, peak_kb = 0.0, 0
    start = perf_counter()
    for i in range(1 + CLI_WARM_PER_PASS):
        kind = "cold" if i == 0 else "warm"
        t0 = perf_counter()
        try:
            code, out, rss_kb = call(runner, cache)
            outputs.append((kind, code, out))
            peak_kb = max(peak_kb, rss_kb)
        except Exception as exc:  # a failed run is counted, the pass goes on
            errors[f"{kind}{i}"] = f"{type(exc).__name__}: {exc}"
        latencies.append((kind, t0, perf_counter() - t0))
        paused += between(latencies[-1][2])
    wall = perf_counter() - start - paused
    cache_bytes = cache.stat().st_size if cache.exists() else 0
    return wall, latencies, outputs, errors, cache_bytes, peak_kb


def check_cli(outputs, golden_text: str, cache: Path, golden_reports: dict) -> dict:
    """Exit codes, stdout against golden and warm against cold, and every
    cached report decoded and rendered against the golden sweep report."""
    problems = {}
    cold = [out for kind, _, out in outputs if kind == "cold"]
    for i, (kind, code, out) in enumerate(outputs):
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if kind == "cold" and out != golden_text:
            bad.append("stdout differs from golden")
        if kind == "warm" and (not cold or out != cold[0]):
            bad.append("warm stdout is not byte-identical to the cold stdout")
        if bad:
            problems[f"{kind}{i}"] = bad
    try:
        with open(cache, "r", encoding="utf-8") as fh:
            cached = json.load(fh)
    except (OSError, ValueError) as exc:
        problems["cache"] = [f"cache unreadable: {exc}"]
        return problems
    labels = []
    for raw in cached.values():
        rep = render.report_from_json_dict(raw)
        labels.append(job_label(rep.n, rep.m_budget_cap))
        want = golden_reports.get(labels[-1], {}).get("report")
        if json.loads(render.render_report(rep, "json")) != want:
            problems.setdefault("cache", []).append(f"cached report {labels[-1]} differs from golden")
    if sorted(labels) != sorted(golden_reports):
        problems.setdefault("cache", []).append("cache does not hold one report per Table-B n")
    return problems


def load_golden(name: str):
    path = GOLDEN_DIR / name
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read() if path.suffix == ".txt" else json.load(fh)


def capture_golden() -> None:
    """Write the golden outputs of the current source tree to golden/."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, jobs in (("sweep.json", SWEEP_JOBS), ("large-n.json", LARGE_N_JOBS)):
        golden = {}
        for n, cap in jobs:
            rep = bounds.compute_bound(n, m_budget_cap=cap)
            golden[job_label(n, cap)] = {
                "report": render.report_to_json_dict(rep),
                "best_known": best_to_json(bounds.best_known(n, rep)),
            }
        with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--table", "B"])
    if code != 0:
        raise RuntimeError(f"verify --table B exited {code}")
    (GOLDEN_DIR / "verify-table-b.txt").write_text(buf.getvalue(), encoding="utf-8")
