"""The repository benchmark: workloads `sweep`, `large-n` and `cli-cache`.

One run measures one workload and prints its metrics, one per line, then
as the last line a JSON object {"correct", "attempted", "failed",
"metrics"}.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off; `--trace 1` reports its per-layer metrics, from
traced passes that follow untraced ones in the same run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --smoke            # one pass of everything, checks only
    python3 perfbench/run.py --record           # every workload; writes baseline.json
    python3 perfbench/run.py --capture-golden   # re-take golden/ from src/

The seed only orders the jobs; the program never sees it.  A golden
mismatch, an exception or a nonzero exit fails the job, and any failure
makes the run exit 1.  See README.md in this directory for the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ("sweep", "large-n", "cli-cache")

SETUP_RUNS = 21
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import seshadri.cli\n"
    "seshadri.cli.default_db()\n"
    "print(repr(time.perf_counter() - t))\n"
)
# Share of traced wall time that may fall outside every layer span.
MAX_UNATTRIBUTED = 0.02

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_TARGETS = {
    "candidates.enumerate_calls": "wall_s, job_p50_ms on sweep; barely on large-n",
    "candidates.enumerate_s": "wall_s, job_p50_ms on sweep; barely on large-n",
    "candidates.enumerated": "wall_s, job_p50_ms on sweep; barely on large-n",
    "candidates.e_value_calls": "wall_s, job_p50_ms on sweep",
    "candidates.e_value_s": "wall_s, job_p50_ms on sweep",
    "bounds.compute_bound_self_s": "wall_s on sweep (sort by e plus the fixpoint loop)",
    "bounds.rounds": "wall_s on sweep",
    "exclusions.is_excluded_calls": "wall_s on sweep",
    "exclusions.excluded_ratio": "wall_s on sweep",
    "exclusions.ruling_calls": "wall_s on sweep",
    "exclusions.ruling_hits": "wall_s on sweep",
    "exclusions.ruling_s": "wall_s on sweep",
    "effectivity.alpha_calls": "wall_s, job_p50_ms, job_tail_ms on large-n; part of wall_s on sweep; "
                               "job_tail_ms (cold runs) on cli-cache, not job_p50_ms (warm runs)",
    "effectivity.alpha_s": "wall_s, job_p50_ms, job_tail_ms on large-n; part of wall_s on sweep; "
                           "job_tail_ms (cold runs) on cli-cache, not job_p50_ms (warm runs)",
    "effectivity.alpha_s_per_call": "wall_s on large-n",
    "bounds.best_known_s": "job_p50_ms (warm runs) on cli-cache",
    "render.render_report_s": "job_p50_ms on sweep",
    "render.report_to_json_s": "job_tail_ms (cold runs, cache encode) on cli-cache",
    "render.report_from_json_s": "job_p50_ms (warm runs, cache decode) on cli-cache",
    "render.calls": "job_p50_ms on cli-cache",
    "cli.cache_bytes": "job_p50_ms and job_tail_ms on cli-cache; 0 on sweep and large-n, which write no cache",
    "bounds.bounds_for_ns_s": "job_tail_ms (cold runs) on cli-cache; the engine total on sweep and large-n",
    "trace.overhead_s": "none: traced minus untraced wall_s",
    "trace.unattributed_s": "none: traced wall time outside every layer span",
}


def median(xs):
    return statistics.median(xs)


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, samples): the sample with ten samples above it,
    or with a tenth of the samples above it when there are fewer than 100
    (the maximum below 10), so that the tail never drops below p90."""
    s = sorted(xs)
    i = len(s) - 1 - min(10, len(s) // 10)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def peak_rss_mb(workload: "Workload", passes) -> float:
    """Peak resident set of the process that runs the workload: this one for
    the engine workloads, the largest of the CLI interpreters on cli-cache."""
    if workload.name == "cli-cache":
        kb = max(p["child_peak_kb"] for p in passes)
    else:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def measure_setup(runs: int, cal) -> tuple[list[float], list[float]]:
    """Seconds to import seshadri.cli and build default_db() in a fresh
    interpreter, excluding interpreter start-up, each scaled by the kernel
    timings around it; and the unscaled seconds.  One untimed run first
    fills the bytecode cache."""
    from workloads import subprocess_env

    env = subprocess_env()
    raw, windows = [], []
    for i in range(runs + 1):
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            raw.append(float(out.stdout))
            windows.append((start, perf_counter()))
        cal.sample()
    return [t * cal.scale(*w) for t, w in zip(raw, windows)], raw


class Workload:
    """One workload's job list, its pass and its checks."""

    def __init__(self, name: str, seed: int, work: Path):
        import workloads as wl
        from calibrate import Calibration

        self.wl = wl
        self.cal = Calibration()
        self.name = name
        self.rng = random.Random(seed)
        self.cache = work / "bounds-cache.json"
        if name == "cli-cache":
            self.golden = wl.load_golden("verify-table-b.txt")
            self.golden_reports = wl.load_golden("sweep.json")
        else:
            self.golden = wl.load_golden(f"{name}.json")
            self.jobs = wl.SWEEP_JOBS if name == "sweep" else wl.LARGE_N_JOBS
        self.digest = None
        # The CLI runs in this process when traced; the untraced passes of a
        # traced run do the same, so that their difference is the overhead.
        self.in_process = False

    def one_pass(self, tracer=None) -> dict:
        """Run and check one pass.  A tracer is installed for the timed part
        only, so the golden checks add no spans; every job is a root span."""
        from tracer import installed

        wl = self.wl
        call = (lambda fn, *a: fn(*a)) if tracer is None else (lambda fn, *a: tracer.span("job", fn, *a))
        cache_bytes = child_peak_kb = 0
        with installed(tracer) if tracer is not None else contextlib.nullcontext():
            if self.name == "cli-cache":
                runner = wl.cli_in_process if self.in_process else wl.cli_subprocess
                wall, latencies, outputs, errors, cache_bytes, child_peak_kb = wl.run_cli_pass(
                    self.cache, call, runner, self.cal.between)
            else:
                wall, latencies, outputs, errors = wl.run_engine_pass(
                    self.jobs, self.rng, call, self.cal.between)
        if self.name == "cli-cache":
            problems = wl.check_cli(outputs, self.golden, self.cache, self.golden_reports)
        else:
            problems = wl.check_engine(outputs, self.golden)
            if self.name == "sweep" and not errors:
                status = wl.table_b_status(outputs)
                if status != {**wl.TABLE_B_STATUS, "unexplained": 0}:
                    problems["table-B"] = [f"status {status}, expected {wl.TABLE_B_STATUS}"]
            if self.digest is None:
                canon = json.dumps({wl.job_label(*k): json.loads(v[2]) for k, v in outputs.items()},
                                   sort_keys=True)
                self.digest = hashlib.sha256(canon.encode()).hexdigest()
        for key, msg in errors.items():
            problems.setdefault(key, []).append(msg)
        failed_jobs = len(set(problems) | set(errors))
        return {
            "wall": wall, "latencies": latencies, "problems": problems,
            "attempted": len(latencies), "failed": min(failed_jobs, len(latencies)),
            "cache_bytes": cache_bytes, "child_peak_kb": child_peak_kb,
        }


def run_passes(workload: Workload, seconds: float, traced: bool):
    """Passes until `seconds` have elapsed, at least one.

    Traced, the passes alternate between tracing off and on, so that drift
    in the machine's speed does not show up as tracing overhead.  Returns
    the untraced passes, the traced passes and their tracers.
    """
    from tracer import Tracer

    plain, passes, tracers = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(workload.one_pass())
        if traced:
            tracers.append(Tracer())
            passes.append(workload.one_pass(tracers[-1]))
    return plain, passes, tracers


def calibrate_passes(passes, cal) -> None:
    """Scale each job by the kernel timings around it; a pass's factor is
    its scaled over its raw job time."""
    for p in passes:
        p["scaled"] = [(kind, t * cal.scale(t0, t0 + t)) for kind, t0, t in p["latencies"]]
        raw = sum(t for _, _, t in p["latencies"])
        p["factor"] = sum(t for _, t in p["scaled"]) / raw if raw else 1.0


def layer_metrics(tracer, p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    layers = tracer.layers()

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    rounds = sum(1 for name, _, _, parent in tracer.spans
                 if name == "candidates.enumerate" and parent >= 0
                 and tracer.spans[parent][0] == "bounds.compute_bound")
    attributed = sum(row["self_s"] for name, row in layers.items() if name != "job")
    alpha_calls = get("effectivity.alpha", "calls")
    is_excluded_calls = get("exclusions.is_excluded", "calls")
    return {
        "candidates.enumerate_calls": get("candidates.enumerate", "calls"),
        "candidates.enumerate_s": get("candidates.enumerate", "total_s"),
        "candidates.enumerated": tracer.counts["candidates.enumerated"],
        "candidates.e_value_calls": get("candidates.e_value", "calls"),
        "candidates.e_value_s": get("candidates.e_value", "total_s"),
        "bounds.compute_bound_self_s": get("bounds.compute_bound", "self_s"),
        "bounds.rounds": rounds,
        "exclusions.is_excluded_calls": is_excluded_calls,
        "exclusions.excluded_ratio": tracer.counts["exclusions.excluded"] / max(is_excluded_calls, 1),
        "exclusions.ruling_calls": get("exclusions.ruling", "calls"),
        "exclusions.ruling_hits": tracer.counts["exclusions.ruling_hits"],
        "exclusions.ruling_s": get("exclusions.ruling", "total_s"),
        "effectivity.alpha_calls": alpha_calls,
        "effectivity.alpha_s": get("effectivity.alpha", "total_s"),
        "effectivity.alpha_s_per_call": get("effectivity.alpha", "total_s") / max(alpha_calls, 1),
        "bounds.best_known_s": get("bounds.best_known", "total_s"),
        "render.render_report_s": get("render.render_report", "total_s"),
        "render.report_to_json_s": get("render.report_to_json", "total_s"),
        "render.report_from_json_s": get("render.report_from_json", "total_s"),
        "render.calls": sum(get(n, "calls") for n in
                            ("render.render_report", "render.report_to_json", "render.report_from_json")),
        "cli.cache_bytes": p["cache_bytes"],
        "bounds.bounds_for_ns_s": get("bounds.bounds_for_ns", "total_s"),
        "trace.unattributed_s": p["wall"] - attributed,
    }


def where_time_goes(tracers, passes, kind=None) -> list[dict]:
    """Median self time per span name over the traced passes, as a share
    of the median traced pass; with
    `kind`, over the jobs of that kind only (each job is one root span)."""
    layers, walls, factors = [], [], []
    for t, p in zip(tracers, passes):
        if kind is None:
            layers.append(t.layers())
            factors.append(p["factor"])
            walls.append(p["wall"] * p["factor"])
            continue
        roots = [i for i, span in enumerate(t.spans) if span[3] < 0]
        layers.append(t.layers(roots={r for r, job in zip(roots, p["latencies"]) if job[0] == kind}))
        scaled = sum(s for k, s in p["scaled"] if k == kind)
        factors.append(scaled / sum(s for k, _, s in p["latencies"] if k == kind))
        walls.append(scaled)
    wall = median(walls)
    rows = []
    for name in sorted({name for per in layers for name in per}):
        self_s = median([per.get(name, {}).get("self_s", 0.0) * f for per, f in zip(layers, factors)])
        calls = median([per.get(name, {}).get("calls", 0) for per in layers])
        rows.append({"span": name, "self_s": self_s, "share": self_s / wall, "calls": calls})
    return sorted(rows, key=lambda r: -r["self_s"])


def run_workload(args, spec: dict) -> int:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = Workload(args.workload, args.seed, work)
        if args.trace:
            result, summary = run_traced(workload, args)
            section = "per_layer"
        else:
            result, summary = run_untraced(workload, args)
            section = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_schema(result, spec[section])
    summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   reports_sha256=workload.digest)
    summary_path = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in sorted(result["metrics"].items()):
        samples = summary["samples"].get(name, "")
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}  {samples}")
    for name, value in sorted(summary.get("extra", {}).items()):
        print(f"{args.workload} {name} = {value}")
    tables = {"all": summary.get("where_time_goes", []), **summary.get("where_time_goes_by_kind", {})}
    for kind, rows in tables.items():
        for row in rows:
            print(f"{args.workload} self[{kind}] {row['span']:<26} {row['self_s']:.6f} s "
                  f"{100 * row['share']:5.1f}%  calls {row['calls']:g}")
    for key, msgs in sorted(summary["problems"].items()):
        print(f"{args.workload} FAIL {key}: {'; '.join(msgs)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def collect(passes) -> tuple[int, int, dict]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = {}
    for p in passes:
        for key, msgs in p["problems"].items():
            problems.setdefault(key, sorted(set(msgs)))
    return attempted, failed, problems


def run_untraced(workload: Workload, args):
    setups, raw_setups = measure_setup(1 if args.smoke else SETUP_RUNS, workload.cal)
    passes, _, _ = run_passes(workload, 0 if args.smoke else args.seconds, traced=False)
    attempted, failed, problems = collect(passes)
    calibrate_passes(passes, workload.cal)
    walls = [p["wall"] * p["factor"] for p in passes]
    lat = [t for p in passes for _, t in p["scaled"]]
    tail_v, tail_pct, _ = tail(lat)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "job_p50_ms": (1000 * median(lat), "ms"),
        "job_tail_ms": (1000 * tail_v, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload, passes), "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {len(walls)} passes",
        "job_p50_ms": f"median of {len(lat)} jobs",
        "job_tail_ms": f"p{tail_pct:.2f} of {len(lat)} jobs",
        "peak_rss_mb": (f"largest of {len(lat)} CLI runs" if workload.name == "cli-cache"
                        else "this process, 1 sample"),
    }
    by_kind = {}
    for p in passes:
        for kind, t in p["scaled"]:
            by_kind.setdefault(kind, []).append(t)
    raw_lat = [t for p in passes for _, _, t in p["latencies"]]
    extra = {"fail_ratio": failed / max(attempted, 1), "raw_wall_s": median([p["wall"] for p in passes]),
             "raw_setup_s": median(raw_setups), "raw_job_p50_ms": 1000 * median(raw_lat),
             "raw_job_tail_ms": 1000 * tail(raw_lat)[0],
             "kernel_s": median(workload.cal.samples), "kernel_samples": len(workload.cal.samples)}
    if workload.name == "large-n":
        extra.update({f"bound_s.{k}": median(v) for k, v in by_kind.items()})
    elif workload.name == "cli-cache":
        extra.update({f"cli.{k}_s": median(v) for k, v in by_kind.items()})
        extra["cli.cache_bytes"] = passes[0]["cache_bytes"]
    result = make_result(attempted, failed, problems, metrics)
    return result, {"metrics": metrics, "samples": samples, "extra": extra, "problems": problems}


def run_traced(workload: Workload, args):
    workload.in_process = True
    plain, passes, tracers = run_passes(workload, 0 if args.smoke else args.seconds, traced=True)
    attempted, failed, problems = collect(plain + passes)
    calibrate_passes(plain + passes, workload.cal)
    units = {m["name"]: m["unit"] for m in args.spec["per_layer"]}
    per_pass = [{name: v * p["factor"] if units.get(name) == "s" else v
                 for name, v in layer_metrics(t, p).items()} for t, p in zip(tracers, passes)]
    counters = [{k: v for k, v in m.items() if units.get(k) != "s"} for m in per_pass]
    if any(c != counters[0] for c in counters):
        problems["counters"] = ["per-layer counters differ between traced passes"]
    untraced_wall = median([p["wall"] * p["factor"] for p in plain])
    traced_wall = median([p["wall"] * p["factor"] for p in passes])
    overhead = traced_wall - untraced_wall
    metrics = {name: (counters[0][name] if name in counters[0] else median([m[name] for m in per_pass]),
                      units[name]) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (overhead, "s")
    unattributed = metrics["trace.unattributed_s"][0]
    if not 0 <= unattributed <= MAX_UNATTRIBUTED * traced_wall:
        problems["accounting"] = [
            f"{unattributed:.6f} s of the {traced_wall:.6f} s traced pass is outside every layer span"]
    dump = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    dump.unlink(missing_ok=True)
    offset = 0
    for t in tracers:
        t.dump(dump, offset)
        offset += len(t.spans)
    samples = {name: f"{'exact, equal in' if units.get(name) != 's' else 'median of'} "
                     f"{len(passes)} traced passes" for name in metrics}
    samples["trace.overhead_s"] = f"{len(passes)} traced vs {len(plain)} untraced passes"
    extra = {"fail_ratio": failed / max(attempted, 1), "traced_wall_s": traced_wall,
             "untraced_wall_s": untraced_wall, "kernel_s": median(workload.cal.samples),
             "spans_dump": str(dump.relative_to(ROOT))}
    result = make_result(attempted, failed, problems, metrics)
    summary = {"metrics": metrics, "samples": samples, "extra": extra, "problems": problems,
               "where_time_goes": where_time_goes(tracers, passes)}
    if workload.name != "sweep":  # its 84 kinds are single n; the others' kinds are named metrics
        kinds = sorted({k for k, _, _ in passes[0]["latencies"]})
        summary["where_time_goes_by_kind"] = {k: where_time_goes(tracers, passes, k) for k in kinds}
    return result, summary


def make_result(attempted, failed, problems, metrics) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def check_schema(result: dict, wanted: list[dict]) -> None:
    """The result line carries exactly the metrics BENCHMARK.json names, with
    their units, as finite numbers."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} has value {v!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive whole number")


def sub_run(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> tuple[int, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, {}


def smoke_all(spec: dict) -> int:
    """One pass of every workload, traced and not; schema and golden checks."""
    bad = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = sub_run(workload, 1, 1, trace, smoke=True)
            try:
                check_schema(result, spec[section])
            except (ValueError, KeyError) as exc:
                bad.append(f"{workload} trace {trace}: {exc}")
            if code != 0 or not result.get("correct") or result.get("failed"):
                bad.append(f"{workload} trace {trace}: exit {code}, result {result}")
    for line in bad:
        print(f"smoke FAIL {line}")
    print(f"smoke: {'FAIL' if bad else 'PASS'}")
    return 1 if bad else 0


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu,
            "git_commit": commit, "platform": platform.platform()}


def record(spec: dict, seconds: int) -> int:
    """Run every workload untraced and traced, check order independence on
    sweep under a second seed, and write baseline.json."""
    out = {"machine": machine_record(), "seconds": seconds, "layer_targets": LAYER_TARGETS,
           "workloads": {}}
    codes = []
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            code, _ = sub_run(workload, 1, seconds, trace, smoke=False)
            codes.append(code)
            path = WORK_DIR / f"{workload}-seed1-trace{trace}.json"
            summary = json.loads(path.read_text(encoding="utf-8"))
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                name: {"value": v, "unit": u, "samples": summary["samples"][name]}
                for name, (v, u) in summary["metrics"].items()
            }
            entry["extra" if trace == 0 else "traced_extra"] = summary["extra"]
            if trace:
                entry["where_time_goes"] = summary["where_time_goes"]
                entry["where_time_goes_by_kind"] = summary.get("where_time_goes_by_kind", {})
            else:
                entry["reports_sha256"] = summary["reports_sha256"]
        out["workloads"][workload] = entry
    code, _ = sub_run("sweep", 2, seconds, 0, smoke=False)
    codes.append(code)
    other = json.loads((WORK_DIR / "sweep-seed2-trace0.json").read_text(encoding="utf-8"))
    first = out["workloads"]["sweep"]["reports_sha256"]
    same = other["reports_sha256"] == first
    out["order_independence"] = {"workload": "sweep", "seeds": [1, 2], "identical_reports": same,
                                 "reports_sha256": [first, other["reports_sha256"]]}
    print(f"order independence (sweep, seeds 1 and 2): {'identical' if same else 'DIFFERENT'} reports")
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if same and not any(codes) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass, schema and golden checks only")
    p.add_argument("--record", action="store_true", help="run every workload and write baseline.json")
    p.add_argument("--capture-golden", action="store_true", help="re-take golden/ from src/")
    args = p.parse_args(argv)
    if not (SRC / "seshadri" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = args.spec["run_seconds"]
    if args.capture_golden:
        import workloads

        workloads.capture_golden()
        return 0
    if args.record:
        return record(args.spec, args.seconds)
    if args.workload is None:
        if args.smoke:
            return smoke_all(args.spec)
        p.error("give --workload, --smoke, --record or --capture-golden")
    return run_workload(args, args.spec)


if __name__ == "__main__":
    sys.exit(main())
