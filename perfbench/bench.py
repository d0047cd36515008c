"""One measured run of one workload: set-up, the five jobs, checks, report.

`run.py` is the entry point; it pins the BLAS pools and puts this
checkout's `src/` on the import path before this module is imported.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import jobs
import timing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPS = 3
DEFAULT_SEED = 0
JOB_ORDER = ("prep", "export", "train", "eval", "cli")
FPS_METRIC = {job: f"{job}_fps" for job in JOB_ORDER}


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(name: str, seed: int, directory: Path):
    """Generate the workload, derive the jobs' inputs, warm up every job on
    the small instance of the same workload."""
    workload = workloads.make(name, seed)
    (directory / "full").mkdir(parents=True)
    items = jobs.prepare(workload, np.random.default_rng([seed, 2]), directory / "full")
    small = workloads.make(name, seed, small=True)
    (directory / "warm").mkdir()
    warm = jobs.prepare(small, np.random.default_rng([seed, 3]), directory / "warm")
    idle = jobs.Tracer()
    for job in jobs.JOBS.values():
        job(idle, warm)
    return workload, items


class Verifier:
    """Checks each distinct output once; equal outputs share the verdict."""

    def __init__(self, seed: int, golden):
        self.rng = np.random.default_rng([seed, 4])
        self.golden = golden
        self.verdicts = {}

    def __call__(self, job: str, items: list, outputs: list) -> list:
        key = (job, checks.digest(job, items, outputs))
        if key not in self.verdicts:
            problems = []
            for p, out in zip(items, outputs):
                problems += checks.CHECKS[job](p, out, self.rng)
            if self.golden is not None:
                problems += checks.golden_problems(checks.golden_values(job, outputs), self.golden)
            self.verdicts[key] = problems
        return self.verdicts[key]


def run_job(name: str, tracer, items: list, budget: float, verify) -> dict:
    """Closed loop over one job for `budget` seconds, at least one op."""
    job = jobs.JOBS[name]
    record = {"times": [], "raw": [], "attempted": 0, "failed": 0, "problems": [], "first_spans": None}
    clock = timing.ReferenceClock()
    start = time.perf_counter()
    while True:
        gc.collect()
        mark = len(tracer.spans)
        clock.start()
        try:
            with tracer.job(name):
                outputs = job(tracer, items)
            completed = True
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            completed, problems = False, [f"{type(exc).__name__}: {exc}"]
        finally:
            clock.stop()
        if completed:
            try:
                problems = verify(name, items, outputs)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            # An op that ran to the end did its work, right or wrong.
            record["times"].append(clock.scaled)
            record["raw"].append(clock.raw)
        if record["first_spans"] is None:
            record["first_spans"] = (mark, len(tracer.spans))
        record["attempted"] += 1
        if problems:
            record["failed"] += 1
            record["problems"] += [p for p in problems if p not in record["problems"]]
        if time.perf_counter() - start >= budget:
            return record


def median_or_none(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile when at least ten samples lie beyond it, else None."""
    if len(values) * 0.1 < 10:
        return None
    return statistics.quantiles(values, n=10)[8]


def stage_table(spans: list, first_ranges: list) -> dict:
    """Self time per call and calls / bytes per pass of the five jobs."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_ms = defaultdict(list)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_ms[name].append((end - start - child_time[index]) * 1e3)
    calls, size = defaultdict(int), defaultdict(int)
    for lo, hi in first_ranges:
        for name, _, _, _, nbytes in spans[lo:hi]:
            calls[name] += 1
            size[name] += nbytes or 0
    names = list(jobs.STAGES) + sorted(n for n in self_ms if n.startswith("job."))
    return {
        name: {
            "calls_per_pass": calls[name],
            "bytes_per_pass": size[name] if name in jobs.SIZED else None,
            "samples": len(self_ms[name]),
            "self_ms_median": median_or_none(self_ms[name]),
            "self_ms_p90": p90(self_ms[name]),
            "self_ms_total": sum(self_ms[name]),
        }
        for name in names
    }


def dump_spans(path: Path, spans: list):
    origin = spans[0][1] if spans else 0.0
    rows = [[i, name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent]
            for i, (name, start, end, parent, _) in enumerate(spans)]
    path.write_text(json.dumps({"columns": ["id", "name", "start_us", "end_us", "parent"],
                                "spans": rows}))


def measure(args, items, verify) -> tuple:
    """Run every job; returns (per-job records, trace summary or None)."""
    tracer = jobs.Tracer()
    budget = args.seconds / len(JOB_ORDER)
    if not args.trace:
        return {name: run_job(name, tracer, items, budget, verify) for name in JOB_ORDER}, None
    records, traced, first_ranges = {}, {}, []
    for name in JOB_ORDER:
        records[name] = run_job(name, tracer, items, budget / 2, verify)
        tracer.enabled = True
        traced[name] = run_job(name, tracer, items, budget / 2, verify)
        tracer.enabled = False
        first_ranges.append(traced[name]["first_spans"])
    plain_s = sum(median_or_none(records[n]["times"]) or 0.0 for n in JOB_ORDER)
    traced_s = sum(median_or_none(traced[n]["times"]) or 0.0 for n in JOB_ORDER)
    for name in JOB_ORDER:
        for key in ("attempted", "failed"):
            records[name][key] += traced[name][key]
        records[name]["problems"] += [p for p in traced[name]["problems"]
                                      if p not in records[name]["problems"]]
    summary = {
        "overhead_pct": 100.0 * (traced_s / plain_s - 1.0) if plain_s and traced_s else None,
        "stages": stage_table(tracer.spans, first_ranges),
        "spans": tracer.spans,
    }
    return records, summary


def per_layer_metrics(summary: dict) -> dict:
    metrics = {"trace.overhead_pct": {"value": summary["overhead_pct"], "unit": "%"}}
    for name in jobs.STAGES:
        row = summary["stages"][name]
        metrics[f"{name}.self_ms"] = {"value": row["self_ms_median"], "unit": "ms"}
        metrics[f"{name}.calls"] = {"value": row["calls_per_pass"], "unit": "count"}
        if row["bytes_per_pass"] is not None:
            metrics[f"{name}.bytes"] = {"value": row["bytes_per_pass"], "unit": "bytes"}
    return metrics


def print_tables(records: dict, summary, frames: int):
    for name in JOB_ORDER:
        rec = records[name]
        med = median_or_none(rec["times"])
        fps = f"{frames / med:10.1f} frames/s" if med else "      n/a"
        print(f"# {name:7s} {fps}  ops {rec['attempted']:4d}  failed {rec['failed']}")
    if summary is None:
        return
    print(f"# tracing overhead {summary['overhead_pct']:.2f}%")
    print(f"# {'stage':44s} {'calls/pass':>10s} {'median ms':>11s} {'p90 ms':>10s} {'share':>6s}")
    total = sum(row["self_ms_total"] for row in summary["stages"].values()) or 1.0
    for name, row in summary["stages"].items():
        med = row["self_ms_median"]
        p = row["self_ms_p90"]
        print(f"# {name:44s} {row['calls_per_pass']:10d} "
              f"{'-' if med is None else f'{med:.4f}':>11s} {'-' if p is None else f'{p:.4f}':>10s} "
              f"{100.0 * row['self_ms_total'] / total:5.1f}%")


def main(argv: list, process_start: float) -> int:
    parser = argparse.ArgumentParser(description="Run one dqmotion benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    import_s = time.perf_counter() - process_start
    import_s *= timing.REFERENCE_PROBE_S / timing.calibration_time()

    golden = None
    if args.seed == DEFAULT_SEED:  # a missing golden file fails every value
        golden = json.loads(GOLDEN.read_text())["workloads"][args.workload] if GOLDEN.is_file() else {}

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            clock = timing.ReferenceClock()
            clock.start()
            workload, items = set_up(args.workload, args.seed, scratch / f"setup{rep}")
            clock.stop()
            setup_times.append(clock.scaled)
        setup_s = import_s + statistics.median(setup_times)
        frames = workload.meta["source_frames"]
        records, summary = measure(args, items, Verifier(args.seed, golden))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(rec["attempted"] for rec in records.values())
    failed = sum(rec["failed"] for rec in records.values())
    if summary is None:
        metrics = {FPS_METRIC[n]: {"value": frames / median_or_none(records[n]["times"])
                                   if records[n]["times"] else 0.0, "unit": "frames/s"}
                   for n in JOB_ORDER}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        metrics = per_layer_metrics(summary)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "workload": workload.meta,
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_reps_s": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "jobs": {n: {"ops": rec["attempted"], "failed": rec["failed"], "problems": rec["problems"],
                     "op_seconds": rec["times"], "op_raw_seconds": rec["raw"]}
                 for n, rec in records.items()},
        "metrics": metrics,
        "known_defects": {"to_euler_pole_band_gap": checks.pole_band_gap()},
    }
    if summary is not None:
        record["trace"] = {k: summary[k] for k in ("overhead_pct", "stages")}
        dump_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json", summary["spans"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, rec in records.items():
        for problem in rec["problems"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
    for name, gap in record["known_defects"].items():
        if gap > checks.ROUND_TRIP_TOL:
            print(f"perfbench: known defect, not counted: {name} {gap:.3e}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {frames} source frames, "
          f"setup {setup_s:.3f} s, peak RSS {peak_rss_mb:.1f} MB, error rate {failed}/{attempted}")
    print_tables(records, summary, frames)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


