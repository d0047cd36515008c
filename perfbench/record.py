"""Run the benchmark over several seeds and record the spread.

    python3 perfbench/record.py --runs 10 --out perfbench/results/BENCH_<label>.json

For each workload in BENCHMARK.json this runs run.py untraced with seeds
0 .. runs-1, then once traced with seed 0. It writes, per end-to-end
metric, the median, the quartiles and the spread (quartile distance as a
share of the median) next to the metric's bound; the per-layer numbers
of the traced run; and the environment the runs recorded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summary(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"seconds": seconds, "seeds": list(range(args.runs)), "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(args.runs)]
        report.setdefault("environment", runs[0][1]["environment"])
        entry = {
            "workload": runs[0][1]["workload"],
            "correct": [result["correct"] for result, _ in runs],
            "attempted": [result["attempted"] for result, _ in runs],
            "failed": [result["failed"] for result, _ in runs],
            "problems": sorted({p for _, rec in runs for job in rec["jobs"].values()
                                for p in job["problems"]}),
            "end_to_end": {name: summary([result["metrics"][name]["value"] for result, _ in runs],
                                         bound)
                           for name, bound in bounds.items()},
        }
        result, record = run_once(workload, 0, seconds, 1)
        entry["per_layer"] = result["metrics"]
        entry["stages"] = record["trace"]["stages"]
        entry["trace_overhead_pct"] = record["trace"]["overhead_pct"]
        report["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {stats['median']:12.4f} "
                  f"spread {stats['spread']:.4f} (bound {stats['bound']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
