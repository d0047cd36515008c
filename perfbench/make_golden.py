"""Record the golden loss, metric and gradient-checksum values.

    python3 perfbench/make_golden.py

run.py compares an op's values against these, at 1e-9 relative, whenever
it runs with the default seed. Run this only on the commit whose values
become the reference.
"""

import json
import shutil

import run


def main():
    run.load_program()
    import bench
    import checks
    import jobs
    import workloads

    golden = {}
    scratch = bench.OUT / "tmp-golden"
    try:
        for name in sorted(workloads.WORKLOADS):
            _, items = bench.set_up(name, bench.DEFAULT_SEED, scratch / name)
            values = {}
            for job in ("train", "eval", "cli"):
                values.update(checks.golden_values(job, jobs.JOBS[job](jobs.Tracer(), items)))
            golden[name] = values
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {"seed": bench.DEFAULT_SEED, "git_commit": bench.git_commit(), "workloads": golden}
    bench.GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.GOLDEN}")


if __name__ == "__main__":
    main()
