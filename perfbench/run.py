"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload long-clip --seed 1 --seconds 20 --trace 0

Imports dqmotion from this checkout's `src/`, and exits with code 1
without a result when it is not there. The run generates the workload
from the seed and sets it up three times. It then runs the five jobs one
after another, each in a closed loop with one caller (an op starts when
the previous one returns) for an equal share of --seconds, and at least
once. Outputs are checked untimed. The last line of stdout is the result
object. A record of the run, with its environment, goes to
perfbench/out/. With --trace 1 each job's share is split between an
untraced and a traced half, and the record also holds the per-stage
tables and the span dump.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: The code under test is single-threaded; pinned BLAS pools add no noise.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Pin BLAS pools and import dqmotion from this checkout's src/ only."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    package = ROOT / "src" / "dqmotion"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dqmotion sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import dqmotion

    if Path(dqmotion.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported dqmotion from {dqmotion.__file__}, not {package}")


if __name__ == "__main__":
    load_program()
    import bench

    sys.exit(bench.main(sys.argv[1:], PROCESS_START))
