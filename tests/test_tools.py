"""The scripts under `tools/` must stay runnable, under the suite's own
warnings policy: any warning is an error."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_code_lines_runs():
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.strip().splitlines()]
    modules, (label, total) = rows[:-1], rows[-1]
    assert label == "total"
    assert sorted(name for name, _ in modules) == sorted(p.name for p in (ROOT / "src" / "dqmotion").glob("*.py"))
    assert all(int(count) > 0 for _, count in modules)
    assert int(total) == sum(int(count) for _, count in modules)
