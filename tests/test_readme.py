"""The README's library quick start runs as written, and every name the
package exports exists, so a removed name cannot linger in either."""

import re
from pathlib import Path

import dqmotion

ROOT = Path(__file__).parent.parent
WALK = ROOT / "demos" / "data" / "walk.bvh"


def quick_start() -> str:
    """The first python block under README's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    code = quick_start()
    assert '"walk.bvh"' in code
    exec(compile(code.replace('"walk.bvh"', repr(str(WALK))), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    missing = [name for name in dqmotion.__all__ if not hasattr(dqmotion, name)]
    assert not missing
