"""The demos and the README quick start run against the package in src/.

Each demo runs as a subprocess with PYTHONPATH=src and must exit 0; together
they take about 4 s. pruned_vs_exhaustive.py is left out because it takes
about 7-9 s on its own on a 2-core x86 host. The README's Python block must
print what its comments say.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["gaussian_closed_form.py", "worked_examples.py", "surrogate_gap.py"]
)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_output():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # each print(...) line ends in a comment that holds its output
    expected = [line.split("  # ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # numpy pads the arrays' floats with spaces
    assert [re.sub(r"\s+", "", line) for line in printed] == [
        re.sub(r"\s+", "", line) for line in expected
    ]
