"""The demos run to completion against the package in src/.

Each demo runs as a subprocess with PYTHONPATH=src and must exit 0; together
they take about 4 s. pruned_vs_exhaustive.py is left out because it takes
about 7-9 s on its own on a 2-core x86 host.
"""

import os
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
