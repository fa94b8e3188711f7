"""Tooling guard: the README's Python examples and the demo scripts run.

Both show the library's public calls, so an API change that leaves them
stale fails here rather than in a reader's hands.
"""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    namespace: dict = {}  # later blocks reuse names of earlier ones, as a reader would
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert printed and all(math.isfinite(float(v)) for v in printed)


@pytest.mark.parametrize("script,header", [
    ("gain_vs_noise.py",
     ["n", "n_th", "coherent_bits", "epr_bits", "gain_absolute", "gain_relative"]),
    ("diffraction_bounds.py",
     ["ell_over_xr", "tau_min", "tau_max", "coherent_lower", "coherent_upper",
      "epr_lower", "epr_upper"]),
])
def test_demo_runs(script, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[0] == header
    assert len(rows) == 12
    assert all(len(row) == len(header) for row in rows)
    # gain_relative is empty where the coherent rate is zero
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row if cell)
