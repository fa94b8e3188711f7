"""Tooling guard: a failing hypothesis test fails alone, and the run goes on.

To print a falsifying example, hypothesis imports libcst, and that import
raises a DeprecationWarning. Under the suite's ``filterwarnings = ["error"]``
the warning became an exception in a pytest hook: the run stopped with an
INTERNALERROR (exit 3), and no later test ran.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
