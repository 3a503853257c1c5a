"""A failing property test reports its example and the session goes on.

The repository's ``pyproject.toml`` and ``conftest.py`` are copied next to
a deliberately failing property and a test after it, and pytest runs them
in a subprocess: the failure must print the falsifying example and the
``@reproduce_failure`` blob, not end the session in ``INTERNALERROR``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_two.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out and "@reproduce_failure" in out
    assert "1 failed, 1 passed" in out
