import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_is_reported_not_internal_error(tmp_path):
    # with libcst installed, reporting a failing example imports
    # hypothesis.extra._patching, whose DeprecationWarning the root
    # conftest must keep from becoming an INTERNALERROR
    pytest.importorskip("libcst")
    for name in ("conftest.py", "pyproject.toml"):
        shutil.copy(os.path.join(ROOT, name), tmp_path / name)
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
