"""The test configuration of ``pyproject.toml`` itself."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_later_tests_run(tmp_path):
    # Hypothesis reports a failure through modules (libcst) that warn of a
    # deprecation on import; turned into an error, that warning made pytest
    # stop at an INTERNALERROR, report no failure and run no later test
    (tmp_path / "test_probe.py").write_text(FAILING_GIVEN)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
