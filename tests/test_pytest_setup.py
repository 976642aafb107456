"""The test configuration itself: a failing property reports as a failure."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

ALWAYS_FAILS = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=5)
    @given(st.integers())
    def test_always_fails(n):
        assert n != n


    def test_after_the_failure():
        pass
""")


def test_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports libcst, whose deprecation warning
    # the "error" filter would turn into an INTERNALERROR (exit 3) that
    # skips every later test
    (tmp_path / "test_property.py").write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.abspath(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
