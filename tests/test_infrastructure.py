import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    # a failing @given test must be reported with its example, and the tests
    # after it must still run, under this suite's conftest and warning filters
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_fails(" in out, out
