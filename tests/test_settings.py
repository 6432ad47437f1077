"""The suite's own pytest settings, checked on a throwaway test run."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(pytester):
    """Under the suite's warning filters, a failing hypothesis test prints
    its falsifying example, and pytest does not stop with INTERNALERROR
    (hypothesis's report hook imports a module that warns on import)."""
    test = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 5
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        str(test), timeout=300,
    )
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    result.assert_outcomes(failed=1)
