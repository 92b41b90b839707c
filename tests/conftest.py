"""Set-up shared by the whole test suite."""

import warnings

import pytest

pytest.register_assert_rewrite("oracles")  # check_store's failures show values

# When a @given test fails, Hypothesis's pytest plugin imports
# hypothesis.extra._patching in its report hook.  Where libcst is
# installed, that import emits a DeprecationWarning (for
# mypy_extensions.TypedDict), which `-W error` turns into an
# INTERNALERROR that hides the falsifying example.  Importing the module
# once here, with that warning ignored, leaves the hook nothing to warn
# about; test code keeps every warning filter it had.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent, as in CI
        pass
