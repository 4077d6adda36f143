"""Test-session set-up shared by every test file.

On a failing `@given` test, hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside its report hook.  That module imports
libcst, whose import touches `mypy_extensions.TypedDict` and so warns with
a `DeprecationWarning`; under `filterwarnings = ["error"]` the warning
becomes an INTERNALERROR that stops the run, and no later test runs.
Importing the module once here, with that warning ignored, leaves it in
`sys.modules` for the hook.  Warnings raised by the tests stay errors.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the hook has nothing to import either
        pass
