"""Test-session set-up for a checkout: makes `src` importable.

`src` is appended to sys.path, not prepended, so a bare `pytest` finds
the package while a `PYTHONPATH` naming another source tree still wins.

When a property test fails, the hypothesis plugin imports
`hypothesis.extra._patching` inside a pytest hook.  With libcst
installed, that import pulls in `mypy_extensions.TypedDict`, whose
DeprecationWarning `filterwarnings = ["error"]` would turn into an
INTERNALERROR that ends the session.  Importing the module once here,
with that warning ignored, leaves nothing for the hook to warn about.
"""

import os
import sys
import warnings

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if SRC not in sys.path:
    sys.path.append(SRC)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
