"""Test-session set-up for a checkout: makes `src` importable.

`src` is appended to sys.path, not prepended, so a bare `pytest` finds
the package while a `PYTHONPATH` naming another source tree still wins.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if SRC not in sys.path:
    sys.path.append(SRC)
