"""Numba availability probe (``HAVE_NUMBA``).

No backend uses Numba: the ``float`` reference and the served
``packed`` backend are pure NumPy.  The flag stays importable because
benchmark provenance (``perfbench/run.py``) records whether Numba was
present on the host that produced the numbers.
"""

from __future__ import annotations

import importlib.util

__all__ = ["HAVE_NUMBA"]

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
