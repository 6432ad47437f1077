"""Locate and import the prismring sources of the checkout the benchmark sits in.

This module imports nothing from prismring itself, so the harness can use
it before it knows whether the sources are there.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "prismring"


def load_prismring():
    """Import prismring from ``src/``; exit non-zero if it is not there."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prismring package at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import prismring

    if Path(prismring.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported prismring from {prismring.__file__}")
    return prismring


class Mismatch(Exception):
    """An output differs from its pinned or first-seen value."""
