"""Locate the package source of the checkout the benchmark runs in.

The benchmark measures the ``src/`` tree beside it, never an installed
copy: it refuses to run when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work files and results; see .gitignore


def use_checkout_source() -> None:
    """Put ``src/`` first on sys.path and check the package imports from it."""
    init = SRC / "freight_resilience" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import freight_resilience

    if Path(freight_resilience.__file__).resolve() != init.resolve():
        raise SystemExit(
            f"perfbench: imported {freight_resilience.__file__}, expected {init}"
        )
