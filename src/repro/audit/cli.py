"""``repro-audit`` console entry point: the audit tier's command line.

Usage and exit codes are those of every tier (:mod:`repro.audit.tier`).
"""

from __future__ import annotations

import sys

from .rules import TIER
from .tier import DEFAULT_PATHS as _DEFAULT_PATHS  # noqa: F401  (default root, pinned by tests)

__all__ = ["TIER", "main"]

main = TIER.main


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
