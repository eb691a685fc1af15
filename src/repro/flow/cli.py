"""``repro-flow`` console entry point: the flow tier's command line.

Usage and exit codes are those of every tier (:mod:`repro.audit.tier`).
"""

from __future__ import annotations

import sys

from .rules import TIER

__all__ = ["TIER", "main"]

main = TIER.main


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
