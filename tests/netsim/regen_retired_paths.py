"""Regenerate the retired-engine-path fixture.

Usage::

    PYTHONPATH=src python -m tests.netsim.regen_retired_paths

Rewrites ``tests/netsim/fixtures/retired_paths.json`` from the cases in
:mod:`tests.netsim.retired_paths`.  The committed fixture was captured
while the retired engine paths still existed and was cross-checked
against them; a regeneration re-records only the survivor, so only
run this after deliberately changing the engine's draw protocol or a
case definition, and review the fixture diff like any other behaviour
change.
"""

from __future__ import annotations

import json

from .retired_paths import FIXTURE, capture


def main() -> None:
    captured = capture()
    FIXTURE.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    for name, per_seed in captured.items():
        print(f"{name}: {len(per_seed)} seed(s)")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
