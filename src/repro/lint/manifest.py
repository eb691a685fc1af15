"""The one committed analyzer manifest and its drift gate.

Each whole-program tier (audit, vec, flow) commits a deterministic JSON
account of the source — sanctioned effects, hot paths, key-material
exceptions — as its own section of ``ANALYSIS_MANIFEST.json``, keyed by
the tier's name.  CI gates on it: ``repro-check --check-manifests``
re-derives each tier's section from source and fails with a unified
diff when the committed copy has drifted, and ``--write-manifests``
rewrites the sections of the tiers that ran.  The file name, the
envelope version, rendering, and reading, writing and diffing one
section live here once; each tier keeps only its section builder (what
goes *in* the ledger is tier-specific).
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = [
    "MANIFEST_FILE",
    "MANIFEST_VERSION",
    "diff_section",
    "render_manifest",
    "write_section",
]

#: Committed location, relative to the working directory (the repo root).
MANIFEST_FILE = "ANALYSIS_MANIFEST.json"

#: Bump when the envelope or any section's shape changes.
MANIFEST_VERSION = 1


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Byte-stable serialization (what gets committed)."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _read(path: Path) -> Dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _envelope(version: Any, name: str, section: Any) -> str:
    """One section as the gate compares it: under the envelope version."""
    return render_manifest({"version": version, name: section})


def diff_section(
    name: str, section: Dict[str, Any], path: Union[str, Path] = MANIFEST_FILE
) -> Optional[str]:
    """Unified diff of section ``name`` committed-vs-derived, or None.

    A missing file or a missing section diffs against the empty text,
    so the first ``--check-manifests`` run tells the operator exactly
    what to commit rather than crashing.
    """
    committed = _read(Path(path))
    actual = (
        _envelope(committed.get("version"), name, committed[name])
        if name in committed
        else ""
    )
    expected = _envelope(MANIFEST_VERSION, name, section)
    if actual == expected:
        return None
    return "".join(
        difflib.unified_diff(
            actual.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{path} [{name}] (committed)",
            tofile=f"{path} [{name}] (derived from source)",
        )
    )


def write_section(
    name: str, section: Dict[str, Any], path: Union[str, Path] = MANIFEST_FILE
) -> None:
    """Replace section ``name``; every other section keeps its bytes."""
    manifest = _read(Path(path))
    manifest.update({"version": MANIFEST_VERSION, name: section})
    Path(path).write_text(render_manifest(manifest), encoding="utf-8")
