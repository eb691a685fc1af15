"""Content-keyed on-disk cache for experiment results.

Entries are JSON files named by a SHA-256 over the *content key*: the
experiment id, the canonicalized config dict, the seed, and a
code-version tag.  Any change to any component produces a different
key, so stale results are never served — they are simply orphaned on
disk.  The cache stores plain JSON payloads (the experiment layer
converts :class:`~repro.experiments.base.ExperimentResult` to/from
dicts), which keeps this module free of upward dependencies.

Robustness rules:

- writes are atomic (per-process unique temp file via
  ``tempfile.mkstemp`` in the cache directory, then ``os.replace``),
  so a crashed run never leaves a half-written entry under a valid
  name and *concurrent writers of the same key can never interleave*:
  each writer owns its own temp file and the last rename wins whole;
- unreadable, truncated, or schema-mismatched entries count as misses:
  the entry is deleted and the caller recomputes instead of crashing;
- ``*.tmp`` files orphaned by crashed runs are swept at cache startup
  (only when older than ``tmp_ttl_seconds``, so a live concurrent
  writer's in-flight temp file is never yanked out from under its
  rename) and unconditionally by :meth:`ResultCache.clear`; the sweep
  count is surfaced through :meth:`ResultCache.stats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from .. import __version__

__all__ = [
    "CODE_VERSION",
    "FINGERPRINT_MODULES",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
]

#: Every module/package whose source participates in the code-version
#: fingerprint: the transitive import closure of the registered entry
#: workers, as certified by ``repro-audit`` (RPL204 fails the audit if
#: a module reachable from a cached worker is missing here).  Naming a
#: package covers its whole subtree plus every ancestor ``__init__``.
FINGERPRINT_MODULES = (
    "repro.analysis",
    "repro.attacks",
    "repro.blockchain",
    "repro.countermeasures",
    "repro.crawler",
    "repro.datagen",
    "repro.errors",
    "repro.experiments",
    "repro.netsim",
    "repro.parallel",
    "repro.reporting",
    "repro.rng",
    "repro.scenarios",
    "repro.sweeps",
    "repro.topology",
    "repro.types",
)


def code_fingerprint(modules: "tuple" = FINGERPRINT_MODULES) -> str:
    """SHA-256 digest over the source of every fingerprinted module.

    Hashes (relative path, content) pairs in sorted path order: byte-
    stable across machines and runs for identical sources, different
    for any edit to any covered file.  A declared package contributes
    every ``*.py`` under it; ancestor ``__init__.py`` files (which run
    at import time) are included automatically.  Names that resolve to
    nothing contribute nothing — the audit, not this function, is what
    certifies the declaration list is complete.
    """
    src_root = Path(__file__).resolve().parent.parent.parent
    files = set()
    for name in modules:
        parts = name.split(".")
        for cut in range(1, len(parts)):
            init = src_root.joinpath(*parts[:cut]) / "__init__.py"
            if init.is_file():
                files.add(init)
        as_dir = src_root.joinpath(*parts)
        as_module = as_dir.with_suffix(".py")
        if as_dir.is_dir():
            files.update(as_dir.rglob("*.py"))
        elif as_module.is_file():
            files.add(as_module)
    digest = hashlib.sha256()
    for file_path in sorted(files):
        digest.update(file_path.relative_to(src_root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(file_path.read_bytes())  # repro-lint: disable=filesystem fingerprint hashes the tracked sources it certifies
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


#: Tag mixed into every key: the package version plus a source
#: fingerprint over :data:`FINGERPRINT_MODULES`, so editing any module
#: a cached worker can execute changes every key — stale entries are
#: orphaned instead of served.  Override per-cache to pin behavior.
CODE_VERSION = f"repro-{__version__}+{code_fingerprint()}"

#: On-disk envelope layout version (distinct from the code tag: this
#: guards the *file format*, the tag guards the *computed content*).
_SCHEMA_VERSION = 1


def _canonical(config: Mapping[str, Any]) -> str:
    """Stable text form of a config dict (sorted keys, no whitespace)."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"), default=repr)


def cache_key(
    experiment_id: str,
    config: Mapping[str, Any],
    seed: int,
    code_version: str = CODE_VERSION,
) -> str:
    """Content key for one (experiment, config, seed, code) quadruple."""
    payload = "\x1f".join(
        [experiment_id, _canonical(config), str(seed), code_version]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem cache of experiment payloads, keyed by content.

    Parameters:
        directory: Cache root; created on demand.
        code_version: Overrides :data:`CODE_VERSION` (tests use this to
            exercise invalidation without touching the package version).
        tmp_ttl_seconds: Minimum age before an orphaned ``*.tmp`` file
            is considered crash debris and swept; younger temp files
            may belong to a live concurrent writer and are left alone.

    Attributes:
        hits / misses / stores / corrupt_entries /
        orphaned_tmp_removed: Counters for observability; the CLI
            prints them after a sweep.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        code_version: str = CODE_VERSION,
        tmp_ttl_seconds: float = 300.0,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version
        self.tmp_ttl_seconds = tmp_ttl_seconds
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_entries = 0
        self.orphaned_tmp_removed = 0
        self.sweep_orphans()

    # ------------------------------------------------------------------
    def key(self, experiment_id: str, config: Mapping[str, Any], seed: int) -> str:
        return cache_key(experiment_id, config, seed, self.code_version)

    def entry_path(
        self, experiment_id: str, config: Mapping[str, Any], seed: int
    ) -> Path:
        return self.directory / f"{self.key(experiment_id, config, seed)}.json"

    # ------------------------------------------------------------------
    def get(
        self, experiment_id: str, config: Mapping[str, Any], seed: int
    ) -> Optional[Dict[str, Any]]:
        """Stored payload dict, or ``None`` on miss/corruption.

        A corrupt entry (unparsable JSON, wrong envelope schema, or a
        key mismatch from a renamed file) is deleted so the caller's
        recompute will overwrite it with a good copy.
        """
        key = self.key(experiment_id, config, seed)
        path = self.directory / f"{key}.json"
        if not path.exists():
            self.misses += 1
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != _SCHEMA_VERSION
                or envelope.get("key") != key
                or not isinstance(envelope.get("payload"), dict)
            ):
                raise ValueError("bad cache envelope")
        except (ValueError, OSError):
            self.corrupt_entries += 1
            self.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.hits += 1
        return envelope["payload"]

    def put(
        self,
        experiment_id: str,
        config: Mapping[str, Any],
        seed: int,
        payload: Mapping[str, Any],
    ) -> Path:
        """Atomically store ``payload`` for the given content key."""
        key = self.key(experiment_id, config, seed)
        path = self.directory / f"{key}.json"
        envelope = {
            "schema": _SCHEMA_VERSION,
            "key": key,
            "experiment_id": experiment_id,
            "seed": seed,
            "config": dict(config),
            "code_version": self.code_version,
            "payload": dict(payload),
        }
        # A per-process unique temp name (mkstemp) keeps concurrent
        # writers of the same key from interleaving into one half-written
        # envelope; whichever os.replace lands last wins whole.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=f"{path.stem}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def discard(
        self, experiment_id: str, config: Mapping[str, Any], seed: int
    ) -> bool:
        """Remove one entry (returns whether a file was deleted)."""
        path = self.entry_path(experiment_id, config, seed)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Delete every entry (plus any ``*.tmp`` debris); returns the
        number of *entries* removed.  Unlike the startup sweep, an
        explicit clear is a full reset, so temp files are removed
        regardless of age."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        for tmp in self.directory.glob("*.tmp"):
            try:
                tmp.unlink()
                self.orphaned_tmp_removed += 1
            except OSError:
                continue
        return removed

    def sweep_orphans(self) -> int:
        """Remove ``*.tmp`` files orphaned by crashed runs; returns the
        number removed (also accumulated in ``orphaned_tmp_removed``).

        Only temp files older than ``tmp_ttl_seconds`` are swept: a
        younger one may be a live concurrent writer's in-flight file,
        and deleting it would make that writer's ``os.replace`` fail.
        Runs automatically at construction, so every cache open recovers
        the directory from prior crashes.
        """
        removed = 0
        # Wall-clock here only ages crash debris against file mtimes; it
        # never feeds simulation state or cache keys.
        now = time.time()  # repro-lint: disable=RPL103 file-age housekeeping, not simulation input
        for tmp in self.directory.glob("*.tmp"):
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age < self.tmp_ttl_seconds:
                continue
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        self.orphaned_tmp_removed += removed
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
            "orphaned_tmp_removed": self.orphaned_tmp_removed,
        }

    def format_stats(self) -> str:
        s = self.stats()
        line = (
            f"cache: {s['hits']} hit(s), {s['misses']} miss(es), "
            f"{s['stores']} store(s)"
        )
        if s["orphaned_tmp_removed"]:
            line += f", {s['orphaned_tmp_removed']} orphaned tmp file(s) removed"
        return line
