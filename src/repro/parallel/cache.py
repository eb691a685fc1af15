"""Content-keyed on-disk cache for experiment results.

Entries are named by a SHA-256 over the *content key*: the experiment
id, the canonicalized config dict, the seed, and a code-version tag.
Any change to any component produces a different key, so stale results
are never served — they are simply orphaned on disk.  The cache stores
plain JSON payloads (the experiment layer converts
:class:`~repro.experiments.base.ExperimentResult` to/from dicts), which
keeps this module free of upward dependencies.

On disk, every ``put`` lands in a *pack*: one JSON file
``{"schema": 2, "entries": {key: envelope, ...}}`` hard-linked under
each of its keys' ``<key>.json`` names.  A lone ``put`` writes a pack
of one; inside a :meth:`ResultCache.batch` scope the puts are buffered
and written ``_PACK_ENTRIES`` at a time, so a cold sweep creates one
inode per batch instead of one per spec (creating the inode, not
writing or linking it, is what a store costs).  Every name still means
one key: lookups, discards, corrupt-entry deletion and the key-mismatch
check act on the name, and a pack-mate stays readable through its own.

Robustness rules:

- writes are atomic: the pack is written under a per-process unique
  temp name (``tempfile.mkstemp`` in the cache directory) before any
  key names it, and an existing name is replaced by linking the pack to
  a unique ``*.tmp`` name and ``os.replace``-ing it over, so a crashed
  run never leaves a half-written entry under a valid name and
  *concurrent writers of the same key can never interleave*: the last
  rename wins whole;
- unreadable, truncated, or schema-mismatched entries count as misses:
  the name is deleted and the caller recomputes instead of crashing;
  a name that vanishes before it is read (a concurrent discard) is a
  plain miss;
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
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from .. import __version__

__all__ = [
    "CODE_VERSION",
    "FINGERPRINT_MODULES",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
]

#: Every module/package whose source participates in the code-version
#: fingerprint: the call closure of every worker, entry or trial, as
#: certified by ``repro-check`` (RPL403 fails the flow tier if a module
#: a worker can execute is missing here).  Naming a package covers its
#: whole subtree plus every ancestor ``__init__``.
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
    nothing contribute nothing — RPL403, not this function, is what
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

#: On-disk layout version of packs and their envelopes (distinct from
#: the code tag: this guards the *file format*, the tag guards the
#: *computed content*).  Version 1 was one bare envelope per file.
_SCHEMA_VERSION = 2

#: Entries per pack in a :meth:`ResultCache.batch` scope.  Not an
#: option: it bounds how much a lookup reads, since a ``get`` reads its
#: key's whole pack.
_PACK_ENTRIES = 64


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
        # Envelope JSON by key while a batch() scope is open, else None.
        self._pending: Optional[Dict[str, str]] = None
        # The last pack read: its bytes and the entries not yet served.
        self._last_pack: Tuple[bytes, Dict[str, Any]] = (b"", {})
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

        A corrupt entry (unparsable pack, wrong schema, or a key
        mismatch from a renamed file) has its name deleted so the
        caller's recompute will store a good copy; its pack-mates keep
        their own names.
        """
        key = self.key(experiment_id, config, seed)
        path = self.directory / f"{key}.json"
        try:
            envelope = self._envelope(key, path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            self.corrupt_entries += 1
            self.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.hits += 1
        return envelope["payload"]

    def _envelope(self, key: str, data: bytes) -> Dict[str, Any]:
        """``key``'s envelope in the pack ``data``; ``ValueError`` if bad.

        The last pack parsed is remembered by its bytes, never by inode
        (a pack rewritten in place must be parsed afresh), so a warm
        sweep parses each pack once.  A served entry leaves the memo:
        no two lookups share one payload dict.
        """
        memo_data, entries = self._last_pack
        if data != memo_data or key not in entries:
            pack = json.loads(data)
            if (
                not isinstance(pack, dict)
                or pack.get("schema") != _SCHEMA_VERSION
                or not isinstance(pack.get("entries"), dict)
            ):
                raise ValueError("bad cache pack")
            entries = pack["entries"]
            self._last_pack = (data, entries)
        envelope = entries.pop(key, None)
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != _SCHEMA_VERSION
            or envelope.get("key") != key
            or not isinstance(envelope.get("payload"), dict)
        ):
            raise ValueError("bad cache envelope")
        return envelope

    def put(
        self,
        experiment_id: str,
        config: Mapping[str, Any],
        seed: int,
        payload: Mapping[str, Any],
    ) -> Path:
        """Store ``payload`` for the given content key.

        Outside a :meth:`batch` scope the entry is written, atomically,
        before this returns; inside one it is buffered and written with
        its pack.  The envelope is serialized here either way, so a
        payload JSON cannot encode fails the put that offered it.
        """
        key = self.key(experiment_id, config, seed)
        path = self.directory / f"{key}.json"
        text = json.dumps(
            {
                "schema": _SCHEMA_VERSION,
                "key": key,
                "experiment_id": experiment_id,
                "seed": seed,
                "config": dict(config),
                "code_version": self.code_version,
                "payload": dict(payload),
            },
            sort_keys=True,
        )
        self._store(key, text)
        return path

    def _store(self, key: str, text: str) -> None:
        """Write one envelope now, or buffer it in the open batch."""
        if self._pending is None:
            self._write_pack({key: text})
            return
        self._pending[key] = text
        if len(self._pending) >= _PACK_ENTRIES:
            pending, self._pending = self._pending, {}
            self._write_pack(pending)

    @contextmanager
    def batch(self) -> Iterator["ResultCache"]:
        """Buffer this scope's puts into packs of ``_PACK_ENTRIES``.

        Each full pack is written as it fills and the rest on exit,
        also on exit by an exception, so a sweep that aborts keeps what
        it stored.  A buffered put is not visible to :meth:`get`,
        :meth:`discard` or :meth:`clear` until its pack is written.  A
        nested scope joins the enclosing one.
        """
        if self._pending is not None:
            yield self
            return
        self._pending = {}
        try:
            yield self
        finally:
            pending, self._pending = self._pending, None
            if pending:
                self._write_pack(pending)

    def _write_pack(self, entries: Mapping[str, str]) -> None:
        """Write ``key -> envelope JSON`` as one pack file and link it
        under every key's name: one new inode however many entries.

        The pack is complete under its temp name before any key names
        it.  A name that already exists is replaced whole: the pack is
        linked to a private ``*.tmp`` name that ``os.replace`` moves
        over it, so the last writer of a key wins.
        """
        keys = sorted(entries)
        body = ", ".join(f'"{key}": {entries[key]}' for key in keys)
        fd, pack_name = tempfile.mkstemp(
            dir=str(self.directory), prefix="pack-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # The text json.dumps(..., sort_keys=True) would give.
                handle.write(
                    f'{{"entries": {{{body}}}, "schema": {_SCHEMA_VERSION}}}'
                )
            for number, key in enumerate(keys):
                path = self.directory / f"{key}.json"
                try:
                    os.link(pack_name, path)
                except FileExistsError:
                    # mkstemp names hold no "-" after the prefix, so
                    # this name is ours alone.
                    link_name = f"{pack_name[:-4]}-{number}.tmp"
                    os.link(pack_name, link_name)
                    os.replace(link_name, path)
        finally:
            try:
                os.unlink(pack_name)
            except OSError:
                pass
        self.stores += len(keys)

    def discard(
        self, experiment_id: str, config: Mapping[str, Any], seed: int
    ) -> bool:
        """Remove one entry (returns whether a file was deleted).  Its
        pack-mates stay readable under their own names."""
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
