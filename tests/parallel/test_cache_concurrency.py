"""Concurrency and crash-recovery tests for the on-disk result cache.

The seed implementation derived every writer's temp file name from the
entry key, so two processes storing the same key interleaved into one
half-written file.  A store now writes a whole pack under a
per-process ``mkstemp`` name and publishes each key by linking it in
(``os.replace`` over an existing name); these tests hammer one directory
from several processes, some storing one entry per put and some in
batched packs, and assert the invariant this buys: every surviving entry
is a whole, valid envelope and no temp debris is left behind.  Orphan
handling (crashed writers' ``*.tmp`` files, packs and links) is pinned
separately.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from contextlib import nullcontext

from repro.parallel import ResultCache

WRITERS = 4
ROUNDS = 25
SHARED_KEYS = 3  # all writers fight over the same few keys


def _hammer(directory: str, batched: bool) -> None:
    """One writer process: interleaved put/get over the shared keys.

    A ``batched`` writer stores each round's keys as one pack from a
    ``batch()`` scope and reads them back after it.  Exits non-zero if
    it ever reads a corrupt entry, which the parent turns into a test
    failure.
    """
    cache = ResultCache(directory)
    pid = os.getpid()
    for round_number in range(ROUNDS):
        with cache.batch() if batched else nullcontext():
            for key_number in range(SHARED_KEYS):
                cache.put(
                    "concurrency",
                    {"slot": key_number},
                    key_number,
                    {"writer": pid, "round": round_number},
                )
                if not batched:
                    _check(cache, key_number)
        if batched:
            for key_number in range(SHARED_KEYS):
                _check(cache, key_number)
    # Atomic replacement means a reader never sees a torn file.
    if cache.corrupt_entries:
        os._exit(3)
    os._exit(0)


def _check(cache: ResultCache, key_number: int) -> None:
    payload = cache.get("concurrency", {"slot": key_number}, key_number)
    if payload is not None and "writer" not in payload:
        os._exit(2)


class TestConcurrentWriters:
    def test_hammering_leaves_no_corruption_and_no_tmp_debris(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer, args=(str(directory), number % 2 == 1))
            for number in range(WRITERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0] * WRITERS

        assert list(directory.glob("*.tmp")) == []
        entries = sorted(directory.glob("*.json"))
        assert len(entries) == SHARED_KEYS
        for entry in entries:
            pack = json.loads(entry.read_text(encoding="utf-8"))
            assert pack["schema"] == 2
            envelope = pack["entries"][entry.stem]
            assert envelope["key"] == entry.stem
            assert envelope["experiment_id"] == "concurrency"
            assert "writer" in envelope["payload"]

    def test_last_write_wins_whole(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", {}, 0, {"version": 1})
        cache.put("exp", {}, 0, {"version": 2})
        assert cache.get("exp", {}, 0) == {"version": 2}
        assert list(tmp_path.glob("*.tmp")) == []


class TestOrphanSweep:
    def test_startup_sweep_removes_stale_tmp(self, tmp_path):
        stale = tmp_path / "deadbeef-abc123.tmp"
        stale.write_text("{truncated", encoding="utf-8")
        old = stale.stat().st_mtime - 3600
        os.utime(stale, (old, old))

        cache = ResultCache(tmp_path, tmp_ttl_seconds=300.0)
        assert not stale.exists()
        assert cache.orphaned_tmp_removed == 1
        assert cache.stats()["orphaned_tmp_removed"] == 1
        assert "1 orphaned tmp file(s) removed" in cache.format_stats()

    def test_startup_sweep_removes_stale_pack_and_link_tmp(self, tmp_path):
        # A writer that died mid-store leaves its pack's temp name and
        # possibly a private link made to replace an existing entry.
        pack = tmp_path / "pack-abcd1234.tmp"
        pack.write_text('{"entries": {}, "schema": 2}', encoding="utf-8")
        os.link(pack, tmp_path / "pack-abcd1234-0.tmp")
        entry = tmp_path / f"{'0' * 64}.json"
        os.link(pack, entry)
        old = pack.stat().st_mtime - 3600
        os.utime(pack, (old, old))  # links share the inode's mtime

        cache = ResultCache(tmp_path, tmp_ttl_seconds=300.0)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.orphaned_tmp_removed == 2
        assert entry.exists(), "a published name is an entry, not debris"

    def test_startup_sweep_spares_fresh_tmp(self, tmp_path):
        fresh = tmp_path / "deadbeef-abc123.tmp"
        fresh.write_text("{in-flight", encoding="utf-8")

        cache = ResultCache(tmp_path, tmp_ttl_seconds=300.0)
        assert fresh.exists(), "a live writer's temp file must survive"
        assert cache.orphaned_tmp_removed == 0

    def test_clear_removes_tmp_regardless_of_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", {}, 0, {"v": 1})
        fresh = tmp_path / "deadbeef-abc123.tmp"
        fresh.write_text("{in-flight", encoding="utf-8")

        removed = cache.clear()
        assert removed == 1  # entry count only, matching the seed contract
        assert not fresh.exists()
        assert cache.orphaned_tmp_removed == 1
        assert list(tmp_path.glob("*.json")) == []

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)

        class Unserializable:
            pass

        try:
            cache.put("exp", {}, 0, {"bad": Unserializable()})
        except TypeError:
            pass
        else:  # pragma: no cover - json must reject this payload
            raise AssertionError("expected json serialization to fail")
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.json")) == []
