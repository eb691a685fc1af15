"""The result cache's pack layout: one file per batch, one name per key.

A ``batch()`` scope writes its puts as packs of up to ``_PACK_ENTRIES``
entries, each pack one file hard-linked under every key's name.  These
tests pin what the layout must keep: hits and discards act on one
key's name and leave its pack-mates readable; the scope writes
what it holds as each pack fills and also when it exits by an
exception; a name removed between lookup and read is a plain miss, not
a corrupt entry; and a warm read parses each pack once, recognising it
by content, not by inode.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.parallel import ResultCache
from repro.parallel.cache import _PACK_ENTRIES


def _put(cache, number, value=None):
    payload = {"value": number if value is None else value}
    cache.put("packs", {"n": number}, number, payload)


def _get(cache, number):
    return cache.get("packs", {"n": number}, number)


def _inodes(directory):
    return {path.stat().st_ino for path in Path(directory).glob("*.json")}


class TestPackWrites:
    def test_batch_writes_one_file_per_pack(self, tmp_path):
        cache = ResultCache(tmp_path)
        count = _PACK_ENTRIES + 3
        with cache.batch():
            for number in range(count):
                _put(cache, number)
        assert len(list(tmp_path.glob("*.json"))) == count
        assert len(_inodes(tmp_path)) == 2
        assert cache.stores == count
        assert list(tmp_path.glob("*.tmp")) == []
        assert all(_get(cache, n) == {"value": n} for n in range(count))

    def test_a_full_pack_is_written_before_the_scope_ends(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            for number in range(_PACK_ENTRIES):
                _put(cache, number)
            assert cache.stores == _PACK_ENTRIES
            assert len(_inodes(tmp_path)) == 1
            _put(cache, _PACK_ENTRIES)
            assert cache.stores == _PACK_ENTRIES
        assert cache.stores == _PACK_ENTRIES + 1

    def test_exit_by_exception_writes_what_was_buffered(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            with cache.batch():
                _put(cache, 1)
                raise RuntimeError("abort")
        assert cache.stores == 1
        assert _get(ResultCache(tmp_path), 1) == {"value": 1}

    def test_buffered_puts_are_read_once_their_pack_is_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            _put(cache, 1)
            assert _get(cache, 1) is None
        assert _get(cache, 1) == {"value": 1}

    def test_nested_scope_joins_the_outer_one(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            _put(cache, 1)
            with cache.batch():
                _put(cache, 2)
            assert cache.stores == 0
        assert cache.stores == 2
        assert len(_inodes(tmp_path)) == 1

    def test_rewriting_a_key_replaces_only_its_name(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            _put(cache, 1)
            _put(cache, 2)
        _put(cache, 1, value="new")
        assert _get(cache, 1) == {"value": "new"}
        assert _get(cache, 2) == {"value": 2}
        assert len(_inodes(tmp_path)) == 2
        assert list(tmp_path.glob("*.tmp")) == []

    def test_pack_text_is_sorted_key_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            for number in (3, 1, 2):
                _put(cache, number)
        text = next(tmp_path.glob("*.json")).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True)


class TestPackReads:
    def test_discard_leaves_pack_mates_readable(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            for number in range(3):
                _put(cache, number)
        assert cache.discard("packs", {"n": 1}, 1)
        assert _get(cache, 1) is None
        assert _get(cache, 0) == {"value": 0}
        assert _get(cache, 2) == {"value": 2}
        assert cache.corrupt_entries == 0

    def test_entry_removed_between_lookup_and_read_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        _put(cache, 1)
        path = cache.entry_path("packs", {"n": 1}, 1)

        def vanishing(read):
            def wrapped(self, *args, **kwargs):
                if self == path:  # a concurrent discard wins the race
                    self.unlink(missing_ok=True)
                return read(self, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(Path, "read_bytes", vanishing(Path.read_bytes))
        monkeypatch.setattr(Path, "read_text", vanishing(Path.read_text))
        assert _get(cache, 1) is None
        assert (cache.hits, cache.misses, cache.corrupt_entries) == (0, 1, 0)

    def test_warm_reads_parse_each_pack_once(self, tmp_path, monkeypatch):
        count = _PACK_ENTRIES + 3
        writer = ResultCache(tmp_path)
        with writer.batch():
            for number in range(count):
                _put(writer, number)
        cache = ResultCache(tmp_path)
        parses = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            parses.append(1)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert all(_get(cache, n) == {"value": n} for n in range(count))
        assert len(parses) == 2

    def test_lookups_never_share_a_payload(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            _put(cache, 1)
            _put(cache, 2)
        first = _get(cache, 1)
        again = _get(cache, 1)
        assert first == again == {"value": 1}
        assert first is not again

    def test_a_pack_rewritten_in_place_is_read_afresh(self, tmp_path):
        # Same inode, new content: the memo must follow the bytes.
        cache = ResultCache(tmp_path)
        with cache.batch():
            _put(cache, 1)
            _put(cache, 2)
        assert _get(cache, 1) == {"value": 1}
        path = cache.entry_path("packs", {"n": 2}, 2)
        inode = path.stat().st_ino
        pack = json.loads(path.read_text(encoding="utf-8"))
        pack["entries"][path.stem]["payload"] = {"value": "edited"}
        path.write_text(json.dumps(pack, sort_keys=True), encoding="utf-8")
        assert path.stat().st_ino == inode
        assert _get(cache, 2) == {"value": "edited"}
