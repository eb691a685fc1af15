"""Result-cache correctness: hits, invalidation, corruption recovery.

The headline guarantee, asserted by ``test_warm_cache_sweep``: once a
full ``--fast`` sweep has populated the cache, repeating the sweep
executes *zero* trials — every experiment returns from disk, equal to
the originally computed result.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, run_experiment
from repro.experiments.base import ExperimentResult
from repro.parallel import CODE_VERSION, METRICS, ResultCache, cache_key
from repro.parallel.cache import FINGERPRINT_MODULES, code_fingerprint

from .test_determinism import assert_results_equal


def _boom(**_kwargs):
    raise AssertionError("experiment executed despite a warm cache")


class TestWarmCacheSweep:
    def test_second_fast_sweep_executes_nothing(self, fast_sweep, monkeypatch):
        cache = fast_sweep.cache
        assert cache.stores == len(REGISTRY)
        hits_before = cache.hits
        executed_before = METRICS.executed()
        with monkeypatch.context() as patch:
            for experiment_id in REGISTRY:
                patch.setitem(REGISTRY, experiment_id, _boom)
            for experiment_id in sorted(REGISTRY):
                replay = run_experiment(
                    experiment_id, seed=fast_sweep.seed, fast=True, cache=cache
                )
                assert_results_equal(fast_sweep.results[experiment_id], replay)
        assert METRICS.executed() == executed_before  # zero trial re-executions
        assert cache.hits == hits_before + len(REGISTRY)

    def test_cached_result_roundtrips_types(self, fast_sweep):
        replay = run_experiment(
            "figure6", seed=fast_sweep.seed, fast=True, cache=fast_sweep.cache
        )
        assert isinstance(replay, ExperimentResult)
        assert all(isinstance(row, tuple) for row in replay.rows)
        assert replay.render() == fast_sweep.results["figure6"].render()


class TestHitMissInvalidation:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiment("table6", seed=3, fast=True, cache=cache)
        assert (cache.misses, cache.stores, cache.hits) == (1, 1, 0)
        second = run_experiment("table6", seed=3, fast=True, cache=cache)
        assert cache.hits == 1
        assert_results_equal(first, second)

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table6", seed=3, fast=True, cache=cache)
        run_experiment("table6", seed=4, fast=True, cache=cache)
        assert cache.hits == 0
        assert cache.stores == 2

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table6", seed=3, fast=True, cache=cache)
        run_experiment("table6", seed=3, fast=False, cache=cache)
        assert cache.hits == 0
        assert cache.stores == 2

    def test_code_version_change_misses(self, tmp_path):
        old = ResultCache(tmp_path, code_version="v-old")
        run_experiment("table6", seed=3, fast=True, cache=old)
        new = ResultCache(tmp_path, code_version="v-new")
        run_experiment("table6", seed=3, fast=True, cache=new)
        assert new.hits == 0
        assert new.stores == 1

    def test_key_is_stable_and_content_sensitive(self):
        base = cache_key("table6", {"fast": True}, 3)
        assert base == cache_key("table6", {"fast": True}, 3)
        assert base != cache_key("table6", {"fast": False}, 3)
        assert base != cache_key("table6", {"fast": True}, 4)
        assert base != cache_key("table5", {"fast": True}, 3)
        assert base != cache_key("table6", {"fast": True}, 3, code_version="other")
        assert CODE_VERSION.startswith("repro-")

    def test_every_declared_module_resolves(self):
        # A deleted package left in the declaration must fail loudly,
        # not silently drop out of every cache key.
        assert code_fingerprint() == code_fingerprint(FINGERPRINT_MODULES)
        with pytest.raises(ValueError, match="repro.no_such_module"):
            code_fingerprint(FINGERPRINT_MODULES + ("repro.no_such_module",))

    def test_no_cache_bypass(self, tmp_path):
        # cache=None is the --no-cache path: nothing written anywhere.
        run_experiment("table6", seed=3, fast=True, cache=None)
        assert list(tmp_path.glob("*.json")) == []


def _edit_envelope(cache, field, value):
    """Set one field of table6/seed 3's envelope inside its pack."""
    path = cache.entry_path("table6", {"fast": True}, 3)
    pack = json.loads(path.read_text(encoding="utf-8"))
    pack["entries"][cache.key("table6", {"fast": True}, 3)][field] = value
    path.write_text(json.dumps(pack), encoding="utf-8")


class TestCorruptionRecovery:
    def _entry_path(self, cache):
        return cache.entry_path("table6", {"fast": True}, 3)

    def test_truncated_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        reference = run_experiment("table6", seed=3, fast=True, cache=cache)
        path = self._entry_path(cache)
        path.write_text("{not json", encoding="utf-8")
        recovered = run_experiment("table6", seed=3, fast=True, cache=cache)
        assert_results_equal(reference, recovered)
        assert cache.corrupt_entries == 1
        # The recompute rewrote a good entry: next call is a clean hit.
        run_experiment("table6", seed=3, fast=True, cache=cache)
        assert cache.hits == 1

    def test_wrong_schema_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        reference = run_experiment("table6", seed=3, fast=True, cache=cache)
        _edit_envelope(cache, "schema", 999)
        recovered = run_experiment("table6", seed=3, fast=True, cache=cache)
        assert_results_equal(reference, recovered)
        assert cache.corrupt_entries == 1

    def test_unreconstructable_payload_recomputes(self, tmp_path):
        # Valid envelope, but the payload cannot rebuild an
        # ExperimentResult: run_experiment discards and recomputes, and
        # counts the entry as a corrupt miss, not a hit.
        cache = ResultCache(tmp_path)
        reference = run_experiment("table6", seed=3, fast=True, cache=cache)
        _edit_envelope(cache, "payload", {"bogus": 1})
        recovered = run_experiment("table6", seed=3, fast=True, cache=cache)
        assert_results_equal(reference, recovered)
        assert cache.corrupt_entries == 1
        assert (cache.hits, cache.misses) == (0, 2)

    def test_renamed_entry_key_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table6", seed=3, fast=True, cache=cache)
        path = self._entry_path(cache)
        target = cache.entry_path("table6", {"fast": True}, 99)
        path.rename(target)
        # The moved file's embedded key no longer matches its name, so
        # it must not be served for seed 99.
        result = run_experiment("table6", seed=99, fast=True, cache=cache)
        assert cache.corrupt_entries == 1
        assert result.metrics  # recomputed fine


class TestCacheHousekeeping:
    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table6", seed=1, fast=True, cache=cache)
        run_experiment("table6", seed=2, fast=True, cache=cache)
        assert cache.clear() == 2
        assert list(tmp_path.glob("*.json")) == []
        stats = cache.stats()
        assert stats["stores"] == 2
        assert "2 store(s)" in cache.format_stats()

    def test_directory_created_on_demand(self, tmp_path):
        nested = tmp_path / "a" / "b"
        ResultCache(nested)
        assert nested.is_dir()

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table6", seed=1, fast=True, cache=cache)
        assert list(tmp_path.glob("*.tmp")) == []


class TestValidationThroughCachePath:
    def test_bad_jobs_rejected_before_cache_io(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigurationError):
            run_experiment("table6", seed=1, fast=True, jobs=0, cache=cache)
        assert list(tmp_path.glob("*.json")) == []
