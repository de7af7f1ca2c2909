"""Model registry tests: load-once, hot reload, fingerprint cache namespacing."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import recalibrate_detector, save_detector, train_detector
from repro.serve.registry import ModelRegistry
from repro.trojan import SuiteConfig, TrojanDataset
from repro.features import extract_modalities


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture()
def artifact(detector, tmp_path):
    return save_detector(detector, tmp_path / "artifact")


def _bump_mtime(artifact) -> None:
    """Force a visibly newer manifest mtime (coarse-mtime filesystems)."""
    manifest = artifact / "manifest.json"
    stat = os.stat(manifest)
    os.utime(manifest, (stat.st_atime + 10, stat.st_mtime + 10))


class TestLoadOnce:
    def test_get_loads_once_and_caches(self, artifact):
        registry = ModelRegistry()
        first = registry.get(artifact)
        second = registry.get(artifact)
        assert first is second
        assert first.engine is second.engine
        assert len(registry.entries()) == 1

    def test_missing_artifact_fails_fast(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(Exception):
            registry.get(tmp_path / "nope")

    def test_cache_is_namespaced_by_fingerprint(self, artifact, tmp_path):
        registry = ModelRegistry(cache_dir=tmp_path / "cache")
        entry = registry.get(artifact)
        assert entry.engine.cache is not None
        assert entry.engine.cache.fingerprint == entry.fingerprint

    def test_no_cache_dir_serves_uncached(self, artifact):
        entry = ModelRegistry().get(artifact)
        assert entry.engine.cache is None


class TestHotReload:
    def test_unchanged_artifact_is_not_reloaded(self, artifact):
        registry = ModelRegistry()
        entry = registry.get(artifact)
        same, reloaded = registry.maybe_reload(artifact)
        assert not reloaded
        assert same is entry

    def test_changed_fingerprint_hot_reloads(self, artifact, detector):
        # ttl=0 probes the manifest every time (this test exercises the
        # fingerprint-compare path, not the TTL short-circuit).
        registry = ModelRegistry(reload_ttl_s=0.0)
        before = registry.get(artifact)
        # Recalibrate on different data => new calibration arrays => new
        # fingerprint written into the same artifact directory.
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=77)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        _bump_mtime(artifact)
        after, reloaded = registry.maybe_reload(artifact)
        assert reloaded
        assert after.fingerprint != before.fingerprint
        assert after.engine is not before.engine

    def test_same_content_rewrite_keeps_resident_engine(self, artifact, detector):
        registry = ModelRegistry()
        before = registry.get(artifact)
        save_detector(detector, artifact)  # identical content, new mtime
        _bump_mtime(artifact)
        after, reloaded = registry.maybe_reload(artifact)
        assert not reloaded
        assert after is before
        # The probe must not keep re-reading the detector once the mtime
        # is re-remembered.
        again, reloaded_again = registry.maybe_reload(artifact)
        assert not reloaded_again and again is before

    def test_vanished_manifest_keeps_serving_resident_model(self, artifact):
        registry = ModelRegistry()
        entry = registry.get(artifact)
        (artifact / "manifest.json").unlink()
        same, reloaded = registry.maybe_reload(artifact)
        assert not reloaded and same is entry

    def test_forced_reload_skips_mtime_short_circuit(self, artifact, detector):
        registry = ModelRegistry()
        before = registry.get(artifact)
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=78)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        # Pin the mtime back so only the forced path can notice the change.
        os.utime(artifact / "manifest.json", (before.manifest_mtime, before.manifest_mtime))
        unchanged, reloaded = registry.maybe_reload(artifact)
        assert not reloaded and unchanged is before
        after, forced = registry.reload(artifact)
        assert forced
        assert after.fingerprint != before.fingerprint

    def test_reloaded_out_engine_cache_flushes_with_the_next_flush(
        self, artifact, detector, tmp_path
    ):
        from repro.engine.scan import ScanSource

        registry = ModelRegistry(cache_dir=tmp_path / "cache", reload_ttl_s=0.0)
        entry = registry.get(artifact)
        entry.engine.scan_sources(
            [ScanSource(name="x", source="module x (a); input a; endmodule")],
            workers=1,
            flush_cache=False,
        )
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=79)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        _bump_mtime(artifact)
        _, reloaded = registry.maybe_reload(artifact)
        assert reloaded
        # The swap itself must not flush (the batch worker may still be
        # scanning on the outgoing engine); the next flush_caches() —
        # which the serving layer only runs from the batch worker —
        # persists the retired engine's records exactly once.
        shards_dir = tmp_path / "cache" / entry.fingerprint[:16] / "shards"
        assert not shards_dir.is_dir()
        registry.flush_caches()
        assert shards_dir.is_dir() and any(shards_dir.glob("*.seg.npz"))
        assert registry._retired == []


class TestReloadTTL:
    """The manifest-mtime stat probe is rate-limited by ``reload_ttl_s``."""

    def test_probe_within_ttl_skips_the_stat(self, artifact, monkeypatch):
        registry = ModelRegistry(reload_ttl_s=60.0)
        registry.get(artifact)
        calls = {"n": 0}
        original = ModelRegistry._manifest_mtime

        def counting(self, path):
            calls["n"] += 1
            return original(self, path)

        monkeypatch.setattr(ModelRegistry, "_manifest_mtime", counting)
        for _ in range(500):
            _, reloaded = registry.maybe_reload(artifact)
            assert not reloaded
        assert calls["n"] == 0  # every probe rode the TTL, zero stats

    def test_reload_latency_stays_bounded_by_the_ttl(self, artifact, detector):
        import time

        ttl = 0.05
        registry = ModelRegistry(reload_ttl_s=ttl)
        before = registry.get(artifact)
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=83)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        _bump_mtime(artifact)
        # Keep probing the way the batch worker does; the swap must land
        # within a couple of TTL windows, not eventually.
        deadline = time.monotonic() + 20 * ttl
        reloaded = False
        while time.monotonic() < deadline and not reloaded:
            _, reloaded = registry.maybe_reload(artifact)
            if not reloaded:
                time.sleep(ttl / 5)
        assert reloaded
        after = registry.get(artifact)
        assert after.fingerprint != before.fingerprint

    def test_forced_reload_bypasses_the_ttl(self, artifact, detector):
        registry = ModelRegistry(reload_ttl_s=3600.0)
        before = registry.get(artifact)
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=84)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        after, forced = registry.reload(artifact)
        assert forced and after.fingerprint != before.fingerprint


class TestPerModelTTL:
    """Regression: the probe TTL is per model, not a registry-global clock.

    A global timestamp lets one frequently-probed tenant perpetually
    refresh the window and starve every other model's staleness probes —
    a recalibrated challenger would never be noticed while the champion
    takes all the traffic.
    """

    def test_hot_tenant_probes_do_not_starve_other_models(
        self, detector, tmp_path, monkeypatch
    ):
        art_a = save_detector(detector, tmp_path / "a")
        art_b = save_detector(detector, tmp_path / "b")
        registry = ModelRegistry(reload_ttl_s=60.0)
        registry.get(art_a)
        entry_b = registry.get(art_b)
        # Expire B's window only; A's (stamped at load) stays fresh.
        entry_b.last_probe = 0.0
        calls = {}
        original = ModelRegistry._manifest_mtime

        def counting(self, path):
            calls[path.name] = calls.get(path.name, 0) + 1
            return original(self, path)

        monkeypatch.setattr(ModelRegistry, "_manifest_mtime", counting)
        for _ in range(200):
            _, reloaded = registry.maybe_reload(art_a)  # hot tenant
            assert not reloaded
        registry.maybe_reload(art_b)
        # A rode its TTL every time; B's due probe ran despite A's
        # traffic.  A global clock cannot produce this asymmetry: it
        # would either stat A 200 times or skip B entirely.
        assert calls == {"b": 1}

    def test_fresh_probe_of_one_model_does_not_reset_anothers_window(
        self, detector, tmp_path
    ):
        import time

        ttl = 0.2
        art_a = save_detector(detector, tmp_path / "a")
        art_b = save_detector(detector, tmp_path / "b")
        registry = ModelRegistry(reload_ttl_s=ttl)
        registry.get(art_a)
        before_b = registry.get(art_b)
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=87)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, art_b)
        _bump_mtime(art_b)
        time.sleep(ttl * 1.5)  # both windows expired
        # A's probe stats, finds nothing, and restamps only A's clock.
        _, reloaded_a = registry.maybe_reload(art_a)
        assert not reloaded_a
        # With a global clock, A's restamp just now would swallow this
        # probe; the per-model clock lets B notice its change immediately.
        after_b, reloaded_b = registry.maybe_reload(art_b)
        assert reloaded_b
        assert after_b.fingerprint != before_b.fingerprint

    def test_slow_load_of_one_model_does_not_block_another(
        self, detector, tmp_path, monkeypatch
    ):
        import threading
        import time

        import repro.serve.registry as registry_module

        art_a = save_detector(detector, tmp_path / "a")
        art_b = save_detector(detector, tmp_path / "b")
        registry = ModelRegistry()
        original = registry_module.load_detector
        release = threading.Event()

        def gated(path, *args, **kwargs):
            if Path(path).name == "a":
                release.wait(10.0)  # a slow deserialize of tenant A
            return original(path, *args, **kwargs)

        monkeypatch.setattr(registry_module, "load_detector", gated)
        slow = threading.Thread(target=registry.get, args=(art_a,))
        slow.start()
        try:
            t_start = time.monotonic()
            entry_b = registry.get(art_b)  # must not queue behind A's load
            elapsed = time.monotonic() - t_start
            assert entry_b.fingerprint
            assert elapsed < 5.0, f"get(b) blocked {elapsed:.1f}s behind get(a)"
        finally:
            release.set()
            slow.join(timeout=10.0)
        assert not slow.is_alive()
        assert len(registry.entries()) == 2


class TestFeatureTierAcrossReload:
    def test_hot_reload_keeps_the_feature_store_warm(
        self, artifact, detector, tmp_path
    ):
        from repro.engine.scan import sources_from_pairs

        registry = ModelRegistry(cache_dir=tmp_path / "cache", reload_ttl_s=0.0)
        before = registry.get(artifact)
        assert registry.feature_store is not None
        assert before.engine.feature_store is registry.feature_store
        batch = sources_from_pairs(
            (b.name, b.source)
            for b in TrojanDataset.generate(
                SuiteConfig(n_trojan_free=4, n_trojan_infected=2, seed=85)
            ).benchmarks
        )
        first = before.engine.scan_sources(batch, workers=1, flush_cache=False)
        assert first.n_feature_hits == 0
        fresh = extract_modalities(
            TrojanDataset.generate(
                SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=86)
            )
        )
        recalibrate_detector(detector, fresh)
        save_detector(detector, artifact)
        _bump_mtime(artifact)
        after, reloaded = registry.maybe_reload(artifact)
        assert reloaded
        # The swapped-in engine shares the registry's store, so the
        # post-reload rescan pays only the forward pass: every design is a
        # feature hit even though its result namespace is brand new.
        assert after.engine.feature_store is registry.feature_store
        second = after.engine.scan_sources(batch, workers=1, flush_cache=False)
        assert second.n_cache_hits == 0
        assert second.n_feature_hits == len(batch)

    def test_feature_cache_flag_disables_the_tier(self, artifact, tmp_path):
        registry = ModelRegistry(cache_dir=tmp_path / "cache", feature_cache=False)
        assert registry.feature_store is None
        assert registry.get(artifact).engine.feature_store is None
