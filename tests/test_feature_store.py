"""Feature-store tests: round-trips, corruption, schema invalidation,
concurrent writers, byte-identical warm-feature rescans and old cache layouts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import FeatureStore, ScanCache, ScanEngine, train_detector
from repro.engine.cli import main
from repro.engine.feature_store import describe_feature_tier, gc_feature_tier
from repro.engine.scan import assemble_features, extract_feature_rows, sources_from_pairs
from repro.engine.scheduler import ScanScheduler
from repro.features.pipeline import feature_schema_fingerprint
from repro.trojan import SuiteConfig, TrojanDataset
from segment_contract import QuarantineContract, SegmentContract


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def scan_batch():
    suite = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=41)
    )
    return sources_from_pairs((b.name, b.source) for b in suite.benchmarks)


def _shard_files(store: FeatureStore):
    return sorted(store.namespace_dir.glob("shards/*.npz"))


class FeatureTier:
    """The feature tier behind the shared segment-store contract tests."""

    rows_key = "n_rows"

    def __init__(self, root, scan_batch):
        self.root = root
        self.scan_batch = scan_batch
        self.keys = [src.sha256 for src in scan_batch]

    def open(self):
        return FeatureStore(self.root)

    def fill(self):
        store = self.open()
        extract_feature_rows(self.scan_batch, workers=1, store=store)
        store.flush()
        return store

    def put(self, store, key, value):
        store.put(key, value)

    def replacement(self, value):
        return tuple(arr + 1.0 for arr in value)

    def same(self, a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def compact(self, store):
        return store.compact()

    def describe(self):
        return describe_feature_tier(self.root)


@pytest.fixture
def tier(scan_batch, tmp_path):
    return FeatureTier(tmp_path / "features", scan_batch)


class TestRoundTrip:
    def test_put_flush_get_exact_arrays(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=store)
        assert not errors and len(rows) == len(scan_batch)
        assert store.flush() is not None
        reread = FeatureStore(tmp_path / "features")
        for i, src in enumerate(scan_batch):
            stored = reread.get(src.sha256)
            assert stored is not None
            for original, loaded in zip(rows[i], stored):
                assert original.dtype == loaded.dtype
                assert np.array_equal(original, loaded)

    def test_flush_without_dirty_rows_is_a_noop(self, tmp_path):
        store = FeatureStore(tmp_path / "features")
        assert store.flush() is None

    def test_extract_consults_store_before_frontend(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        warm = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=warm)
        assert not errors
        assert warm.n_hits == len(scan_batch) and warm.n_misses == 0
        assert len(rows) == len(scan_batch)

    def test_shard_bytes_are_deterministic(self, scan_batch, tmp_path):
        for name in ("a", "b"):
            store = FeatureStore(tmp_path / name)
            extract_feature_rows(scan_batch, workers=1, store=store)
            store.flush()
        files_a = _shard_files(FeatureStore(tmp_path / "a"))
        files_b = _shard_files(FeatureStore(tmp_path / "b"))
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()


class TestCorruptionQuarantine(QuarantineContract):
    def test_quarantined_rows_are_reextracted_and_repersisted(
        self, scan_batch, tmp_path
    ):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        for shard in _shard_files(store):
            shard.write_bytes(b"junk")
        healed = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=healed)
        assert not errors and len(rows) == len(scan_batch)
        healed.flush()
        final = FeatureStore(tmp_path / "features")
        assert all(final.get(src.sha256) is not None for src in scan_batch)


class TestSchemaInvalidation:
    def test_different_image_size_uses_a_disjoint_namespace(
        self, scan_batch, tmp_path
    ):
        store16 = FeatureStore(tmp_path / "features", image_size=16)
        extract_feature_rows(scan_batch, workers=1, store=store16)
        store16.flush()
        store8 = FeatureStore(tmp_path / "features", image_size=8)
        assert store8.namespace_dir != store16.namespace_dir
        assert all(store8.get(src.sha256) is None for src in scan_batch)

    def test_extraction_version_bump_invalidates(
        self, scan_batch, tmp_path, monkeypatch
    ):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        import repro.features.pipeline as pipeline

        monkeypatch.setattr(pipeline, "FEATURE_EXTRACTION_VERSION", 999)
        assert feature_schema_fingerprint() != store.schema_fingerprint
        bumped = FeatureStore(tmp_path / "features")
        assert bumped.namespace_dir != store.namespace_dir
        assert all(bumped.get(src.sha256) is None for src in scan_batch)

    def test_foreign_schema_shard_is_ignored_not_served(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        # Forge a namespace-dir collision: move the shards under a fake
        # namespace whose 16-char prefix another schema would claim.
        foreign = FeatureStore(tmp_path / "features", image_size=8)
        foreign_shards = foreign.namespace_dir / "shards"
        foreign_shards.mkdir(parents=True)
        for shard in _shard_files(store):
            (foreign_shards / shard.name).write_bytes(shard.read_bytes())
        # The embedded full fingerprint mismatches -> rows are not served.
        assert all(foreign.get(src.sha256) is None for src in scan_batch)


class TestConcurrentWriters:
    def test_two_handles_interleaved_flushes_keep_all_rows(
        self, scan_batch, tmp_path
    ):
        half = len(scan_batch) // 2
        first, second = scan_batch[:half], scan_batch[half:]
        store_a = FeatureStore(tmp_path / "features")
        store_b = FeatureStore(tmp_path / "features")
        extract_feature_rows(first, workers=1, store=store_a)
        extract_feature_rows(second, workers=1, store=store_b)
        store_a.flush()
        store_b.flush()  # a separate segment: store_a's rows stay
        merged = FeatureStore(tmp_path / "features")
        assert all(merged.get(src.sha256) is not None for src in scan_batch)

    def test_two_schedulers_share_one_store(self, detector, scan_batch, tmp_path):
        # Two schedulers (fresh fingerprints = cold result tiers) sharing
        # one feature-store root: the first pays extraction, the second
        # serves every row from the store; records are identical.
        feature_dir = tmp_path / "features"
        reports = []
        for fingerprint in ("fp-one", "fp-two"):
            with ScanScheduler(
                model=detector,
                fingerprint=fingerprint,
                cache=ScanCache(tmp_path / "cache", fingerprint),
                feature_store_dir=feature_dir,
                jobs=1,
                shard_size=4,
            ) as scheduler:
                reports.append(scheduler.scan_sources(scan_batch))
        assert reports[0].n_feature_hits == 0
        assert reports[1].n_feature_hits == len(scan_batch)
        first = [r.to_dict() for r in reports[0].records]
        second = [r.to_dict() for r in reports[1].records]
        assert first == second


class TestByteIdenticalRecords:
    def test_warm_feature_cold_model_scan_matches_no_cache_serial(
        self, detector, scan_batch, tmp_path
    ):
        # The acceptance property: a scan under a fresh fingerprint that
        # serves every feature row from the store must produce records
        # byte-identical to an uncached serial scan.
        baseline = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        seed_store = FeatureStore(tmp_path / "features")
        ScanEngine(detector, fingerprint="fp-a", feature_store=seed_store).scan_sources(
            scan_batch, workers=1
        )
        warm = ScanEngine(
            detector,
            fingerprint="fp-b",
            cache=ScanCache(tmp_path / "cache", "fp-b"),
            feature_store=FeatureStore(tmp_path / "features"),
        ).scan_sources(scan_batch, workers=1)
        assert warm.n_feature_hits == len(scan_batch)
        assert warm.n_cache_hits == 0
        expected = json.dumps([r.to_dict() for r in baseline.records], sort_keys=True)
        observed = json.dumps([r.to_dict() for r in warm.records], sort_keys=True)
        assert expected == observed

    def test_preallocated_assembly_matches_stacking(self, scan_batch):
        rows_map, errors = extract_feature_rows(scan_batch, workers=1)
        assert not errors
        rows = [rows_map[i] for i in range(len(scan_batch))]
        names = [s.name for s in scan_batch]
        batch = assemble_features(rows, names)
        assert np.array_equal(batch.tabular, np.vstack([r[0] for r in rows]))
        assert np.array_equal(batch.graph, np.vstack([r[1] for r in rows]))
        assert np.array_equal(
            batch.graph_images, np.stack([r[2] for r in rows], axis=0)
        )
        assert batch.tabular.dtype == rows[0][0].dtype
        assert batch.graph_images.dtype == rows[0][2].dtype

    def test_empty_assembly_shapes(self):
        batch = assemble_features([], [], image_size=16)
        assert batch.tabular.shape[0] == 0
        assert batch.graph_images.shape == (0, 1, 16, 16)


class TestEngineIntegration:
    def test_result_tier_takes_precedence_over_feature_tier(
        self, detector, scan_batch, tmp_path
    ):
        engine = ScanEngine(
            detector,
            fingerprint="fp-hot",
            cache=ScanCache(tmp_path / "cache", "fp-hot"),
            feature_store=FeatureStore(tmp_path / "features"),
        )
        engine.scan_sources(scan_batch, workers=1)
        again = engine.scan_sources(scan_batch, workers=1)
        assert again.n_cache_hits == len(scan_batch)
        assert again.n_feature_hits == 0  # never reached the feature tier

    def test_legacy_cache_dir_without_feature_tier_still_works(
        self, detector, scan_batch, tmp_path, capsys
    ):
        # A cache directory written by the JSON-shard result tier: v2
        # shard files under the namespace, a v1 single-file blob at the
        # root, no features/ subdir.  Those formats are no longer read,
        # so their records are recomputed, never served.  Their verdicts
        # are poisoned (p-values swapped) to show they are not read.
        baseline = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        fingerprint = "fp-legacy"
        cache_dir = tmp_path / "cache"
        poisoned = {}
        for record in baseline.records:
            data = dict(record.to_dict(), cached=False)
            decision = dict(data["decision"])
            decision["p_value_trojan_free"], decision["p_value_trojan_infected"] = (
                decision["p_value_trojan_infected"],
                decision["p_value_trojan_free"],
            )
            poisoned[record.sha256] = dict(data, decision=decision)
        old_files = {}
        shards = cache_dir / fingerprint[:16] / "shards"
        shards.mkdir(parents=True)
        for sha, data in poisoned.items():
            path = shards / f"{sha[:2]}.json"
            payload = old_files.get(path) or {
                "schema_version": 2,
                "fingerprint": fingerprint,
                "records": {},
            }
            payload["records"][sha] = data
            old_files[path] = payload
        old_files[cache_dir / f"scan_cache_{fingerprint[:16]}.json"] = {
            "schema_version": 1,
            "fingerprint": fingerprint,
            "records": poisoned,
        }
        for path, payload in old_files.items():
            path.write_text(json.dumps(payload))
        old_bytes = {path: path.read_bytes() for path in old_files}

        engine = ScanEngine(
            detector,
            fingerprint=fingerprint,
            cache=ScanCache(cache_dir, fingerprint),
            feature_store=FeatureStore(cache_dir / "features"),
        )
        report = engine.scan_sources(scan_batch, workers=1)
        assert report.n_cache_hits == 0

        def strip(records):
            return [dict(r.to_dict(), cached=None) for r in records]

        assert strip(report.records) == strip(baseline.records)
        assert main(["cache-info", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", str(cache_dir), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["result_tier"]["n_records"] == len(scan_batch)  # fresh segments only
        assert {path: path.read_bytes() for path in old_files} == old_bytes

    def test_feature_store_flush_deferred_with_flush_cache_false(
        self, detector, scan_batch, tmp_path
    ):
        store = FeatureStore(tmp_path / "features")
        engine = ScanEngine(detector, feature_store=store)
        engine.scan_sources(scan_batch, workers=1, flush_cache=False)
        assert not _shard_files(store)  # nothing on disk yet
        store.flush()
        assert _shard_files(store)


class TestDescribe:
    def test_describe_feature_tier_counts_rows(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        info = describe_feature_tier(tmp_path / "features")
        assert info["n_rows"] == len(scan_batch)
        assert len(info["namespaces"]) == 1
        assert info["namespaces"][0]["schema"] == store.schema_fingerprint[:16]
        assert info["bytes"] > 0

    def test_describe_missing_dir_is_empty(self, tmp_path):
        info = describe_feature_tier(tmp_path / "nope")
        assert info["n_rows"] == 0 and info["namespaces"] == []


class TestAppendOnlySegments(SegmentContract):
    """Flush appends segments; compaction folds them into base shards."""


class TestGcFeatureTier:
    def test_gc_removes_retired_namespaces_and_folds_segments(
        self, scan_batch, tmp_path
    ):
        directory = tmp_path / "features"
        store = FeatureStore(directory)
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        retired = directory / "feedfacefeedface"
        (retired / "shards").mkdir(parents=True)
        (retired / "shards" / "old.npz").write_bytes(b"y" * 256)
        summary = gc_feature_tier(directory)
        assert summary["current_schema"] == store.namespace_dir.name
        assert summary["n_segments_folded"] >= 1
        assert summary["retired_namespaces_removed"] == ["feedfacefeedface"]
        assert summary["bytes_reclaimed"] >= 256
        assert not retired.exists()
        # The surviving namespace still serves every row.
        reread = FeatureStore(directory)
        for src in scan_batch:
            assert reread.get(src.sha256) is not None

    def test_gc_on_empty_directory(self, tmp_path):
        summary = gc_feature_tier(tmp_path / "nothing")
        assert summary["n_segments_folded"] == 0
        assert summary["retired_namespaces_removed"] == []
        assert summary["bytes_reclaimed"] == 0
