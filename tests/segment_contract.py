"""Segment-store behaviour shared by both cache tiers.

The result tier (:class:`repro.engine.cache.ScanCache`) and the feature
tier (:class:`repro.engine.feature_store.FeatureStore`) sit on one
append-only segment store.  The contract classes below hold each test
body once; every test module subclasses them and defines a ``tier``
fixture returning an adapter with this interface:

* ``keys`` — the content hashes :meth:`fill` stores;
* ``open()`` — a fresh store handle on the tier root;
* ``fill()`` — a handle with every key put and flushed;
* ``put(store, key, value)`` / ``replacement(value)`` / ``same(a, b)``;
* ``compact(store)`` — fold the namespace's segments, return the count;
* ``describe()`` — the tier's ``cache-info`` description, whose row total
  sits under ``rows_key``.
"""

from __future__ import annotations

import pytest

from repro.engine.cache import PREFIX_LEN, SEGMENT_COMPACT_THRESHOLD, SEGMENT_SUFFIX


def store_files(store):
    """Every segment and base shard file of a store's namespace."""
    return sorted(store.namespace_dir.glob("shards/*.npz"))


def segment_files(store):
    """Only the append-only segment files of a store's namespace."""
    return sorted(store.namespace_dir.glob(f"shards/*{SEGMENT_SUFFIX}"))


def _unsupported_compression(raw: bytes) -> bytes:
    """Set the first central-directory entry's compression method to 99."""
    damaged = bytearray(raw)
    entry = damaged.index(b"PK\x01\x02")
    damaged[entry + 10 : entry + 12] = (99).to_bytes(2, "little")
    return bytes(damaged)


def _zero_bytes(raw: bytes) -> bytes:
    """An empty file (a writer died between create and write)."""
    return b""


class SegmentContract:
    """Flush appends numbered segments; compaction folds them into base shards."""

    def test_flush_writes_numbered_segments_not_base_shards(self, tier):
        store = tier.fill()
        segments = segment_files(store)
        assert segments, "flush should write append-only segment files"
        assert store_files(store) == segments  # no base shard before compaction
        for path in segments:
            # <prefix>.<seq:08d>.seg.npz
            seq = path.name[: -len(SEGMENT_SUFFIX)].rsplit(".", 1)[1]
            assert len(seq) == 8 and seq.isdigit()

    def test_merge_on_read_newest_segment_wins(self, tier):
        store = tier.fill()
        key = tier.keys[0]
        # Re-put the same hash with a different value: the second flush
        # writes a newer segment that must shadow the first on re-read.
        replacement = tier.replacement(store.get(key))
        tier.put(store, key, replacement)
        store.flush()
        assert tier.same(tier.open().get(key), replacement)

    def test_compact_folds_segments_and_preserves_rows(self, tier):
        store = tier.fill()
        key = tier.keys[0]
        tier.put(store, key, store.get(key))
        store.flush()
        compacting = tier.open()
        assert tier.compact(compacting) >= 2
        assert not segment_files(compacting)
        reread = tier.open()
        for key in tier.keys:
            assert reread.get(key) is not None

    def test_flush_auto_compacts_at_threshold(self, tier):
        store = tier.fill()
        key = tier.keys[0]
        value = store.get(key)
        for _ in range(SEGMENT_COMPACT_THRESHOLD):
            tier.put(store, key, value)
            store.flush()
        # The threshold-th flush triggers an inline fold: no segment
        # backlog survives unbounded growth.
        prefix = f"{key[:PREFIX_LEN]}."
        prefix_segments = [p for p in segment_files(store) if p.name.startswith(prefix)]
        assert len(prefix_segments) < SEGMENT_COMPACT_THRESHOLD
        assert tier.same(tier.open().get(key), value)

    def test_describe_reports_segment_counts(self, tier):
        tier.fill()
        info = tier.describe()
        assert info["namespaces"][0]["n_segments"] >= 1
        assert info[tier.rows_key] == len(tier.keys)
        tier.compact(tier.open())
        info = tier.describe()
        assert info["namespaces"][0]["n_segments"] == 0
        assert info[tier.rows_key] == len(tier.keys)


class QuarantineContract:
    """Damaged store files are quarantined as ``*.corrupt``, never fatal."""

    def test_truncated_shard_is_quarantined_not_fatal(self, tier):
        store = tier.fill()
        victim = store_files(store)[0]
        victim.write_bytes(victim.read_bytes()[:40])
        reread = tier.open()
        # Rows in the corrupt file are simply misses; nothing raises.
        results = [reread.get(key) for key in tier.keys]
        assert any(r is None for r in results)
        assert victim.with_name(victim.name + ".corrupt").is_file()
        assert not victim.is_file()

    def test_non_npz_garbage_is_quarantined(self, tier):
        store = tier.fill()
        for path in store_files(store):
            path.write_text("this is not a zip archive")
        reread = tier.open()
        assert all(reread.get(key) is None for key in tier.keys)
        assert list(reread.namespace_dir.glob("shards/*.corrupt"))

    @pytest.mark.parametrize(
        "damage",
        [_unsupported_compression, _zero_bytes],
        ids=["unsupported-compression", "zero-byte"],
    )
    def test_damaged_archive_is_quarantined_not_fatal(self, tier, damage):
        store = tier.fill()
        victim = store_files(store)[0]
        victim.write_bytes(damage(victim.read_bytes()))
        # cache-info counts rows without raising and without moving files.
        assert tier.describe()[tier.rows_key] <= len(tier.keys)
        assert victim.is_file()
        reread = tier.open()
        results = [reread.get(key) for key in tier.keys]
        assert any(r is None for r in results)
        assert victim.with_name(victim.name + ".corrupt").is_file()
        assert not victim.is_file()
