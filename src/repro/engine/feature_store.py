"""Model-independent feature cache: extracted modalities keyed by content hash.

The scan pipeline is two-stage: expensive per-design feature extraction
(HDL lex/parse, graph construction, adjacency-image rendering — all pure
Python) followed by a cheap batched CNN forward pass + ``searchsorted``
conformal p-values.  The result cache (:mod:`repro.engine.cache`) sits
*above* both stages and is namespaced by model fingerprint, so the exact
workflow the serving layer promotes — recalibrate, hot-reload, rescan —
would otherwise invalidate everything and re-pay the dominant extraction
cost for designs whose source never changed.

:class:`FeatureStore` is the tier underneath: a content-addressed store of
the assembled multimodal feature rows (``(tabular, graph, graph_image)`` as
produced by :func:`repro.features.pipeline.extract_design_modalities`),
keyed by the design's SHA-256 content hash and **independent of any
model**.  With it, a rescan under a fresh fingerprint pays only the
forward pass: feature rows are looked up by content hash, assembled into
the batch matrix and pushed straight through inference.

Correctness of the tier rests on two invariants:

* **Content addressing** — a design's features are a pure function of its
  source text (and the image size), so a row written once is valid for
  every future scan of identical source bytes, under any model.
* **Schema fingerprinting** — the store is namespaced by a fingerprint of
  the feature *schema* (:func:`feature_schema_fingerprint`): the feature
  name lists, the image size and
  :data:`repro.features.pipeline.FEATURE_EXTRACTION_VERSION`.  Changing
  feature-extraction code bumps the version, which moves the store to a
  fresh namespace — stale rows are never looked up again (invalidation by
  construction, exactly like the result tier's model fingerprint).

On disk the tier uses the same append-only segment store as the result
tier (:class:`repro.engine.cache.SegmentStore`: hash-prefix addressing,
atomic segment flushes under the namespace ``flock``, newest-first
merge-on-read, quarantine of damaged files, compaction).  Its row codec
packs rows densely for zero-copy batch assembly: each file holds stacked
``tabular`` / ``graph`` / ``images`` matrices beside the ``keys`` array,
and loaded rows are *views* into those matrices, so serving a warm batch
never copies per-design arrays.  ``python -m repro cache-gc``
(:func:`gc_feature_tier`) folds segments into base shards on demand and
removes retired schema namespaces.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..faults import corrupting_failpoint, failpoint
from ..features.image import DEFAULT_IMAGE_SIZE
from ..features.pipeline import feature_schema_fingerprint
from ..obs.metrics import REGISTRY
from .cache import SegmentStore, _describe_tier, _file_size

#: One extracted design: ``(tabular_row, graph_row, graph_image)``.
FeatureRow = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Bump when the feature tier's row layout (not the feature schema) changes.
FEATURE_STORE_VERSION = 1

# Feature-tier telemetry (process-wide; see docs/OBSERVABILITY.md).
_FEATURE_HITS = REGISTRY.counter(
    "repro_featurestore_hits_total", "Feature-store lookups served from a shard."
)
_FEATURE_MISSES = REGISTRY.counter(
    "repro_featurestore_misses_total", "Feature-store lookups that missed."
)


def default_feature_store_dir(cache_dir: Union[str, Path]) -> Path:
    """The feature tier's conventional location under a cache root."""
    return Path(cache_dir) / "features"


def _encode_rows(rows: List[FeatureRow]) -> Dict[str, np.ndarray]:
    """Feature-tier codec: one stacked matrix per modality."""
    return {
        "tabular": np.stack([row[0] for row in rows], axis=0),
        "graph": np.stack([row[1] for row in rows], axis=0),
        "images": np.stack([row[2] for row in rows], axis=0),
    }


def _decode_rows(data: Any) -> List[FeatureRow]:
    """Inverse of :func:`_encode_rows`: rows are views into the matrices."""
    tabular, graph, images = data["tabular"], data["graph"], data["images"]
    if not tabular.shape[0] == graph.shape[0] == images.shape[0]:
        raise ValueError("feature matrices have mismatched lengths")
    return list(zip(tabular, graph, images))


class FeatureStore:
    """Packed, content-addressed store of extracted feature rows.

    Parameters
    ----------
    directory:
        Feature-tier root shared by every schema fingerprint (conventionally
        ``<cache_dir>/features``, see :func:`default_feature_store_dir`).
    image_size:
        Adjacency-image side length; part of the schema fingerprint, so
        stores with different image sizes never mix rows.
    """

    def __init__(
        self, directory: Union[str, Path], image_size: int = DEFAULT_IMAGE_SIZE
    ) -> None:
        self.directory = Path(directory)
        self.image_size = image_size
        self.schema_fingerprint = feature_schema_fingerprint(image_size=image_size)
        self.namespace_dir = self.directory / self.schema_fingerprint[:16]
        self._segments = SegmentStore(
            self.namespace_dir,
            meta={
                "store_version": FEATURE_STORE_VERSION,
                "schema_fingerprint": self.schema_fingerprint,
            },
            encode=_encode_rows,
            decode=_decode_rows,
            read_guard=lambda raw: corrupting_failpoint("features.shard.read", raw),
        )

    @property
    def n_hits(self) -> int:
        """Lookups served from the store so far."""
        return self._segments.n_hits

    @property
    def n_misses(self) -> int:
        """Lookups that missed so far."""
        return self._segments.n_misses

    def get(self, sha256: str) -> Optional[FeatureRow]:
        """The stored feature row for a content hash, or ``None``.

        The returned arrays are read-only views into the packed matrices
        (or the arrays handed to :meth:`put`); batch assembly copies them
        into the batch matrix exactly once.
        """
        row = self._segments.get(sha256)
        (_FEATURE_MISSES if row is None else _FEATURE_HITS).inc()
        return row

    def put(self, sha256: str, row: FeatureRow) -> None:
        """Insert (or overwrite) the feature row for a content hash."""
        tabular, graph, image = row
        self._segments.put(
            sha256, (np.asarray(tabular), np.asarray(graph), np.asarray(image))
        )

    def flush(self) -> Optional[Path]:
        """Append dirty rows as new segments (see :class:`SegmentStore`).

        Returns the namespace directory when anything was written, ``None``
        otherwise.
        """
        if not self._segments.flush(lambda: failpoint("features.flush.io")):
            return None
        return self.namespace_dir

    def compact(self) -> int:
        """Fold every segment into its base shard; returns segments removed."""
        return self._segments.compact()


def describe_feature_tier(directory: Union[str, Path]) -> Dict[str, Any]:
    """Describe every schema namespace under a feature-tier root.

    Safe against a live cache (``cache-info`` runs it); see
    :func:`repro.engine.cache._describe_tier` for the counting rules.
    """
    return _describe_tier(directory, "schema", "n_rows")


def gc_feature_tier(
    directory: Union[str, Path], image_size: int = DEFAULT_IMAGE_SIZE
) -> Dict[str, Any]:
    """Garbage-collect a feature-tier root (``python -m repro cache-gc``).

    Two maintenance passes:

    * **Compact** the namespace of the *current* feature schema (for the
      given image size): every append-only segment file is folded into
      its base shard, restoring one-open-per-prefix reads.
    * **Remove** retired schema namespaces — directories written under an
      older :data:`~repro.features.pipeline.FEATURE_EXTRACTION_VERSION`
      or a different image size.  Their rows can never be looked up
      again, so they are dead weight by construction.

    Returns a summary dict: the compacted namespace, segments folded,
    retired namespaces removed, and bytes reclaimed from them.
    """
    import shutil

    root = Path(directory)
    store = FeatureStore(root, image_size=image_size)
    current = store.namespace_dir.name
    folded = store.compact()
    removed: List[str] = []
    reclaimed = 0
    if root.is_dir():
        for namespace in sorted(p for p in root.iterdir() if p.is_dir()):
            if namespace.name == current:
                continue
            reclaimed += sum(
                _file_size(p) for p in namespace.rglob("*") if p.is_file()
            )
            shutil.rmtree(namespace, ignore_errors=True)
            removed.append(namespace.name)
    return {
        "directory": str(root),
        "current_schema": current,
        "n_segments_folded": folded,
        "retired_namespaces_removed": removed,
        "bytes_reclaimed": reclaimed,
    }
