"""The collection/aggregation backend: decode off the hot path, at scale.

``repro.service`` is the layer real profilers put behind their probes: a
sharded, cached context-decode and ingestion service. Probes stay as
cheap as the paper promises (integer additions); this package owns
everything that happens to the collected integers afterwards:

* :class:`DecodeEngine` — epoch-aware decoding with an anchor-aware
  interning cache: decoded pieces are shared across contexts, repeated
  hot contexts decode in O(1), and plan hot swaps (PR 1) invalidate by
  epoch instead of by flushing the world.
* :class:`SampleBatch` — the columnar, batch-first ingestion value
  type: array-packed (epoch, context ID, function, thread, weight)
  columns with a compact, CRC-checked binary serialization.
* :class:`BoundedQueue` / :class:`WorkerPool` — batched ingestion with
  explicit backpressure (block / drop-newest / drop-oldest / error),
  denominated in samples, batch-aware.
* :class:`ContextStore` — retained contexts delta-encoded against a
  shared prefix trie, sealed into block-compressed, CRC-checked blocks.
* :class:`ShardedContextTree` — lock-striped calling-context trees over
  the store that merge on read (top-K, per-function rollups, UCP
  counts), with keyword-only ``epoch=`` / ``decoded=`` filters.
* :class:`ContextService` — the facade wiring all of it together, with
  full metrics (counters, queue depth, cache hit rates, latency
  histograms). Ingest with :meth:`ContextService.submit_batch` (or
  the buffering :meth:`ContextService.batch_sink`). Also exported from
  :mod:`repro.api` / the package root.

Benchmark with ``python -m repro serve-bench``.
"""

from repro.service.batch import SampleBatch
from repro.service.cache import CacheStats, LRUCache
from repro.service.engine import DecodeEngine
from repro.service.ingest import (
    POLICIES,
    BoundedQueue,
    Sample,
    WorkerKilled,
    WorkerPool,
    WorkerState,
    item_samples,
    iter_samples,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.service import ContextService, ServiceConfig
from repro.service.shards import ShardedContextTree, ShardStats
from repro.service.store import COMPRESSIONS, ContextStore

__all__ = [
    "BoundedQueue",
    "CacheStats",
    "COMPRESSIONS",
    "ContextService",
    "ContextStore",
    "DecodeEngine",
    "LRUCache",
    "LatencyHistogram",
    "POLICIES",
    "Sample",
    "SampleBatch",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardStats",
    "ShardedContextTree",
    "WorkerKilled",
    "WorkerPool",
    "WorkerState",
    "item_samples",
    "iter_samples",
]
