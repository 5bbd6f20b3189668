"""Service observability: a thin shim over the shared metrics registry.

Historically this module owned its own counter and histogram classes;
they are now generalized into :mod:`repro.obs` and ``ServiceMetrics``
delegates every counter, gauge and latency histogram to a scoped
:class:`~repro.obs.MetricsRegistry` (named ``service``) which it
attaches to the process-wide registry — so service metrics share one
namespace and one export path (Prometheus / JSON / ``repro obs``) with
the encode, re-encode and probe metrics, with no duplicated counter
definitions.

The public surface is unchanged: the counters read as plain attributes,
``count(name)`` increments, ``record_error`` keeps a bounded ring of
recent messages, and ``snapshot()`` flattens everything into the same
dict shape as before. ``LatencyHistogram`` is re-exported from
:mod:`repro.obs` for compatibility (its ``observe`` is now O(1)).

Error cardinality is bounded twice over: the ring keeps the last
:data:`ServiceMetrics.ERROR_RING` messages, and the per-kind breakdown
(``errors_by_kind``) caps distinct keys at
:data:`ServiceMetrics.MAX_ERROR_KINDS` with an ``__other__`` overflow
bucket, so an error storm with unique messages cannot grow memory
without bound.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro import obs
from repro.obs.registry import LatencyHistogram, MetricsRegistry

__all__ = ["LatencyHistogram", "ServiceMetrics"]


class ServiceMetrics:
    """The service's counters, registry-backed.

    ``registry`` lets callers supply their own scope (tests); by default
    each instance gets a fresh ``MetricsRegistry("service")`` so two
    services never share counts, and the instance is attached to the
    process-wide :func:`repro.obs.get_registry` (latest wins) so the
    unified exporters see the live service.
    """

    ERROR_RING = 16
    #: Cap on distinct error-kind labels (overflow folds into __other__).
    MAX_ERROR_KINDS = 64
    #: Truncation length for error-kind labels.
    ERROR_KIND_CHARS = 120

    _COUNTERS = (
        "submitted",
        "dropped",
        "ingested",
        "aggregated",
        "decode_errors",
        "epoch_mismatches",
        "batches",
        "hot_swaps",
        # Resilience layer (PR 5): quarantine, retry, breaker fallback,
        # and truthful-deadline accounting.
        "dead_lettered",
        "retries",
        "fallback_retained",
        "fallback_replayed",
        "fallback_dropped",
        "flush_timeout",
        "recovered",
        # Batch-first ingest (dotted names flatten to service.batch.*).
        "batch.submitted",
        "batch.samples",
        "batch.rows",
        "batch.groups",
        "batch.dedup_saved",
    )

    #: Context-store gauges mirrored into the registry (service.store.*).
    _STORE_GAUGES = (
        ("store.contexts", "contexts"),
        ("store.nodes", "nodes"),
        ("store.bytes", "bytes"),
        ("store.bytes_per_context", "bytes_per_context"),
        ("store.sealed_blocks", "sealed_blocks"),
        ("store.unseals", "unseals"),
        ("store.corruptions", "corruptions"),
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        attach: bool = True,
    ):
        self.registry = (
            registry if registry is not None else MetricsRegistry("service")
        )
        if attach and self.registry is not obs.get_registry():
            obs.get_registry().attach(self.registry)
        self._lock = threading.Lock()
        self._recent_errors: List[str] = []
        for name in self._COUNTERS:
            self.registry.counter(name)
        self.registry.gauge("queue_peak")
        self.decode_latency = self.registry.histogram("decode_latency_us")
        self.batch_latency = self.registry.histogram("batch_latency_us")
        self._error_kinds = self.registry.labeled_counter(
            "errors_by_kind", max_labels=self.MAX_ERROR_KINDS
        )

    # ------------------------------------------------------------------
    # Compatibility surface
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Only consulted for names not found normally: expose the
        # counters (and queue peak) as the plain attributes they were.
        if name in ServiceMetrics._COUNTERS:
            return self.registry.counter(name).value
        if name == "queue_peak":
            return int(self.registry.gauge(name).value)
        raise AttributeError(name)

    def count(self, name: str, delta: int = 1) -> None:
        self.registry.counter(name).inc(delta)

    def observe_queue_depth(self, depth: int) -> None:
        self.registry.gauge("queue_peak").set_max(depth)

    def observe_store(self, stats: Dict[str, object]) -> None:
        """Mirror :meth:`ContextStore.stats` into service.store.* gauges."""
        for gauge_name, stat_key in self._STORE_GAUGES:
            value = stats.get(stat_key)
            if value is not None:
                self.registry.gauge(gauge_name).set(float(value))

    def record_error(self, message: str) -> None:
        self.registry.counter("decode_errors").inc()
        self._error_kinds.inc(message[: self.ERROR_KIND_CHARS])
        with self._lock:
            self._recent_errors.append(message)
            del self._recent_errors[: -self.ERROR_RING]

    @property
    def recent_errors(self) -> List[str]:
        with self._lock:
            return list(self._recent_errors)

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, object]:
        out: Dict[str, object] = {
            name: self.registry.counter(name).value
            for name in self._COUNTERS
        }
        out["queue_peak"] = int(self.registry.gauge("queue_peak").value)
        out["recent_errors"] = self.recent_errors
        out["errors_by_kind"] = self._error_kinds.snapshot()
        out["decode_latency"] = self.decode_latency.snapshot()
        out["batch_latency"] = self.batch_latency.snapshot()
        if queue_depth is not None:
            out["queue_depth"] = queue_depth
        return out
