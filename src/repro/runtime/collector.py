"""Context collection for the dynamic-characteristics experiments.

The paper's Table 2 collects "the encoded calling contexts at the entry
of the instrumented application functions". The collector does exactly
that: at every entry of a node of interest it takes the probe's snapshot
and accumulates

* total contexts collected,
* max/avg context depth (number of interest functions on the stack —
  the collector keeps its own shadow depth),
* unique encodings (distinct ``(node, snapshot)`` pairs),
* probe-specific metrics (DeltaPath stack depth, UCP count, max ID),
* optionally ground-truth uniqueness (shadow stack), which exposes
  hash collisions: a baseline whose unique-encoding count is below the
  unique-truth count has merged distinct contexts.

Ground-truth retention is opt-in *per metric*: ``track_truth`` buys the
collision count (unique-truth cardinality, kept as fixed-size digests),
and only ``retain_truth`` additionally keeps the actual context tuples —
large runs that measure collisions no longer hold every truth context in
memory, and runs that measure neither hold nothing.

A collector can also stream observations onward: give it a ``sink``
(e.g. :meth:`repro.service.ContextService.batch_sink`) and every snapshot is
handed off as ``sink(node, snapshot, probe)`` for ingestion/aggregation.
A failing sink must not take the instrumented program down with it:
``sink_errors`` picks the policy — ``"raise"`` (propagate, the historical
behavior), ``"drop"`` (count and continue), or ``"retain"`` (count and
keep the raw observation in a bounded buffer for later resubmission).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Set, Tuple

from repro import obs
from repro.errors import ReproError

_SINK_ERROR_POLICIES = ("raise", "drop", "retain")

__all__ = ["ContextCollector", "CollectedStats"]


@dataclass
class CollectedStats:
    """Summary in the shape of the paper's Table 2 columns."""

    total_contexts: int
    max_depth: int
    avg_depth: float
    unique_encodings: int
    unique_truth: Optional[int]
    max_stack_depth: Optional[int]
    avg_stack_depth: Optional[float]
    max_ucp: Optional[int]
    avg_ucp: Optional[float]
    max_id: Optional[int]

    @property
    def collisions(self) -> Optional[int]:
        """Distinct contexts merged by the encoding (0 for precise ones)."""
        if self.unique_truth is None:
            return None
        return self.unique_truth - self.unique_encodings


def _truth_digest(node: str, shadow: Tuple[str, ...]) -> bytes:
    """A fixed-size fingerprint of one ground-truth context.

    16-byte blake2b over the length-prefixed frames: collision
    probability is negligible at any realistic context population, and
    memory per unique context drops from the full frame tuple to 16
    bytes.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(node.encode())
    for frame in shadow:
        h.update(b"\x1f")
        h.update(frame.encode())
    return h.digest()


class ContextCollector:
    """Collects context observations at instrumented-function entries.

    Parameters
    ----------
    interest:
        Node names to collect at; ``None`` collects at every entry.
    track_truth:
        Measure ground-truth uniqueness (the collision metric). Keeps a
        16-byte digest per unique truth context, not the context itself.
    retain_truth:
        Additionally retain the full truth-context tuples in
        :attr:`truth_unique` (for code that enumerates them). Implies
        ``track_truth``; costs memory proportional to unique contexts.
    collect_events:
        Keep per-Event ``(tag, node, snapshot)`` records; disable for
        long runs that only need the aggregate statistics.
    sink:
        Optional handoff called as ``sink(node, snapshot, probe)`` for
        every observation — the bridge into
        :class:`repro.service.ContextService` ingestion.
    sink_errors:
        What a :class:`~repro.errors.ReproError` from the sink does to
        the instrumented run: ``"raise"`` propagates (default, the
        historical behavior), ``"drop"`` counts it and continues,
        ``"retain"`` counts it and keeps the raw ``(node, snapshot)``
        in :attr:`sink_retained` (bounded by ``sink_retain_capacity``,
        oldest evicted) for resubmission once the backend recovers.
        Non-``ReproError`` exceptions always propagate — they are bugs,
        not backend weather.
    """

    def __init__(
        self,
        interest: Optional[Set[str]] = None,
        track_truth: bool = False,
        collect_events: bool = True,
        retain_truth: bool = False,
        sink: Optional[Callable[[str, Hashable, object], None]] = None,
        sink_errors: str = "raise",
        sink_retain_capacity: int = 4096,
    ):
        if sink_errors not in _SINK_ERROR_POLICIES:
            raise ValueError(
                f"sink_errors must be one of {_SINK_ERROR_POLICIES}, "
                f"got {sink_errors!r}"
            )
        self.interest = interest
        self.track_truth = track_truth or retain_truth
        self.retain_truth = retain_truth
        self.collect_events = collect_events
        self.sink = sink
        self.sink_errors = sink_errors
        self.sink_failures = 0
        #: Raw (node, snapshot) pairs kept under ``sink_errors="retain"``.
        self.sink_retained = deque(maxlen=sink_retain_capacity)

        self.total = 0
        self.depth_sum = 0
        self.max_depth = 0
        self.unique: Set[Tuple[str, Hashable]] = set()
        #: Full truth contexts; populated only under ``retain_truth``.
        self.truth_unique: Set[Tuple[str, Tuple[str, ...]]] = set()
        self._truth_digests: Set[bytes] = set()
        self._shadow: List[str] = []

        self._metrics_n = 0
        self._stack_depth_sum = 0
        self.max_stack_depth = 0
        self._ucp_sum = 0
        self.max_ucp = 0
        self.max_id = 0
        self._saw_metrics = False

        #: (tag, node, snapshot) tuples from Event statements.
        self.events: List[Tuple[str, str, Hashable]] = []

    # ------------------------------------------------------------------
    # Interpreter hooks
    # ------------------------------------------------------------------
    def on_entry(self, node: str, depth: int, probe) -> None:
        if self.interest is not None and node not in self.interest:
            return
        self._shadow.append(node)
        shadow_depth = len(self._shadow)
        self.total += 1
        self.depth_sum += shadow_depth
        if shadow_depth > self.max_depth:
            self.max_depth = shadow_depth

        snapshot = probe.snapshot(node)
        self.unique.add((node, snapshot))
        if self.track_truth:
            shadow = tuple(self._shadow)
            self._truth_digests.add(_truth_digest(node, shadow))
            if self.retain_truth:
                self.truth_unique.add((node, shadow))
        if self.sink is not None:
            try:
                self.sink(node, snapshot, probe)
            except ReproError:
                if self.sink_errors == "raise":
                    raise
                self.sink_failures += 1
                obs.counter("collector.sink_errors").inc()
                if self.sink_errors == "retain":
                    self.sink_retained.append((node, snapshot))

        metrics = getattr(probe, "context_metrics", None)
        if metrics is not None:
            self._saw_metrics = True
            values = metrics()
            self._metrics_n += 1
            stack_depth = values.get("stack_depth", 0)
            ucp = values.get("ucp", 0)
            current_id = values.get("id", 0)
            self._stack_depth_sum += stack_depth
            self._ucp_sum += ucp
            if stack_depth > self.max_stack_depth:
                self.max_stack_depth = stack_depth
            if ucp > self.max_ucp:
                self.max_ucp = ucp
            if current_id > self.max_id:
                self.max_id = current_id

    def on_exit(self, node: str) -> None:
        if self.interest is not None and node not in self.interest:
            return
        if self._shadow and self._shadow[-1] == node:
            self._shadow.pop()

    def on_event(self, tag: str, node: str, depth: int, probe) -> None:
        if not self.collect_events:
            return
        self.events.append((tag, node, probe.snapshot(node)))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush a buffering sink (e.g. ``ContextService.batch_sink``).

        Sinks that batch observations expose a ``flush`` attribute; a
        plain per-observation sink has nothing to flush and ``close``
        is a no-op. Call once the instrumented run is over, before
        flushing the service.
        """
        flush = getattr(self.sink, "flush", None)
        if callable(flush):
            flush()

    def stats(self) -> CollectedStats:
        # Gauges, not counters: stats() may be called repeatedly and the
        # registry should always reflect the latest aggregate state.
        registry = obs.get_registry()
        registry.gauge("collector.total_contexts").set(self.total)
        registry.gauge("collector.unique_encodings").set(len(self.unique))
        registry.gauge("collector.max_depth").set(self.max_depth)
        if self.track_truth:
            registry.gauge("collector.unique_truth").set(
                len(self._truth_digests)
            )
        n = max(self.total, 1)
        mn = max(self._metrics_n, 1)
        return CollectedStats(
            total_contexts=self.total,
            max_depth=self.max_depth,
            avg_depth=self.depth_sum / n,
            unique_encodings=len(self.unique),
            unique_truth=(
                len(self._truth_digests) if self.track_truth else None
            ),
            max_stack_depth=self.max_stack_depth if self._saw_metrics else None,
            avg_stack_depth=(
                self._stack_depth_sum / mn if self._saw_metrics else None
            ),
            max_ucp=self.max_ucp if self._saw_metrics else None,
            avg_ucp=self._ucp_sum / mn if self._saw_metrics else None,
            max_id=self.max_id if self._saw_metrics else None,
        )
