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

A probe that interns its encoding stack (:class:`~repro.runtime.agent.
DeltaPathProbe` exposes ``stack_key``, ``stack_table`` and
``stack_stats``) is recorded by integers: per probe, the collector keeps
the distinct ``(node, stack key, ID)`` triples and a sample count per
key, and derives the stack statistics from the per-key ``(depth,
UCPs)`` when they are read. Every other probe (PCC, CCT, stack walk) is
recorded by its ``(node, snapshot)`` pair.
:attr:`ContextCollector.unique` is built from both when it is read.

A collector can also stream observations onward: give it a ``sink``
(e.g. :meth:`repro.service.ContextService.batch_sink`) and every snapshot is
handed off as ``sink(node, snapshot, probe)`` for ingestion/aggregation.
A failing sink must not take the instrumented program down with it:
``sink_errors`` picks the policy — ``"raise"`` (propagate, the historical
behavior), ``"drop"`` (count and continue), or ``"retain"`` (count and
keep the raw observations in a bounded buffer for later resubmission).
A buffering sink's error carries every observation it could not hand
over (``exc.unsubmitted``), and each one counts.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

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
        What a :class:`~repro.errors.ReproError` from the sink (or from
        its ``flush`` in :meth:`close`) does to the instrumented run:
        ``"raise"`` propagates (default, the historical behavior),
        ``"drop"`` counts it and continues, ``"retain"`` counts it and
        keeps the raw ``(node, snapshot)`` pairs in
        :attr:`sink_retained` (bounded by ``sink_retain_capacity``,
        oldest evicted) for resubmission once the backend recovers.
        :attr:`sink_failures` counts observations, not errors: an error
        carrying ``unsubmitted`` pairs (a buffering sink's whole failed
        batch) counts each of them, any other error counts the one
        observation it was raised for. Non-``ReproError`` exceptions
        always propagate — they are bugs, not backend weather.
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
        #: Observations the sink did not hand over.
        self.sink_failures = 0
        #: Raw (node, snapshot) pairs kept under ``sink_errors="retain"``.
        self.sink_retained = deque(maxlen=sink_retain_capacity)

        self.total = 0
        self.depth_sum = 0
        self.max_depth = 0
        #: Full truth contexts; populated only under ``retain_truth``.
        self.truth_unique: Set[Tuple[str, Tuple[str, ...]]] = set()
        self._truth_digests: Set[bytes] = set()
        self._shadow: List[str] = []

        # (node, snapshot) pairs of probes without interned stacks, and
        # per probe with them, its distinct (node, stack key, ID)
        # triples and samples per stack key (index = key). Each probe
        # numbers its own stacks, so keys never mix across probes.
        self._pairs: Set[Tuple[str, Hashable]] = set()
        self._keyed: Dict[object, Tuple[set, List[int]]] = {}
        self._probe = None
        self._space: Optional[Tuple[set, List[int]]] = None

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
        if probe is not self._probe:
            self._probe = probe
            self._space = (
                None if getattr(probe, "stack_table", None) is None
                else self._keyed.setdefault(probe, (set(), []))
            )
        space = self._space
        if space is None:
            self._pairs.add((node, snapshot))
        else:
            seen, counts = space
            key = probe.stack_key
            seen.add((node, key, snapshot[1]))
            try:
                counts[key] += 1
            except IndexError:
                counts.extend([0] * (key + 1 - len(counts)))
                counts[key] = 1
        if self.track_truth:
            shadow = tuple(self._shadow)
            self._truth_digests.add(_truth_digest(node, shadow))
            if self.retain_truth:
                self.truth_unique.add((node, shadow))
        if self.sink is not None:
            try:
                self.sink(node, snapshot, probe)
            except ReproError as exc:
                if self.sink_errors == "raise":
                    raise
                self._sink_failed(exc, ((node, snapshot),))

    def _sink_failed(self, exc: ReproError, observations) -> None:
        """Count (and under ``retain`` keep) what a failed sink lost."""
        lost = getattr(exc, "unsubmitted", None)
        if lost is None:
            lost = observations
        self.sink_failures += len(lost)
        obs.counter("collector.sink_errors").inc()
        if self.sink_errors == "retain":
            self.sink_retained.extend(lost)

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
        flushing the service. A failing flush follows ``sink_errors``
        like a failing sink call.
        """
        flush = getattr(self.sink, "flush", None)
        if callable(flush):
            try:
                flush()
            except ReproError as exc:
                if self.sink_errors == "raise":
                    raise
                self._sink_failed(exc, ())

    @property
    def unique(self) -> Set[Tuple[str, Hashable]]:
        """Distinct ``(node, snapshot)`` pairs, built when read.

        Interned-stack samples are resolved through their probe's
        ``stack_table``, so the set holds the same ``(node, (stack,
        ID))`` pairs whichever way a sample was recorded.
        """
        out = set(self._pairs)
        for probe, (seen, _counts) in self._keyed.items():
            table = probe.stack_table
            out.update(
                (node, (table[key], current_id))
                for node, key, current_id in seen
            )
        return out

    def _stack_stats(self) -> Optional[Tuple[int, float, int, float, int]]:
        """``(max depth, avg depth, max UCPs, avg UCPs, max ID)`` over the
        interned-stack samples; None when no probe exposed its stacks."""
        keyed = [
            (n, probe.stack_stats[key])
            for probe, (_seen, counts) in self._keyed.items()
            for key, n in enumerate(counts)
            if n
        ]
        if not keyed:
            return None
        samples = sum(n for n, _stats in keyed)
        return (
            max(depth for _n, (depth, _ucp) in keyed),
            sum(n * depth for n, (depth, _ucp) in keyed) / samples,
            max(ucp for _n, (_depth, ucp) in keyed),
            sum(n * ucp for n, (_depth, ucp) in keyed) / samples,
            max(
                current_id
                for seen, _counts in self._keyed.values()
                for _node, _key, current_id in seen
            ),
        )

    def stats(self) -> CollectedStats:
        unique = len(self.unique)
        # Gauges, not counters: stats() may be called repeatedly and the
        # registry should always reflect the latest aggregate state.
        registry = obs.get_registry()
        registry.gauge("collector.total_contexts").set(self.total)
        registry.gauge("collector.unique_encodings").set(unique)
        registry.gauge("collector.max_depth").set(self.max_depth)
        if self.track_truth:
            registry.gauge("collector.unique_truth").set(
                len(self._truth_digests)
            )
        max_stack, avg_stack, max_ucp, avg_ucp, max_id = (
            self._stack_stats() or (None,) * 5
        )
        return CollectedStats(
            total_contexts=self.total,
            max_depth=self.max_depth,
            avg_depth=self.depth_sum / max(self.total, 1),
            unique_encodings=unique,
            unique_truth=(
                len(self._truth_digests) if self.track_truth else None
            ),
            max_stack_depth=max_stack,
            avg_stack_depth=avg_stack,
            max_ucp=max_ucp,
            avg_ucp=avg_ucp,
            max_id=max_id,
        )
