"""`ContextService`: the collection backend over DeltaPath encodings.

The paper makes a calling context a small integer precisely so the hot
path only does additions and the *decoding* can happen elsewhere. This
module is the "elsewhere", and it is **batch-first**: producers pack
observations into columnar :class:`~repro.service.batch.SampleBatch`
objects and hand them to :meth:`ContextService.submit_batch`; workers
drain whole batches, collapse them into distinct
``(epoch, node, anchor-stack, ID)`` groups, decode each group **once**
through the epoch-aware memoizing
:class:`~repro.service.engine.DecodeEngine`, and apply the counts to
:class:`~repro.service.shards.ShardedContextTree` in one locked pass
per shard. Retained contexts live delta-encoded in a shared
:class:`~repro.service.store.ContextStore`. Queries (top-K hot
contexts, per-function rollups, UCP counts) merge shards on read and
take a uniform keyword-only ``epoch=`` / ``decoded=`` contract.

Every configuration, armed or not, makes the same first attempt on a
drained batch: one ``decode_batch`` over its distinct groups and one
``add_counts`` for the ones that decoded. The circuit breaker and chaos
decode faults act per group inside that attempt, and only the groups
that failed go on to the retry ladder.

Hot swaps plug straight into PR 1's machinery: call
:meth:`ContextService.install_update` with the :class:`PlanUpdate` used
for ``probe.hot_swap`` and the service bumps its plan epoch. Samples are
stamped with their plan's epoch at submission, and decoding always uses
exactly the stamped epoch's plan — a swap therefore loses no queued
samples and can never serve a mixed-epoch decode.

Failure handling (PR 5) is governed by one conservation law::

    submitted == aggregated + dead_lettered + epoch_mismatches
                 + dropped + fallback_dropped + fallback_pending

Every submitted sample is either in the tree, quarantined in the
dead-letter queue with its exception, dropped by a *declared*
backpressure/shutdown policy, or retained raw in the fallback store
awaiting replay. Nothing vanishes silently. Passing
``resilience=ResilienceConfig(...)`` additionally arms worker
supervision (heartbeats + budgeted restarts), the decode circuit
breaker, and durable checkpoints; ``chaos=ChaosInjector(...)`` threads
fault injection through every one of those paths.

Typical wiring::

    service = ContextService(plan, ServiceConfig(workers=2, shards=8))
    service.start()
    collector = ContextCollector(sink=service.batch_sink())
    Interpreter(program, probe=probe, collector=collector).run()
    collector.close()              # flush the buffering sink
    service.flush()
    service.top_contexts(5)        # [(count, path), ...]
    service.function_totals()      # {function: inclusive count}
    service.stop()
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import (
    CheckpointError,
    DecodingError,
    EpochError,
    IngestOverflowError,
    QueryError,
    ServiceError,
)
from repro.postprocess import ContextTreeReport
from repro.runtime.plan import DeltaPathPlan, PlanUpdate
from repro.service.batch import SampleBatch
from repro.service.engine import DecodeEngine
from repro.service.ingest import (
    BoundedQueue,
    Sample,
    WorkerPool,
    iter_samples,
)
from repro.service.metrics import ServiceMetrics
from repro.service.shards import ShardedContextTree
from repro.service.store import ContextStore

__all__ = ["ServiceConfig", "ContextService"]

#: The conservation-law buckets a submitted sample settles in (see
#: :meth:`ContextService.accounting`).
_SETTLED = (
    "aggregated",
    "dead_lettered",
    "epoch_mismatches",
    "dropped",
    "fallback_dropped",
    "fallback_pending",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Every sizing knob of the service in one frozen place."""

    #: Number of aggregation shards (lock striping of the CCT).
    shards: int = 8
    #: Worker threads draining the ingestion queue.
    workers: int = 2
    #: Bounded-queue capacity (samples). A default
    #: :meth:`ContextService.batch_sink` hands off half of it at a time.
    queue_capacity: int = 4096
    #: Worker drain budget in samples (see ``batch_max``). It does not
    #: size the batches :meth:`ContextService.batch_sink` submits.
    batch_size: int = 256
    #: Overload policy: "block" | "drop-newest" | "drop-oldest" | "error".
    backpressure: str = "block"
    #: LRU capacity of the interned-piece cache (0 disables).
    piece_cache: int = 1 << 16
    #: LRU capacity of the whole-context cache (0 disables).
    context_cache: int = 1 << 16
    #: How many recent plan epochs stay decodable (None = all).
    retain_epochs: Optional[int] = None
    # -- batch-first knobs (pass as keywords; trailing-with-defaults is
    #    the 3.9-compatible spelling of keyword-only) -------------------
    #: Worker drain budget in samples (None keeps ``batch_size``): a
    #: worker takes queued batches until it holds this many. Batches
    #: are never split, so a drain may run over by one batch. It does
    #: not size the batches :meth:`ContextService.batch_sink` submits.
    batch_max: Optional[int] = None
    #: Context-store compression for sealed blocks: "zlib" | "none".
    store_compression: str = "zlib"
    #: Directory for the durable query-segment store (None disables the
    #: ``repro.query`` layer: no SegmentWriter, ``query()`` raises).
    segment_dir: Optional[str] = None
    #: Bind an ``repro.obs.http`` scrape endpoint on this port while the
    #: service runs (0 = ephemeral port, None disables). Serves
    #: ``/metrics``, ``/health``, ``/ready``, ``/snapshot``, ``/profile``.
    http_port: Optional[int] = None
    #: Scrape-endpoint bind address. Loopback by default: exposing the
    #: surface off-box is a deployment decision, not a default.
    http_host: str = "127.0.0.1"
    #: Decode worker **processes** (0 = the in-process thread pool).
    #: When >= 1 the service fans ingestion out over shared-memory
    #: batch lanes to per-process shard owners (see
    #: :mod:`repro.service.workers`); hot swaps are unsupported in this
    #: topology and metrics/accounting merge at read time.
    worker_processes: int = 0
    #: Ring slots per shared-memory lane (one lane per worker process).
    lane_slots: int = 64
    #: Bytes per lane slot; one DPSB record must fit (oversized batches
    #: are split, an unsplittable record is dropped and counted).
    lane_slot_bytes: int = 1 << 20
    #: Root for worker heartbeat/status/checkpoint files (None = a
    #: private temp dir, removed when the pool is destroyed).
    worker_dir: Optional[str] = None
    #: Run the segment compactor after every N successful
    #: CheckpointDaemon segment flushes (0 disables automatic
    #: compaction; :meth:`ContextService.compact_segments` still works
    #: on demand). Each run applies the retention caps below; under a
    #: byte or age cap it rewrites only the runs that changed, else
    #: it merges every live segment into one cumulative generation.
    compact_every: int = 0
    #: Retention caps enforced at compaction time (None = unbounded):
    #: live segment-file count, live on-disk bytes, and span age in
    #: seconds. Deletions are tombstoned and counted, never silent.
    retention_max_segments: Optional[int] = None
    retention_max_bytes: Optional[int] = None
    retention_max_age_s: Optional[float] = None

    @property
    def drain_budget(self) -> int:
        """Samples per worker drain (``batch_max`` or ``batch_size``)."""
        return self.batch_max if self.batch_max else self.batch_size


class ContextService:
    """Sharded, cached context-decode and ingestion service.

    ``resilience`` (a :class:`repro.resilience.ResilienceConfig`) arms
    supervision, the circuit breaker, and durable checkpoints. Without
    it the service still quarantines failing samples (dead-letter queue
    + retry) so the conservation law holds in every configuration.
    ``chaos`` (a :class:`repro.resilience.chaos.ChaosInjector`) threads
    fault injection through the worker loop, decode path, and
    checkpoint writes.
    """

    def __init__(
        self,
        plan: DeltaPathPlan,
        config: Optional[ServiceConfig] = None,
        *,
        resilience=None,
        chaos=None,
        **kwargs,
    ):
        if config is not None and kwargs:
            raise ServiceError(
                "pass either a ServiceConfig or config keywords, not both"
            )
        self.config = config if config is not None else ServiceConfig(**kwargs)
        self.store = ContextStore(compression=self.config.store_compression)
        self.engine = DecodeEngine(
            plan,
            piece_cache=self.config.piece_cache,
            context_cache=self.config.context_cache,
            retain_epochs=self.config.retain_epochs,
            store=self.store,
        )
        self.tree = ShardedContextTree(self.config.shards, store=self.store)
        self.metrics = ServiceMetrics()

        # Resilience wiring. The imports are method-local because
        # repro.resilience imports repro.service.ingest — importing it
        # lazily (first service construction) breaks the package cycle.
        from repro.resilience.retry import (
            DeadLetterQueue,
            FallbackStore,
            RetryPolicy,
        )

        self.resilience = resilience
        self._chaos = chaos
        if resilience is not None:
            self._retry_policy = resilience.retry_policy()
            self._dlq = DeadLetterQueue(resilience.dead_letter_capacity)
            self._fallback = FallbackStore(resilience.fallback_capacity)
            self._breaker = resilience.make_breaker()
            self._retry_rng = random.Random(resilience.seed)
        else:
            self._retry_policy = RetryPolicy()
            self._dlq = DeadLetterQueue()
            self._fallback = FallbackStore()
            self._breaker = None
            self._retry_rng = random.Random(0)

        self._queue = BoundedQueue(
            self.config.queue_capacity,
            self.config.backpressure,
            on_drop=self._count_dropped,
        )
        self._pool = WorkerPool(
            self._queue,
            self._handle_items,
            workers=self.config.workers,
            batch_size=self.config.drain_budget,
            on_error=lambda exc: self.metrics.record_error(repr(exc)),
            fault=chaos.worker_fault if chaos is not None else None,
        )

        # Multi-process scale-out: decode worker processes behind
        # shared-memory lanes. The thread pool stays constructed (it is
        # the leftovers/replay engine at stop time) but never starts.
        self._procs = None
        if self.config.worker_processes:
            from repro.service.workers import ProcessWorkerPool

            self._procs = ProcessWorkerPool(plan, self.config)

        self._supervisor = None
        if resilience is not None and resilience.supervise:
            from repro.resilience.supervisor import Supervisor

            self._supervisor = Supervisor(
                self._procs if self._procs is not None else self._pool,
                config=resilience.supervisor_config(),
                on_degraded=self._enter_degraded,
            )

        self._store = None
        if resilience is not None and resilience.checkpoint_dir:
            from repro.resilience.checkpoint import CheckpointStore

            self._store = CheckpointStore(
                resilience.checkpoint_dir,
                retain=resilience.checkpoint_retain,
            )
        self._daemon = None
        self._checkpoints_written = 0

        # Durable query layer (repro.query). Lazy import for the same
        # package-cycle reason as the resilience wiring above.
        self._epoch_fingerprints: Dict[int, str] = {}
        self._segments = None
        self._query_engine = None
        if self.config.segment_dir:
            from repro.query.writer import SegmentWriter

            self._segments = SegmentWriter(
                self.tree,
                self.config.segment_dir,
                fingerprint=self._fingerprint_of(self.engine.epoch),
            )
        self._compactor = None
        self._flushes_since_compact = 0
        if self._segments is not None:
            from repro.query.compact import (
                CompactionPolicy,
                Compactor,
                RetentionPolicy,
            )

            self._compactor = Compactor(
                self._segments.store,
                CompactionPolicy(retention=RetentionPolicy(
                    max_segments=self.config.retention_max_segments,
                    max_bytes=self.config.retention_max_bytes,
                    max_age_s=self.config.retention_max_age_s,
                )),
            )
        # Epoch forensics: what each epoch's plan looked like and which
        # GraphDelta installed it — the join target for dead letters.
        self._epoch_history: Dict[int, dict] = {
            self.engine.epoch: {
                "fingerprint": self._fingerprint_of(self.engine.epoch),
                "delta": None,
                "installed_at": time.time(),
            }
        }

        self._degraded = False
        self._degraded_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._stop_result: Optional[bool] = None

        #: The live scrape endpoint (``repro.obs.http.ObsHttpServer``)
        #: while running with ``config.http_port`` set, else None.
        self.http = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ContextService":
        if self._stopped:
            raise ServiceError("service was stopped; build a new one")
        if not self._started:
            self._started = True
            if self._procs is not None:
                self._procs.start()
            else:
                self._pool.start()
            if self._supervisor is not None:
                self._supervisor.start()
            if (
                self._store is not None
                and self.resilience.checkpoint_interval > 0
            ):
                from repro.resilience.checkpoint import CheckpointDaemon

                self._daemon = CheckpointDaemon(
                    self, self.resilience.checkpoint_interval
                )
                self._daemon.start()
            if self.config.http_port is not None:
                from repro.obs.http import ObsHttpServer

                self.http = ObsHttpServer(
                    registry=obs.get_registry(),
                    service=self,
                    host=self.config.http_host,
                    port=self.config.http_port,
                ).start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Close ingestion; with ``drain`` wait for queued samples.

        Returns True only when every submitted sample is accounted for
        at return (aggregated, dead-lettered, policy-dropped, or safely
        retained in the fallback store). A stalled worker that outlives
        ``timeout`` yields False and counts ``service.flush_timeout`` —
        a truthful status instead of the silent success it used to be.
        """
        if self._stopped:
            return self._stop_result if self._stop_result is not None else True
        self._stopped = True
        if self.http is not None:
            # Down first so load balancers stop routing before drain;
            # /ready already reports "service stopped" at this point.
            self.http.stop()
            self.http = None
        if self._supervisor is not None:
            self._supervisor.stop()
        if self._daemon is not None:
            self._daemon.stop()
        self._queue.close()
        self._pool.notify_progress()
        ok = True
        if self._procs is not None:
            # Process topology: close the lanes, let workers drain and
            # exit (each writes its final checkpoint/segments/status),
            # then ingest inline whatever a dead worker left behind so
            # every sample still lands in a conservation bucket.
            leftovers = self._procs.stop(drain=self._started and drain,
                                         timeout=timeout)
            if self._started:
                for batch in leftovers:
                    self._handle_items([batch])
                if len(self._queue):
                    self._shed_queue_to_fallback()
                self.replay_fallback()
                ok = (
                    self._procs.alive() == 0
                    and not len(self._procs._queue)
                )
                if not ok and drain:
                    self.metrics.count("flush_timeout")
        elif self._started and drain:
            self._pool.join(timeout=timeout)
            if self._pool.alive() == 0:
                # All workers finished (normally or dead): anything the
                # pool left behind is retained raw, then replayed inline
                # unless the breaker is holding decode shut.
                if len(self._queue):
                    self._shed_queue_to_fallback()
                self.replay_fallback()
            ok = self._pool.alive() == 0 and not len(self._queue)
            if not ok:
                self.metrics.count("flush_timeout")
        elif self._started:
            ok = self._pool.alive() == 0 and not len(self._queue)
        if (
            ok
            and self._store is not None
            and self.resilience.checkpoint_on_stop
        ):
            try:
                self.checkpoint()
            except Exception:  # noqa: BLE001 - counted by the store
                pass
        if self._procs is not None:
            self._procs.destroy()
        self._stop_result = ok
        return ok

    def __enter__(self) -> "ContextService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Ingestion (producer side)
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        batch: SampleBatch,
        *,
        timeout: Optional[float] = None,
    ) -> int:
        """Queue a columnar :class:`SampleBatch`; the primary ingest call.

        The batch is admitted, dropped, or (in degraded mode) retained
        **whole** — its sample count lands in exactly one accounting
        bucket, which is what keeps the conservation law exact for
        batch traffic. Epochs were stamped per sample when the batch
        was built (``SampleBatch.append(..., epoch=...)``). Returns the
        number of samples accepted (``len(batch)`` or 0); an iterable
        of :class:`Sample` objects is packed into a batch first.
        """
        if not self._started:
            raise ServiceError("service not started; call start() first")
        if self._stopped:
            raise ServiceError("service is stopped")
        if not isinstance(batch, SampleBatch):
            batch = SampleBatch.from_samples(batch)
        self.metrics.count("batch.submitted")
        count = len(batch)
        if count == 0:
            return 0
        self.metrics.count("submitted", count)
        self.metrics.count("batch.samples", count)
        self.metrics.count("batch.rows", batch.rows)
        self.metrics.observe_queue_depth(len(self._queue))
        if self._degraded:
            # The pool is retired: queueing would strand the samples, so
            # they go straight to bounded raw retention.
            return sum(self._retain_fallback(sample) for sample in batch)
        if self._procs is not None:
            # Lane routing is by function name (stable across processes)
            # so each context always decodes on its shard owner; drops
            # are tallied per lane, by sample count.
            return self._procs.submit(batch, timeout=timeout)
        # Drops of every flavour (newest, oldest, timeout, error, and
        # closed-while-racing-stop) are tallied by the queue itself, by
        # sample count, so accounting stays exact even when the
        # discarded batch is not the one being submitted; the queue's
        # ``on_drop`` hook exports the same tally as service.dropped.
        if self._queue.put(batch, timeout=timeout, on_closed="drop"):
            return count
        return 0

    def batch_sink(self, batch_max: Optional[int] = None) -> Callable:
        """A buffering collector sink over :meth:`submit_batch`.

        The returned callable has the ``sink(node, snapshot, probe)``
        shape :class:`~repro.runtime.collector.ContextCollector`
        expects. It buffers observations as counted rows of five
        columns (node, stack object, ID, its probe's plan epoch, and a
        count; the epoch is resolved once per plan and again after every
        install or renumbering of the engine's epochs, so hot swaps
        mid-buffer are safe). An observation whose node (``==``), stack
        object (``is``), ID and epoch equal the last row's adds one to
        that row's count; any other appends a row. Whenever
        ``batch_max`` samples accumulate it packs the rows with
        :meth:`SampleBatch.from_columns` and submits the batch.

        ``batch_max`` defaults to half the queue,
        ``max(1, config.queue_capacity // 2)``: the largest batch that
        fits beside another, so under ``block`` a producer can queue
        one batch while a worker decodes the previous one. Each
        hand-off costs a queue round trip and a regroup and re-add of
        the batch's distinct contexts whatever its size, so fewer,
        larger batches cost less per sample. The worker drain budget
        (``config.drain_budget``) does not size these batches.

        A live sink therefore holds up to ``batch_max`` observations
        that the tree has not seen, and nothing submits them on a
        timer: call its ``flush()`` attribute — or
        ``collector.close()`` — to submit the tail, and before
        :meth:`flush` whenever the tree must hold every observation
        made so far.

        If a submit fails with :class:`~repro.errors.ServiceError`, the
        error is re-raised with an ``unsubmitted`` attribute: the
        ``(node, snapshot)`` pairs of the failed batch that the service
        never counted, one per sample (empty for an overflow, whose
        samples the queue or lanes counted as dropped). The sink's
        buffer is empty afterwards, so every observation is submitted,
        carried by an error, or still buffered (``buffered()``). Under
        ``drop-newest``, ``drop-oldest`` and ``error`` a refused
        hand-off loses its whole batch, each sample counted dropped.
        """
        limit = batch_max or max(1, self.config.queue_capacity // 2)
        engine = self.engine
        # (plan, engine generation, epoch) of the last resolved stamp.
        stamp = (None, -1, 0)
        lock = threading.Lock()
        acquire, release = lock.acquire, lock.release
        nodes: list = []
        stacks: list = []
        ids: list = []
        epochs: list = []
        counts: list = []
        columns = (nodes, stacks, ids, epochs, counts)
        add_node, add_stack = nodes.append, stacks.append
        add_id, add_epoch, add_count = ids.append, epochs.append, counts.append
        # The last row's fields and the samples buffered: an observation
        # equal to the last row only bumps its count. After a take the
        # last stack is a fresh object no snapshot holds, so the next
        # observation opens a row.
        fresh = object()
        last_node = last_id = last_epoch = None
        last_stack = fresh
        held = 0

        def take():
            nonlocal held, last_stack
            taken = tuple(column[:] for column in columns)
            for column in columns:
                column.clear()
            held = 0
            last_stack = fresh
            return taken

        def submit(taken):
            batch = SampleBatch.from_columns(*taken[:4], counts=taken[4])
            try:
                self.submit_batch(batch)
            except ServiceError as exc:
                exc.unsubmitted = (
                    [] if isinstance(exc, IngestOverflowError)
                    else list(chain.from_iterable(map(
                        repeat, zip(taken[0], zip(taken[1], taken[2])),
                        taken[4],
                    )))
                )
                raise

        def flush():
            with lock:
                taken = take()
            if taken[0]:
                submit(taken)

        def _sink(node, snapshot, probe=None):
            nonlocal stamp, held, last_node, last_stack, last_id, last_epoch
            plan = getattr(probe, "plan", None)
            if plan is stamp[0] and engine.generation == stamp[1]:
                epoch = stamp[2]
            else:
                generation = engine.generation
                epoch = (
                    engine.epoch if plan is None else engine.epoch_of(plan)
                )
                stamp = (plan, generation, epoch)
            stack, current_id = snapshot
            acquire()
            try:
                if (
                    stack is last_stack
                    and current_id == last_id
                    and node == last_node
                    and epoch == last_epoch
                ):
                    counts[-1] += 1
                else:
                    add_node(node)
                    add_stack(stack)
                    add_id(current_id)
                    add_epoch(epoch)
                    add_count(1)
                    last_node, last_stack = node, stack
                    last_id, last_epoch = current_id, epoch
                held += 1
                if held < limit:
                    return
                taken = take()
            finally:
                release()
            submit(taken)

        _sink.flush = flush
        _sink.buffered = lambda: held
        return _sink

    def flush(self, timeout: float = 30.0) -> None:
        """Block until everything submitted so far is accounted for.

        "Accounted" follows the conservation law: aggregated,
        dead-lettered, counted as an epoch mismatch, dropped by policy,
        or retained in the fallback store. While the breaker is closed,
        flush also replays the fallback so a post-storm flush leaves the
        tree complete. On timeout it counts ``service.flush_timeout``
        and raises — never a silent half-flush. Observations a
        :meth:`batch_sink` still buffers are not submitted yet: flush
        the sink (or close its collector) first.
        """
        deadline = time.monotonic() + timeout
        procs = self._procs
        while time.monotonic() < deadline:
            seen = self._pool.progress
            # Degraded, no workers are left: the flushing thread retains
            # what they would have drained.
            if procs is None:
                if self._degraded:
                    self._shed_queue_to_fallback()
                synced = not len(self._queue)
            else:
                if self._degraded:
                    self._drain_dead_lanes()
                remaining = max(0.01, deadline - time.monotonic())
                synced = procs.sync(timeout=remaining)
            if len(self._fallback):
                self.replay_fallback()
            acct = self.accounting()
            settled = sum(acct[term] for term in _SETTLED)
            if synced and settled >= acct["submitted"]:
                return
            # Handled batches, drops, worker exits and close each count
            # a progress event: wake at the next one, or after 2 ms.
            self._pool.wait_progress(seen, 0.002)
        self.metrics.count("flush_timeout")
        raise ServiceError(f"flush timed out after {timeout}s")

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def install_update(self, update: PlanUpdate) -> int:
        """Adopt a repaired plan (PR 1 ``apply_delta`` output).

        Returns the new epoch. Samples already queued under older epochs
        still decode under their own plans; new submissions against the
        repaired plan stamp the new epoch.
        """
        self._reject_multiproc_swap()
        epoch = self.engine.install_update(update)
        self.metrics.count("hot_swaps")
        delta = update.delta
        self._record_epoch(epoch, {
            "added_nodes": sorted(delta.added_nodes),
            "removed_nodes": sorted(delta.removed_nodes),
            "added_edges": len(delta.added_edges),
            "removed_edges": len(delta.removed_edges),
        })
        return epoch

    def install_plan(self, plan: DeltaPathPlan) -> int:
        """Adopt a full rebuild as the next epoch."""
        self._reject_multiproc_swap()
        epoch = self.engine.install(plan)
        self.metrics.count("hot_swaps")
        self._record_epoch(epoch, None)
        return epoch

    def _reject_multiproc_swap(self) -> None:
        """Hot swaps are a single-process feature, for now.

        Worker processes decode with the plan they were forked with;
        installing a new epoch in the parent only would stamp samples
        with epochs the workers cannot resolve, turning every
        post-swap sample into a dead letter. Until a cross-process
        plan-distribution protocol exists, the swap is refused loudly.
        """
        if self._procs is not None:
            raise ServiceError(
                "hot swaps are not supported with worker_processes >= 1; "
                "decode workers hold the plan they were spawned with — "
                "stop the fleet and start a new one on the new plan"
            )

    def _fingerprint_of(self, epoch: int) -> str:
        """The SHA-256 plan fingerprint of ``epoch`` ("" once pruned).

        Memoized: quarantine stamps it on every dead letter, and the
        fingerprint of a retained epoch never changes.
        """
        cached = self._epoch_fingerprints.get(epoch)
        if cached is not None:
            return cached
        from repro.resilience.checkpoint import plan_fingerprint

        try:
            fingerprint = plan_fingerprint(self.engine.plan_for(epoch))
        except EpochError:
            fingerprint = ""
        self._epoch_fingerprints[epoch] = fingerprint
        return fingerprint

    def _record_epoch(self, epoch: int, delta_summary) -> None:
        self._epoch_history[epoch] = {
            "fingerprint": self._fingerprint_of(epoch),
            "delta": delta_summary,
            "installed_at": time.time(),
        }
        if self._segments is not None:
            self._segments.set_fingerprint(self._fingerprint_of(epoch))

    def epoch_history(self) -> Dict[int, dict]:
        """Every installed epoch's fingerprint + GraphDelta summary."""
        return {epoch: dict(rec) for epoch, rec in self._epoch_history.items()}

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    @property
    def plan(self) -> DeltaPathPlan:
        return self.engine.plan

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _count_dropped(self, count: int) -> None:
        """The queue's drop hook: a drop settles samples a flush waits
        for."""
        self.metrics.count("dropped", count)
        self._pool.notify_progress()

    def _handle_items(self, items: Sequence[SampleBatch]) -> None:
        """Drain handler: group a drained list of batches, then make
        the one first attempt on the groups."""
        start = time.perf_counter()
        total = sum(len(batch) for batch in items)
        groups = self._group(items)
        with obs.span("service.batch", samples=total, groups=len(groups)):
            self.metrics.count("ingested", total)
            self.metrics.count("batch.groups", len(groups))
            self.metrics.count("batch.dedup_saved", total - len(groups))
            self._ingest_groups(groups)
            self.metrics.count("batches")
            self.metrics.batch_latency.observe(time.perf_counter() - start)

    @staticmethod
    def _group(batches: Sequence[SampleBatch]) -> Dict[Tuple, list]:
        """``(epoch, node, stack, id) -> [n_samples, weight, sources]``;
        a source is a ``(batch, group-key)`` pair (see :meth:`_materialize`).
        """
        groups: Dict[Tuple, list] = {}
        for batch in batches:
            for key, (n, w) in batch.groups().items():
                gkey = (
                    key[0], batch.node_of(key), batch.stack_of(key), key[3]
                )
                slot = groups.get(gkey)
                if slot is None:
                    groups[gkey] = [n, w, [(batch, key)]]
                else:
                    slot[0] += n
                    slot[1] += w
                    slot[2].append((batch, key))
        return groups

    @staticmethod
    def _materialize(sources) -> List[Sample]:
        """The actual samples behind a group's sources (failure path),
        each counted row once per sample."""
        return [
            sample
            for batch, key in sources
            for sample in batch.samples_of(key)
        ]

    def _ingest_groups(self, groups: Dict[Tuple, list]) -> None:
        """The first attempt on one drained batch's groups.

        An armed breaker that refuses a group retains it raw; an armed
        chaos fault fails it transiently. The rest decode in one
        ``decode_batch``, the breaker hears one outcome per admitted
        group, the successes land in one ``add_counts`` and only the
        failures go on to :meth:`_ingest_failed` — so each group ends in
        exactly one accounting bucket.
        """
        breaker = self._breaker
        chaos = self._chaos
        admitted = []
        results = []
        for key, slot in groups.items():
            if breaker is not None and not breaker.allow():
                self._retain_group(slot)
                continue
            if chaos is not None:
                try:
                    chaos.decode_fault()
                except Exception as exc:  # noqa: BLE001 - presumed transient
                    results.append((key, None, exc))
                    continue
            admitted.append(key)
        t0 = time.perf_counter()
        if admitted:
            results.extend(self.engine.decode_batch(admitted))
        entries = []
        aggregated = 0
        failed = []
        for key, decoded, exc in results:
            if exc is not None:
                if breaker is not None:
                    breaker.record_failure()
                failed.append((key, exc))
                continue
            if breaker is not None:
                breaker.record_success()
            pid, has_gaps, leaf = decoded
            n, weight, _sources = groups[key]
            entries.append((pid, has_gaps, weight, key[0], leaf))
            aggregated += n
        if entries:
            self.tree.add_counts(entries)
            self.metrics.count("aggregated", aggregated)
        if admitted:
            self.metrics.decode_latency.observe(time.perf_counter() - t0)
        for key, exc in failed:
            self._ingest_failed(key, groups[key], exc)

    def _ingest_failed(self, key: Tuple, slot: list, exc: Exception) -> None:
        """The failure ladder: a deterministic failure dead-letters at
        once; a transient one is retained raw while the breaker is open,
        else retried with backoff up to the policy's attempts, then
        dead-lettered."""
        breaker = self._breaker
        attempts = 1
        while True:
            if isinstance(exc, (DecodingError, EpochError)):
                self._dead_letter_group(key, slot, exc, attempts)
                return
            if breaker is not None and breaker.state == "open":
                self._retain_group(slot)
                return
            if attempts >= self._retry_policy.max_attempts:
                self._dead_letter_group(key, slot, exc, attempts)
                return
            self.metrics.count("retries")
            obs.counter("resilience.retries").inc()
            time.sleep(self._retry_policy.delay(attempts, self._retry_rng))
            attempts += 1
            try:
                if self._chaos is not None:
                    self._chaos.decode_fault()
                [(_key, decoded, retry_exc)] = self.engine.decode_batch([key])
            except Exception as raised:  # noqa: BLE001 - classified above
                decoded, retry_exc = None, raised
            if retry_exc is not None:
                if breaker is not None:
                    breaker.record_failure()
                exc = retry_exc
                continue
            if breaker is not None:
                breaker.record_success()
            pid, has_gaps, leaf = decoded
            n, weight, _sources = slot
            self.tree.add_counts([(pid, has_gaps, weight, key[0], leaf)])
            self.metrics.count("aggregated", n)
            return

    def _dead_letter_group(
        self, key: Tuple, slot: list, exc: Exception, attempts: int
    ) -> None:
        """Dead-letter a group's samples, stamped with the plan
        fingerprint of their epoch."""
        epoch, node = key[0], key[1]
        if isinstance(exc, (DecodingError, EpochError)):
            self.metrics.record_error(f"{node}@epoch{epoch}: {exc}")
        else:
            self.metrics.record_error(
                f"{node}@epoch{epoch} (after {attempts} attempts): {exc!r}"
            )
        n, _weight, sources = slot
        fingerprint = self._fingerprint_of(epoch)
        for sample in self._materialize(sources):
            self._dlq.quarantine(
                sample, exc, attempts, fingerprint=fingerprint
            )
        self.metrics.count("dead_lettered", n)
        obs.counter("resilience.dead_letters").inc(n)

    def _retain_group(self, slot: list) -> None:
        for sample in self._materialize(slot[2]):
            self._retain_fallback(sample)

    def _retain_fallback(self, sample: Sample) -> bool:
        if self._fallback.retain(sample):
            self.metrics.count("fallback_retained")
            return True
        self.metrics.count("fallback_dropped")
        return False

    def _shed_queue_to_fallback(self) -> None:
        """Drain whatever sits in the queue into raw retention."""
        while True:
            items = self._queue.get_batch(256, timeout=0)
            if not items:
                return
            for sample in iter_samples(items):
                self._retain_fallback(sample)

    def _enter_degraded(self) -> None:
        """Supervisor callback: restart budget exhausted.

        Ingestion is declared degraded: the queue is shed into the raw
        fallback store and new submissions bypass the (dead) pool. The
        service stays queryable and the raw samples stay replayable.
        """
        with self._degraded_lock:
            if self._degraded:
                return
            self._degraded = True
        obs.gauge("resilience.degraded").set(1)
        self._shed_queue_to_fallback()
        if self._procs is not None:
            self._drain_dead_lanes()

    def _drain_dead_lanes(self) -> None:
        """Retain raw whatever dead workers left queued in their lanes."""
        for batch in self._procs.drain_leftovers(only_dead=True):
            for sample in batch:
                self._retain_fallback(sample)

    @property
    def degraded(self) -> bool:
        return self._degraded

    # ------------------------------------------------------------------
    # Fallback replay / quarantine inspection
    # ------------------------------------------------------------------
    def replay_fallback(self, limit: Optional[int] = None) -> int:
        """Re-ingest retained raw samples through the normal decode path.

        No-op while the breaker is open (that is what the retention is
        *for*). Replay happens on the calling thread: the samples are
        packed into one batch and take the same first attempt as a
        drained batch, so each ends aggregated, dead-lettered, or
        retained again (a half-open breaker admits only its probes).
        Returns the number of samples replayed.
        """
        if self._breaker is not None and self._breaker.state == "open":
            return 0
        samples = self._fallback.drain(limit)
        if samples:
            self.metrics.count("fallback_replayed", len(samples))
            obs.counter("resilience.fallback_replays").inc(len(samples))
            self._ingest_groups(
                self._group([SampleBatch.from_samples(samples)])
            )
        return len(samples)

    def dead_letters(self) -> List:
        """The quarantined samples (newest-bounded; see DeadLetterQueue)."""
        return self._dlq.letters()

    # ------------------------------------------------------------------
    # Durable checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, directory: Optional[str] = None) -> str:
        """Write a durable snapshot; returns the checkpoint file path.

        Uses the configured store by default; ``directory`` overrides it
        for one-off snapshots. With a segment store configured the
        segment writer flushes first and the snapshot is a pointer into
        the store (format v3: how far the store reaches, which does not
        grow with history); without one it carries the CCT rows (format
        v2). Both carry the current epoch and the plan fingerprint that
        :meth:`recover` verifies.
        """
        from repro.resilience.checkpoint import CheckpointStore

        store = self._store
        if directory is not None:
            retain = (
                self.resilience.checkpoint_retain
                if self.resilience is not None
                else 3
            )
            store = CheckpointStore(directory, retain=retain)
        if store is None:
            raise CheckpointError(
                "no checkpoint directory configured; pass directory= or "
                "set ResilienceConfig.checkpoint_dir"
            )
        if self._procs is not None and self._started and not self._stopped:
            # Workers checkpoint their own shards when they ack the
            # sync; the parent snapshot below covers only parent-side
            # rows (leftover re-ingest, fallback replay).
            self._procs.sync(timeout=10.0)
        return self._checkpoint_into(store)

    def _checkpoint_into(self, store) -> str:
        """Flush and write a pointer (segment store), or write full rows."""
        from repro.resilience.checkpoint import CheckpointPointer

        fault = (
            self._chaos.checkpoint_fault() if self._chaos is not None else None
        )
        epoch = self.engine.epoch
        if self._segments is not None:
            with obs.span("resilience.checkpoint"):
                self._segments.flush(fault=fault)
                pointer = CheckpointPointer(
                    epoch=epoch,
                    fingerprint=self._fingerprint_of(epoch),
                    **self._segments.store.position(),
                )
                path = store.write_pointer(pointer, fault=fault)
        else:
            encoded = self._encoded_checkpoint()
            with obs.span("resilience.checkpoint", rows=len(encoded.rows)):
                path = store.write_encoded(encoded, fault=fault)
        self._checkpoints_written += 1
        return path

    def _encoded_checkpoint(self):
        """This tree's full checkpoint, its sections taken straight from
        the context store's trie (:meth:`ContextStore.encode_counted`),
        so no path is decoded: the bytes :meth:`CheckpointStore.write`
        would make of ``tree.rows()``."""
        from repro.resilience.checkpoint import EncodedCheckpoint

        epoch = self.engine.epoch
        names, nodes, rows = self.tree.store.encode_counted(
            self.tree.count_rows()
        )
        return EncodedCheckpoint(
            epoch=epoch,
            fingerprint=self._fingerprint_of(epoch),
            names=names,
            nodes=nodes,
            rows=rows,
        )

    def flush_segments(self) -> Optional[str]:
        """Flush the aggregation delta into one durable query segment.

        Returns the new ``seg-*.dpqs`` path, or None when nothing new
        accumulated since the last flush. The CheckpointDaemon calls
        this on its interval; call it manually for explicit flush
        points (the chaos harness does, so a stop() can model a crash
        without an implicit flush hiding un-persisted samples).
        Raises :class:`QueryError` when no ``segment_dir`` is
        configured; chaos checkpoint faults are threaded through so a
        flush can "crash" mid-write like any other durable write.
        """
        if self._segments is None:
            raise QueryError(
                "no segment directory configured; set "
                "ServiceConfig.segment_dir to enable the query layer"
            )
        if self._procs is not None and self._started and not self._stopped:
            # Workers flush their own segment stores on the sync ack.
            self._procs.sync(timeout=10.0)
        fault = (
            self._chaos.checkpoint_fault() if self._chaos is not None else None
        )
        return self._segments.flush(fault=fault)

    def compact_segments(
        self, force: bool = True, fault=None
    ) -> Optional[dict]:
        """Compact the segment store under the configured retention caps.

        ``force=True`` (the default) is one full swap: every live
        segment merges into one cumulative segment, less the spans
        retention retires. ``force=False`` runs only what is due, and
        under a byte or age cap rewrites only the runs that changed
        (the trimmed oldest run, the young deltas, file-cap merges;
        see :mod:`repro.query.compact`), each its own generation swap.
        Returns the compactor's report dict, or None when nothing was
        due. Chaos compaction faults are threaded through so a swap
        can "crash" at any byte like every other durable write. Raises
        :class:`QueryError` when no ``segment_dir`` is configured.
        """
        if self._compactor is None:
            raise QueryError(
                "no segment directory configured; set "
                "ServiceConfig.segment_dir to enable the query layer"
            )
        if fault is None and self._chaos is not None:
            fault = self._chaos.compaction_fault()
        return self._compactor.compact(fault=fault, force=force)

    def maybe_compact_segments(self) -> Optional[dict]:
        """CheckpointDaemon hook: compact every ``compact_every`` flushes
        (not forced: :meth:`compact_segments` with ``force=False``).

        Returns the report of a swap that ran, else None. Never raises
        for "not configured" — the daemon calls this unconditionally.
        """
        if self._compactor is None or self.config.compact_every <= 0:
            return None
        self._flushes_since_compact += 1
        if self._flushes_since_compact < self.config.compact_every:
            return None
        self._flushes_since_compact = 0
        fault = (
            self._chaos.compaction_fault() if self._chaos is not None else None
        )
        return self._compactor.compact(fault=fault, force=False)

    def recover(self, source, *, allow_mismatch: bool = False) -> Dict:
        """Rebuild the tree from the newest valid checkpoint in ``source``.

        ``source`` is a checkpoint directory (or a
        :class:`~repro.resilience.checkpoint.CheckpointStore`). A worker
        pool root recovers the fleet: each ``worker-N/checkpoints`` with
        its segments under ``segment_dir/worker-N``, restored additively
        (workers own disjoint contexts). Must be called on a fresh
        service — before :meth:`start`, with an empty tree — so
        recovered counts never mix with live ones untraceably. The plan
        fingerprint must match the installed plan (``allow_mismatch=
        True`` skips the check, for forensics on a changed binary).

        With a segment store, a compaction the dead process left
        half-done is resolved first; the tree is then rebuilt from the
        live segments and retired sidecars, so it equals what the
        stores hold and the segment writer's baseline is the tree. A
        pointer (format v3) must still be covered by its store (see
        :class:`~repro.resilience.checkpoint.CheckpointPointer`), else
        :class:`CheckpointError`. A full checkpoint (v1/v2) beside a
        store adds, per key, what it holds beyond the store, which the
        next flush writes. Without a segment store full rows restore as
        they are and a pointer raises. Returns a summary dict.
        """
        from repro.query.manifest import SegmentStore
        from repro.resilience.checkpoint import CheckpointStore

        if self._started:
            raise CheckpointError("recover() must run before start()")
        if self.tree.total_samples:
            raise CheckpointError(
                "recover() needs an empty tree; this service already "
                "aggregated samples"
            )
        t0 = time.perf_counter()
        own = self._segments.store if self._segments is not None else None
        workers = []
        if isinstance(source, str) and os.path.isdir(source):
            workers = sorted(
                entry.path
                for entry in os.scandir(source)
                if entry.is_dir()
                and entry.name.startswith("worker-")
                and os.path.isdir(os.path.join(entry.path, "checkpoints"))
            )
        places = [(source, own)]
        if workers:
            places = [(
                os.path.join(worker, "checkpoints"),
                own and SegmentStore(os.path.join(
                    self.config.segment_dir, os.path.basename(worker)
                )),
            ) for worker in workers]
        found = []
        fingerprint = self._fingerprint_of(self.engine.epoch)
        for place, segments in places:
            store = (
                place if isinstance(place, CheckpointStore)
                else CheckpointStore(place)
            )
            newest = store.load_newest_encoded()
            if newest is None:
                if workers:
                    continue
                raise CheckpointError(
                    f"no valid checkpoint in {store.directory!r}"
                )
            path, loaded = newest
            if loaded.fingerprint != fingerprint and not allow_mismatch:
                raise CheckpointError(
                    f"checkpoint {path!r} was written under a different "
                    f"plan (fingerprint {loaded.fingerprint[:12]}… vs "
                    f"installed {fingerprint[:12]}…); pass "
                    f"allow_mismatch=True to force"
                )
            found.append((path, loaded, segments))
        if not found:
            raise CheckpointError(
                f"no valid worker checkpoint under {workers!r}"
            )
        restored = self._restore(found)
        self.metrics.count("recovered", restored)
        epoch = max(self.engine.epoch, *(item[1].epoch for item in found))
        self.engine.advance_epoch_to(epoch)
        summary = {"path": found[0][0], "epoch": epoch, "samples": restored}
        if own is not None:
            self._segments.set_fingerprint(self._fingerprint_of(epoch))
            summary["rows"] = len(self.tree.count_rows())
        else:
            summary["rows"] = sum(len(item[1].rows) for item in found)
        if workers:
            summary["paths"] = [item[0] for item in found]
            summary["workers"] = len(found)
        obs.counter("resilience.recoveries").inc()
        obs.histogram("resilience.recover_us").observe_us(
            (time.perf_counter() - t0) * 1e6
        )
        return summary

    def _restore(self, found) -> int:
        """Land ``(path, checkpoint, segment store or None)`` triples in
        the tree; returns the samples restored."""
        from repro.query.compact import Compactor
        from repro.query.locks import LockHeldError
        from repro.query.writer import restore_tree
        from repro.resilience.checkpoint import CheckpointPointer

        def settle(store, compactor) -> None:
            # Resolve a half-done swap (forward when its output is
            # durable, back otherwise), then serve one generation.
            try:
                compactor.recover()
            except LockHeldError:
                pass  # a live mutator owns the swap; reads stay safe
            store.refresh()

        own = self._segments.store if self._segments is not None else None
        if own is not None:
            settle(own, self._compactor)
        restored = 0
        full = []
        for path, loaded, store in found:
            pointer = isinstance(loaded, CheckpointPointer)
            if store is None:
                if pointer:
                    raise CheckpointError(
                        f"checkpoint {path!r} points into a segment store; "
                        f"set ServiceConfig.segment_dir to recover it"
                    )
                restored += self.tree.restore_trie(
                    loaded.names, loaded.nodes, loaded.rows
                )
                continue
            if store is not own:
                settle(store, Compactor(store))
            if pointer:
                loaded.check_covered(path, store)
            else:
                full.append(loaded)
            if store is not own:
                restored += restore_tree(self.tree, store)
        if own is not None:
            restored += self._segments.restore(beyond=full)
        return restored

    def _worker_segment_dirs(self) -> List[str]:
        """Per-worker segment stores under ``segment_dir`` (sorted)."""
        root = self.config.segment_dir
        if not root or not os.path.isdir(root):
            return []
        return sorted(
            entry.path
            for entry in os.scandir(root)
            if entry.is_dir() and entry.name.startswith("worker-")
        )

    # ------------------------------------------------------------------
    # Query API — uniform keyword-only ``epoch=`` / ``decoded=`` contract
    # ------------------------------------------------------------------
    def top_contexts(
        self,
        k: int = 10,
        *,
        epoch: Optional[int] = None,
        decoded: bool = True,
    ) -> List[Tuple[int, object]]:
        """The ``k`` hottest calling contexts as (count, node path).

        ``epoch`` restricts the ranking to samples stamped with that
        plan epoch; ``decoded=False`` returns compact integer context
        ids in place of paths (resolve with ``service.store.path``).
        Only the contexts whose count reaches the k-th largest are
        decoded. A negative ``k`` raises :class:`ServiceError`.
        """
        return self._merged_tree().top_contexts(
            k, epoch=epoch, decoded=decoded
        )

    def _merged_tree(self):
        """The tree the query views read: local, or fleet-merged.

        Single-process, this is ``self.tree``.  With worker processes
        it is a fresh tree holding the parent rows plus every worker's
        latest reported rows (each worker's shard set appears exactly
        once — see :meth:`ProcessWorkerPool.merged_rows`).  A running
        fleet is synced first so the merged view is exact at a
        quiescent point rather than trailing the last heavy status.
        """
        if self._procs is None:
            return self.tree
        if self._started and not self._stopped:
            self._procs.sync(timeout=5.0)
        merged = ShardedContextTree(
            self.config.shards,
            store=ContextStore(compression=self.config.store_compression),
        )
        merged.restore_rows(self.tree.rows())
        merged.restore_rows(self._procs.merged_rows())
        return merged

    def function_totals(
        self,
        leaf_only: bool = False,
        *,
        epoch: Optional[int] = None,
        decoded: bool = True,
    ) -> Dict[object, int]:
        """Per-function rollups (see :meth:`ShardedContextTree.function_totals`)."""
        return self._merged_tree().function_totals(
            leaf_only=leaf_only, epoch=epoch, decoded=decoded
        )

    def ucp_stats(
        self,
        *,
        epoch: Optional[int] = None,
        decoded: bool = True,
    ) -> Dict[str, int]:
        """How much traffic crossed dynamic-loading gaps.

        ``epoch`` restricts the totals to that plan epoch's samples.
        ``decoded`` is accepted for signature uniformity with the other
        queries; the stats are purely numeric, so it has no effect.
        """
        tree = self._merged_tree()
        if epoch is None:
            total = tree.total_samples
        else:
            total = tree.weight_total(epoch=epoch)
        gaps = tree.gap_total(epoch=epoch)
        return {
            "samples": total,
            "gap_samples": gaps,
            "gap_free_samples": total - gaps,
        }

    def query(self):
        """The durable :class:`~repro.query.engine.QueryEngine`.

        Answers come from the flushed segments (refreshed on every
        call), not from process memory: time-windowed top-K, window
        diffs, rollups, flame-graph export — see ``docs/QUERY.md``.
        Raises :class:`QueryError` without a ``segment_dir``.
        """
        if self._segments is None:
            raise QueryError(
                "no segment directory configured; set "
                "ServiceConfig.segment_dir to enable the query layer"
            )
        worker_dirs = tuple(self._worker_segment_dirs())
        if (
            self._query_engine is None
            or worker_dirs != getattr(self, "_query_dirs", None)
        ):
            from repro.query.engine import QueryEngine

            store = self._segments.store
            if worker_dirs:
                from repro.query.manifest import (
                    CompositeSegmentStore,
                    SegmentStore,
                )

                store = CompositeSegmentStore(
                    [store] + [SegmentStore(d) for d in worker_dirs]
                )
            self._query_engine = QueryEngine(store)
            self._query_dirs = worker_dirs
        return self._query_engine.refresh()

    def forensics(self) -> List[dict]:
        """Dead letters joined to the plan epoch that explains them.

        Groups the quarantine queue by (epoch, plan fingerprint) and
        attaches each epoch's recorded :class:`GraphDelta` summary plus
        the segments carrying traffic decoded under the same plan —
        the UCP forensics query, served without a segment store too
        (the segment join is just empty then).
        """
        from repro.query.engine import ucp_forensics

        segments = (
            self._segments.store.segments()
            if self._segments is not None
            else None
        )
        return ucp_forensics(
            self.dead_letters(),
            epoch_history=self._epoch_history,
            segments=segments,
        )

    def report(self) -> ContextTreeReport:
        """The merged calling-context tree (a fresh copy)."""
        return self._merged_tree().merged_report()

    def render_report(
        self, min_total: int = 1, max_depth: Optional[int] = None
    ) -> str:
        return self._merged_tree().render(
            min_total=min_total, max_depth=max_depth
        )

    def accounting(self) -> Dict[str, int]:
        """The conservation-law terms, in one place.

        ``submitted == aggregated + dead_lettered + epoch_mismatches +
        dropped + fallback_dropped + fallback_pending`` must hold at any
        quiescent point (post-``flush`` or post-``stop``); the chaos
        oracles assert exactly this dict.
        """
        counters = self.metrics.snapshot()
        out = {
            "submitted": counters["submitted"],
            "aggregated": counters["aggregated"],
            "dead_lettered": counters["dead_lettered"],
            "epoch_mismatches": counters["epoch_mismatches"],
            "dropped": self._queue.dropped,
            "fallback_dropped": counters["fallback_dropped"],
            "fallback_pending": len(self._fallback),
            "decode_errors": counters["decode_errors"],
            "recovered": counters["recovered"],
        }
        if self._procs is not None:
            # The parent owns ``submitted`` and its own buckets
            # (leftover re-ingest, fallback replay); workers own the
            # decode-side buckets, merged from sealed generations and
            # live statuses.  ``crash_lost`` (samples a SIGKILL ate
            # between lane pop and status write) is already folded into
            # the pool's dead_lettered, and lane drops into dropped.
            fleet = self._procs.accounting()
            for bucket in _SETTLED + ("decode_errors", "recovered"):
                out[bucket] += fleet.get(bucket, 0)
            out["crash_lost"] = fleet.get("crash_lost", 0)
        return out

    def resilience_stats(self) -> Dict[str, object]:
        """Supervisor / breaker / quarantine / checkpoint state."""
        return {
            "degraded": self._degraded,
            "supervisor": (
                self._supervisor.snapshot()
                if self._supervisor is not None
                else None
            ),
            "breaker": (
                self._breaker.snapshot() if self._breaker is not None else None
            ),
            "dead_letter": {
                "pending": len(self._dlq),
                "total": self._dlq.total,
                "evicted": self._dlq.evicted,
            },
            "fallback": {
                "pending": len(self._fallback),
                "retained": self._fallback.retained,
                "dropped": self._fallback.dropped,
            },
            "checkpoints_written": self._checkpoints_written,
            "workers": (
                self._procs.stats() if self._procs is not None else None
            ),
        }

    def service_metrics(self) -> Dict[str, object]:
        """Counters + latency histograms + cache + shard balance."""
        out = self.metrics.snapshot(queue_depth=len(self._queue))
        out["caches"] = self.engine.cache_stats()
        stats = self.tree.shard_stats()
        out["shards"] = {
            "count": self.config.shards,
            "samples": stats.sizes,
            "imbalance": round(stats.imbalance, 3),
        }
        out["epochs_retained"] = self.engine.retained_epochs()
        out["unique_contexts"] = self.tree.unique_contexts
        store_stats = self.store.stats()
        self.metrics.observe_store(store_stats)
        out["store"] = store_stats
        out["resilience"] = self.resilience_stats()
        out["segments"] = (
            self._segments.stats() if self._segments is not None else None
        )
        out["compaction"] = (
            self._compactor.stats() if self._compactor is not None else None
        )
        return out

    @property
    def http_port(self) -> Optional[int]:
        """The scrape endpoint's actually-bound port while it serves.

        With ``http_port=0`` the OS picks an ephemeral port; this
        resolves it so callers (tests, service discovery) never need to
        reach into ``service.http``. None while no endpoint is up.
        """
        if self.http is None:
            return None
        return self.http.port

    def merged_registry_snapshot(self) -> Optional[Dict[str, object]]:
        """The parent registry snapshot merged with every worker's.

        None in single-process topology (the live registry is already
        the whole truth).  With worker processes, merges the parent's
        snapshot with the sealed final snapshot of every dead worker
        generation plus the latest heavy snapshot of every live one
        (:meth:`MetricsRegistry.merge` semantics: counters sum, gauges
        max, histogram buckets sum exactly), and grafts a synthetic
        ``workers`` child carrying per-slot counters so scrapes can
        tell the workers apart.
        """
        if self._procs is None:
            return None
        from repro.obs.registry import MetricsRegistry

        snaps = [obs.get_registry().snapshot()]
        snaps.extend(self._procs.registry_snapshots())
        merged = MetricsRegistry.merge(*snaps)
        children = merged.setdefault("children", {})
        children["workers"] = self._procs.worker_labels()
        return merged

    def stats(self) -> Dict[str, object]:
        """:meth:`service_metrics` plus the flat registry namespace.

        ``registry`` holds the same dotted names
        (``service.submitted``, ``service.decode_latency_us.p99_us``,
        ...) that the process-wide exporters (``repro obs``,
        ``--metrics-out``, Prometheus) publish — one metric namespace
        shared by ``BENCH_serve.json`` and ``BENCH_obs.json``.
        """
        out = self.service_metrics()
        registry = self.metrics.registry
        out["registry"] = {
            f"{registry.name}.{key}": value
            for key, value in registry.flatten().items()
        }
        out["http_port"] = self.http_port
        out["accounting"] = self.accounting()
        return out
