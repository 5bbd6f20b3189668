"""Batched ingestion: a bounded queue with explicit backpressure.

Producer threads (probes, collectors, network frontends) call
:meth:`BoundedQueue.put` with a single :class:`Sample` **or** a columnar
:class:`~repro.service.batch.SampleBatch`; worker threads drain *batches*
and hand them to an aggregation callback. Capacity, blocking, and drop
accounting are all denominated in **samples**, not queue items: a
rejected 500-sample batch counts 500 dropped, never 1 — that is what
keeps the service's conservation law exact under batch-first traffic.
The queue is deliberately explicit about what happens under overload —
the four policies every real collection backend ends up choosing
between:

``"block"``
    Producers wait for space (lossless backpressure; the default).
``"drop-newest"``
    The incoming sample is discarded (cheapest, biased against bursts).
``"drop-oldest"``
    The oldest queued sample is discarded to make room (keeps the
    freshest traffic).
``"error"``
    Raise :class:`~repro.errors.IngestOverflowError` at the producer.

Shutdown is part of the contract too. A ``put`` that *starts* after
``close()`` is a caller bug and raises by default, but a producer that
was already blocked (or raced the close) holds a live sample that must
not silently vanish: with ``on_closed="drop"`` every closed-queue
rejection is counted in :attr:`BoundedQueue.dropped` and reported as
``False``, so the accounting conservation law (every submitted sample is
aggregated, dead-lettered, or counted dropped) survives a shutdown
racing live producers.

:class:`WorkerPool` is supervision-ready: each worker slot stamps a
monotonic heartbeat every drain iteration, records whether it exited
*normally* (queue closed and drained) or *died* (an escaped exception,
e.g. an injected :class:`WorkerKilled`), and dead slots can be restarted
in place — the machinery :class:`repro.resilience.Supervisor` drives.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.stackmodel import StackEntry
from repro.errors import IngestOverflowError, ServiceError
from repro.service.batch import SampleBatch

__all__ = [
    "Sample",
    "BoundedQueue",
    "WorkerPool",
    "WorkerKilled",
    "WorkerState",
    "POLICIES",
    "item_samples",
    "iter_samples",
]

POLICIES = ("block", "drop-newest", "drop-oldest", "error")


def item_samples(item) -> int:
    """How many samples one queue item carries (batch length or 1)."""
    return len(item) if isinstance(item, SampleBatch) else 1


def iter_samples(items):
    """Flatten queue items (samples and batches) into samples."""
    for item in items:
        if isinstance(item, SampleBatch):
            for sample in item:
                yield sample
        else:
            yield item


class WorkerKilled(BaseException):
    """Kills one ingestion worker thread (chaos injection).

    Deliberately a ``BaseException``: the worker loop's batch handler
    guard catches ``BaseException`` so one poisoned batch cannot kill a
    worker, and this must pierce that guard — it models an exception
    escaping the drain loop itself, the failure the Supervisor exists to
    repair.
    """


@dataclass(frozen=True)
class Sample:
    """One context observation on its way into the aggregator.

    ``epoch`` is stamped at submission time with the epoch of the plan
    the snapshot was captured under; the decode engine uses exactly that
    epoch's plan, which is what makes a hot swap race-free: pre-swap
    samples decode under the pre-swap plan even if they are drained
    after the swap.
    """

    node: str
    stack: Tuple[StackEntry, ...]
    current_id: int
    epoch: int
    weight: int = 1
    thread: int = 0
    meta: Optional[dict] = field(default=None, compare=False)

    @property
    def snapshot(self) -> Tuple[Tuple[StackEntry, ...], int]:
        return (self.stack, self.current_id)


class BoundedQueue:
    """A thread-safe bounded FIFO of samples/batches with drop policies.

    Items are :class:`Sample` objects or :class:`SampleBatch` columns;
    capacity, ``len()``, blocking and the ``dropped`` counter are all in
    **samples**. Batches are never split: a batch is admitted, dropped,
    or evicted whole, and its whole sample count is accounted.
    """

    def __init__(
        self,
        capacity: int = 4096,
        policy: str = "block",
        *,
        on_drop: Optional[Callable[[int], None]] = None,
    ):
        if capacity < 1:
            raise ServiceError("queue capacity must be at least 1")
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown backpressure policy {policy!r}; expected one of "
                f"{', '.join(POLICIES)}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._size = 0  # samples currently queued
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.dropped = 0
        self._on_drop = on_drop

    # ------------------------------------------------------------------
    def _drop(self, count: int) -> None:
        """Count ``count`` dropped samples (caller holds the lock)."""
        self.dropped += count
        if self._on_drop is not None:
            self._on_drop(count)

    def _fits(self, count: int) -> bool:
        """Admission check (lock held): room for ``count`` more samples.

        A batch larger than the whole capacity is admitted only into an
        empty queue — the alternative (never admitting it) would turn
        ``block`` into a deadlock for oversized batches.
        """
        if self._size + count <= self.capacity:
            return True
        return self._size == 0

    def put(
        self,
        item,
        timeout: Optional[float] = None,
        on_closed: str = "raise",
    ) -> bool:
        """Enqueue a :class:`Sample` or :class:`SampleBatch`.

        Returns True when the item was queued, False when it (or older
        items, under ``"drop-oldest"``) was dropped. ``"block"`` with a
        ``timeout`` that elapses drops the item (counted, by sample
        count).

        ``on_closed`` decides what a closed queue does to the item:
        ``"raise"`` (default) raises :class:`~repro.errors.ServiceError`
        — but still counts the samples as dropped first, so accounting
        never leaks; ``"drop"`` counts them dropped and returns False
        (the declared-shutdown-drop contract the service uses, so a
        ``stop()`` racing live producers stays a policy drop rather
        than an exception storm).
        """
        if on_closed not in ("raise", "drop"):
            raise ServiceError(
                f"on_closed must be 'raise' or 'drop', not {on_closed!r}"
            )
        count = item_samples(item)
        if count == 0:
            return True  # an empty batch carries nothing to queue
        with self._not_full:
            if self._closed:
                return self._reject_closed(on_closed, count)
            if not self._fits(count):
                if self.policy == "error":
                    self._drop(count)
                    raise IngestOverflowError(
                        f"ingestion queue full ({self.capacity} samples)"
                    )
                if self.policy == "drop-newest":
                    self._drop(count)
                    return False
                if self.policy == "drop-oldest":
                    # Evict whole items (oldest first) until the new one
                    # fits; every evicted sample is a counted drop.
                    while self._items and not self._fits(count):
                        evicted = self._items.popleft()
                        shed = item_samples(evicted)
                        self._size -= shed
                        self._drop(shed)
                else:  # block
                    if not self._not_full.wait_for(
                        lambda: self._fits(count) or self._closed,
                        timeout=timeout,
                    ):
                        self._drop(count)
                        return False
                    if self._closed:
                        # Closed while we were blocked: the samples were
                        # legitimately in flight, so they are declared
                        # shutdown drops, never a silent loss.
                        return self._reject_closed(on_closed, count)
            self._items.append(item)
            self._size += count
            self._not_empty.notify()
            return True

    def _reject_closed(self, on_closed: str, count: int) -> bool:
        """Account a closed-queue rejection (caller holds the lock)."""
        self._drop(count)
        if on_closed == "raise":
            raise ServiceError("queue is closed")
        return False

    def get_batch(
        self, max_batch: int, timeout: Optional[float] = None
    ) -> List:
        """Up to ``max_batch`` samples' worth of items.

        Returns queue items (samples and/or batches); [] on
        close-and-empty or timeout. The last item may push the sample
        total past ``max_batch`` — batches are never split.
        """
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            ):
                return []
            batch: List = []
            taken = 0
            while self._items and taken < max_batch:
                item = self._items.popleft()
                count = item_samples(item)
                self._size -= count
                taken += count
                batch.append(item)
            if batch:
                self._not_full.notify_all()
            return batch

    def close(self) -> None:
        """No more puts; pending samples remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        """Queued **samples** (not items)."""
        with self._lock:
            return self._size


@dataclass(frozen=True)
class WorkerState:
    """Supervisor-facing view of one worker slot."""

    slot: int
    #: The slot's current thread is running.
    alive: bool
    #: The slot returned normally (queue closed and fully drained).
    exited: bool
    #: ``time.monotonic()`` of the slot's last drain-loop iteration.
    heartbeat: float

    @property
    def dead(self) -> bool:
        """Died abnormally: not running, and not a normal exit."""
        return not self.alive and not self.exited


class WorkerPool:
    """N daemon threads draining one queue into a batch handler.

    The handler receives each drained batch (a non-empty list of queue
    items: samples and/or whole :class:`SampleBatch` columns; flatten
    with :func:`iter_samples` when per-sample view is needed). Handler
    exceptions are routed to ``on_error`` — one bad
    batch must not kill a worker — and the pool keeps draining. The one
    exception that *does* kill a worker is :class:`WorkerKilled` (chaos
    injection / an escape from the drain loop itself); such deaths are
    visible through :meth:`worker_states` and repairable through
    :meth:`restart_worker`.

    ``fault`` is the chaos hook: called as ``fault(slot)`` once per
    drain iteration *before* a batch is taken (so a kill never strands
    an in-hand batch); it may sleep (slow consumer) or raise
    :class:`WorkerKilled`.

    Every handled batch and every worker exit count one *progress*
    event (:meth:`notify_progress`, which the owner also calls on its
    drops and on close); :meth:`wait_progress` sleeps until the next
    one, so a flush wakes when the drain settles instead of polling.
    """

    def __init__(
        self,
        queue: BoundedQueue,
        handler: Callable[[Sequence[Sample]], None],
        *,
        workers: int = 2,
        batch_size: int = 256,
        on_error: Optional[Callable[[BaseException], None]] = None,
        poll_interval: float = 0.05,
        fault: Optional[Callable[[int], None]] = None,
    ):
        if workers < 1:
            raise ServiceError("need at least one worker")
        if batch_size < 1:
            raise ServiceError("batch size must be at least 1")
        self._queue = queue
        self._handler = handler
        self._batch_size = batch_size
        self._on_error = on_error
        self._poll = poll_interval
        self._fault = fault
        self._lock = threading.Lock()
        self._progress = threading.Condition(threading.Lock())
        self._events = 0
        self._threads: List[threading.Thread] = [
            self._make_thread(slot) for slot in range(workers)
        ]
        self._beats: List[float] = [0.0] * workers
        self._exited: List[bool] = [False] * workers
        self._restarts: List[int] = [0] * workers
        self.deaths = 0
        self._started = False

    def _make_thread(self, slot: int, generation: int = 0) -> threading.Thread:
        suffix = f"r{generation}" if generation else ""
        return threading.Thread(
            target=self._run,
            args=(slot,),
            name=f"repro-ingest-{slot}{suffix}",
            daemon=True,
        )

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        now = time.monotonic()
        for slot, thread in enumerate(self._threads):
            self._beats[slot] = now
            thread.start()

    def _run(self, slot: int) -> None:
        try:
            while True:
                self._beats[slot] = time.monotonic()
                fault = self._fault
                if fault is not None:
                    fault(slot)
                batch = self._queue.get_batch(
                    self._batch_size, timeout=self._poll
                )
                if not batch:
                    if self._queue.closed and not len(self._queue):
                        self._exited[slot] = True
                        self.notify_progress()
                        return
                    continue
                try:
                    self._handler(batch)
                except WorkerKilled:
                    raise
                except BaseException as exc:  # noqa: BLE001 - keep draining
                    if self._on_error is not None:
                        self._on_error(exc)
                self.notify_progress()
        except WorkerKilled:
            with self._lock:
                self.deaths += 1
            self.notify_progress()

    # ------------------------------------------------------------------
    # Progress events
    # ------------------------------------------------------------------
    @property
    def progress(self) -> int:
        """Progress events so far; read it before checking what the
        events change, then pass it to :meth:`wait_progress`."""
        return self._events

    def notify_progress(self) -> None:
        """Count one progress event and wake every waiter."""
        with self._progress:
            self._events += 1
            self._progress.notify_all()

    def wait_progress(self, seen: int, timeout: float) -> int:
        """Wait until the event count differs from ``seen``, at most
        ``timeout`` seconds; returns the count. An event between the
        read of ``seen`` and this call returns at once."""
        with self._progress:
            if self._events == seen:
                self._progress.wait(timeout)
            return self._events

    # ------------------------------------------------------------------
    # Supervision surface
    # ------------------------------------------------------------------
    def worker_states(self) -> List[WorkerState]:
        """One :class:`WorkerState` per slot (point-in-time snapshot)."""
        with self._lock:
            return [
                WorkerState(
                    slot=slot,
                    alive=thread.is_alive(),
                    exited=self._exited[slot],
                    heartbeat=self._beats[slot],
                )
                for slot, thread in enumerate(self._threads)
            ]

    def restart_worker(self, slot: int) -> bool:
        """Replace ``slot``'s thread with a fresh one.

        Returns False (and does nothing) when the slot exited normally,
        when its thread is still running, or when the pool was never
        started — only genuinely dead workers are restarted.
        """
        with self._lock:
            if not self._started:
                return False
            if slot < 0 or slot >= len(self._threads):
                raise ServiceError(f"no worker slot {slot}")
            if self._exited[slot] or self._threads[slot].is_alive():
                return False
            self._restarts[slot] += 1
            thread = self._make_thread(slot, generation=self._restarts[slot])
            self._threads[slot] = thread
            self._beats[slot] = time.monotonic()
        thread.start()
        return True

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for workers to finish (call after ``queue.close()``)."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)

    def alive(self) -> int:
        """How many worker threads are currently running."""
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())
