"""Shared-memory batch lanes: fixed-slot rings carrying DPSB records.

One :class:`ShmLane` is a single-producer / single-consumer ring over a
``multiprocessing.shared_memory`` block.  The parent process pushes
``SampleBatch.to_bytes()`` payloads (the DPSB v2 wire form — magic,
version, columnar int64 payload, CRC32 trailer); exactly one decode
worker pops them.  The lane adds its *own* integrity layer on top of the
record's trailer: a per-slot sequence number (the consumer verifies the
slot it reads is the slot it expected) and a per-slot CRC32 over the
payload bytes (torn or stale writes are detected before
``SampleBatch.from_bytes`` ever sees them).

Accounting is sample-denominated, exactly like
:class:`~repro.service.ingest.BoundedQueue`: ``queued``, ``consumed``
and ``dropped`` all count *samples*, not records, so the service's
conservation law (``submitted == aggregated + dead_lettered +
epoch_mismatches + dropped + …``) extends across the process boundary
without unit conversions.  Backpressure reuses the BoundedQueue policy
names and contracts:

``"block"``
    poll until a slot frees; a ``timeout`` that elapses drops the
    record (counted).
``"drop-newest"``
    full lane drops the incoming record (counted).
``"drop-oldest"``
    full lane evicts the oldest queued record (counted by *its* stored
    sample count) to admit the new one.
``"error"``
    full lane counts the record dropped, then raises
    :class:`~repro.errors.IngestOverflowError`.

Layout (all little-endian)::

    header  [96 bytes]
      0  magic        4s   b"DPLN"
      4  version      B    1
      8  nslots       I
     12  slot_bytes   I
     16  head         Q    monotonic; next slot index to write
     24  tail         Q    monotonic; next slot index to read
     32  queued       Q    samples currently in the ring
     40  consumed     Q    samples popped by the worker, ever
     48  dropped      Q    samples dropped by policy, ever
     56  closed       I    producer has closed the lane
     60  sync_req     I    parent's sync generation (see Lane.sync_req)
     64  pushed_recs  Q
     72  popped_recs  Q
     80  dropped_recs Q
     88  reserved     Q
    slot    [24-byte header + payload capacity]
      0  seq          Q    monotonic index this slot currently holds
      8  length       I    payload byte length
     12  samples      I    sample count carried by the payload
     16  crc32        I    zlib.crc32(payload)
     20  reserved     I

Mutual exclusion is one ``multiprocessing.Lock`` per lane; both sides
hold it only for counter arithmetic and ``memoryview`` copies, never
while sleeping. A process SIGKILLed inside it leaves it held for good,
so both sides (:meth:`ShmLane.push`, :meth:`~ShmLane.request_sync`,
:meth:`~ShmLane.count_dropped`, :meth:`~ShmLane.close` and the
consumer's :meth:`~ShmLane.pop`) wait at most :data:`LOCK_WAIT_S` for
it and then raise :class:`LaneWedgedError`, having changed nothing. A
worker whose ``pop`` raises exits, and the pool rebuilds the lane when
it restarts the worker.
"""

from __future__ import annotations

import struct
import time
import zlib
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Iterator, Optional, Tuple

from repro.errors import IngestOverflowError, ServiceError, StoreCorruptionError
from repro.service.ingest import POLICIES

__all__ = [
    "ShmLane", "LaneWedgedError", "LANE_MAGIC", "LANE_VERSION", "LOCK_WAIT_S",
]

LANE_MAGIC = b"DPLN"
LANE_VERSION = 1

_HEADER = struct.Struct("<4sB3xIIQQQQQIIQQQQ")
_HEADER_SIZE = _HEADER.size  # 96
_SLOT = struct.Struct("<QIIII")
_SLOT_HEADER = _SLOT.size  # 24

# header field offsets for the single-field accessors
_OFF_HEAD = 16
_OFF_TAIL = 24
_OFF_QUEUED = 32
_OFF_CONSUMED = 40
_OFF_DROPPED = 48
_OFF_CLOSED = 56
_OFF_SYNC = 60
_OFF_PUSHED = 64
_OFF_POPPED = 72
_OFF_DROPPED_RECS = 80

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

_POLL_S = 0.0005

#: Longest either side waits for the lane lock, which a healthy holder
#: keeps for a copy's length.
LOCK_WAIT_S = 1.0


class LaneWedgedError(ServiceError):
    """The lane's lock stayed held past :data:`LOCK_WAIT_S`: a process
    most likely died inside it. Nothing was changed."""


class ShmLane:
    """A fixed-slot SPSC ring over ``multiprocessing.shared_memory``.

    Create with ``ShmLane(nslots=…, slot_bytes=…, lock=…)`` on the
    parent side; attach from a worker with :meth:`attach` (fork
    children inherit the object and need neither).  ``lock`` must be a
    ``multiprocessing.Lock`` created from the same context that spawns
    the worker.
    """

    def __init__(
        self,
        nslots: int = 64,
        slot_bytes: int = 1 << 20,
        lock=None,
        *,
        _attach_name: Optional[str] = None,
    ) -> None:
        if lock is None:
            import multiprocessing

            lock = multiprocessing.Lock()
        self._lock = lock
        if _attach_name is not None:
            self._shm = shared_memory.SharedMemory(name=_attach_name)
            self._owner = False
            magic, version, nslots, slot_bytes = _HEADER.unpack_from(
                self._shm.buf, 0
            )[:4]
            if magic != LANE_MAGIC or version != LANE_VERSION:
                raise StoreCorruptionError(
                    f"lane {_attach_name!r} has bad magic/version "
                    f"({magic!r}, {version})"
                )
        else:
            if nslots < 1:
                raise ServiceError("lane needs at least one slot")
            if slot_bytes <= _SLOT_HEADER:
                raise ServiceError(
                    f"slot_bytes must exceed the {_SLOT_HEADER}-byte "
                    f"slot header"
                )
            size = _HEADER_SIZE + nslots * slot_bytes
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
            self._shm.buf[:_HEADER_SIZE] = b"\x00" * _HEADER_SIZE
            _HEADER.pack_into(
                self._shm.buf, 0, LANE_MAGIC, LANE_VERSION, nslots,
                slot_bytes, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            )
        self.nslots = nslots
        self.slot_bytes = slot_bytes
        self.capacity_bytes = slot_bytes - _SLOT_HEADER

    # -- plumbing ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The shared-memory block name (pass to :meth:`attach`)."""
        return self._shm.name

    @classmethod
    def attach(cls, name: str, lock) -> "ShmLane":
        """Attach to an existing lane from another process."""
        return cls(lock=lock, _attach_name=name)

    def _u64(self, off: int) -> int:
        return _U64.unpack_from(self._shm.buf, off)[0]

    def _set_u64(self, off: int, value: int) -> None:
        _U64.pack_into(self._shm.buf, off, value)

    def _u32(self, off: int) -> int:
        return _U32.unpack_from(self._shm.buf, off)[0]

    def _set_u32(self, off: int, value: int) -> None:
        _U32.pack_into(self._shm.buf, off, value)

    def _slot_off(self, index: int) -> int:
        return _HEADER_SIZE + (index % self.nslots) * self.slot_bytes

    @contextmanager
    def _bounded_lock(self) -> Iterator[None]:
        if not self._lock.acquire(timeout=LOCK_WAIT_S):
            raise LaneWedgedError(
                f"lane {self.name!r}: lock held for over {LOCK_WAIT_S}s"
            )
        try:
            yield
        finally:
            self._lock.release()

    # -- counters ---------------------------------------------------------

    @property
    def queued_samples(self) -> int:
        return self._u64(_OFF_QUEUED)

    @property
    def consumed_samples(self) -> int:
        return self._u64(_OFF_CONSUMED)

    @property
    def dropped(self) -> int:
        """Samples dropped by backpressure policy (BoundedQueue parity)."""
        return self._u64(_OFF_DROPPED)

    @property
    def pushed_records(self) -> int:
        return self._u64(_OFF_PUSHED)

    @property
    def popped_records(self) -> int:
        return self._u64(_OFF_POPPED)

    @property
    def closed(self) -> bool:
        return bool(self._u32(_OFF_CLOSED))

    def __len__(self) -> int:
        """Queued depth in samples, mirroring ``BoundedQueue.__len__``."""
        return self.queued_samples

    # -- sync generations -------------------------------------------------

    @property
    def sync_req(self) -> int:
        """Parent-owned sync generation the worker acknowledges in its
        status file once every record pushed before the bump has been
        consumed *and* accounted."""
        return self._u32(_OFF_SYNC)

    def request_sync(self) -> int:
        with self._bounded_lock():
            gen = self._u32(_OFF_SYNC) + 1
            self._set_u32(_OFF_SYNC, gen)
            return gen

    # -- producer ---------------------------------------------------------

    def close(self) -> None:
        with self._bounded_lock():
            self._set_u32(_OFF_CLOSED, 1)

    def push(
        self,
        payload: bytes,
        samples: int,
        policy: str = "block",
        timeout: Optional[float] = None,
        on_closed: str = "drop",
    ) -> bool:
        """Enqueue one DPSB record.

        Returns True when queued, False when dropped (always counted,
        by sample count).  Policy semantics match ``BoundedQueue.put``;
        a closed lane counts the samples dropped and, under
        ``on_closed="raise"``, raises :class:`ServiceError`.
        """
        if policy not in POLICIES:
            raise ServiceError(
                f"backpressure must be one of {POLICIES}, not {policy!r}"
            )
        if len(payload) > self.capacity_bytes:
            raise IngestOverflowError(
                f"record of {len(payload)} bytes exceeds the "
                f"{self.capacity_bytes}-byte lane slot; split the batch"
            )
        if samples == 0:
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._bounded_lock():
                if self._u32(_OFF_CLOSED):
                    self._set_u64(
                        _OFF_DROPPED, self._u64(_OFF_DROPPED) + samples
                    )
                    self._set_u64(
                        _OFF_DROPPED_RECS, self._u64(_OFF_DROPPED_RECS) + 1
                    )
                    if on_closed == "raise":
                        raise ServiceError("lane is closed")
                    return False
                head = self._u64(_OFF_HEAD)
                tail = self._u64(_OFF_TAIL)
                if head - tail < self.nslots:
                    self._write_slot(head, payload, samples)
                    return True
                if policy == "drop-oldest":
                    self._evict_oldest(tail)
                    self._write_slot(self._u64(_OFF_HEAD), payload, samples)
                    return True
                if policy == "drop-newest":
                    self._count_drop(samples)
                    return False
                if policy == "error":
                    self._count_drop(samples)
                    raise IngestOverflowError(
                        f"lane full ({self.nslots} slots)"
                    )
            # "block": poll outside the lock.
            if deadline is not None and time.monotonic() >= deadline:
                with self._bounded_lock():
                    self._count_drop(samples)
                return False
            time.sleep(_POLL_S)

    def count_dropped(self, samples: int) -> None:
        """Charge a drop the producer decided on (e.g. a record too
        large for any slot) to this lane's conservation accounting."""
        with self._bounded_lock():
            self._count_drop(samples)

    def _count_drop(self, samples: int) -> None:
        self._set_u64(_OFF_DROPPED, self._u64(_OFF_DROPPED) + samples)
        self._set_u64(_OFF_DROPPED_RECS, self._u64(_OFF_DROPPED_RECS) + 1)

    def _evict_oldest(self, tail: int) -> None:
        off = self._slot_off(tail)
        _seq, _length, samples, _crc, _ = _SLOT.unpack_from(
            self._shm.buf, off
        )
        self._set_u64(_OFF_TAIL, tail + 1)
        self._set_u64(
            _OFF_QUEUED, max(0, self._u64(_OFF_QUEUED) - samples)
        )
        self._count_drop(samples)

    def _write_slot(self, head: int, payload: bytes, samples: int) -> None:
        off = self._slot_off(head)
        _SLOT.pack_into(
            self._shm.buf, off, head, len(payload), samples,
            zlib.crc32(payload) & 0xFFFFFFFF, 0,
        )
        start = off + _SLOT_HEADER
        self._shm.buf[start:start + len(payload)] = payload
        self._set_u64(_OFF_HEAD, head + 1)
        self._set_u64(_OFF_QUEUED, self._u64(_OFF_QUEUED) + samples)
        self._set_u64(_OFF_PUSHED, self._u64(_OFF_PUSHED) + 1)

    # -- consumer ---------------------------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[Tuple[bytes, int]]:
        """Dequeue one record as ``(payload, samples)``.

        Blocks (polling) up to ``timeout``; returns None when the lane
        stays empty — callers distinguish idle from shutdown via
        :attr:`closed`.  A sequence or CRC mismatch raises
        :class:`StoreCorruptionError`: shared memory is same-host and
        lock-protected, so a torn record is a bug, not weather. Raises
        :class:`LaneWedgedError` when the lock stays held past
        :data:`LOCK_WAIT_S`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._bounded_lock():
                head = self._u64(_OFF_HEAD)
                tail = self._u64(_OFF_TAIL)
                if tail < head:
                    return self._read_slot(tail)
                if self._u32(_OFF_CLOSED):
                    return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(_POLL_S)

    def _read_slot(self, tail: int) -> Tuple[bytes, int]:
        off = self._slot_off(tail)
        seq, length, samples, crc, _ = _SLOT.unpack_from(self._shm.buf, off)
        if seq != tail:
            raise StoreCorruptionError(
                f"lane slot sequence mismatch: expected {tail}, "
                f"slot holds {seq}"
            )
        if length > self.capacity_bytes:
            raise StoreCorruptionError(
                f"lane slot claims {length} bytes in a "
                f"{self.capacity_bytes}-byte slot"
            )
        start = off + _SLOT_HEADER
        payload = bytes(self._shm.buf[start:start + length])
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise StoreCorruptionError(
                f"lane slot {tail} failed its CRC check"
            )
        self._set_u64(_OFF_TAIL, tail + 1)
        self._set_u64(
            _OFF_QUEUED, max(0, self._u64(_OFF_QUEUED) - samples)
        )
        self._set_u64(_OFF_CONSUMED, self._u64(_OFF_CONSUMED) + samples)
        self._set_u64(_OFF_POPPED, self._u64(_OFF_POPPED) + 1)
        return payload, samples

    # -- teardown ---------------------------------------------------------

    def detach(self) -> None:
        """Close this process's mapping (worker-side teardown)."""
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def destroy(self) -> None:
        """Close and unlink the shared block (parent-side teardown)."""
        self.detach()
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):
                pass

    def stats(self) -> dict:
        return {
            "nslots": self.nslots,
            "slot_bytes": self.slot_bytes,
            "queued_samples": self.queued_samples,
            "consumed_samples": self.consumed_samples,
            "dropped": self.dropped,
            "pushed_records": self.pushed_records,
            "popped_records": self.popped_records,
            "closed": self.closed,
        }
