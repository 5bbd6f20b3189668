"""Durable checkpoint/restore for the calling-context tree.

A checkpoint captures everything needed to answer queries after a
process crash: the CCT shard rows (path, count, gap-weight), the decode
epoch, and a **plan fingerprint** — a SHA-256 over the canonical graph
structure, anchor set, and encoding width — so recovery refuses to marry
counts from one program version to the plan of another.

File format (``ckpt-<seq>.dpck``): the line records, footer and atomic
replace of :mod:`repro.durable` (``docs/RESILIENCE.md``, "Durable
files"), with a ``header`` record of its own.

Format **version 2** (the current writer) mirrors the in-memory
:class:`~repro.service.store.ContextStore`: instead of repeating every
context path as a list of strings, the file carries

* a header (version, epoch, fingerprint, row count);
* ``names`` and ``nodes`` sections — the distinct function names and
  the prefix-trie topology as a flat ``[parent, name_id, ...]`` list,
  each packed (:func:`~repro.durable.pack_section`), so shared
  prefixes are stored once and a context is the id of its trie leaf;
* ``rows`` records batching up to ``rows_per_record`` compact
  ``[pid, count, gap_weight, epoch]`` rows;
* a footer carrying the totals actually written.

One framing function, :meth:`CheckpointStore.write_encoded`, writes
every checkpoint from an :class:`EncodedCheckpoint` (the sections as
the file holds them). The service hands it sections walked straight
off its context trie; :meth:`CheckpointStore.write` first encodes a
path-row :class:`CheckpointState` with
:func:`~repro.durable.delta_encode_rows`, the reference the walk is
tested against byte for byte.

Version-1 files (paths spelled out per row, no epochs) still load:
their rows are normalized with the checkpoint's own epoch. Beyond the
framing, a file is *valid* only if its sections unpack, the trie passes
:func:`~repro.durable.valid_trie`, every row is one a tree could hold
(``0 <= gap_weight <= count``), and the footer's row and sample totals
match — so a torn write or bit rot disqualifies the file rather than
corrupting a recovery. :meth:`CheckpointStore.load_newest` walks files
newest-first and returns the first that validates;
:meth:`CheckpointStore.load_newest_encoded` does the same without
spelling out a path, which is what recovery interns back into the
store node by node.

Metrics: ``resilience.checkpoints``, ``resilience.checkpoint_failures``,
``resilience.recoveries`` counters; ``resilience.checkpoint_us`` /
``resilience.recover_us`` latency histograms.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.durable import (
    delta_encode_rows,
    load_records,
    pack_section,
    row_records,
    split_body,
    trie_paths,
    valid_trie,
    write_records,
)
from repro.errors import CheckpointError, QueryError

__all__ = [
    "CheckpointState",
    "EncodedCheckpoint",
    "CheckpointStore",
    "CheckpointDaemon",
    "plan_fingerprint",
]

FORMAT_VERSION = 2
#: Oldest on-disk format this reader still accepts.
OLDEST_READABLE_VERSION = 1
_PREFIX = "ckpt-"
_SUFFIX = ".dpck"


def plan_fingerprint(plan) -> str:
    """SHA-256 identity of a plan's encoding-relevant structure.

    Covers the entry node, node set, labelled edge set, anchor set, and
    integer width — the inputs that determine what a context ID means.
    Two plans with the same fingerprint decode identically, so recovered
    counts remain attributable.
    """
    graph = plan.graph
    digest = hashlib.sha256()
    digest.update(repr(graph.entry).encode())
    digest.update(b"\x00")
    for node in sorted(graph.nodes):
        digest.update(node.encode())
        digest.update(b"\x01")
    for caller, callee, label in sorted(
        (e.caller, e.callee, repr(e.label)) for e in graph.edges
    ):
        digest.update(f"{caller}\x02{callee}\x02{label}".encode())
        digest.update(b"\x03")
    for anchor in sorted(plan.encoding.anchors):
        digest.update(anchor.encode())
        digest.update(b"\x04")
    digest.update(repr(plan.encoding.width).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CheckpointState:
    """The recovered (or about-to-be-written) durable state.

    Rows normalize on construction to the canonical 4-tuple
    ``(path, count, gap_weight, epoch)``; legacy 3-tuple rows (no
    per-row epoch) are accepted and stamped with the checkpoint's own
    ``epoch``, so states built by pre-batch code — and rows loaded from
    version-1 files — compare equal to their round-tripped selves. A
    row no tree could hold (a negative count or gap weight, or more
    gap-crossing observations than observations) raises
    :class:`CheckpointError`.
    """

    epoch: int
    fingerprint: str
    #: ``(path, count, gap_weight, epoch)`` per (context, epoch) pair.
    rows: Tuple[Tuple[Tuple[str, ...], int, int, int], ...]

    def __post_init__(self):
        if self.epoch < 0:
            raise CheckpointError(f"epoch must be >= 0, got {self.epoch}")
        normalized = tuple(
            (
                tuple(row[0]),
                int(row[1]),
                int(row[2]),
                int(row[3]) if len(row) > 3 else self.epoch,
            )
            for row in self.rows
        )
        for path, count, gaps, _epoch in normalized:
            if not 0 <= gaps <= count:
                raise CheckpointError(
                    f"row {path!r} has count {count} and gap weight "
                    f"{gaps}; a tree holds 0 <= gaps <= count"
                )
        object.__setattr__(self, "rows", normalized)

    @property
    def total_samples(self) -> int:
        return sum(row[1] for row in self.rows)

    def encode(self) -> "EncodedCheckpoint":
        """The file's sections for these rows (:func:`delta_encode_rows`)."""
        names, nodes, pids = delta_encode_rows(self.rows)
        return EncodedCheckpoint(
            epoch=self.epoch,
            fingerprint=self.fingerprint,
            names=names,
            nodes=nodes,
            rows=[
                (pid, row[1], row[2], row[3])
                for pid, row in zip(pids, self.rows)
            ],
        )


@dataclass(frozen=True)
class EncodedCheckpoint:
    """A checkpoint as its file holds it: paths left as a trie.

    ``nodes`` is the flat ``[parent, name_id, ...]`` trie over
    ``names``, every parent -1 or an earlier node, and ``rows`` are
    ``(node, count, gap_weight, epoch)`` in file order (node -1 is the
    empty context). :meth:`CheckpointStore.write_encoded` frames it
    as-is, so a writer holding its contexts as a trie (the live
    :class:`~repro.service.store.ContextStore`) never builds a path.
    """

    epoch: int
    fingerprint: str
    names: List[str]
    nodes: List[int]
    rows: List[Tuple[int, int, int, int]]

    @property
    def total_samples(self) -> int:
        return sum(row[1] for row in self.rows)

    def decode(self) -> CheckpointState:
        """The same checkpoint with every row's path spelled out."""
        paths = trie_paths(self.names, self.nodes)
        return CheckpointState(
            epoch=self.epoch,
            fingerprint=self.fingerprint,
            rows=tuple(
                (paths[node] if node >= 0 else (), count, gaps, epoch)
                for node, count, gaps, epoch in self.rows
            ),
        )


class CheckpointStore:
    """Atomic, checksummed snapshots in one directory."""

    def __init__(
        self,
        directory: str,
        *,
        retain: int = 3,
        rows_per_record: int = 512,
    ):
        if retain < 1:
            raise CheckpointError("must retain at least one checkpoint")
        if rows_per_record < 1:
            raise CheckpointError("rows_per_record must be at least 1")
        self.directory = directory
        self.retain = retain
        self.rows_per_record = rows_per_record
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def _sequence_of(self, name: str) -> Optional[int]:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            return None
        try:
            return int(name[len(_PREFIX):-len(_SUFFIX)])
        except ValueError:
            return None

    def _listing(self) -> List[Tuple[int, str]]:
        out = []
        for name in os.listdir(self.directory):
            seq = self._sequence_of(name)
            if seq is not None:
                out.append((seq, os.path.join(self.directory, name)))
        return sorted(out)

    # ------------------------------------------------------------------
    def write(
        self,
        state: CheckpointState,
        fault: Optional[Callable[[int], None]] = None,
    ) -> str:
        """Durably write ``state``; returns the final checkpoint path.

        The rows' paths are delta-encoded first (:meth:`CheckpointState.
        encode`); the file is then framed by :meth:`write_encoded`.
        """
        return self.write_encoded(state.encode(), fault=fault)

    def write_encoded(
        self,
        encoded: EncodedCheckpoint,
        fault: Optional[Callable[[int], None]] = None,
    ) -> str:
        """Durably write ``encoded``; returns the final checkpoint path.

        The one framing function behind every checkpoint: header, the
        ``names`` and ``nodes`` sections and ``rows`` records, written
        by :func:`~repro.durable.write_records`. ``fault`` (chaos) is
        called with the running record count after each record; raising
        from it models a crash — the temp file is abandoned and never
        renamed, so readers only ever see previous, complete checkpoints.
        """
        start = time.perf_counter()
        rows = encoded.rows
        records = [
            {
                "kind": "header",
                "version": FORMAT_VERSION,
                "epoch": encoded.epoch,
                "fingerprint": encoded.fingerprint,
                "rows": len(rows),
            },
            {"kind": "names", **pack_section(encoded.names)},
            {"kind": "nodes", **pack_section(encoded.nodes)},
            *row_records(rows, self.rows_per_record),
        ]
        footer = {"rows": len(rows), "samples": encoded.total_samples}
        with self._lock:
            listing = self._listing()
            seq = (listing[-1][0] + 1) if listing else 1
            final = os.path.join(
                self.directory, f"{_PREFIX}{seq:08d}{_SUFFIX}"
            )
            try:
                write_records(final, records, footer, fault=fault)
            except BaseException:
                obs.counter("resilience.checkpoint_failures").inc()
                raise
            self._prune(keep=self.retain)
        obs.counter("resilience.checkpoints").inc()
        obs.histogram("resilience.checkpoint_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return final

    def _prune(self, keep: int) -> None:
        listing = self._listing()
        for _, path in listing[:-keep] if keep else listing:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing removals
                pass

    # ------------------------------------------------------------------
    def load_file(self, path: str) -> Optional[CheckpointState]:
        """Parse and validate one checkpoint file; None when invalid."""
        encoded = self.load_encoded(path)
        return None if encoded is None else encoded.decode()

    def load_encoded(self, path: str) -> Optional[EncodedCheckpoint]:
        """Parse and validate one checkpoint file, paths left as a trie;
        None when invalid.

        The trie is checked in one pass (:func:`~repro.durable.
        valid_trie`), not by walking each row to the root. A version-1
        file's spelled-out rows are encoded as the current writer would
        encode them, stamped with the file's own epoch.
        """
        read = load_records(
            path, "header", range(OLDEST_READABLE_VERSION, FORMAT_VERSION + 1)
        )
        if read is None:
            return None
        header, body, footer = read
        version = header["version"]
        epoch, fingerprint = header.get("epoch"), header.get("fingerprint")
        if not isinstance(epoch, int) or epoch < 0:
            return None
        if not isinstance(fingerprint, str):
            return None
        split = split_body(body, ("names", "nodes") if version >= 2 else ())
        if split is None:
            return None
        sections, raw_rows = split
        try:
            if version == 1:
                legacy = [
                    (tuple(path_list), int(count), int(gaps))
                    for path_list, count, gaps in raw_rows
                ]
                names, nodes, pids = delta_encode_rows(legacy)
                rows = [
                    (pid, count, gaps, epoch)
                    for pid, (_path, count, gaps) in zip(pids, legacy)
                ]
            else:
                names, nodes = sections.get("names"), sections.get("nodes")
                rows = [
                    (pid, int(count), int(gaps), int(row_epoch))
                    for pid, count, gaps, row_epoch in raw_rows
                ]
        except (TypeError, ValueError):
            return None
        if not valid_trie(names, nodes, [row[0] for row in rows]):
            return None
        if not all(0 <= gaps <= count for _pid, count, gaps, _e in rows):
            return None  # no tree holds this row
        encoded = EncodedCheckpoint(
            epoch=epoch,
            fingerprint=fingerprint,
            names=names,
            nodes=nodes,
            rows=rows,
        )
        if (
            footer.get("rows") != len(rows)
            or header.get("rows") != len(rows)
            or footer.get("samples") != encoded.total_samples
        ):
            return None
        return encoded

    def load_newest(self) -> Optional[Tuple[str, CheckpointState]]:
        """Newest checkpoint that validates, or None if none do."""
        return self._newest(self.load_file)

    def load_newest_encoded(
        self,
    ) -> Optional[Tuple[str, EncodedCheckpoint]]:
        """:meth:`load_newest` with the paths left as a trie."""
        return self._newest(self.load_encoded)

    def _newest(self, load):
        for _, path in reversed(self._listing()):
            loaded = load(path)
            if loaded is not None:
                return path, loaded
            obs.counter("resilience.checkpoint_rejected").inc()
        return None

    def checkpoints(self) -> List[str]:
        return [path for _, path in self._listing()]


class CheckpointDaemon:
    """Periodic background checkpointing (and segment flushing).

    Calls ``service.checkpoint()`` every ``interval`` seconds. When the
    service also carries a segment writer (``flush_segments`` — the
    ``repro.query`` durable store), each period additionally flushes the
    aggregation delta into a query segment, so the analytics store grows
    on the same cadence that keeps recovery fresh; after a successful
    flush the service's ``maybe_compact_segments`` hook runs, which
    compacts and ages the store every ``ServiceConfig.compact_every``
    flushes so an unbounded run's directory stays bounded. A failed
    write is counted (``resilience.checkpoint_failures`` — already
    incremented by the store — or :attr:`segment_failures` /
    :attr:`compaction_failures`) and retried next period; the daemon
    never dies of one bad write.
    """

    def __init__(self, service, interval: float):
        if interval <= 0:
            raise CheckpointError("checkpoint interval must be positive")
        self._service = service
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.written = 0
        self.failed = 0
        self.segments_written = 0
        self.segment_failures = 0
        self.compactions = 0
        self.compaction_failures = 0

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpointd", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _tick(self) -> None:
        try:
            self._service.checkpoint()
            self.written += 1
        except Exception:  # noqa: BLE001 - keep checkpointing
            self.failed += 1
        flush = getattr(self._service, "flush_segments", None)
        if flush is None:
            return
        try:
            if flush() is not None:
                self.segments_written += 1
        except QueryError:
            return  # service has no segment store configured
        except Exception:  # noqa: BLE001 - keep flushing next period
            self.segment_failures += 1
            return
        compact = getattr(self._service, "maybe_compact_segments", None)
        if compact is None:
            return
        try:
            if compact() is not None:
                self.compactions += 1
        except Exception:  # noqa: BLE001 - retried next period
            self.compaction_failures += 1

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._tick()
