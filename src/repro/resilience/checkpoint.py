"""Durable checkpoint/restore for the calling-context tree.

A checkpoint captures everything needed to answer queries after a
process crash: the CCT shard rows (path, count, gap-weight), the decode
epoch, and a **plan fingerprint** — a SHA-256 over the canonical graph
structure, anchor set, and encoding width — so recovery refuses to marry
counts from one program version to the plan of another.

File format (``ckpt-<seq>.dpck``): line-oriented records, each line

    ``<crc32 of payload, 8 hex chars> <payload JSON>``

Format **version 2** (the current writer) mirrors the in-memory
:class:`~repro.service.store.ContextStore`: instead of repeating every
context path as a list of strings, the file carries

* a header (version, epoch, fingerprint, row count);
* a ``names`` section — the distinct function names, JSON-encoded,
  zlib-compressed, base64-wrapped, with an inner CRC32 over the raw
  JSON (defence in depth inside the per-line checksum);
* a ``nodes`` section — the prefix-trie topology as a flat
  ``[parent, name_id, parent, name_id, ...]`` list, compressed the same
  way (a context is the integer id of its trie leaf, so shared prefixes
  are stored once);
* ``rows`` records batching up to ``rows_per_record`` compact
  ``[pid, count, gap_weight, epoch]`` rows;
* a footer carrying the totals actually written.

One framing function, :meth:`CheckpointStore.write_encoded`, writes
every checkpoint from an :class:`EncodedCheckpoint` (the sections as
the file holds them). The service hands it sections walked straight
off its context trie; :meth:`CheckpointStore.write` first encodes a
path-row :class:`CheckpointState` with :func:`delta_encode_rows`, the
reference the walk is tested against byte for byte.

Version-1 files (paths spelled out per row, no epochs) still load:
their rows are normalized with the checkpoint's own epoch. A file is
*valid* only if every line's checksum matches, the header parses, the
sections decompress and pass their inner CRCs, the trie passes a
one-pass check (every node's parent is -1 or an earlier node, every
name id is in range, every row pid is -1 or a node), every row is one
a tree could hold (``0 <= gap_weight <= count``), and the footer agrees
with the observed record/row/sample totals — so a torn write (crash
mid-file, missing footer, truncated last line) or bit rot (checksum
mismatch) disqualifies the file rather than corrupting a recovery.
:meth:`CheckpointStore.load_newest` walks files newest-first and
returns the first that validates; :meth:`CheckpointStore.
load_newest_encoded` does the same without spelling out a path, which
is what recovery interns back into the store node by node.

Durability discipline on write: serialize to ``.tmp-...`` in the same
directory, ``fsync`` the file, then ``os.replace`` onto the final name
(atomic on POSIX), then best-effort ``fsync`` the directory. A crash at
any point leaves either the complete new file or no new file — never a
half-visible one. The ``fault`` hook (chaos: crash after N records)
deliberately abandons the temp file un-renamed to model exactly that.

Metrics: ``resilience.checkpoints``, ``resilience.checkpoint_failures``,
``resilience.recoveries`` counters; ``resilience.checkpoint_us`` /
``resilience.recover_us`` latency histograms.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import CheckpointError, QueryError

__all__ = [
    "CheckpointState",
    "EncodedCheckpoint",
    "CheckpointStore",
    "CheckpointDaemon",
    "plan_fingerprint",
    "record_line",
    "parse_record_line",
    "pack_section",
    "unpack_section",
    "delta_encode_rows",
    "delta_decode_path",
    "fsync_dir",
]

FORMAT_VERSION = 2
#: Oldest on-disk format this reader still accepts.
OLDEST_READABLE_VERSION = 1
_PREFIX = "ckpt-"
_SUFFIX = ".dpck"
_TMP_PREFIX = ".tmp-ckpt-"


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
        names, nodes, pids = _delta_encode_rows(self.rows)
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
        names, nodes = self.names, self.nodes
        paths: List[Tuple[str, ...]] = []
        for at in range(0, len(nodes), 2):
            parent = nodes[at]
            prefix = paths[parent] if parent >= 0 else ()
            paths.append(prefix + (names[nodes[at + 1]],))
        return CheckpointState(
            epoch=self.epoch,
            fingerprint=self.fingerprint,
            rows=tuple(
                (paths[node] if node >= 0 else (), count, gaps, epoch)
                for node, count, gaps, epoch in self.rows
            ),
        )


def _record(payload: dict) -> str:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"


def _parse_record(line: str) -> Optional[dict]:
    """Decode one checksummed line; None when torn or corrupt."""
    if not line.endswith("\n"):
        return None  # torn final line: the write was interrupted
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body.encode()) & 0xFFFFFFFF != want:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _pack_section(obj) -> Dict[str, object]:
    """JSON → zlib → base64, with an inner CRC32 over the raw JSON."""
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return {
        "crc": zlib.crc32(raw) & 0xFFFFFFFF,
        "data": base64.b64encode(zlib.compress(raw, 6)).decode("ascii"),
    }


def _unpack_section(payload: Dict[str, object]):
    """Inverse of :func:`_pack_section`; None on any corruption."""
    try:
        raw = zlib.decompress(base64.b64decode(payload["data"]))
    except (KeyError, TypeError, ValueError, zlib.error):
        return None
    if zlib.crc32(raw) & 0xFFFFFFFF != payload.get("crc"):
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


def _delta_encode_rows(rows):
    """Collapse row paths into (names, flat trie nodes, per-row pids).

    The same prefix-trie delta encoding the live
    :class:`~repro.service.store.ContextStore` uses: each trie node is a
    ``(parent, name_id)`` pair (root = -1), a path is the id of its leaf
    node, and shared prefixes are stored exactly once.
    """
    names: List[str] = []
    name_ids: Dict[str, int] = {}
    nodes_flat: List[int] = []
    children: Dict[Tuple[int, int], int] = {}
    pids: List[int] = []
    for row in rows:
        node = -1
        for name in row[0]:
            nid = name_ids.get(name)
            if nid is None:
                nid = len(names)
                names.append(name)
                name_ids[name] = nid
            child = children.get((node, nid))
            if child is None:
                child = len(nodes_flat) // 2
                nodes_flat.append(node)
                nodes_flat.append(nid)
                children[(node, nid)] = child
            node = child
        pids.append(node)
    return names, nodes_flat, pids


def _delta_decode_path(pid, nodes_flat, names):
    """Resolve one pid against the decoded sections; None when invalid."""
    count = len(nodes_flat) // 2
    out: List[str] = []
    node = pid
    while node != -1:
        if not isinstance(node, int) or not 0 <= node < count:
            return None
        parent = nodes_flat[2 * node]
        name_id = nodes_flat[2 * node + 1]
        if not isinstance(name_id, int) or not 0 <= name_id < len(names):
            return None
        if len(out) > count:  # a cycle cannot happen in a valid file
            return None
        out.append(names[name_id])
        node = parent
    out.reverse()
    return tuple(out)


def _valid_trie(names, nodes_flat, rows) -> bool:
    """One pass over decoded sections: every node's parent is -1 or an
    earlier node, every name id is in range, every row's pid is -1 or a
    node, and every row is one a tree could hold (0 <= gaps <= count).

    Parents before children is what every writer emits, and it rules
    out cycles without walking any row's path to the root.
    """
    width = len(names)
    for node in range(len(nodes_flat) // 2):
        if not (
            -1 <= nodes_flat[2 * node] < node
            and 0 <= nodes_flat[2 * node + 1] < width
        ):
            return False
    count = len(nodes_flat) // 2
    for pid, total, gaps, _epoch in rows:
        if not (isinstance(pid, int) and -1 <= pid < count):
            return False
        if not 0 <= gaps <= total:
            return False
    return True


def fsync_dir(directory: str) -> None:
    """Best-effort fsync of a directory (durability of a rename)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


# Public names for the durability building blocks. The ``repro.query``
# segment store reuses exactly this discipline (checksummed line
# records, packed sections, prefix-trie path delta encoding) for its
# ``seg-*.dpqs`` files, so the two on-disk formats cannot drift apart.
record_line = _record
parse_record_line = _parse_record
pack_section = _pack_section
unpack_section = _unpack_section
delta_encode_rows = _delta_encode_rows
delta_decode_path = _delta_decode_path


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
        ``names`` and ``nodes`` sections, ``rows`` records and footer.
        ``fault`` (chaos) is called with the running record count after
        each record is serialized; raising from it models a crash — the
        temp file is abandoned and never renamed, so readers only ever
        see previous, complete checkpoints.
        """
        start = time.perf_counter()
        rows = encoded.rows
        with self._lock:
            listing = self._listing()
            seq = (listing[-1][0] + 1) if listing else 1
            final = os.path.join(
                self.directory, f"{_PREFIX}{seq:08d}{_SUFFIX}"
            )
            tmp = os.path.join(
                self.directory, f"{_TMP_PREFIX}{seq:08d}-{os.getpid()}"
            )
            records = 0
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(_record({
                        "kind": "header",
                        "version": FORMAT_VERSION,
                        "epoch": encoded.epoch,
                        "fingerprint": encoded.fingerprint,
                        "rows": len(rows),
                    }))
                    records += 1
                    if fault is not None:
                        fault(records)
                    for kind, section in (
                        ("names", encoded.names), ("nodes", encoded.nodes)
                    ):
                        payload = {"kind": kind}
                        payload.update(_pack_section(section))
                        fh.write(_record(payload))
                        records += 1
                        if fault is not None:
                            fault(records)
                    for lo in range(0, len(rows), self.rows_per_record):
                        fh.write(_record({
                            "kind": "rows",
                            "rows": rows[lo:lo + self.rows_per_record],
                        }))
                        records += 1
                        if fault is not None:
                            fault(records)
                    fh.write(_record({
                        "kind": "footer",
                        "records": records + 1,
                        "rows": len(rows),
                        "samples": encoded.total_samples,
                    }))
                    records += 1
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, final)
            except BaseException:
                obs.counter("resilience.checkpoint_failures").inc()
                raise
            self._fsync_dir()
            self._prune(keep=self.retain)
        obs.counter("resilience.checkpoints").inc()
        obs.histogram("resilience.checkpoint_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return final

    def _fsync_dir(self) -> None:
        fsync_dir(self.directory)

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

        The trie is checked in one pass (:func:`_valid_trie`), not by
        walking each row to the root. A version-1 file's spelled-out
        rows are encoded as the current writer would encode them,
        stamped with the file's own epoch.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError):
            # Unreadable or not even text: whatever this file is, it is
            # not a checkpoint this process can trust.
            return None
        if not lines:
            return None
        header = _parse_record(lines[0])
        if header is None or header.get("kind") != "header":
            return None
        version = header.get("version")
        if not isinstance(version, int) or not (
            OLDEST_READABLE_VERSION <= version <= FORMAT_VERSION
        ):
            return None
        epoch, fingerprint = header.get("epoch"), header.get("fingerprint")
        if not isinstance(epoch, int) or epoch < 0:
            return None
        if not isinstance(fingerprint, str):
            return None
        rows: List[Tuple[object, int, int, int]] = []  # (pid, ...) rows
        legacy_rows: List[Tuple[Tuple[str, ...], int, int]] = []  # v1
        names: Optional[list] = None
        nodes_flat: Optional[list] = None
        footer = None
        for line in lines[1:]:
            payload = _parse_record(line)
            if payload is None:
                return None
            if footer is not None:
                return None  # records after the footer: corrupt
            kind = payload.get("kind")
            if kind == "rows":
                try:
                    if version == 1:
                        for path_list, count, gaps in payload["rows"]:
                            legacy_rows.append(
                                (tuple(path_list), int(count), int(gaps))
                            )
                    else:
                        for pid, count, gaps, row_epoch in payload["rows"]:
                            rows.append(
                                (pid, int(count), int(gaps), int(row_epoch))
                            )
                except (KeyError, TypeError, ValueError):
                    return None
            elif kind == "names" and version >= 2:
                names = _unpack_section(payload)
                if not isinstance(names, list) or not all(
                    isinstance(n, str) for n in names
                ):
                    return None
            elif kind == "nodes" and version >= 2:
                nodes_flat = _unpack_section(payload)
                if (
                    not isinstance(nodes_flat, list)
                    or len(nodes_flat) % 2
                    or not all(isinstance(v, int) for v in nodes_flat)
                ):
                    return None
            elif kind == "footer":
                footer = payload
            else:
                return None
        if footer is None:
            return None  # torn write: footer never made it to disk
        if version == 1:
            names, nodes_flat, pids = _delta_encode_rows(legacy_rows)
            rows = [
                (pid, count, gaps, epoch)
                for pid, (_path, count, gaps) in zip(pids, legacy_rows)
            ]
        elif names is None or nodes_flat is None:
            return None  # a section never made it to disk
        if not _valid_trie(names, nodes_flat, rows):
            return None
        encoded = EncodedCheckpoint(
            epoch=epoch,
            fingerprint=fingerprint,
            names=names,
            nodes=nodes_flat,
            rows=rows,
        )
        if (
            footer.get("records") != len(lines)
            or footer.get("rows") != len(rows)
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
