"""`SampleBatch`: the columnar, batch-first ingestion value type.

The decode hot path used to be per-sample Python objects and dict
lookups; BENCH_serve shows a ~99.7% context hit rate, so most of that
work is redundant.  A :class:`SampleBatch` packs many observations into
``array``-backed *columns* plus two small interning tables, so the
per-sample cost of submission, queueing, and grouping is integer array
appends — and the service can collapse a whole batch into a counting
pass over its distinct ``(epoch, node, anchor-stack, ID)`` groups before
decoding anything.

Layout
------
Per row, seven signed 64-bit columns::

    epoch       plan epoch the snapshot was captured under
    node_idx    index into the batch's interned function-name table
    stack_idx   index into the batch's interned anchor-stack table
    current_id  the DeltaPath context ID at capture
    thread      producer thread tag (0 when untracked)
    count       samples the row stands for (>= 1)
    weight      observation weight of each of them (>= 1)

A row is a run of equal observations: ``ContextService.batch_sink``
folds an observation equal to the one before it into that row's
``count``, as a path profiler counts a path ID rather than recording
each execution.  ``len(batch)`` is the number of samples (the sum of
the counts), ``batch.rows`` the number of rows; the conservation law
counts samples.  ``weight`` stays apart from the count: a row of count
*n* and weight *w* adds *n* samples and *n × w* to the tree.

The node table holds each distinct function name once; the stack table
holds each distinct anchor stack (a tuple of
:class:`~repro.core.stackmodel.StackEntry`) once.  Hot traffic repeats
a handful of ``(node, stack, id)`` triples, so both tables stay tiny
regardless of batch length.

Binary serialization
--------------------
:meth:`SampleBatch.to_bytes` / :meth:`SampleBatch.from_bytes` give the
batch a compact, self-checking wire form — the record the process
topology ships over its shared-memory lanes.  The layout (documented
for readers in docs/RESILIENCE.md), DPSB version 2:

* magic ``b"DPSB"``, one format-version byte (``2``);
* a ``<IIII`` little-endian header: row count, node-table byte
  length, stack-table byte length, reserved (0);
* the node table: UTF-8 JSON list of function names;
* the stack table: UTF-8 JSON list of stacks, each entry encoded as
  ``[kind, node, saved_id, site, expected_sid, resume_node,
  resume_executed]`` with ``site`` either ``null`` or
  ``[caller, label]``;
* seven column payloads, each ``8 * rows`` bytes of little-endian
  signed 64-bit integers, in the order epoch, node_idx, stack_idx,
  current_id, thread, count, weight;
* a ``<I`` CRC32 trailer over everything before it.

Version 1 (one row per sample, no ``count`` column: six payloads) still
reads, each row as count 1.  ``from_bytes`` rejects short buffers, bad
magic, unknown versions, CRC mismatches, out-of-range table indices and
counts or weights below 1 with :class:`~repro.errors.ServiceError` — a
torn or corrupted buffer never half-loads, and no buffer can subtract
counts.
"""

from __future__ import annotations

import json
import operator
import struct
import sys
import zlib
from array import array
from collections import Counter
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.stackmodel import EntryKind, StackEntry
from repro.errors import ServiceError
from repro.graph.callgraph import CallSite

__all__ = ["SampleBatch", "GroupKey", "node_lane"]


def node_lane(node: str, lanes: int) -> int:
    """The lane a function name routes to under *n*-way node sharding.

    Stable across processes and interpreter restarts (``zlib.crc32`` of
    the UTF-8 name — never ``hash()``, which is salted per process), so
    the parent's router and every worker agree on shard ownership.
    """
    return zlib.crc32(node.encode("utf-8")) % lanes

_MAGIC = b"DPSB"
_VERSION = 2
_HEADER = struct.Struct("<IIII")
_TRAILER = struct.Struct("<I")
#: The seven columns, in serialization order.
_COLUMNS = (
    "epoch", "node_idx", "stack_idx", "current_id", "thread", "count",
    "weight",
)
#: The columns each readable version carries; v1 has no ``count``.
_VERSION_COLUMNS = {
    1: tuple(name for name in _COLUMNS if name != "count"),
    2: _COLUMNS,
}

#: A distinct decode group: ``(epoch, node_idx, stack_idx, current_id)``.
GroupKey = Tuple[int, int, int, int]


def _int64_array() -> array:
    """A signed-64-bit array (``'q'`` everywhere we support)."""
    return array("q")


def _entry_to_json(entry: StackEntry) -> list:
    if entry.site is None:
        site = None
    else:
        label = entry.site.label
        if not isinstance(label, (str, int)) and label is not None:
            raise ServiceError(
                f"cannot serialize call-site label {label!r} "
                f"({type(label).__name__}); batch serialization supports "
                "str/int/None labels"
            )
        site = [entry.site.caller, label]
    return [
        int(entry.kind),
        entry.node,
        entry.saved_id,
        site,
        entry.expected_sid,
        entry.resume_node,
        entry.resume_executed,
    ]


def _entry_from_json(spec: Sequence) -> StackEntry:
    kind, node, saved_id, site, expected_sid, resume_node, resume_exec = spec
    return StackEntry(
        kind=EntryKind(kind),
        node=node,
        saved_id=saved_id,
        site=None if site is None else CallSite(site[0], site[1]),
        expected_sid=expected_sid,
        resume_node=resume_node,
        resume_executed=bool(resume_exec),
    )


def _renumber(column: array, table: list) -> Tuple[array, list]:
    """``column``'s indices renumbered in first-use order, with the
    entries of ``table`` they use in that order."""
    order = {old: new for new, old in enumerate(dict.fromkeys(column))}
    return array("q", map(order.__getitem__, column)), [table[old] for old in order]


class SampleBatch:
    """Columnar container of context observations.

    Build one with :meth:`append` (per row), :meth:`extend` (from
    :class:`~repro.service.ingest.Sample` objects or another batch),
    :meth:`from_samples` or :meth:`from_columns`.  Iterating yields
    materialized :class:`~repro.service.ingest.Sample` objects, each row
    once per sample it counts — that path exists for compatibility and
    failure triage; the hot path never materializes, it works on
    :meth:`groups`.
    """

    __slots__ = (
        "_cols", "_nodes", "_node_ids", "_stacks", "_stack_ids",
        "_stack_memo", "_uniform", "_samples",
    )

    def __init__(self):
        self._cols: Dict[str, array] = {
            name: _int64_array() for name in _COLUMNS
        }
        self._nodes: List[str] = []
        self._node_ids: Dict[str, int] = {}
        self._stacks: List[Tuple[StackEntry, ...]] = []
        self._stack_ids: Dict[Tuple[StackEntry, ...], int] = {}
        # Identity memo over the hash table: re-appending the *same*
        # stack tuple (hot snapshots are reused objects) skips hashing
        # every StackEntry again. Holding the tuple in the value keeps
        # its id() from being recycled.
        self._stack_memo: Dict[int, Tuple[Tuple[StackEntry, ...], int]] = {}
        # True while every appended weight is exactly 1 — unlocks the
        # Counter-based grouping fast path.
        self._uniform = True
        # The sum of the count column.
        self._samples = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _node_id(self, node: str) -> int:
        idx = self._node_ids.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._nodes.append(node)
            self._node_ids[node] = idx
        return idx

    def _stack_id(self, stack: Tuple[StackEntry, ...]) -> int:
        memo = self._stack_memo.get(id(stack))
        if memo is not None and memo[0] is stack:
            return memo[1]
        idx = self._stack_ids.get(stack)
        if idx is None:
            idx = len(self._stacks)
            self._stacks.append(stack)
            self._stack_ids[stack] = idx
        self._stack_memo[id(stack)] = (stack, idx)
        return idx

    def append(
        self,
        node: str,
        snapshot: Tuple[Sequence[StackEntry], int],
        *,
        epoch: int,
        weight: int = 1,
        thread: int = 0,
        count: int = 1,
    ) -> "SampleBatch":
        """Add one row: ``count`` equal ``(node, snapshot)`` observations
        stamped with ``epoch``."""
        if weight < 1:
            raise ServiceError(f"sample weight must be >= 1, got {weight}")
        if count < 1:
            raise ServiceError(f"row count must be >= 1, got {count}")
        if weight != 1:
            self._uniform = False
        stack, current_id = snapshot
        cols = self._cols
        cols["epoch"].append(epoch)
        cols["node_idx"].append(self._node_id(node))
        cols["stack_idx"].append(self._stack_id(tuple(stack)))
        cols["current_id"].append(current_id)
        cols["thread"].append(thread)
        cols["count"].append(count)
        cols["weight"].append(weight)
        self._samples += count
        return self

    def extend(self, samples: Iterable) -> "SampleBatch":
        """Append :class:`Sample` objects (or another batch's samples),
        one row each."""
        for sample in samples:
            self.append(
                sample.node,
                (sample.stack, sample.current_id),
                epoch=sample.epoch,
                weight=sample.weight,
                thread=getattr(sample, "thread", 0),
            )
        return self

    @classmethod
    def from_samples(cls, samples: Iterable) -> "SampleBatch":
        return cls().extend(samples)

    @classmethod
    def from_observations(
        cls,
        observations: Iterable[Tuple[str, Tuple[Sequence[StackEntry], int]]],
        *,
        epoch: int,
        weight: int = 1,
        thread: int = 0,
    ) -> "SampleBatch":
        """Pack ``(node, snapshot)`` pairs captured under one epoch, one
        row each."""
        nodes: List[str] = []
        stacks: List[Sequence[StackEntry]] = []
        ids: List[int] = []
        for node, (stack, current_id) in observations:
            nodes.append(node)
            stacks.append(stack)
            ids.append(current_id)
        return cls.from_columns(
            nodes, stacks, ids, array("q", [epoch]) * len(nodes),
            weight=weight, thread=thread,
        )

    @classmethod
    def from_columns(
        cls,
        nodes: Sequence[str],
        stacks: Sequence[Sequence[StackEntry]],
        ids: Sequence[int],
        epochs: Sequence[int],
        *,
        counts: Optional[Sequence[int]] = None,
        weight: int = 1,
        thread: int = 0,
    ) -> "SampleBatch":
        """Pack aligned per-row columns: the one bulk packer.

        ``counts`` gives each row's sample count (1 each when omitted).
        Equal to appending the rows one by one, table order and all,
        but no Python code runs per row: the tables are interned once
        per distinct name and once per distinct stack *object* (probe
        snapshots share one tuple per stack), and the columns are mapped
        through them at C speed.
        """
        if weight < 1:
            raise ServiceError(f"sample weight must be >= 1, got {weight}")
        batch = cls()
        if weight != 1:
            batch._uniform = False
        node_id = batch._node_id
        node_idx = {node: node_id(node) for node in dict.fromkeys(nodes)}
        by_object = dict(zip(map(id, stacks), stacks))
        stack_idx = {
            key: batch._stack_id(
                stack if type(stack) is tuple else tuple(stack)
            )
            for key, stack in by_object.items()
        }
        cols = batch._cols
        rows = len(nodes)
        cols["epoch"] = array("q", epochs)
        cols["node_idx"] = array("q", map(node_idx.__getitem__, nodes))
        cols["stack_idx"] = array(
            "q", map(stack_idx.__getitem__, map(id, stacks))
        )
        cols["current_id"] = array("q", ids)
        cols["thread"] = array("q", [thread]) * rows
        if counts is None:
            cols["count"] = array("q", [1]) * rows
            batch._samples = rows
        else:
            cols["count"] = array("q", counts)
            if rows and min(cols["count"]) < 1:
                raise ServiceError(
                    f"row count must be >= 1, got {min(cols['count'])}"
                )
            batch._samples = sum(cols["count"])
        cols["weight"] = array("q", [weight]) * rows
        return batch

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of samples: the sum of the row counts."""
        return self._samples

    @property
    def rows(self) -> int:
        """The number of rows (runs of equal observations)."""
        return len(self._cols["epoch"])

    @property
    def total_weight(self) -> int:
        return sum(map(operator.mul, self._cols["count"], self._cols["weight"]))

    def sample(self, index: int):
        """Materialize row ``index`` as one :class:`Sample` (slow path);
        the row stands for ``count`` such samples."""
        from repro.service.ingest import Sample

        cols = self._cols
        return Sample(
            node=self._nodes[cols["node_idx"][index]],
            stack=self._stacks[cols["stack_idx"][index]],
            current_id=cols["current_id"][index],
            epoch=cols["epoch"][index],
            weight=cols["weight"][index],
            thread=cols["thread"][index],
        )

    def _expand(self, indices: Iterable[int]) -> Iterator:
        """The samples of the given rows, each row once per count."""
        counts = self._cols["count"]
        for index in indices:
            yield from repeat(self.sample(index), counts[index])

    def __iter__(self) -> Iterator:
        return self._expand(range(self.rows))

    def samples_of(self, key: GroupKey) -> List:
        """The samples of one group, each row expanded into its count
        (failure triage; scans the batch)."""
        return list(self._expand(self.indices_of(key)))

    def node_of(self, key: GroupKey) -> str:
        return self._nodes[key[1]]

    def stack_of(self, key: GroupKey) -> Tuple[StackEntry, ...]:
        return self._stacks[key[2]]

    # ------------------------------------------------------------------
    # Dedup-then-decode support
    # ------------------------------------------------------------------
    def groups(self) -> Dict[GroupKey, Tuple[int, int]]:
        """Collapse the batch into its distinct decode groups.

        Returns ``{(epoch, node_idx, stack_idx, current_id):
        (samples, weight)}`` — the summed count of the group's rows and
        their summed ``count × weight``.  This is the columnar counting
        pass: when every row is one sample of weight 1 it is one C-speed
        :class:`~collections.Counter` sweep over the zipped columns,
        otherwise one pass over the rows.  Row indices are *not* built
        here — a failing group reconstructs its samples with
        :meth:`samples_of`, so the success path never pays for the
        failure path.
        """
        cols = self._cols
        keys = zip(
            cols["epoch"], cols["node_idx"], cols["stack_idx"],
            cols["current_id"],
        )
        counts = cols["count"]
        if self._uniform and self._samples == len(counts):
            # every row one sample of weight 1
            return {k: (n, n) for k, n in Counter(keys).items()}
        out: Dict[GroupKey, Tuple[int, int]] = {}
        get = out.get
        for key, n, weight in zip(keys, counts, cols["weight"]):
            got = get(key)
            if got is None:
                out[key] = (n, n * weight)
            else:
                out[key] = (got[0] + n, got[1] + n * weight)
        return out

    def __eq__(self, other) -> bool:
        """Structural equality: same columns, same interning tables.

        Stricter than sample-set equality — table *order* and the split
        into rows matter — which is exactly what the wire-form
        round-trip property needs: ``from_bytes(to_bytes(b)) == b`` must
        hold bit-for-bit.
        """
        if not isinstance(other, SampleBatch):
            return NotImplemented
        return (
            self._cols == other._cols
            and self._nodes == other._nodes
            and self._stacks == other._stacks
        )

    def select(self, indices: Sequence[int]) -> "SampleBatch":
        """The rows at ``indices``, in that order, as a new batch.

        Counts, weights and threads are kept; the tables are re-interned
        in first-use order, so the new batch carries only the names and
        stacks its rows use.
        """
        out = SampleBatch()
        cols = self._cols
        ocols = out._cols
        for name in _COLUMNS:
            ocols[name] = array("q", map(cols[name].__getitem__, indices))
        ocols["node_idx"], out._nodes = _renumber(ocols["node_idx"], self._nodes)
        out._node_ids = {name: i for i, name in enumerate(out._nodes)}
        ocols["stack_idx"], out._stacks = _renumber(
            ocols["stack_idx"], self._stacks
        )
        out._stack_ids = {stack: i for i, stack in enumerate(out._stacks)}
        out._uniform = self._uniform or max(ocols["weight"], default=1) == 1
        out._samples = sum(ocols["count"])
        return out

    def split_by_node(self, lanes: int) -> List["SampleBatch"]:
        """Partition the batch into ``lanes`` sub-batches by node shard.

        Every row routes by :func:`node_lane` of its function name, so a
        given function's samples always land on the same decode worker
        regardless of which process (or run) does the splitting.  Tables
        are re-interned per sub-batch; rows keep their relative order
        and their counts.
        """
        if lanes < 1:
            raise ServiceError(f"lane count must be >= 1, got {lanes}")
        route = [node_lane(n, lanes) for n in self._nodes]
        picks: List[List[int]] = [[] for _ in range(lanes)]
        for index, lane in enumerate(
            map(route.__getitem__, self._cols["node_idx"])
        ):
            picks[lane].append(index)
        return [self.select(indices) for indices in picks]

    def indices_of(self, key: GroupKey) -> List[int]:
        """Row indices of one group (failure triage; scans the batch)."""
        keys = zip(
            self._cols["epoch"], self._cols["node_idx"],
            self._cols["stack_idx"], self._cols["current_id"],
        )
        return [i for i, k in enumerate(keys) if k == key]

    # ------------------------------------------------------------------
    # Binary serialization (see module docs for the layout)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        nodes_blob = json.dumps(
            self._nodes, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        stacks_blob = json.dumps(
            [[_entry_to_json(e) for e in stack] for stack in self._stacks],
            separators=(",", ":"),
            ensure_ascii=False,
        ).encode("utf-8")
        parts = [
            _MAGIC,
            bytes([_VERSION]),
            _HEADER.pack(self.rows, len(nodes_blob), len(stacks_blob), 0),
            nodes_blob,
            stacks_blob,
        ]
        for name in _COLUMNS:
            col = self._cols[name]
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                col = array("q", col)
                col.byteswap()
            parts.append(col.tobytes())
        body = b"".join(parts)
        return body + _TRAILER.pack(zlib.crc32(body) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SampleBatch":
        if len(data) < len(_MAGIC) + 1 + _HEADER.size + _TRAILER.size:
            raise ServiceError("sample-batch buffer is truncated")
        body, trailer = data[: -_TRAILER.size], data[-_TRAILER.size:]
        (want,) = _TRAILER.unpack(trailer)
        if zlib.crc32(body) & 0xFFFFFFFF != want:
            raise ServiceError("sample-batch buffer failed its CRC check")
        if body[: len(_MAGIC)] != _MAGIC:
            raise ServiceError("not a sample-batch buffer (bad magic)")
        version = body[len(_MAGIC)]
        columns = _VERSION_COLUMNS.get(version)
        if columns is None:
            raise ServiceError(
                f"unsupported sample-batch format version {version}"
            )
        offset = len(_MAGIC) + 1
        rows, nodes_len, stacks_len, _ = _HEADER.unpack_from(body, offset)
        offset += _HEADER.size
        try:
            nodes = json.loads(body[offset:offset + nodes_len].decode("utf-8"))
            offset += nodes_len
            stacks = json.loads(
                body[offset:offset + stacks_len].decode("utf-8")
            )
            offset += stacks_len
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(f"corrupt sample-batch tables: {exc}") from exc
        expected = offset + 8 * rows * len(columns)
        if len(body) != expected:
            raise ServiceError(
                f"sample-batch column payload is {len(body) - offset} bytes, "
                f"expected {expected - offset}"
            )
        batch = cls()
        batch._nodes = [str(n) for n in nodes]
        batch._node_ids = {n: i for i, n in enumerate(batch._nodes)}
        try:
            batch._stacks = [
                tuple(_entry_from_json(e) for e in stack) for stack in stacks
            ]
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ServiceError(
                f"corrupt sample-batch stack table: {exc!r}"
            ) from exc
        batch._stack_ids = {s: i for i, s in enumerate(batch._stacks)}
        cols = batch._cols
        cols["count"] = array("q", [1]) * rows
        for name in columns:
            col = _int64_array()
            col.frombytes(body[offset:offset + 8 * rows])
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                col.byteswap()
            offset += 8 * rows
            cols[name] = col
        for name in ("count", "weight"):
            if rows and min(cols[name]) < 1:
                raise ServiceError(
                    f"sample-batch {name} {min(cols[name])} is below 1"
                )
        batch._uniform = max(cols["weight"], default=1) == 1
        batch._samples = sum(cols["count"])
        for idx in cols["node_idx"]:
            if not 0 <= idx < len(batch._nodes):
                raise ServiceError(f"sample-batch node index {idx} is out of range")
        for idx in cols["stack_idx"]:
            if not 0 <= idx < len(batch._stacks):
                raise ServiceError(f"sample-batch stack index {idx} is out of range")
        return batch

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate retained size of the columns and tables."""
        total = sum(col.itemsize * len(col) for col in self._cols.values())
        total += sum(len(n.encode("utf-8")) for n in self._nodes)
        total += 64 * len(self._stacks)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampleBatch(samples={len(self)}, rows={self.rows}, "
            f"nodes={len(self._nodes)}, "
            f"stacks={len(self._stacks)})"
        )
