"""`ContextStore`: delta-encoded, block-compressed retained contexts.

Retained calling contexts used to live in the shards as tuples of
strings — every distinct context carried its whole path even though
contexts overwhelmingly share prefixes (that is what makes them a
*tree*).  The store keeps one shared **prefix trie** instead: each trie
node is a ``(parent, name)`` pair, a context is the integer id of its
leaf node (its *pid*), and storing a new context costs only the suffix
that diverges from everything seen before — delta encoding against the
shared prefix, per the Android-scale call-path literature where the
retained footprint, not throughput, limits scale.

Trie nodes append into fixed-size **blocks**.  The open block is two raw
``array('q')`` columns; once full it is *sealed*: packed to bytes,
CRC32-stamped, and (with ``compression="zlib"``) deflate-compressed.
Cold blocks therefore cost their compressed size; reads that walk into
one decompress it through a small hot-block LRU and verify the CRC — a
corrupted block raises :class:`~repro.errors.StoreCorruptionError`
instead of serving garbage paths.

The store is shared by every shard of a
:class:`~repro.service.shards.ShardedContextTree` (prefix sharing only
works across shards) and by the service's
:class:`~repro.service.engine.DecodeEngine`, and guarded by one lock.
The engine interns while it decodes: a key its cache misses walks up to
the first cached prefix state and :meth:`ContextStore.extend` adds the
frames it passed below that state's pid, one child-index lookup each
under one hold of the lock, so no path is built or hashed on ingest and
the lock is taken once per *distinct* uncached key, not per sample.

Whole-store reads (inclusive rollups, ``tree.rows()``), the changed
contexts of a segment flush and the candidates of a decoded top-K all
decode many pids at once through :meth:`ContextStore.paths`, which
unseals each block at most once per call and builds each trie node's
path once, from its parent's path.

Checkpoints decode nothing: :meth:`ContextStore.encode_counted` writes
the counted contexts' sub-trie straight out in one preorder walk, and
recovery maps a checkpoint's trie back in node by node
(:meth:`ContextStore.intern_trie`), so neither direction builds a path.
"""

from __future__ import annotations

import sys
import threading
import zlib
from array import array
from collections import OrderedDict
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError, StoreCorruptionError

__all__ = ["ContextStore", "COMPRESSIONS"]

COMPRESSIONS = ("zlib", "none")

#: Sentinel node id for "no parent" (the trie root).
_ROOT = -1
#: Pids :meth:`ContextStore.paths` decodes per hold of the store lock, so
#: a concurrent ``intern`` waits for one chunk, never a whole-store decode.
_PATHS_CHUNK = 1024


class _SealedBlock:
    """One full block, packed and (optionally) compressed."""

    __slots__ = ("payload", "crc", "count", "compressed")

    def __init__(self, payload: bytes, crc: int, count: int, compressed: bool):
        self.payload = payload
        self.crc = crc
        self.count = count
        self.compressed = compressed


class ContextStore:
    """Interned context paths behind integer ids (pids).

    :meth:`intern` maps a path to its pid and :meth:`extend` walks down
    from a pid; :meth:`paths` decodes many pids in one pass (each sealed
    block unsealed and CRC-checked at most once per call, each trie
    node's path built once from its parent's) and :meth:`path` decodes
    one.

    Parameters
    ----------
    compression:
        ``"zlib"`` (default) deflates sealed blocks; ``"none"`` seals
        without compressing (still CRC-checked).
    block_size:
        Trie nodes per block.
    hot_blocks:
        How many unsealed block views the read path keeps decompressed.
    """

    def __init__(
        self,
        *,
        compression: str = "zlib",
        block_size: int = 2048,
        hot_blocks: int = 8,
    ):
        if compression not in COMPRESSIONS:
            raise ServiceError(
                f"unknown store compression {compression!r}; expected one "
                f"of {', '.join(COMPRESSIONS)}"
            )
        if block_size < 2:
            raise ServiceError("store block size must be at least 2")
        if hot_blocks < 1:
            raise ServiceError("store needs at least one hot block")
        self.compression = compression
        self.block_size = block_size
        self._lock = threading.Lock()
        # Interned function names.
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Trie topology: sealed blocks + the open tail block.
        self._sealed: List[_SealedBlock] = []
        self._open_parent: array = array("q")
        self._open_name: array = array("q")
        # (parent_id, name_id) packed into one int -> child node id.
        self._children: Dict[int, int] = {}
        # pids handed out (distinct retained contexts).
        self._paths: Dict[int, bool] = {}
        # LRU of decompressed sealed-block views.
        self._hot: "OrderedDict[int, Tuple[array, array]]" = OrderedDict()
        self._hot_cap = hot_blocks
        self.unseals = 0
        self.corruptions = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _child_key(self, parent: int, name_id: int) -> int:
        # parent in [-1, 2**40), name_id < 2**22 in any realistic plan;
        # pack into one int so the index dict holds int->int only.
        return (parent + 1) * 0x400000 + name_id

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._names.append(name)
            self._name_ids[name] = idx
        return idx

    def _add_node(self, parent: int, name_id: int) -> int:
        nid = len(self._sealed) * self.block_size + len(self._open_parent)
        self._open_parent.append(parent)
        self._open_name.append(name_id)
        if len(self._open_parent) >= self.block_size:
            self._seal_open()
        self._children[self._child_key(parent, name_id)] = nid
        return nid

    def _seal_open(self) -> None:
        payload = self._open_parent.tobytes() + self._open_name.tobytes()
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        count = len(self._open_parent)
        if self.compression == "zlib":
            blob = zlib.compress(payload, 6)
            self._sealed.append(_SealedBlock(blob, crc, count, True))
        else:
            self._sealed.append(_SealedBlock(payload, crc, count, False))
        # The freshly sealed block is almost certainly still hot.
        self._hot[len(self._sealed) - 1] = (
            self._open_parent, self._open_name
        )
        while len(self._hot) > self._hot_cap:
            self._hot.popitem(last=False)
        self._open_parent = array("q")
        self._open_name = array("q")

    def intern(self, path: Tuple[str, ...]) -> int:
        """The pid of ``path``, creating trie nodes for any new suffix.

        The empty path interns as pid ``_ROOT`` (a valid, decodable
        degenerate context).
        """
        pids, _name_ids = self.extend(_ROOT, path)
        pid = pids[-1] if pids else _ROOT
        self.retain((pid,))
        return pid

    def extend(
        self, pid: int, steps: Sequence[Optional[str]]
    ) -> Tuple[List[int], List[int]]:
        """Walk the trie down from ``pid``, one step at a time.

        A name step moves to the child of that name, creating it when
        new (one child-index lookup); a ``None`` step moves to the
        parent. Returns ``(pids, name_ids)``: the node reached after
        each step and the name id that step used (-1 for ``None``).
        The nodes do not become retained contexts (see :meth:`retain`).
        The lock is held once for the whole walk.
        """
        pids: List[int] = []
        name_ids: List[int] = []
        with self._lock:
            children = self._children
            node = pid
            for name in steps:
                if name is None:
                    node = self._node(node)[0]
                    name_id = -1
                else:
                    name_id = self._name_id(name)
                    child = children.get(self._child_key(node, name_id))
                    node = (
                        self._add_node(node, name_id) if child is None
                        else child
                    )
                pids.append(node)
                name_ids.append(name_id)
        return pids, name_ids

    def retain(self, pids: Iterable[int]) -> None:
        """Mark ``pids`` (nodes of this trie) as retained contexts."""
        with self._lock:
            self._paths.update(dict.fromkeys(pids, True))

    def intern_trie(
        self, names: List[str], nodes: List[int], leaves: List[int]
    ) -> Tuple[array, array]:
        """Intern the contexts ``leaves`` of an encoded trie, node by node.

        ``nodes`` is a flat ``[parent, name_id, ...]`` list over
        ``names`` in which every parent is -1 or an earlier node (the
        checkpoint sections); ``leaves`` are node ids (-1 is the empty
        context). The ancestors of ``leaves`` are interned in node
        order, each from its parent's store id (one child-index lookup,
        no path built), so shared prefixes merge with what the store
        holds, and ids and names are handed out in the order
        :meth:`intern` over the decoded leaves would hand them out. The
        leaves become retained contexts. Returns ``(ids, name_ids)``:
        the store id of every interned node and of every name it uses.
        The lock is held per chunk of :data:`_PATHS_CHUNK` nodes.
        """
        count = len(nodes) // 2
        keep = bytearray(count)
        for node in leaves:
            while node >= 0 and not keep[node]:
                keep[node] = 1
                node = nodes[2 * node]
        name_ids = array("q", [-1]) * len(names)
        ids = array("q", bytes(8 * count))
        for lo in range(0, count, _PATHS_CHUNK):
            with self._lock:
                children = self._children
                for node in range(lo, min(lo + _PATHS_CHUNK, count)):
                    if not keep[node]:
                        continue
                    parent = nodes[2 * node]
                    parent = ids[parent] if parent >= 0 else _ROOT
                    name = nodes[2 * node + 1]
                    name_id = name_ids[name]
                    if name_id < 0:
                        name_id = name_ids[name] = self._name_id(names[name])
                    child = children.get(self._child_key(parent, name_id))
                    if child is None:
                        child = self._add_node(parent, name_id)
                    ids[node] = child
        with self._lock:
            for node in leaves:
                self._paths[ids[node] if node >= 0 else _ROOT] = True
        return ids, name_ids

    def lookup(self, path: Tuple[str, ...]) -> Optional[int]:
        """The pid of ``path`` if it was ever interned, else None."""
        with self._lock:
            node = _ROOT
            for name in path:
                name_id = self._name_ids.get(name)
                if name_id is None:
                    return None
                child = self._children.get(self._child_key(node, name_id))
                if child is None:
                    return None
                node = child
            return node if node in self._paths else None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _block_view(self, block: int) -> Tuple[array, array]:
        """(parents, names) arrays of one block (caller holds the lock)."""
        view = self._hot.get(block)
        if view is not None:
            self._hot.move_to_end(block)
            return view
        sealed = self._sealed[block]
        payload = sealed.payload
        if sealed.compressed:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                self.corruptions += 1
                raise StoreCorruptionError(
                    f"context-store block {block} failed to decompress: {exc}"
                ) from exc
        if zlib.crc32(payload) & 0xFFFFFFFF != sealed.crc:
            self.corruptions += 1
            raise StoreCorruptionError(
                f"context-store block {block} failed its CRC check"
            )
        half = len(payload) // 2
        parents, names = array("q"), array("q")
        # Same-process round trip: bytes stay in native order, so no
        # byte swapping regardless of host endianness.
        parents.frombytes(payload[:half])
        names.frombytes(payload[half:])
        self.unseals += 1
        view = (parents, names)
        self._hot[block] = view
        while len(self._hot) > self._hot_cap:
            self._hot.popitem(last=False)
        return view

    def _node(self, nid: int) -> Tuple[int, int]:
        block, offset = divmod(nid, self.block_size)
        if block == len(self._sealed):
            return self._open_parent[offset], self._open_name[offset]
        parents, names = self._block_view(block)
        return parents[offset], names[offset]

    def path(self, pid: int) -> Tuple[str, ...]:
        """Reconstruct the context path behind ``pid``."""
        return self.paths((pid,))[0]

    def paths(self, pids: Iterable[int]) -> List[Tuple[str, ...]]:
        """The context paths behind ``pids``, in the same order.

        One pass for any number of pids: each sealed block is unsealed
        and CRC-checked at most once per call, and each trie node's path
        is built once, from its parent's path, however many pids share
        it. The store lock is held per chunk of :data:`_PATHS_CHUNK`
        pids; trie nodes never change once added, so what earlier chunks
        decoded stays valid while ``intern`` runs between them.

        Raises :class:`~repro.errors.ServiceError` for an unknown pid and
        :class:`~repro.errors.StoreCorruptionError` when a block fails
        its check.
        """
        pids = list(pids)
        block_size = self.block_size
        built: Dict[int, Tuple[str, ...]] = {_ROOT: ()}
        views: Dict[int, Tuple[array, array]] = {}
        out: List[Tuple[str, ...]] = []
        for lo in range(0, len(pids), _PATHS_CHUNK):
            with self._lock:
                names = self._names
                sealed = len(self._sealed)
                total = sealed * block_size + len(self._open_parent)
                # The open block's columns only grow, and sealing keeps
                # them as that block's hot view, so they stay valid.
                views[sealed] = (self._open_parent, self._open_name)
                for pid in pids[lo:lo + _PATHS_CHUNK]:
                    path = built.get(pid)
                    if path is None:
                        if not 0 <= pid < total:
                            raise ServiceError(f"unknown context id {pid}")
                        # Walk up to the nearest node already built, then
                        # build every node on the way back down.
                        chain: List[Tuple[int, int]] = []
                        node = pid
                        while path is None:
                            block, offset = divmod(node, block_size)
                            view = views.get(block)
                            if view is None:
                                view = views[block] = self._block_view(block)
                            chain.append((node, view[1][offset]))
                            node = view[0][offset]
                            path = built.get(node)
                        for node, name_id in reversed(chain):
                            path = path + (names[name_id],)
                            built[node] = path
                    out.append(path)
        return out

    def encode_counted(
        self, counted: List[Tuple[Tuple[int, int], int, int]]
    ) -> Tuple[List[str], List[int], List[Tuple[int, int, int, int]]]:
        """Checkpoint sections for ``counted``, from one walk of the trie.

        ``counted`` is ``((pid, epoch), count, gaps)`` per key, as
        :meth:`~repro.service.shards.ShardedContextTree.count_rows`
        returns it; read it first, so every counted pid is already a
        node here. Returns ``(names, nodes, rows)``: the trie of the
        counted pids and their ancestors as a flat ``[parent, name_id,
        ...]`` list, numbered in preorder with children visited in
        name-string order and names numbered as the walk first meets
        them, and one ``(node, count, gaps, epoch)`` row per key in
        that preorder, each node's rows by ascending epoch and the
        empty context's (node -1) first. Rows sorted by ``(path,
        epoch)`` come out in exactly this order, so the result equals
        ``delta_encode_rows`` over ``tree.rows()`` without decoding or
        sorting a path. The lock is held per block; sealed blocks never
        change and the open block only grows.
        """
        block_size = self.block_size
        with self._lock:
            total = len(self._sealed) * block_size + len(self._open_parent)
        parents, name_col = array("q"), array("q")
        for lo in range(0, total, block_size):
            block, n = lo // block_size, min(block_size, total - lo)
            with self._lock:
                if block < len(self._sealed):
                    view = self._block_view(block)
                else:
                    view = (self._open_parent, self._open_name)
                parents.extend(view[0][:n])
                name_col.extend(view[1][:n])
        with self._lock:
            names = self._names[:]
        # Keep the ancestors of counted pids only.
        keep = bytearray(total)
        for key, _count, _gaps in counted:
            pid = key[0]
            while pid >= 0 and not keep[pid]:
                keep[pid] = 1
                pid = parents[pid]
        # Kept nodes sorted by parent, then by name string *descending*
        # (packed integers), so each parent's children are one run of
        # ``kids`` that a stack pops in ascending name order.
        width = len(names)
        rank = array("q", bytes(8 * width))
        for order, name_id in enumerate(
            sorted(range(width), key=names.__getitem__, reverse=True)
        ):
            rank[name_id] = order
        kids = array("q", [
            key % total for key in sorted([
                ((parents[node] + 1) * width + rank[name_col[node]]) * total
                + node
                for node in compress(range(total), keep)
            ])
        ])
        first = array("q", bytes(8 * (total + 1)))  # by parent + 1
        stop = array("q", bytes(8 * (total + 1)))
        for at, node in enumerate(kids):
            slot = parents[node] + 1
            if first[slot] == stop[slot]:
                first[slot] = at
            stop[slot] = at + 1
        # Preorder walk, numbering nodes and names as they are met.
        # ``local`` is indexed by node + 1 and holds the local id + 1,
        # so the root (-1) maps to -1 with no branch.
        local = array("q", bytes(8 * (total + 1)))
        local_name = array("q", [-1]) * width
        out_names: List[str] = []
        nodes = array("q")
        emit = nodes.append
        stack = list(kids[first[0]:stop[0]])
        met = 0
        while stack:
            node = stack.pop()
            name_id = name_col[node]
            name = local_name[name_id]
            if name < 0:
                name = local_name[name_id] = len(out_names)
                out_names.append(names[name_id])
            met += 1
            local[node + 1] = met
            emit(local[parents[node] + 1] - 1)
            emit(name)
            lo, hi = first[node + 1], stop[node + 1]
            if hi > lo:
                stack.extend(kids[lo:hi])
        # Rows by (preorder id, epoch), again as packed integers.
        if not counted:
            return out_names, nodes.tolist(), []
        epochs = [key[1] for key, _count, _gaps in counted]
        low, span = min(epochs), max(epochs) - min(epochs) + 1
        size = len(counted)
        rows = []
        for key in sorted([
            (local[row[0][0] + 1] * span + epoch - low) * size + at
            for at, (row, epoch) in enumerate(zip(counted, epochs))
        ]):
            (pid, epoch), count, gaps = counted[key % size]
            rows.append((local[pid + 1] - 1, count, gaps, epoch))
        return out_names, nodes.tolist(), rows

    def name_of(self, name_id: int) -> str:
        """The interned function name behind ``name_id``."""
        with self._lock:
            try:
                return self._names[name_id]
            except IndexError:
                raise ServiceError(f"unknown name id {name_id}") from None

    def leaf_name_id(self, pid: int) -> Optional[int]:
        """The name id of ``pid``'s leaf (None for the empty context)."""
        if pid == _ROOT:
            return None
        with self._lock:
            _, name_id = self._node(pid)
            return name_id

    # ------------------------------------------------------------------
    # Stable iteration (deterministic snapshots)
    # ------------------------------------------------------------------
    def snapshot_ids(self) -> List[int]:
        """Every retained pid, in a **stable** order.

        Trie node ids are handed out in append order, so two stores
        holding the identical context *set* can number (and iterate)
        them differently when ingest interleaved differently. Snapshot
        consumers — segment writers, checkpoint diffing, any "same
        contexts ⇒ same bytes" contract — need an order that depends
        only on the contents: pids here are sorted by their decoded
        path (lexicographic), which is unique per pid by construction.
        """
        return [pid for pid, _path in self.iter_paths()]

    def iter_paths(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(pid, path)`` for every retained context, stable order.

        The companion of :meth:`snapshot_ids` for consumers that want
        the decoded paths too (decoded in one :meth:`paths` pass).
        """
        with self._lock:
            pids = list(self._paths)
        pairs = sorted(zip(self.paths(pids), pids))
        return [(pid, path) for path, pid in pairs]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct retained contexts (pids handed out)."""
        with self._lock:
            return len(self._paths)

    @property
    def nodes(self) -> int:
        with self._lock:
            return (
                len(self._sealed) * self.block_size + len(self._open_parent)
            )

    def bytes_retained(self) -> int:
        """Measured bytes holding the retained contexts.

        Counts the sealed payloads (compressed when compression is on),
        the open block, the name table (with string object overhead),
        and the child index — everything the store keeps alive per
        context, so bytes-per-context comparisons against the old
        tuples-of-strings representation are honest.
        """
        with self._lock:
            total = sum(len(b.payload) for b in self._sealed)
            total += self._open_parent.itemsize * len(self._open_parent) * 2
            total += sys.getsizeof(self._names)
            total += sum(sys.getsizeof(n) for n in self._names)
            total += sys.getsizeof(self._name_ids)
            total += sys.getsizeof(self._children)
            total += sys.getsizeof(self._paths)
            return total

    def stats(self) -> Dict[str, object]:
        with self._lock:
            nodes = len(self._sealed) * self.block_size + len(self._open_parent)
            contexts = len(self._paths)
            sealed_bytes = sum(len(b.payload) for b in self._sealed)
            raw_bytes = sealed_bytes + 16 * len(self._open_parent)
        retained = self.bytes_retained()
        return {
            "compression": self.compression,
            "contexts": contexts,
            "nodes": nodes,
            "names": len(self._names),
            "sealed_blocks": len(self._sealed),
            "block_bytes": raw_bytes,
            "bytes": retained,
            "bytes_per_context": retained / contexts if contexts else 0.0,
            "hot_blocks": len(self._hot),
            "unseals": self.unseals,
            "corruptions": self.corruptions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContextStore(contexts={len(self)}, nodes={self.nodes}, "
            f"compression={self.compression!r})"
        )
