"""Durable line-record files: one writer, one reader, one path-table check.

Checkpoints (``dpck``), query segments (``dpqs``), the segment manifest
(``dpqm``), the compaction journal (``dpqj``) and retired-totals
sidecars (``dpqr``) are files of CRC-framed JSON line records: a
header record naming the format and its version, the format's own
records, and a footer counting every line. :func:`write_records` is
the only way they reach the disk (temp file, fsync, ``os.replace``,
directory fsync; a caller may have the bytes hashed on the way) and
:func:`read_records` the only way they are read back; each format then
applies its own field rules. Three of them keep
context paths as a prefix trie, checked by :func:`valid_trie`, merged
by node ids with :class:`TrieMerge` and spelled out by
:func:`trie_paths`. A writer that dies mid-write leaves
its temp file behind; :func:`sweep_temp_files` deletes those of dead
processes when a store opens its directory. ``docs/RESILIENCE.md``
("Durable files") has the rules and the crash points.
"""

from __future__ import annotations

import base64
import io
import json
import os
import zlib
from itertools import repeat
from operator import lt
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "TrieMerge",
    "delta_encode_rows",
    "fsync_dir",
    "load_records",
    "pack_section",
    "parse_record_line",
    "read_records",
    "record_line",
    "row_records",
    "split_body",
    "sweep_temp_files",
    "trie_paths",
    "unpack_section",
    "valid_trie",
    "write_records",
]

def _crc(body: str) -> str:
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}"


def record_line(payload: dict) -> str:
    """One checksummed line: ``<crc32 hex> <canonical JSON>\\n``."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{_crc(body)} {body}\n"


def parse_record_line(line: str) -> Optional[dict]:
    """Decode one checksummed line; None when torn or corrupt.

    The prefix must be exactly the eight lower-case hex digits the
    writer emits. Parsing it as a number instead would also accept
    upper-case digits and padding blanks, so a flipped bit in the
    prefix could still load.
    """
    if not line.endswith("\n") or len(line) < 10 or line[8] != " ":
        return None  # a torn final line, or not a record at all
    body = line[9:-1]
    if line[:8] != _crc(body):
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def pack_section(obj) -> Dict[str, object]:
    """JSON → zlib → base64, with an inner CRC32 over the raw JSON."""
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return {
        "crc": zlib.crc32(raw) & 0xFFFFFFFF,
        "data": base64.b64encode(zlib.compress(raw, 6)).decode("ascii"),
    }


def unpack_section(payload: Dict[str, object]):
    """Inverse of :func:`pack_section`; None on any corruption."""
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


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
#: The temp paths of this process's writes in progress.
_writing: Dict[str, object] = {}


def _claim_temp(path: str) -> str:
    """A temp path for a write of ``path`` that no other write in this
    process is using: ``.tmp-<name>-<pid>``, or ``.tmp-<name>-<pid>.<n>``
    with the smallest free ``n`` while another write of the same file
    holds that. Each claim is one atomic ``dict.setdefault``, so
    threads need no lock (and a forked child inherits none held).
    """
    base = os.path.join(
        os.path.dirname(path), f".tmp-{os.path.basename(path)}-{os.getpid()}"
    )
    token = object()
    tmp, n = base, 0
    while _writing.setdefault(tmp, token) is not token:
        n += 1
        tmp = f"{base}.{n}"
    return tmp


def write_records(
    path: str,
    records: Iterable[dict],
    footer: Optional[dict] = None,
    fault: Optional[Callable[[int], None]] = None,
    digest=None,
) -> str:
    """Atomically make ``path`` the file of ``records`` plus a footer.

    ``records`` starts with the header. The footer carries ``footer``'s
    fields and ``records``, the number of lines written, itself
    included. ``fault`` (chaos) is called with the running record count
    after each record is written, the footer's too; raising from it
    abandons the temp file un-renamed, so readers only ever see the
    previous file or none. ``digest``, a :mod:`hashlib` object, is
    updated with every byte written, so a caller reading the file back
    can tell whether it holds exactly those bytes. Two writes of one
    file that overlap in one process each write their own temp file
    (:func:`_claim_temp`), and the later rename wins. Returns ``path``.
    """
    directory = os.path.dirname(path)

    def numbered():
        written = 0
        for payload in records:
            written += 1
            yield written, payload
        written += 1
        yield written, dict(footer or {}, kind="footer", records=written)

    tmp = _claim_temp(path)
    try:
        with open(tmp, "wb") as fh:
            for written, payload in numbered():
                line = record_line(payload).encode("utf-8")
                fh.write(line)
                if digest is not None:
                    digest.update(line)
                if fault is not None:
                    fault(written)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        del _writing[tmp]
    fsync_dir(directory)
    return path


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: an existence check, nothing is sent
    except (ProcessLookupError, OverflowError):
        return False  # no such process, or no pid could be this large
    except OSError:
        return True  # alive, but another user's process
    return True


def sweep_temp_files(directory: str) -> int:
    """Delete the temp files :func:`write_records` left in ``directory``
    when its writer died mid-write; returns how many went.

    A temp file is ``.tmp-<final name>-<pid>``, with ``.<n>`` after the
    pid when it was written beside another write of the same file. One
    whose pid is this process's or any live process's is kept: its
    write may still be running (a reused pid only keeps a file longer).
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not name.startswith(".tmp-"):
            continue
        pid = name.rsplit("-", 1)[-1].split(".", 1)[0]
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        if _pid_alive(int(pid)):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue  # another sweeper got there first
        removed += 1
    return removed


def row_records(rows: Sequence, per_record: int = 512) -> Iterable[dict]:
    """``rows`` records holding up to ``per_record`` rows each."""
    for lo in range(0, len(rows), per_record):
        yield {"kind": "rows", "rows": rows[lo:lo + per_record]}


# ----------------------------------------------------------------------
# Read path
# ----------------------------------------------------------------------
def read_records(
    data: bytes, kind: str, versions: Container[int]
) -> Optional[Tuple[dict, List[dict], dict]]:
    """``(header, body, footer)`` of a file's bytes; None when invalid.

    The bytes are decoded as reading the file in text mode would
    (UTF-8, universal newlines). Valid means: every line passes its
    CRC, the first record is a header of ``kind`` whose ``version`` is
    in ``versions``, the last is the only footer, and the footer's
    ``records`` equals the number of lines. ``body`` is every record
    between the two.
    """
    try:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except UnicodeDecodeError:
        return None
    records = []
    for line in lines:
        payload = parse_record_line(line)
        if payload is None:
            return None
        records.append(payload)
    if len(records) < 2:
        return None  # empty, or torn before its footer
    header, body, footer = records[0], records[1:-1], records[-1]
    version = header.get("version")
    if header.get("kind") != kind or not (
        isinstance(version, int) and version in versions
    ):
        return None
    if footer.get("kind") != "footer" or footer.get("records") != len(records):
        return None  # the footer never landed, or lines were lost
    if any(payload.get("kind") == "footer" for payload in body):
        return None  # records after the footer
    return header, body, footer


def load_records(
    path: str, kind: str, versions: Container[int]
) -> Optional[Tuple[dict, List[dict], dict]]:
    """:func:`read_records` of the file at ``path``; None when it
    cannot be read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return read_records(data, kind, versions)


def split_body(
    body: List[dict], sections: Container[str]
) -> Optional[Tuple[Dict[str, object], List[object]]]:
    """The unpacked packed sections and the concatenated rows of a
    file's body; None for a record of any other kind.

    A section that fails its inner CRC unpacks to None, which the
    format's own checks then reject.
    """
    unpacked: Dict[str, object] = {}
    rows: List[object] = []
    for payload in body:
        kind = payload.get("kind")
        if kind == "rows" and isinstance(payload.get("rows"), list):
            rows.extend(payload["rows"])
        elif kind in sections:
            unpacked[kind] = unpack_section(payload)
        else:
            return None
    return unpacked, rows


# ----------------------------------------------------------------------
# Path tables
# ----------------------------------------------------------------------
def delta_encode_rows(rows) -> Tuple[List[str], List[int], List[int]]:
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


class TrieMerge:
    """Tries merged into one by node ids, numbered as
    :func:`delta_encode_rows` numbers the paths they spell.

    :meth:`source` returns the map from one input trie's node ids to
    merged ones. A node the merged trie has no id for yet climbs to its
    nearest mapped ancestor, then the nodes below it are numbered
    downward (one child-index lookup each, so equal paths from
    different tries, or twice in one, share a node), and a name gets a
    number when it is first seen. Mapping rows in some order therefore
    gives the ``names``, ``nodes`` and row pids that
    :func:`delta_encode_rows` makes of their spelled paths in that
    order, without spelling one.
    """

    def __init__(self):
        self.names: List[str] = []
        #: Flat ``[parent, name_id, ...]``, parents before children.
        self.nodes: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self._children: Dict[Tuple[int, int], int] = {}

    def source(self, names: List[str], nodes: List[int]) -> Callable[[int], int]:
        """The merged id of each node of the :func:`valid_trie` table
        ``(names, nodes)``, as a function of its id (-1, the empty
        context, stays -1). Each node is mapped once."""
        merged = [-1] * (len(nodes) // 2)
        local_names = [-1] * len(names)
        out_names, out_nodes = self.names, self.nodes
        name_ids, children = self._name_ids, self._children

        def node_of(node: int) -> int:
            if node < 0:
                return -1
            out = merged[node]
            if out >= 0:
                return out
            chain = []
            while node >= 0 and merged[node] < 0:
                chain.append(node)
                node = nodes[2 * node]
            parent = merged[node] if node >= 0 else -1
            for node in reversed(chain):
                name = nodes[2 * node + 1]
                name_id = local_names[name]
                if name_id < 0:
                    text = names[name]
                    name_id = name_ids.get(text)
                    if name_id is None:
                        name_id = name_ids[text] = len(out_names)
                        out_names.append(text)
                    local_names[name] = name_id
                child = children.get((parent, name_id))
                if child is None:
                    child = children[(parent, name_id)] = len(out_nodes) // 2
                    out_nodes.append(parent)
                    out_nodes.append(name_id)
                merged[node] = parent = child
            return parent

        return node_of


def valid_trie(names, nodes, pids: Iterable[object]) -> bool:
    """The one path-table check, in one pass.

    ``names`` must be a list of str and ``nodes`` an even-length list
    of ints, each node's parent -1 or an earlier node and each name id
    in range; every pid must be -1 or a node. Parents before children
    is what every writer emits, and it rules out cycles without walking
    any row to the root. Each column is checked by builtins over the
    whole list, not by a Python loop per node.
    """
    if not isinstance(names, list) or not all(
        map(isinstance, names, repeat(str))
    ):
        return False
    if (
        not isinstance(nodes, list)
        or len(nodes) % 2
        or not all(map(isinstance, nodes, repeat(int)))
    ):
        return False
    count, width = len(nodes) // 2, len(names)
    if count:
        parents, name_ids = nodes[0::2], nodes[1::2]
        if not (
            min(parents) >= -1
            and all(map(lt, parents, range(count)))
            and min(name_ids) >= 0
            and max(name_ids) < width
        ):
            return False
    pids = list(pids)
    if not all(map(isinstance, pids, repeat(int))):
        return False
    return not pids or (min(pids) >= -1 and max(pids) < count)


def trie_paths(names: List[str], nodes: List[int]) -> List[Tuple[str, ...]]:
    """The path of every node of a :func:`valid_trie` table, each built
    once from its parent's."""
    paths: List[Tuple[str, ...]] = []
    for at in range(0, len(nodes), 2):
        parent = nodes[at]
        prefix = paths[parent] if parent >= 0 else ()
        paths.append(prefix + (names[nodes[at + 1]],))
    return paths
