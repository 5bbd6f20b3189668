"""Structurally bad path tables behind valid checksums.

Segments, v2 checkpoints and retired-totals sidecars store their
context paths as one prefix trie: a ``names`` section, a flat ``nodes``
section of ``(parent, name_id)`` pairs (root = -1) and rows that name a
leaf node by pid. Every case below rewrites one of those with every
CRC recomputed, so only the loader's structural checks stand between
the file and a wrong (or looping) decode: each must be rejected, while
pid -1 still loads as the empty context.
"""

import os

import pytest

from repro.durable import pack_section, parse_record_line, record_line
from repro.query.compact import load_retired, write_retired
from repro.query.segment import SegmentState, parse_segment, write_segment
from repro.resilience.checkpoint import CheckpointState, CheckpointStore

# Encodes as names ["main", "a", "b"], nodes [-1, 0, 0, 1, 0, 2]
# (main <- a, main <- b) and row pids [1, 2].
ROWS = [(("main", "a"), 3, 0, 0), (("main", "b"), 2, 1, 1)]
NODES = [-1, 0, 0, 1, 0, 2]


def write_file(fmt, directory, rows):
    if fmt == "segment":
        state = SegmentState(
            t_lo=0.0, t_hi=1.0, fingerprint="fp", rows=tuple(rows)
        )
        return write_segment(directory, 1, state)
    if fmt == "checkpoint":
        state = CheckpointState(epoch=0, fingerprint="fp", rows=tuple(rows))
        return CheckpointStore(directory).write(state)
    totals = {(path, epoch): (count, gaps) for path, count, gaps, epoch in rows}
    return write_retired(directory, 1, totals)


def load_rows(fmt, path):
    """The loaded (path, count, gaps, epoch) rows, or None if rejected."""
    if fmt == "segment":
        with open(path, "rb") as fh:
            seg = parse_segment(path, 1, fh.read())
        return None if seg is None else list(seg.rows)
    if fmt == "checkpoint":
        state = CheckpointStore(os.path.dirname(path)).load_file(path)
        return None if state is None else list(state.rows)
    totals = load_retired(path)
    if totals is None:
        return None
    return sorted(
        (p, count, gaps, epoch) for (p, epoch), (count, gaps) in totals.items()
    )


def rewrite(path, names=None, nodes=None, first_pid=None):
    """Replace the names or nodes section and/or the first row's pid,
    re-framing every record so all checksums stay valid."""
    with open(path, encoding="utf-8") as fh:
        payloads = [parse_record_line(line) for line in fh]
    for payload in payloads:
        if payload["kind"] == "names" and names is not None:
            payload.update(pack_section(names))
        elif payload["kind"] == "nodes":
            assert payload == {"kind": "nodes", **pack_section(NODES)}
            if nodes is not None:
                payload.update(pack_section(nodes))
        elif payload["kind"] == "rows" and first_pid is not None:
            assert payload["rows"][0][0] == 1
            payload["rows"][0][0] = first_pid
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(record_line(payload) for payload in payloads)


FORMATS = ("segment", "checkpoint", "retired")
DEFECTS = {
    "node is its own parent": dict(nodes=[-1, 0, 1, 1, 0, 2]),
    "node is its own grandparent": dict(nodes=[1, 0, 0, 1, 0, 2]),
    "parent index past the table": dict(nodes=[-1, 0, 3, 1, 0, 2]),
    "name id past names": dict(nodes=[-1, 0, 0, 3, 0, 2]),
    "row pid past the table": dict(first_pid=3),
    "negative pid other than -1": dict(first_pid=-2),
    "row pid not an int": dict(first_pid="1"),
    "names not a list": dict(names={"main": 0, "a": 1, "b": 2}),
    "a name that is not a str": dict(names=["main", 1, "b"]),
    "odd-length nodes": dict(nodes=[-1, 0, 0, 1, 0]),
    "a node value not an int": dict(nodes=[-1, 0, 0, 1.0, 0, 2]),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_untouched_file_loads(tmp_path, fmt):
    path = write_file(fmt, str(tmp_path), ROWS)
    rewrite(path)  # re-framing alone changes nothing
    assert load_rows(fmt, path) == ROWS


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_bad_path_table_is_rejected(tmp_path, fmt, defect):
    path = write_file(fmt, str(tmp_path), ROWS)
    rewrite(path, **DEFECTS[defect])
    assert load_rows(fmt, path) is None


@pytest.mark.parametrize("fmt", FORMATS)
def test_pid_minus_one_is_the_empty_context(tmp_path, fmt):
    rows = [((), 4, 1, 0)] + ROWS
    path = write_file(fmt, str(tmp_path), rows)
    with open(path, encoding="utf-8") as fh:
        pids = [
            row[0]
            for payload in map(parse_record_line, fh)
            if payload["kind"] == "rows"
            for row in payload["rows"]
        ]
    assert pids == [-1, 1, 2]
    assert load_rows(fmt, path) == rows
