"""Adopting what a durable write serialized, against parsing its bytes.

A durable write reads its file back after the rename. When the bytes
hash to the bytes it serialized, the segment is built from the
:class:`~repro.query.segment.EncodedSegment` it holds
(:func:`~repro.query.segment.adopt_segment`) through the checks
:func:`~repro.query.segment.parse_segment` runs, and the compactor's
retired sidecar likewise (:func:`~repro.query.compact.adopt_retired_rows`
against :func:`~repro.query.compact.load_retired_rows`).

Over 200 seeded segments and 200 seeded retired sidecars, each written
by the one writer of its format: parsing the file back must give
exactly the values the writer was handed, adopting them must give the
parse on every attribute, and values no writer should make (a parent
after its child, a negative count, a row citing an unknown span, one
``(path, epoch)`` on two rows) must be refused by both.

The segments mix single-span and multi-span windows, rows on node -1
(the empty context), rows with count 0 and gaps above 0, names outside
ASCII, unused and duplicated trie nodes, and windows whose ends need
17 significant digits.
"""

import hashlib
import random

import pytest

from repro import obs
from repro.durable import delta_encode_rows
from repro.errors import QueryError
from repro.query.compact import (
    RetiredRows,
    adopt_retired_rows,
    load_retired_rows,
    write_retired_encoded,
)
from repro.query.manifest import SegmentStore
from repro.query.segment import (
    EncodedSegment,
    adopt_segment,
    parse_segment,
    write_segment,
)

NAMES = ("main", "parse", "lex", "emit", "λ-lift", "名前", "gc 🎉", "io")
CASES = 200
CHUNK = 25


def seventeen_digits(rng, lo, hi):
    """A float in ``[lo, hi)`` written with 17 significant digits."""
    return float(f"{rng.uniform(lo, hi):.16e}")


def random_trie(rng, nodes_wanted):
    """A trie table: parents before children, some names unused, some
    ``(parent, name)`` pairs repeated (two nodes spelling one path)."""
    names = rng.sample(NAMES, rng.randint(1, len(NAMES)))
    nodes = []
    for node in range(nodes_wanted):
        if node and rng.random() < 0.1:
            twin = rng.randrange(node)  # a duplicated node
            nodes += [nodes[2 * twin], nodes[2 * twin + 1]]
        else:
            nodes += [rng.randint(-1, node - 1), rng.randrange(len(names))]
    return names, nodes


def random_spans(rng, t_lo, t_hi):
    """Sub-windows inside ``[t_lo, t_hi]`` whose envelope is exactly it:
    cuts of the window, sometimes with an overlap or a zero-width span."""
    cuts = sorted(rng.uniform(t_lo, t_hi) for _ in range(rng.randint(0, 3)))
    points = [t_lo, *cuts, t_hi]
    spans = list(zip(points, points[1:]))
    if rng.random() < 0.3:
        at = rng.uniform(t_lo, t_hi)
        spans.append((at, at))
    if rng.random() < 0.3:
        spans.append((t_lo, rng.uniform(t_lo, t_hi)))
    rng.shuffle(spans)
    return tuple(spans)


def random_encoded(seed):
    """Seeded segment ``seed``; even seeds are single-span."""
    rng = random.Random(seed)
    names, nodes = random_trie(rng, rng.randint(0, 30))
    node_count = len(nodes) // 2
    t_lo = seventeen_digits(rng, 1.5e9, 1.8e9)
    t_hi = t_lo
    if rng.random() >= 0.1:
        t_hi = seventeen_digits(rng, t_lo, t_lo + 60.0)
    spans = () if seed % 2 == 0 else random_spans(rng, t_lo, t_hi)
    rows = []
    for _ in range(rng.randint(0, 40)):
        pid = rng.randint(-1, node_count - 1)
        kind = rng.random()
        if kind < 0.15:
            count, gaps = 0, rng.randint(1, 4)
        else:
            count = rng.randint(0, 50)
            gaps = rng.randint(0, count) if rng.random() < 0.3 else 0
        rows.append((pid, count, gaps, rng.randint(0, 2)))
    row_spans = (
        tuple(rng.randrange(len(spans)) for _ in rows) if spans else ()
    )
    return EncodedSegment(
        t_lo=t_lo, t_hi=t_hi, fingerprint=f"fp{seed:04d}",
        names=names, nodes=nodes, rows=rows,
        spans=spans, row_spans=row_spans,
    )


def attributes(seg):
    """Every attribute of a loaded segment, ``span_rows`` as lists."""
    return {
        "path": seg.path,
        "seq": seg.seq,
        "names": seg.names,
        "nodes": seg.nodes,
        "pids": seg.pids,
        "counts": seg.counts,
        "gaps": seg.gaps,
        "epochs": seg.epochs,
        "spans": seg.spans,
        "span_rows": [list(bucket) for bucket in seg.span_rows],
        "row_spans": seg.row_spans,
        "window": (seg.t_lo, seg.t_hi),
        "fingerprint": seg.fingerprint,
        "samples": seg.samples,
    }


def expected(path, seq, encoded):
    """The attributes a segment written from ``encoded`` must load with."""
    spans = tuple((float(lo), float(hi)) for lo, hi in encoded.spans)
    buckets = [[] for _ in spans]
    for row, span in enumerate(encoded.row_spans):
        buckets[span].append(row)
    counts = [row[1] for row in encoded.rows]
    return {
        "path": path,
        "seq": seq,
        "names": list(encoded.names),
        "nodes": list(encoded.nodes),
        "pids": [row[0] for row in encoded.rows],
        "counts": counts,
        "gaps": [row[2] for row in encoded.rows],
        "epochs": [row[3] for row in encoded.rows],
        "spans": spans,
        "span_rows": buckets,
        "row_spans": tuple(encoded.row_spans),
        "window": (float(encoded.t_lo), float(encoded.t_hi)),
        "fingerprint": encoded.fingerprint,
        "samples": sum(counts),
    }


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def covered(encodings):
    """Which of the named shapes ``encodings`` hold."""
    rows = [row for encoded in encodings for row in encoded.rows]
    return {
        "single_span": any(len(e.spans) == 1 for e in encodings),
        "multi_span": any(len(e.spans) > 1 for e in encodings),
        "empty_context": any(row[0] == -1 for row in rows),
        "gaps_without_count": any(row[1] == 0 and row[2] > 0 for row in rows),
        "non_ascii": any(
            not name.isascii() for e in encodings for name in e.names
        ),
        "seventeen_digits": any(
            len(repr(e.t_lo).split("e")[0].replace(".", "").lstrip("0")) == 17
            for e in encodings
        ),
    }


@pytest.mark.parametrize("chunk", range(CASES // CHUNK))
def test_parse_holds_what_was_written(tmp_path, chunk):
    encodings = []
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        encoded = random_encoded(seed)
        encodings.append(encoded)
        seq = seed + 1
        path = write_segment(str(tmp_path), seq, encoded)
        parsed = parse_segment(path, seq, read(path))
        assert parsed is not None, seed
        want = expected(path, seq, encoded)
        assert repr(attributes(parsed)) == repr(want), seed
    for shape, held in covered(encodings).items():
        assert held, shape


@pytest.mark.parametrize("chunk", range(CASES // CHUNK))
def test_adopted_segment_equals_the_parse(tmp_path, chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        encoded = random_encoded(seed)
        seq = seed + 1
        written = hashlib.sha256()
        path = write_segment(str(tmp_path), seq, encoded, digest=written)
        data = read(path)
        assert hashlib.sha256(data).digest() == written.digest(), seed
        parsed = parse_segment(path, seq, data)
        adopted = adopt_segment(path, seq, encoded, written.digest())
        assert adopted is not None, seed
        assert repr(attributes(adopted)) == repr(attributes(parsed)), seed
        assert repr(adopted.span_rows) == repr(parsed.span_rows), seed
        assert adopted.digest == parsed.digest == written.digest(), seed


def test_appends_serve_the_parse_of_what_they_wrote(tmp_path):
    """Through a store: each append is adopted, never parsed, and the
    segment it serves is the parse of the file on every attribute."""
    store = SegmentStore(str(tmp_path))
    adopted = obs.counter("query.segment_adopted").value
    parses = obs.counter("query.segment_parses").value
    for seed in range(CHUNK):
        path = store.append(random_encoded(seed))
        served = store.segments()[-1]
        assert served.path == path
        parsed = parse_segment(path, served.seq, read(path))
        assert repr(attributes(served)) == repr(attributes(parsed)), seed
    assert obs.counter("query.segment_adopted").value == adopted + CHUNK
    assert obs.counter("query.segment_parses").value == parses


# ----------------------------------------------------------------------
# Segments no writer should make
# ----------------------------------------------------------------------
def parent_after_child():
    return EncodedSegment(
        t_lo=0.0, t_hi=10.0, fingerprint="fp",
        names=["main", "f"], nodes=[1, 0, -1, 1], rows=[(0, 1, 0, 0)],
    )


def negative_count():
    return EncodedSegment(
        t_lo=0.0, t_hi=10.0, fingerprint="fp",
        names=["main"], nodes=[-1, 0], rows=[(0, 2, 0, 0), (0, -1, 0, 1)],
    )


def unknown_span():
    return EncodedSegment(
        t_lo=0.0, t_hi=10.0, fingerprint="fp",
        names=["main"], nodes=[-1, 0], rows=[(0, 2, 0, 0), (-1, 1, 0, 0)],
        spans=((0.0, 5.0), (5.0, 10.0)), row_spans=(0, 2),
    )


INVALID = {
    "parent_after_child": parent_after_child,
    "negative_count": negative_count,
    "unknown_span": unknown_span,
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_segments_are_refused(tmp_path, case):
    encoded = INVALID[case]()
    written = hashlib.sha256()
    path = write_segment(str(tmp_path), 1, encoded, digest=written)
    assert parse_segment(path, 1, read(path)) is None
    assert adopt_segment(path, 1, encoded, written.digest()) is None
    with pytest.raises(QueryError):
        SegmentStore(str(tmp_path / "store")).append(encoded)


# Values a writer may be handed that JSON writes as something else, or
# that no reader accepts: adopting them must never accept what the
# parse refuses, must agree with it where both accept, and an append
# serves the parse either way.
ODD = {
    "row_spans_longer": dict(spans=((0.0, 5.0), (5.0, 10.0)),
                             row_spans=(0, 1, 1)),
    "row_spans_shorter": dict(spans=((0.0, 5.0), (5.0, 10.0)),
                              row_spans=(0,)),
    "row_of_five": dict(rows=[(0, 2, 0, 0, 9), (1, 3, 1, 1)]),
    "row_of_three": dict(rows=[(0, 2, 0), (1, 3, 1, 1)]),
    "float_count": dict(rows=[(0, 2.0, 0, 0), (1, 3, 1, 1)]),
    "fractional_count": dict(rows=[(0, 2.5, 0, 0), (1, 3, 1, 1)]),
    "bool_pid": dict(rows=[(True, 2, 0, 0), (1, 3, 1, 1)]),
    "list_rows": dict(rows=[[0, 2, 0, 0], [1, 3, 1, 1]]),
    "names_tuple": dict(names=("main", "f")),
    "nodes_tuple": dict(nodes=(-1, 0, 0, 1)),
    "span_of_three": dict(spans=((0.0, 5.0, 1.0), (5.0, 10.0)),
                          row_spans=(0, 1)),
    "int_window": dict(t_lo=0, t_hi=10, spans=((0, 5), (5, 10)),
                       row_spans=(0, 1)),
    "nan_window": dict(t_lo=float("nan")),
    "none_fingerprint": dict(fingerprint=None),
}


@pytest.mark.parametrize("case", sorted(ODD))
def test_adoption_never_accepts_what_the_parse_refuses(tmp_path, case):
    fields = dict(
        t_lo=0.0, t_hi=10.0, fingerprint="fp", names=["main", "f"],
        nodes=[-1, 0, 0, 1], rows=[(0, 2, 0, 0), (1, 3, 1, 1)],
    )
    fields.update(ODD[case])
    encoded = EncodedSegment(**fields)
    written = hashlib.sha256()
    path = write_segment(str(tmp_path), 1, encoded, digest=written)
    parsed = parse_segment(path, 1, read(path))
    adopted = adopt_segment(path, 1, encoded, written.digest())
    if adopted is not None:
        assert parsed is not None
        assert repr(attributes(adopted)) == repr(attributes(parsed))
    store = SegmentStore(str(tmp_path / "store"))
    if parsed is None:
        assert adopted is None
        with pytest.raises(QueryError):
            store.append(encoded)
    else:
        store.append(encoded)
        (served,) = store.segments()
        reread = parse_segment(served.path, 1, read(served.path))
        assert repr(attributes(served)) == repr(attributes(reread))


# ----------------------------------------------------------------------
# Retired sidecars
# ----------------------------------------------------------------------
def random_sidecar(seed):
    """Seeded sidecar sections: one row per ``(path, epoch)``, sorted as
    the compactor sorts them, over a trie with no repeated pair."""
    rng = random.Random(10_000 + seed)
    paths = {
        tuple(rng.choice(NAMES) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(0, 25))
    }
    names, nodes, _pids = delta_encode_rows([(p,) for p in sorted(paths)])
    keys = {
        (rng.randint(-1, len(nodes) // 2 - 1), rng.randint(0, 2))
        for _ in range(rng.randint(0, 30))
    }
    rows = []
    for pid, epoch in keys:
        count = 0 if rng.random() < 0.15 else rng.randint(1, 40)
        gaps = rng.randint(1, 3) if count == 0 else rng.randint(0, count)
        rows.append((pid, count, gaps, epoch))
    rows.sort()
    return names, nodes, rows


@pytest.mark.parametrize("chunk", range(CASES // CHUNK))
def test_parsed_sidecar_holds_what_was_written(tmp_path, chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        names, nodes, rows = random_sidecar(seed)
        path = write_retired_encoded(str(tmp_path), seed, names, nodes, rows)
        want = RetiredRows(names, nodes, rows, sum(row[1] for row in rows))
        loaded = load_retired_rows(path)
        assert loaded == want, seed
        assert repr(loaded) == repr(want), seed


@pytest.mark.parametrize("chunk", range(CASES // CHUNK))
def test_adopted_sidecar_equals_the_parse(tmp_path, chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        names, nodes, rows = random_sidecar(seed)
        written = hashlib.sha256()
        path = write_retired_encoded(
            str(tmp_path), seed, names, nodes, rows, digest=written
        )
        assert hashlib.sha256(read(path)).digest() == written.digest()
        adopted = adopt_retired_rows(seed, names, nodes, rows)
        assert adopted is not None, seed
        assert repr(adopted) == repr(load_retired_rows(path)), seed


INVALID_SIDECARS = {
    "parent_after_child": (["main", "f"], [1, 0, -1, 1], [(0, 1, 0, 0)]),
    "negative_count": (["main"], [-1, 0], [(-1, 2, 0, 0), (0, -1, 0, 0)]),
    # Nodes 0 and 1 both spell ("main",): one (path, epoch), two rows.
    "one_path_two_nodes": (
        ["main"], [-1, 0, -1, 0], [(0, 2, 0, 0), (1, 3, 0, 0)],
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_SIDECARS))
def test_invalid_sidecars_are_refused(tmp_path, case):
    names, nodes, rows = INVALID_SIDECARS[case]
    path = write_retired_encoded(str(tmp_path), 1, names, nodes, rows)
    assert load_retired_rows(path) is None
    assert adopt_retired_rows(1, names, nodes, rows) is None
