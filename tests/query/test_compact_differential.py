"""The id-keyed compactor against the path-keyed encoders it replaced.

A swap used to spell every retained row through ``Segment.rows``,
re-encode the merged rows with ``SegmentState(...).encode()`` and sum
the retired totals by ``(path, epoch)`` into :func:`write_retired`. It
now maps the inputs' tries by node id (``TrieMerge``) and sums the
retired rows in a scratch ``ContextStore``. Those two path-keyed
encoders stay as the references: over 200 seeded stores, every
compacted segment must be byte for byte ``write_segment`` of the
``SegmentState`` of its spelled spans, and every retired sidecar byte
for byte ``write_retired`` of the previous sidecar's totals plus the
dropped spans' spelled rows.

The stores mix what can make the two disagree: multi-span inputs
(a swap over an earlier swap's output), dropped spans whose contexts
live on in retained spans, inputs whose tries number one path
differently (rows in another order than their trie, duplicated and
unused trie nodes), the empty context, two epochs, and rows with count
0 and gaps above 0.
"""

import os
import random

import pytest

from repro.durable import delta_encode_rows
from repro.query import compact as compact_module
from repro.query import segment as segment_module
from repro import durable
from repro.query.compact import (
    CompactionPolicy,
    Compactor,
    RetentionPolicy,
    retired_name,
    write_retired,
)
from repro.query.manifest import SegmentStore
from repro.query.segment import (
    EncodedSegment,
    Segment,
    SegmentState,
    segment_name,
    write_segment,
)

FUNCTIONS = ("main", "parse", "lex", "emit", "opt", "gc", "io")
STORES = 200
CHUNK = 25


def make_pool(rng, n=24):
    pool = {()}
    while len(pool) < n:
        pool.add(tuple(rng.choice(FUNCTIONS) for _ in range(rng.randint(1, 5))))
    return sorted(pool)


def random_rows(rng, pool, n):
    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            count, gaps = 0, rng.randint(1, 3)
        elif kind < 0.15:
            count, gaps = 0, 0
        else:
            count = rng.randint(1, 9)
            gaps = rng.randint(0, count) if rng.random() < 0.4 else 0
        rows.append((rng.choice(pool), count, gaps, rng.choice((0, 1))))
    return rows


def encoded_segment(rng, rows, t_lo, t_hi, fingerprint):
    """``rows`` as a segment whose trie is numbered in another order
    than its rows, sometimes with a duplicated or an unused node."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    names, nodes, pids = delta_encode_rows([rows[i] for i in order])
    pid_of = dict(zip(order, pids))
    out = [
        (pid_of[i], count, gaps, epoch)
        for i, (_path, count, gaps, epoch) in enumerate(rows)
    ]
    if nodes and rng.random() < 0.5:
        # A second node spelling an existing path, cited by some rows.
        twin = rng.randrange(len(nodes) // 2)
        nodes = nodes + [nodes[2 * twin], nodes[2 * twin + 1]]
        copy = len(nodes) // 2 - 1
        out = [
            (copy if pid == twin and rng.random() < 0.5 else pid, *rest)
            for pid, *rest in out
        ]
    if rng.random() < 0.3:
        names = names + ["unused"]
        nodes = nodes + [-1, len(names) - 1]
    return EncodedSegment(
        t_lo=t_lo, t_hi=t_hi, fingerprint=fingerprint,
        names=names, nodes=nodes, rows=out,
    )


def spelled_spans(store):
    """Every live span as ``(t_lo, t_hi, seq, fingerprint, rows)``,
    its rows spelled, in the compactor's span order."""
    spans = []
    for seg in store.segments():
        rows = seg.rows
        for (lo, hi), bucket in zip(seg.spans, seg.span_rows):
            spans.append(
                (lo, hi, seg.seq, seg.fingerprint,
                 tuple(rows[i] for i in bucket))
            )
    spans.sort(key=lambda span: span[:3])
    return spans


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def compact_and_check(store, policy, now, reference_dir):
    """One forced swap of ``store``; its files must equal the
    path-keyed encoders' bytes. Returns the report."""
    store.refresh()
    spans = spelled_spans(store)
    previous = store.retired_totals()
    newest = max(seg.seq for seg in store.segments())
    node_of_path = {}
    for seg in store.segments():
        for row, pid in zip(seg.rows, seg.pids):
            node_of_path.setdefault(row[0], set()).add(pid)
    report = Compactor(store, policy, clock=lambda: now).compact(
        now=now, force=True
    )
    if report is None:
        return None
    dropped = spans[:report["dropped_spans"]]
    retained = spans[report["dropped_spans"]:]
    # What this swap covered, for the chunk's coverage checks.
    report["renumbered"] = any(len(ids) > 1 for ids in node_of_path.values())
    report["lives_on"] = bool(
        {row[0] for span in dropped for row in span[4]}
        & {row[0] for span in retained for row in span[4]}
    )
    report["gaps_without_count"] = any(
        row[1] == 0 and row[2] > 0 for span in spans for row in span[4]
    )
    assert report["rows"] == sum(len(span[4]) for span in retained)
    assert report["dropped_rows"] == sum(len(span[4]) for span in dropped)
    assert report["dropped_samples"] == sum(
        row[1] for span in dropped for row in span[4]
    )
    if retained:
        rows, row_spans = [], []
        for span_id, span in enumerate(retained):
            rows.extend(span[4])
            row_spans.extend([span_id] * len(span[4]))
        fingerprint = next(
            span[3] for span in spans if span[2] == newest
        )
        want = write_segment(reference_dir, report["output_seq"], SegmentState(
            t_lo=min(span[0] for span in retained),
            t_hi=max(span[1] for span in retained),
            fingerprint=fingerprint,
            rows=tuple(rows),
            spans=tuple((span[0], span[1]) for span in retained),
            row_spans=tuple(row_spans),
        ).encode())
        got = os.path.join(store.directory, segment_name(report["output_seq"]))
        assert read(got) == read(want)
    new_sidecar = os.path.join(
        store.directory, retired_name(report["to_generation"])
    )
    if report["dropped_rows"]:
        totals = dict(previous)
        for span in dropped:
            for path, count, gaps, epoch in span[4]:
                have = totals.get((path, epoch), (0, 0))
                totals[(path, epoch)] = (have[0] + count, have[1] + gaps)
        want = write_retired(reference_dir, report["to_generation"], totals)
        assert read(new_sidecar) == read(want)
    else:
        assert not os.path.exists(new_sidecar)
    return report


def random_policy(rng):
    choice = rng.random()
    if choice < 0.45:
        return CompactionPolicy(retention=RetentionPolicy(
            max_age_s=rng.choice((15.0, 25.0, 35.0)),
            keep_spans=rng.choice((0, 1, 2)),
        ))
    if choice < 0.8:
        return CompactionPolicy(retention=RetentionPolicy(
            max_bytes=rng.choice((1, 2000, 6000)),
            keep_spans=rng.choice((1, 2)),
        ))
    return CompactionPolicy()


def seeded_store(seed, root):
    """Build store ``seed`` under ``root`` through three forced swaps,
    checking each. Returns the reports."""
    rng = random.Random(seed)
    pool = make_pool(rng)
    directory = os.path.join(root, f"store-{seed}")
    reference_dir = os.path.join(root, f"reference-{seed}")
    os.makedirs(reference_dir)
    store = SegmentStore(directory)
    clock = [0.0]
    reports = []
    for _swap in range(3):
        for _ in range(rng.randint(1, 4)):
            rows = random_rows(rng, pool, rng.randint(0, 14))
            store.append(encoded_segment(
                rng, rows, clock[0], clock[0] + 10.0, f"fp{int(clock[0])}"
            ))
            clock[0] += 10.0
        # A fresh store object, as a restarted compactor would open.
        store = SegmentStore(directory)
        reports.append(compact_and_check(
            store, random_policy(rng), clock[0] + 1.0, reference_dir
        ))
    return reports


@pytest.mark.parametrize("chunk", range(STORES // CHUNK))
def test_compacted_files_equal_the_path_keyed_encoders(tmp_path, chunk):
    reports = []
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        reports.extend(seeded_store(seed, str(tmp_path)))
    done = [report for report in reports if report is not None]
    # The chunk covers swaps over earlier outputs, drops and sidecars,
    # dropped contexts that live on in retained spans, one path under
    # different node ids, and rows with gaps but no count.
    assert any(report["spans"] > 1 and report["dropped_spans"] for report in done)
    assert sum(1 for report in done if report["dropped_rows"]) >= 5
    for fact in ("renumbered", "lives_on", "gaps_without_count"):
        assert any(report[fact] for report in done), fact


def test_a_swap_spells_no_path(tmp_path, monkeypatch):
    """``compact()`` neither reads ``Segment.rows`` nor calls
    ``trie_paths``, with a previous sidecar to carry forward and spans
    to drop."""
    rng = random.Random(7)
    pool = make_pool(rng)
    directory = str(tmp_path / "store")
    store = SegmentStore(directory)
    for i in range(6):
        store.append(encoded_segment(
            rng, random_rows(rng, pool, 12), 10.0 * i, 10.0 * i + 10.0, "fp"
        ))
        if i == 2:
            report = Compactor(store, CompactionPolicy(
                retention=RetentionPolicy(max_age_s=15.0)
            )).compact(now=31.0, force=True)
            assert report["dropped_rows"]

    def spelled(*_args, **_kwargs):
        pytest.fail("a swap spelled a path")

    for module in (durable, compact_module, segment_module):
        if hasattr(module, "trie_paths"):
            monkeypatch.setattr(module, "trie_paths", spelled)
    monkeypatch.setattr(Segment, "rows", property(spelled))
    report = Compactor(SegmentStore(directory), CompactionPolicy(
        retention=RetentionPolicy(max_age_s=25.0)
    )).compact(now=61.0, force=True)
    assert report["dropped_rows"] and report["spans"] >= 2
