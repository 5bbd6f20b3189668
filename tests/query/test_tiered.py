"""Tiered compaction: a call that is not forced, under a byte or age
cap, rewrites only the runs that changed and leaves every other file
as it is.

The three runs of ``repro.query.compact`` (the trim run retention cuts,
the young run of writer deltas, the file-cap merges), the manifest's
``compacted`` marks that tell a swap's one-span output from a delta,
a crash swept through every durable record of a two-swap call beside
an untouched segment, and a differential over 200 seeded append
streams: a tiered history must answer every query as a forced full
history does, and each tiered output must be the path-keyed encoding
of its own spans.
"""

import os
import random
import shutil

import pytest

from repro import obs
from repro.check.oracle import canonical_query_answers
from repro.errors import ChaosError
from repro.query.compact import (
    CompactionPolicy,
    Compactor,
    RetentionPolicy,
    retired_name,
)
from repro.query.engine import QueryEngine
from repro.query.manifest import SegmentStore, load_manifest_info
from repro.query.segment import SegmentState, segment_name, write_segment

from tests.query.test_compact_differential import (
    encoded_segment,
    make_pool,
    random_rows,
)

#: A byte cap no test store reaches: the tiered path, nothing retired.
UNBOUNDED_BYTES = 1 << 40


def delta(store, i, rows_per=4):
    """Append the writer delta of window ``[10i, 10i + 10)``."""
    rows = tuple(
        (("main", f"f{j % 3}", f"ctx{(i + j) % 5}"), i + j + 1, j % 2, i % 2)
        for j in range(rows_per)
    )
    store.append(SegmentState(
        t_lo=10.0 * i, t_hi=10.0 * i + 10.0, fingerprint=f"fp{i}", rows=rows,
    ).encode())


def tiered(min_inputs=2, **caps):
    caps.setdefault("max_bytes", UNBOUNDED_BYTES)
    return CompactionPolicy(
        min_inputs=min_inputs, retention=RetentionPolicy(**caps)
    )


def layered(directory):
    """Spans 0-2 in one forced output ``C1``, spans 3-5 in a tiered
    young-run output ``C2``, then the deltas of spans 6 and 7."""
    store = SegmentStore(str(directory))
    for i in range(3):
        delta(store, i)
    Compactor(store).compact(now=31.0, force=True)
    for i in range(3, 6):
        delta(store, i)
    report = Compactor(store, tiered(min_inputs=3)).compact(now=61.0)
    assert report["swaps"] == 1 and report["untouched"] == 1
    for i in range(6, 8):
        delta(store, i)
    return store


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def by_window(store):
    """``{segment window: seq}`` of the live segments."""
    return {(seg.t_lo, seg.t_hi): seg.seq for seg in store.refresh()}


def flushed(store):
    """Live plus retired samples."""
    live = sum(seg.samples for seg in store.refresh())
    retired = store.retired_rows()
    return live + (retired.samples if retired is not None else 0)


def crash_after(limit):
    def hook(records):
        if records > limit:
            raise ChaosError(f"chaos: crash after {records} record(s)")
    return hook


class TestRuns:
    def test_young_deltas_merge_beside_an_untouched_segment(self, tmp_path):
        store = layered(tmp_path)
        windows = by_window(store)
        c1, c2 = windows[(0.0, 30.0)], windows[(30.0, 60.0)]
        kept = {seq: read(os.path.join(str(tmp_path), segment_name(seq)))
                for seq in (c1, c2)}
        before = canonical_query_answers(QueryEngine(store).refresh())
        report = Compactor(store, tiered()).compact(now=81.0)
        assert report["swaps"] == 1
        assert report["untouched"] == 2
        assert report["dropped_spans"] == 0
        assert report["spans"] == 2
        assert set(report["inputs"]).isdisjoint(kept)
        after = by_window(store)
        assert set(after) == {(0.0, 30.0), (30.0, 60.0), (60.0, 80.0)}
        for seq, data in kept.items():
            assert read(os.path.join(str(tmp_path), segment_name(seq))) == data
        assert canonical_query_answers(QueryEngine(store).refresh()) == before

    def test_a_forced_call_is_one_full_swap(self, tmp_path):
        store = layered(tmp_path)
        report = Compactor(store, tiered()).compact(now=81.0, force=True)
        assert report["swaps"] == 1 and report["untouched"] == 0
        assert [seg.spans for seg in store.refresh()] == [
            tuple((10.0 * i, 10.0 * i + 10.0) for i in range(8))
        ]

    def test_a_policy_without_byte_or_age_cap_keeps_the_full_swap(
        self, tmp_path
    ):
        store = layered(tmp_path)
        policy = CompactionPolicy(
            min_inputs=2, retention=RetentionPolicy(max_segments=8)
        )
        report = Compactor(store, policy).compact(now=81.0)
        assert report["untouched"] == 0
        assert len(store.refresh()) == 1

    def test_young_deltas_wait_for_min_inputs(self, tmp_path):
        store = layered(tmp_path)
        compactor = Compactor(store, tiered(min_inputs=3))
        assert compactor.compact(now=81.0) is None
        assert compactor.skipped_not_due == 1

    def test_a_trim_rewrites_only_the_run_it_cuts(self, tmp_path):
        store = layered(tmp_path)
        total = flushed(store)
        c2 = by_window(store)[(30.0, 60.0)]
        data = read(os.path.join(str(tmp_path), segment_name(c2)))
        # Spans ending at or before 20 age out: spans 0 and 1 of C1.
        report = Compactor(store, tiered(max_age_s=61.0)).compact(now=81.0)
        assert report["swaps"] == 2
        assert report["dropped_spans"] == 2
        assert report["untouched"] == 1
        assert set(by_window(store)) == {
            (20.0, 30.0), (30.0, 60.0), (60.0, 80.0)
        }
        assert read(os.path.join(str(tmp_path), segment_name(c2))) == data
        assert flushed(store) == total

    def test_a_trim_that_keeps_nothing_rewrites_nothing(self, tmp_path):
        store = layered(tmp_path)
        total = flushed(store)
        writes = []
        real = store.write
        store.write = lambda seq, encoded, **kw: writes.append(
            encoded.spans
        ) or real(seq, encoded, **kw)
        # Spans ending at or before 30 age out: all of C1.
        report = Compactor(store, tiered(max_age_s=51.0)).compact(now=81.0)
        assert report["dropped_spans"] == 3
        assert writes == [((60.0, 70.0), (70.0, 80.0))]  # the young run
        assert set(by_window(store)) == {(30.0, 60.0), (60.0, 80.0)}
        assert flushed(store) == total

    def test_a_one_span_remnant_is_not_a_young_delta(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for i in range(3):
            delta(store, i)
        Compactor(store).compact(now=31.0, force=True)
        # Spans 0 and 1 age out; the remnant keeps span 2 alone.
        report = Compactor(store, tiered(max_age_s=20.0)).compact(now=40.0)
        assert report["dropped_spans"] == 2
        (remnant,) = store.refresh()
        assert remnant.spans == ((20.0, 30.0),)
        data = read(remnant.path)
        # The manifest marks it as a swap's output, across a restart.
        entries = load_manifest_info(str(tmp_path))["entries"]
        assert [e.get("compacted") for e in entries] == [True]
        reopened = SegmentStore(str(tmp_path))
        reopened.refresh()
        assert reopened.compacted == {remnant.seq}
        for i in range(3, 5):
            delta(store, i)
        fresh = SegmentStore(str(tmp_path))
        report = Compactor(fresh, tiered(max_age_s=20.0)).compact(now=49.0)
        assert remnant.seq not in report["inputs"]
        assert report["untouched"] == 1 and report["spans"] == 2
        assert read(remnant.path) == data
        assert set(by_window(fresh)) == {(20.0, 30.0), (30.0, 50.0)}

    def test_the_file_cap_merges_the_pair_with_the_fewest_rows(
        self, tmp_path
    ):
        store = SegmentStore(str(tmp_path))
        for i, rows_per in enumerate((6, 2, 3)):
            delta(store, i, rows_per=rows_per)
        # Three deltas are too few to merge as the young run; the cap
        # of two files alone makes the call due.
        report = Compactor(
            store, tiered(min_inputs=8, max_segments=2)
        ).compact(now=31.0)
        assert report["swaps"] == 1 and report["untouched"] == 1
        assert set(by_window(store)) == {(0.0, 10.0), (10.0, 30.0)}

    def test_the_file_cap_holds_beside_young_and_trimmed_runs(
        self, tmp_path
    ):
        store = layered(tmp_path)
        Compactor(store, tiered(max_segments=2)).compact(now=81.0)
        assert len(store.refresh()) == 2


class TestReport:
    def test_bytes_written_is_the_output_file_size(self, tmp_path):
        store = layered(tmp_path)
        counter = obs.counter("query.compaction_bytes_written")
        before = counter.value
        compactor = Compactor(store, tiered())
        report = compactor.compact(now=81.0)
        size = os.path.getsize(
            os.path.join(str(tmp_path), segment_name(report["output_seq"]))
        )
        assert report["outputs"] == [report["output_seq"]]
        assert report["bytes_written"] == size
        assert counter.value - before == size
        assert compactor.stats()["bytes_written"] == size
        assert compactor.stats()["untouched"] == 2

    def test_a_call_keeps_the_sidecar_it_began_with(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            delta(store, i)
        Compactor(store, tiered(max_age_s=20.0)).compact(now=30.0, force=True)
        first = store.retired_name
        assert first == retired_name(1)
        for i in range(4, 6):
            delta(store, i)
        # One call, two swaps: the trim writes a new sidecar, then the
        # young run commits a second generation over it.
        report = Compactor(store, tiered(max_age_s=20.0)).compact(now=50.0)
        assert report["swaps"] == 2 and report["dropped_rows"]
        assert store.retired_name == retired_name(2)
        assert os.path.exists(os.path.join(str(tmp_path), first))
        # The next call is free to prune it.
        delta(store, 6)
        delta(store, 7)
        Compactor(store, tiered(max_age_s=20.0)).compact(now=70.0)
        assert not os.path.exists(os.path.join(str(tmp_path), first))


class TestCrashSweep:
    def test_every_crash_point_of_a_byte_capped_call(self, tmp_path):
        """A byte-capped call that trims ``C1`` and merges the young
        deltas beside the untouched ``C2``, killed after every durable
        record in turn: the recovered store answers as before or after
        the call (or between its two swaps, which answers as after),
        ``C2`` keeps its bytes, and live + retired == flushed."""
        template = str(tmp_path / "template")
        store = layered(template)
        total = flushed(store)
        c2 = by_window(store)[(30.0, 60.0)]
        c2_bytes = read(os.path.join(template, segment_name(c2)))
        live = store.refresh()
        files = sum(os.path.getsize(seg.path) for seg in live)
        rows = sum(len(seg.pids) for seg in live)
        per_row = files / rows
        first_span = len(live[0].span_rows[0])
        # A cap the estimate meets once the oldest span alone retires.
        cap = int(per_row * (rows - first_span)) + 1
        policy = tiered(max_bytes=cap)

        clean = str(tmp_path / "clean")
        shutil.copytree(template, clean)
        report = Compactor(SegmentStore(clean), policy).compact(now=81.0)
        assert report["swaps"] == 2 and report["dropped_spans"] == 1
        assert report["untouched"] == 1
        answers = {
            canonical_query_answers(QueryEngine(directory).refresh())
            for directory in (template, clean)
        }
        generation = store.generation

        between = 0
        for point in range(256):
            directory = str(tmp_path / f"crash-{point}")
            shutil.copytree(template, directory)
            try:
                Compactor(SegmentStore(directory), policy).compact(
                    now=81.0, fault=crash_after(point)
                )
                crashed = False
            except ChaosError:
                crashed = True
            recovered = SegmentStore(directory)
            Compactor(recovered, policy).recover(now=81.0)
            assert flushed(recovered) == total, point
            assert read(os.path.join(directory, segment_name(c2))) == \
                c2_bytes, point
            assert c2 in by_window(recovered).values(), point
            reopened = SegmentStore(directory)
            reopened.refresh()
            assert c2 in reopened.compacted, point  # the mark survives
            assert canonical_query_answers(
                QueryEngine(directory).refresh()
            ) in answers, point
            between += recovered.generation == generation + 1
            shutil.rmtree(directory)
            if not crashed:
                break
        else:
            pytest.fail("the crash sweep never completed the call")
        assert point > 8  # both swaps' records were swept
        assert between  # some crash landed between the two swaps


# ----------------------------------------------------------------------
# Differential: tiered history against forced full history
# ----------------------------------------------------------------------
STREAMS = 200
CHUNK = 25
FUNCTIONS = ("main", "parse", "lex", "emit", "opt", "gc", "io")


def stream_policy(rng, kind):
    retention = {"max_segments": rng.choice((None, 2, 3, 5))}
    if kind == "age":
        retention.update(
            max_age_s=rng.choice((25.0, 45.0, 65.0)),
            keep_spans=rng.choice((0, 1, 2)),
        )
    else:
        retention["max_bytes"] = UNBOUNDED_BYTES
    return CompactionPolicy(
        min_inputs=rng.choice((2, 3, 4)),
        retention=RetentionPolicy(**retention),
    )


def spelled_spans(store):
    """``{(t_lo, t_hi): spelled rows}`` of every live span."""
    spans = {}
    for seg in store.segments():
        rows = seg.rows
        for window, bucket in zip(seg.spans, seg.span_rows):
            spans[window] = tuple(rows[i] for i in bucket)
    return spans


def check_tiered_call(store, compactor, now, reference_dir):
    """One tiered call: every output is the path-keyed encoding of its
    own spans, every live file it did not take keeps its bytes."""
    store.refresh()
    before = spelled_spans(store)
    files = {seg.seq: read(seg.path) for seg in store.segments()}
    report = compactor.compact(now=now)
    if report is None:
        return None
    live = {seg.seq: seg for seg in store.refresh()}
    for seq in report["outputs"]:
        out = live[seq]
        rows, row_spans = [], []
        for span_id, window in enumerate(out.spans):
            rows.extend(before[window])
            row_spans.extend([span_id] * len(before[window]))
        want = write_segment(reference_dir, seq, SegmentState(
            t_lo=min(lo for lo, _hi in out.spans),
            t_hi=max(hi for _lo, hi in out.spans),
            fingerprint=out.fingerprint,
            rows=tuple(rows),
            spans=out.spans,
            row_spans=tuple(row_spans),
        ).encode())
        assert read(out.path) == read(want)
    untouched = set(files) - set(report["inputs"])
    assert report["untouched"] == len(untouched)
    for seq in untouched:
        assert read(live[seq].path) == files[seq]
    return report


def answers_of(directory, windows):
    engine = QueryEngine(directory).refresh()
    through = [
        sorted(engine.paths_through(name, window=window).items())
        for name in FUNCTIONS[:3]
        for window in windows
    ]
    return canonical_query_answers(engine), through


def replay(seed, root, kind):
    """Stream ``seed`` into a tiered and a forced store; returns the
    tiered reports."""
    rng = random.Random(seed)
    pool = make_pool(rng)
    policy = stream_policy(rng, kind)
    tiered_dir = os.path.join(root, f"tiered-{kind}-{seed}")
    forced_dir = os.path.join(root, f"forced-{kind}-{seed}")
    reference_dir = os.path.join(root, f"reference-{kind}-{seed}")
    os.makedirs(reference_dir)
    stores = {"tiered": SegmentStore(tiered_dir),
              "forced": SegmentStore(forced_dir)}
    compactors = {name: Compactor(store, policy)
                  for name, store in stores.items()}
    reports = []
    appends = rng.randint(6, 16)
    for i in range(appends):
        rows = random_rows(rng, pool, rng.randint(0, 10))
        for store in stores.values():
            # One trie numbering for both stores: the same shuffle seed.
            store.append(encoded_segment(
                random.Random(seed * 1000 + i),
                rows, 10.0 * i, 10.0 * i + 10.0, f"fp{i}",
            ))
        if rng.random() < 0.5 or i == appends - 1:
            now = 10.0 * i + 11.0
            reports.append(check_tiered_call(
                stores["tiered"], compactors["tiered"], now, reference_dir
            ))
            compactors["forced"].compact(now=now, force=True)
    windows = [(10.0 * lo, 10.0 * lo + 10.0 * width)
               for lo in range(0, appends, 3) for width in (1, 4)]
    assert answers_of(tiered_dir, windows) == answers_of(forced_dir, windows)
    assert stores["tiered"].retired_totals() == \
        stores["forced"].retired_totals()
    return [report for report in reports if report is not None]


@pytest.mark.parametrize("kind", ("age", "nothing-retired"))
@pytest.mark.parametrize("chunk", range(STREAMS // CHUNK))
def test_tiered_history_answers_as_the_forced_one(tmp_path, chunk, kind):
    reports = []
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        reports.extend(replay(seed, str(tmp_path), kind))
    # The chunk leaves files alone; under age caps it trims, and runs
    # calls of several swaps.
    assert any(report["untouched"] for report in reports)
    if kind == "age":
        assert any(report["dropped_spans"] for report in reports)
        assert any(report["swaps"] > 1 for report in reports)
