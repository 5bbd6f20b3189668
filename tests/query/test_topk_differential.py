"""Integer window sums and the bounded top-K against the reference.

The reference below is the engine's earlier algorithm, kept verbatim in
spirit: one ``[count]`` (or ``[count, gaps]``) list slot per path, a
per-row span test for compacted segments, and a full sort of every path
before slicing to ``k``. The engine now sums plain integers per
catalog id (a node of the one trie it maps every segment into), tests
each span once per query and spells out only the paths it answers
with; every answer must stay identical, ties included, across
refreshes, rewrites, compaction swaps and multi-directory stores.
"""

import gc
import math
import random
import sys

import pytest

from repro import durable
from repro.query.compact import Compactor
from repro.query.engine import QueryEngine
from repro.query.flamegraph import to_folded
from repro.query.manifest import CompositeSegmentStore, SegmentStore
from repro.query.segment import SegmentState, span_overlaps, write_segment
from repro.service.shards import ShardedContextTree

FUNCTIONS = ("main", "parse", "lex", "emit", "opt", "gc", "io")
EPOCHS = (None, 0, 1, 7)


# ----------------------------------------------------------------------
# Reference: list-slot sums and a full sort
# ----------------------------------------------------------------------
def reference_counts(engine, window=None, epoch=None, with_gaps=False):
    out = {}
    for seg in engine.store.segments():
        if window is not None and not seg.overlaps(*window):
            continue
        spanned = window is not None and seg.state.multi_span
        for idx, (path, count, gaps, row_epoch) in enumerate(seg.rows):
            if epoch is not None and row_epoch != epoch:
                continue
            if spanned:
                lo, hi = seg.state.spans[seg.state.row_spans[idx]]
                if not span_overlaps(lo, hi, *window):
                    continue
            slot = out.get(path)
            if slot is None:
                out[path] = [count, gaps] if with_gaps else [count]
            elif with_gaps:
                slot[0] += count
                slot[1] += gaps
            else:
                slot[0] += count
    return out


def reference_top(engine, k, window=None, epoch=None):
    counts = reference_counts(engine, window, epoch)
    ranked = sorted(
        ((slot[0], path) for path, slot in counts.items() if slot[0]),
        key=lambda item: (-item[0], item[1]),
    )
    return ranked[:k]


def nonzero(engine, window=None, epoch=None):
    return {
        path: slot[0]
        for path, slot in reference_counts(engine, window, epoch).items()
        if slot[0]
    }


def spelled(engine, counts):
    """Catalog-id counts keyed by the paths the catalog spells."""
    return dict(zip(engine.catalog.paths(counts), counts.values()))


def reference_function_totals(engine, leaf_only, window, epoch):
    totals = {}
    for path, count in nonzero(engine, window, epoch).items():
        if not path:
            continue
        names = [path[-1]] if leaf_only else set(path)
        for name in names:
            totals[name] = totals.get(name, 0) + count
    return totals


def reference_ucp(engine, window, epoch):
    samples = gaps = 0
    for slot in reference_counts(engine, window, epoch, True).values():
        samples += slot[0]
        gaps += slot[1]
    return {
        "samples": samples,
        "gap_samples": gaps,
        "gap_free_samples": samples - gaps,
    }


# ----------------------------------------------------------------------
# Seeded stores
# ----------------------------------------------------------------------
def random_rows(rng, universe):
    """Distinct (path, epoch) rows with few distinct counts, some count-0
    rows carrying gaps."""
    keys = sorted(
        {(rng.choice(universe), rng.choice((0, 1)))
         for _ in range(rng.randint(8, 30))}
    )
    rows = []
    for path, epoch in keys:
        count = rng.choice((0, 1, 1, 2, 2, 3))
        gaps = rng.randint(1, 2) if count == 0 else rng.randint(0, count)
        rows.append((path, count, gaps, epoch))
    return tuple(rows)


def build_store(directory, seed):
    """Four delta segments compacted into one multi-span segment by the
    real compactor, then two more deltas on top."""
    rng = random.Random(seed)
    universe = sorted({
        tuple(rng.choice(FUNCTIONS) for _ in range(rng.randint(1, 4)))
        for _ in range(40)
    })
    store = SegmentStore(str(directory))
    for i in range(6):
        if i == 4:
            Compactor(store).compact(now=100.0, force=True)
        store.append(SegmentState(
            t_lo=10.0 * i, t_hi=10.0 * i + 10.0,
            fingerprint=f"fp{seed}-{i}", rows=random_rows(rng, universe),
        ).encode())
    return QueryEngine(store).refresh()


def windows_for(seed):
    """Fixed windows on and between span edges plus seeded random ones."""
    rng = random.Random(seed ^ 0x5EED)
    fixed = [
        None, (0.0, 60.0), (5.0, 25.0), (10.0, 20.0), (10.0, 30.0),
        (15.0, 15.0), (35.0, 45.0), (40.0, 60.0), (-math.inf, math.inf),
        (25.0, math.inf), (60.0, 70.0),
    ]
    drawn = []
    for _ in range(6):
        lo = rng.uniform(-5.0, 65.0)
        drawn.append((lo, lo + rng.uniform(0.0, 30.0)))
    return fixed + drawn


SEEDS = range(8)


@pytest.fixture(params=SEEDS)
def seeded(request, tmp_path):
    return request.param, build_store(tmp_path, request.param)


class TestStoreShape:
    """Guards that the seeded stores exercise what they claim to."""

    def test_store_has_a_compacted_segment_the_windows_cut(self, seeded):
        seed, engine = seeded
        compacted = [s for s in engine.store.segments() if s.state.multi_span]
        assert len(compacted) == 1
        assert len(compacted[0].spans) == 4
        # (5, 25) keeps three of the four merged spans, not all of them
        live = [span_overlaps(lo, hi, 5.0, 25.0) for lo, hi in
                compacted[0].spans]
        assert any(live) and not all(live)

    def test_zero_count_rows_carry_gaps(self, seeded):
        _seed, engine = seeded
        assert any(
            count == 0 and gaps > 0
            for seg in engine.store.segments()
            for _path, count, gaps, _epoch in seg.rows
        )

    def test_ties_at_the_tenth_count_are_common(self, tmp_path):
        ties = 0
        for seed in SEEDS:
            engine = build_store(tmp_path / str(seed), seed)
            full = reference_top(engine, len(nonzero(engine)))
            if len(full) > 10 and full[9][0] == full[10][0]:
                ties += 1
        assert ties >= len(SEEDS) // 2


class TestTopContexts:
    def test_matches_full_sort(self, seeded):
        seed, engine = seeded
        distinct = len(nonzero(engine))
        for window in windows_for(seed):
            for epoch in EPOCHS:
                for k in (0, 1, 10, distinct + 5):
                    assert engine.top_contexts(
                        k, window=window, epoch=epoch
                    ) == reference_top(engine, k, window, epoch), (
                        window, epoch, k,
                    )

    def test_integer_counts_match_list_slots(self, seeded):
        seed, engine = seeded
        for window in windows_for(seed):
            for epoch in EPOCHS:
                counts = engine._counts(window, epoch)
                assert all(type(cid) is int for cid in counts)
                assert spelled(engine, counts) == nonzero(
                    engine, window, epoch
                )


class TestOtherQueries:
    def test_function_totals_both_modes(self, seeded):
        seed, engine = seeded
        for window in windows_for(seed):
            for epoch in EPOCHS:
                for leaf_only in (False, True):
                    assert engine.function_totals(
                        leaf_only, window=window, epoch=epoch
                    ) == reference_function_totals(
                        engine, leaf_only, window, epoch
                    )

    def test_ucp_stats_counts_gaps_of_zero_count_rows(self, seeded):
        seed, engine = seeded
        for window in windows_for(seed):
            for epoch in EPOCHS:
                assert engine.ucp_stats(
                    window=window, epoch=epoch
                ) == reference_ucp(engine, window, epoch)

    def test_flamegraph(self, seeded):
        seed, engine = seeded
        for window in windows_for(seed):
            for epoch in EPOCHS:
                assert engine.flamegraph(
                    window=window, epoch=epoch
                ) == to_folded(nonzero(engine, window, epoch))

    def test_paths_through(self, seeded):
        seed, engine = seeded
        for window in windows_for(seed):
            for epoch in EPOCHS:
                counts = nonzero(engine, window, epoch)
                for function in FUNCTIONS + ("absent",):
                    assert engine.paths_through(
                        function, window=window, epoch=epoch
                    ) == {
                        path: count for path, count in counts.items()
                        if function in path
                    }

    def test_diff(self, seeded):
        seed, engine = seeded
        pairs = list(zip(windows_for(seed)[1:], windows_for(seed + 1)[1:]))
        for window_a, window_b in pairs:
            for epoch in EPOCHS:
                a = nonzero(engine, window_a, epoch)
                b = nonzero(engine, window_b, epoch)
                diff = engine.diff(window_a, window_b, epoch=epoch)
                assert diff.appeared == {
                    p: c for p, c in b.items() if p not in a
                }
                assert diff.disappeared == {
                    p: c for p, c in a.items() if p not in b
                }
                assert diff.changed == {
                    p: (a[p], b[p]) for p in a.keys() & b.keys()
                    if a[p] != b[p]
                }


class TestNoCollections:
    """A windowed top-K over many rows allocates nothing the garbage
    collector tracks per row, so it triggers no collection at all."""

    def test_topk_over_20k_rows_runs_no_collection(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        per_segment = 5_000
        for i in range(4):
            rows = tuple(
                (("svc", f"op{j % 97}", f"ctx{i * per_segment + j}"),
                 1 + ((i * per_segment + j) * 7919) % 50_000, 0, 0)
                for j in range(per_segment)
            )
            store.append(SegmentState(
                t_lo=float(i), t_hi=float(i + 1), fingerprint="gc",
                rows=tuple(sorted(rows)),
            ).encode())
        engine = QueryEngine(store).refresh()
        window = (0.0, 4.0)
        assert sum(len(s.rows) for s in engine.segments(window)) >= 20_000
        engine.top_contexts(10, window=window)  # warm any lazy state

        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            ranked = engine.top_contexts(10, window=window)
        finally:
            gc.callbacks.remove(count)
        assert collections == []
        assert len(ranked) == 10
        assert ranked[0][0] > ranked[-1][0]


# ----------------------------------------------------------------------
# The catalog: one trie over every served segment
# ----------------------------------------------------------------------
def assert_answers_match(engine, windows=(None, (0.0, 25.0), (15.0, 45.0))):
    """Every query family against the path-keyed reference."""
    for window in windows:
        for epoch in EPOCHS:
            counts = nonzero(engine, window, epoch)
            assert engine.top_contexts(
                len(counts) + 1, window=window, epoch=epoch
            ) == reference_top(engine, len(counts) + 1, window, epoch)
            assert engine.top_contexts(
                3, window=window, epoch=epoch
            ) == reference_top(engine, 3, window, epoch)
            for leaf_only in (False, True):
                assert engine.function_totals(
                    leaf_only, window=window, epoch=epoch
                ) == reference_function_totals(
                    engine, leaf_only, window, epoch
                )
            assert engine.flamegraph(
                window=window, epoch=epoch
            ) == to_folded({p: c for p, c in counts.items() if p})
            assert engine.paths_through(
                "parse", window=window, epoch=epoch
            ) == {p: c for p, c in counts.items() if "parse" in p}
            assert engine.ucp_stats(
                window=window, epoch=epoch
            ) == reference_ucp(engine, window, epoch)
    diff = engine.diff((0.0, 25.0), (25.0, 60.0))
    a, b = nonzero(engine, (0.0, 25.0)), nonzero(engine, (25.0, 60.0))
    assert diff.appeared == {p: c for p, c in b.items() if p not in a}
    assert diff.disappeared == {p: c for p, c in a.items() if p not in b}
    assert diff.changed == {
        p: (a[p], b[p]) for p in a.keys() & b.keys() if a[p] != b[p]
    }


def append_rows(store, i, rows, fingerprint="fp"):
    store.append(SegmentState(
        t_lo=10.0 * i, t_hi=10.0 * i + 10.0, fingerprint=fingerprint,
        rows=rows,
    ).encode())


class TestCatalog:
    def test_refreshes_across_a_compaction_swap(self, tmp_path):
        rng = random.Random(3)
        universe = sorted({
            tuple(rng.choice(FUNCTIONS) for _ in range(rng.randint(1, 4)))
            for _ in range(40)
        })
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            append_rows(store, i, random_rows(rng, universe))
        engine = QueryEngine(store).refresh()
        assert_answers_match(engine)
        before = engine.catalog.nodes
        # The swap replaces every input with one multi-span output.
        Compactor(store).compact(now=100.0, force=True)
        engine.refresh()
        assert len(engine.store.segments()) == 1
        assert set(engine._mapped) == {id(s) for s in store.segments()}
        assert_answers_match(engine)
        # The output holds the contexts the inputs held: nothing new.
        assert engine.catalog.nodes == before
        for i in (4, 5):
            append_rows(store, i, random_rows(rng, universe))
        engine.refresh()
        assert_answers_match(engine)

    def test_segment_rewritten_with_different_bytes(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        append_rows(store, 0, ((("main", "parse"), 3, 0, 0),))
        append_rows(store, 1, ((("main", "emit"), 2, 1, 1),))
        engine = QueryEngine(store).refresh()
        assert_answers_match(engine)
        seq = store.segments()[-1].seq
        write_segment(str(tmp_path), seq, SegmentState(
            t_lo=10.0, t_hi=20.0, fingerprint="fp",
            rows=(
                (("io", "parse", "lex"), 5, 0, 0),
                (("main", "parse"), 1, 1, 1),
            ),
        ).encode())
        engine.refresh()
        assert_answers_match(engine)
        assert engine.top_contexts(1) == [(5, ("io", "parse", "lex"))]
        assert len(engine._mapped) == 2

    def test_composite_store_with_differently_numbered_tries(self, tmp_path):
        a = SegmentStore(str(tmp_path / "a"))
        b = SegmentStore(str(tmp_path / "b"))
        append_rows(a, 0, (
            (("main", "parse", "lex"), 4, 1, 0),
            (("main", "emit"), 2, 0, 0),
            (("gc",), 1, 0, 1),
        ))
        append_rows(b, 1, (
            (("gc",), 2, 0, 1),
            (("main", "emit"), 3, 0, 0),
            (("main", "parse", "lex"), 1, 0, 0),
            (("main", "parse"), 6, 2, 1),
        ))
        seg_a, seg_b = a.refresh()[0], b.refresh()[0]
        # The same path is a different node in each file's trie.
        lex_a = seg_a.pids[[r[0] for r in seg_a.rows].index(
            ("main", "parse", "lex"))]
        lex_b = seg_b.pids[[r[0] for r in seg_b.rows].index(
            ("main", "parse", "lex"))]
        assert lex_a != lex_b
        engine = QueryEngine(CompositeSegmentStore([a, b])).refresh()
        assert_answers_match(engine)
        assert engine.top_contexts(2) == [
            (6, ("main", "parse")), (5, ("main", "emit")),
        ]
        assert engine.paths_through("lex") == {("main", "parse", "lex"): 5}

    def test_rollups_credit_a_recurring_name_once(self, tmp_path):
        rows = (
            ((), 2, 0, 0),
            (("f",), 1, 0, 0),
            (("f", "f"), 2, 1, 0),
            (("main", "f", "g", "f"), 3, 0, 0),
            (("main", "f", "g", "f", "g"), 5, 0, 1),
            (("main", "g"), 7, 0, 1),
            (("main", "main"), 0, 1, 0),
        )
        store = SegmentStore(str(tmp_path))
        append_rows(store, 0, rows[:4])
        append_rows(store, 1, rows[4:])
        engine = QueryEngine(store).refresh()
        assert_answers_match(engine)
        assert engine.function_totals() == {"f": 11, "g": 15, "main": 15}

        def reference(epoch, leaf_only):
            totals = {}
            for path, count, _gaps, row_epoch in rows:
                if not path or epoch is not None and row_epoch != epoch:
                    continue
                for name in [path[-1]] if leaf_only else set(path):
                    totals[name] = totals.get(name, 0) + count
            return totals

        tree = ShardedContextTree(shards=3)
        for path, count, _gaps, epoch in rows:
            tree.add(path, weight=count, epoch=epoch)
        for epoch in (None, 0, 1):
            for leaf_only in (False, True):
                expected = reference(epoch, leaf_only)
                assert tree.function_totals(
                    leaf_only, epoch=epoch
                ) == expected
                assert {
                    tree.store.name_of(name_id): count
                    for name_id, count in tree.function_totals(
                        leaf_only, epoch=epoch, decoded=False
                    ).items()
                } == expected
        # ("main", "main") was counted zero times, yet names "main".
        assert tree.function_totals(epoch=0)["main"] == 3

    def test_refresh_and_top10_spell_only_the_candidates(
        self, tmp_path, monkeypatch
    ):
        build_store(tmp_path, 5)
        original = durable.trie_paths

        def forbidden(*_args):
            raise AssertionError("a path table was spelled out")

        for module in list(sys.modules.values()):
            if getattr(module, "trie_paths", None) is original:
                monkeypatch.setattr(module, "trie_paths", forbidden)
        engine = QueryEngine(str(tmp_path))
        spelled = []
        catalog_paths = engine.catalog.paths

        def spy(pids):
            pids = list(pids)
            spelled.append(pids)
            return catalog_paths(pids)

        engine.catalog.paths = spy
        engine.refresh()
        assert spelled == []
        ranked = engine.top_contexts(10)
        counts = engine._counts()
        floor = sorted(counts.values(), reverse=True)[9]
        candidates = [cid for cid, count in counts.items() if count >= floor]
        assert len(candidates) < len(counts)
        assert spelled == [candidates]
        monkeypatch.undo()
        assert ranked == reference_top(engine, 10)
