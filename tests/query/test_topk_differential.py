"""Integer window sums and the bounded top-K against the reference.

The reference below is the engine's earlier algorithm, kept verbatim in
spirit: one ``[count]`` (or ``[count, gaps]``) list slot per path, a
per-row span test for compacted segments, and a full sort of every path
before slicing to ``k``. The engine now sums plain integers, tests each
span once per query and ranks counts before comparing paths; every
answer must stay identical, ties included.
"""

import gc
import math
import random

import pytest

from repro.query.compact import Compactor
from repro.query.engine import QueryEngine
from repro.query.flamegraph import to_folded
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState, span_overlaps

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
        ))
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
                assert engine._counts(window, epoch) == nonzero(
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
            ))
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
