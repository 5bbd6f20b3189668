"""QueryEngine: windowed answers, diffs, flame graphs, forensics."""

import math

import pytest

from repro.errors import QueryError
from repro.query.engine import QueryEngine, ucp_forensics
from repro.query.flamegraph import from_folded, to_folded
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState


@pytest.fixture
def engine(tmp_path):
    store = SegmentStore(str(tmp_path))
    store.append(SegmentState(t_lo=0, t_hi=10, fingerprint="fa", rows=(
        (("a", "b", "c"), 5, 1, 0),
        (("a", "b"), 3, 0, 0),
        (("x",), 2, 0, 1),
    )).encode())
    store.append(SegmentState(t_lo=10, t_hi=20, fingerprint="fb", rows=(
        (("a", "b", "c"), 7, 0, 1),
        (("y", "z"), 4, 2, 1),
    )).encode())
    return QueryEngine(store).refresh()


class TestWindows:
    def test_full_span_topk(self, engine):
        assert engine.top_contexts(2) == [
            (12, ("a", "b", "c")), (4, ("y", "z")),
        ]

    def test_windowed_topk_half_open(self, engine):
        assert engine.top_contexts(10, window=(0, 10)) == [
            (5, ("a", "b", "c")), (3, ("a", "b")), (2, ("x",)),
        ]
        # [10, 20) excludes the first segment entirely
        assert engine.top_contexts(10, window=(10, 20)) == [
            (7, ("a", "b", "c")), (4, ("y", "z")),
        ]
        assert engine.top_contexts(10, window=(20, 30)) == []

    def test_epoch_filter(self, engine):
        assert engine.top_contexts(10, epoch=0) == [
            (5, ("a", "b", "c")), (3, ("a", "b")),
        ]

    def test_inverted_window_raises(self, engine):
        with pytest.raises(QueryError):
            engine.top_contexts(5, window=(10, 0))

    def test_negative_k_raises(self, engine):
        # a negative k must not slice the ranking from the end
        with pytest.raises(QueryError, match="k >= 0"):
            engine.top_contexts(-3)

    @pytest.mark.parametrize("window", [
        (math.nan, 100.0), (0.0, math.nan), (math.nan, math.nan),
    ])
    def test_nan_window_raises(self, engine, window):
        # every comparison with NaN is false, so such a window would
        # match nothing and answer an empty table
        with pytest.raises(QueryError, match="NaN"):
            engine.top_contexts(10, window=window)
        with pytest.raises(QueryError, match="NaN"):
            engine.ucp_stats(window=window)

    def test_infinite_bounds_stay_legal(self, engine):
        assert engine.top_contexts(
            10, window=(-math.inf, math.inf)
        ) == engine.top_contexts(10)
        assert engine.top_contexts(10, window=(10, math.inf)) == [
            (7, ("a", "b", "c")), (4, ("y", "z")),
        ]

    def test_span(self, engine):
        assert engine.span() == (0.0, 20.0)


class TestCompactedSpans:
    """A multi-span segment scopes each row to its own span's window."""

    @pytest.fixture
    def spanned(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(SegmentState(
            t_lo=0.0, t_hi=20.0, fingerprint="fp",
            rows=(
                (("a", "b"), 5, 1, 0),
                (("a", "c"), 3, 0, 0),
                (("a", "b"), 7, 0, 1),
            ),
            spans=((0.0, 10.0), (10.0, 20.0)),
            row_spans=(0, 0, 1),
        ).encode())
        return QueryEngine(store).refresh()

    def test_window_selects_rows_by_span(self, spanned):
        assert spanned.top_contexts(10, window=(0, 10)) == [
            (5, ("a", "b")), (3, ("a", "c")),
        ]
        assert spanned.top_contexts(10, window=(10, 20)) == [
            (7, ("a", "b")),
        ]
        assert spanned.top_contexts(10, window=(5, 15)) == [
            (12, ("a", "b")), (3, ("a", "c")),
        ]
        assert spanned.top_contexts(10) == [
            (12, ("a", "b")), (3, ("a", "c")),
        ]

    def test_every_query_uses_the_span_test(self, spanned):
        assert spanned.paths_through("c", window=(10, 20)) == {}
        assert spanned.paths_through("b", window=(10, 20)) == {
            ("a", "b"): 7,
        }
        assert spanned.ucp_stats(window=(0, 10)) == {
            "samples": 8, "gap_samples": 1, "gap_free_samples": 7,
        }
        assert spanned.function_totals(window=(10, 20)) == {"a": 7, "b": 7}
        diff = spanned.diff((0, 10), (10, 20))
        assert diff.changed == {("a", "b"): (5, 7)}
        assert diff.disappeared == {("a", "c"): 3}


class TestRollupsAndIndex:
    def test_inclusive_rollup(self, engine):
        totals = engine.function_totals()
        assert totals["a"] == 15
        assert totals["c"] == 12
        assert totals["z"] == 4

    def test_leaf_rollup(self, engine):
        totals = engine.function_totals(leaf_only=True)
        assert totals == {"c": 12, "b": 3, "x": 2, "z": 4}

    def test_paths_through_matches_brute_force(self, engine):
        via_index = engine.paths_through("b")
        brute = {}
        for seg in engine.segments():
            for path, count, _gaps, _epoch in seg.rows:
                if count and "b" in path:
                    brute[path] = brute.get(path, 0) + count
        assert via_index == brute == {("a", "b", "c"): 12, ("a", "b"): 3}

    def test_paths_through_windowed(self, engine):
        assert engine.paths_through("b", window=(10, 20)) == {
            ("a", "b", "c"): 7,
        }

    def test_ucp_stats(self, engine):
        assert engine.ucp_stats() == {
            "samples": 21, "gap_samples": 3, "gap_free_samples": 18,
        }
        assert engine.ucp_stats(window=(0, 10))["gap_samples"] == 1


class TestDiff:
    def test_window_diff(self, engine):
        diff = engine.diff((0, 10), (10, 20))
        assert diff.appeared == {("y", "z"): 4}
        assert diff.disappeared == {("a", "b"): 3, ("x",): 2}
        assert diff.changed == {("a", "b", "c"): (5, 7)}
        assert not diff.is_empty

    def test_identical_windows_empty(self, engine):
        assert engine.diff((0, 10), (0, 10)).is_empty

    def test_to_json_folds_paths(self, engine):
        payload = engine.diff((0, 10), (10, 20)).to_json()
        assert payload["appeared"] == {"y;z": 4}
        assert payload["changed"] == {"a;b;c": [5, 7]}


class TestFlame:
    def test_round_trip(self, engine):
        folded = engine.flamegraph()
        assert from_folded(folded) == {
            ("a", "b", "c"): 12, ("a", "b"): 3, ("x",): 2, ("y", "z"): 4,
        }

    def test_to_folded_rejects_unrepresentable(self):
        with pytest.raises(QueryError):
            to_folded({("has;semi",): 1})
        with pytest.raises(QueryError):
            to_folded({("has space",): 1})
        with pytest.raises(QueryError):
            to_folded({(): 1})

    def test_from_folded_merges_duplicates(self):
        assert from_folded("a;b 2\na;b 3\n") == {("a", "b"): 5}

    def test_from_folded_rejects_malformed(self):
        with pytest.raises(QueryError):
            from_folded("a;b notanumber")
        with pytest.raises(QueryError):
            from_folded("justonefield")


class TestForensics:
    class Letter:
        def __init__(self, epoch, fingerprint, error, attempts=2):
            self.epoch = epoch
            self.fingerprint = fingerprint
            self.error = error
            self.attempts = attempts

    def test_groups_and_joins(self, engine):
        history = {
            0: {"fingerprint": "fa", "delta": None, "installed_at": 1.0},
            1: {
                "fingerprint": "fb",
                "delta": {"added_nodes": ["n"], "removed_nodes": [],
                          "added_edges": 1, "removed_edges": 0},
                "installed_at": 2.0,
            },
        }
        letters = [
            self.Letter(1, "fb", "EpochError: pruned"),
            self.Letter(1, "fb", "EpochError: pruned"),
            self.Letter(0, "fa", "ValueError: junk"),
        ]
        groups = engine.forensics(letters, history)
        assert [g["epoch"] for g in groups] == [0, 1]
        old, new = groups
        assert old["superseded"] and not new["superseded"]
        assert new["letters"] == 2 and new["errors"] == {"EpochError": 2}
        assert new["delta"]["added_nodes"] == ["n"]
        assert new["fingerprint_match"]
        # segment join: segments written under each plan fingerprint
        assert old["segments"] == [1] and new["segments"] == [2]

    def test_unknown_epoch_still_reported(self):
        groups = ucp_forensics([self.Letter(9, "zz", "Boom: x")])
        assert groups[0]["delta"] is None
        assert not groups[0]["fingerprint_match"]


class TestConstruction:
    def test_rejects_bad_source(self):
        with pytest.raises(QueryError):
            QueryEngine(42)

    def test_accepts_directory_path(self, tmp_path):
        assert QueryEngine(str(tmp_path)).top_contexts(3) == []
