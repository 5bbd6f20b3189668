"""SampleBatch: columnar packing, grouping, and binary serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stackmodel import EntryKind, StackEntry
from repro.errors import ServiceError
from repro.graph.callgraph import CallSite
from repro.service import SampleBatch
from repro.service.batch import node_lane
from repro.service.ingest import Sample


def entry(node="anchor", saved=3):
    return StackEntry(
        kind=EntryKind.ANCHOR, node=node, saved_id=saved,
        site=CallSite("caller", "s1"),
    )


def make_batch():
    batch = SampleBatch()
    batch.append("leaf", ((entry(),), 7), epoch=0)
    batch.append("leaf", ((entry(),), 7), epoch=0)
    batch.append("leaf", ((entry(),), 9), epoch=0, weight=2, thread=4)
    batch.append("other", ((), 0), epoch=1)
    return batch


def as_v1(batch):
    """``batch`` (every count 1) in the version-1 wire form: no count
    column, version byte 1."""
    import struct
    import zlib

    assert len(batch) == batch.rows
    body = batch.to_bytes()[:-4]
    rows = batch.rows
    # The count column sits just before the weight column.
    start = len(body) - 16 * rows
    body = b"DPSB\x01" + body[5:start] + body[start + 8 * rows:]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class TestConstruction:
    def test_append_and_len(self):
        batch = make_batch()
        assert len(batch) == 4
        assert batch.total_weight == 5

    def test_weight_must_be_positive(self):
        with pytest.raises(ServiceError):
            SampleBatch().append("n", ((), 0), epoch=0, weight=0)
        with pytest.raises(ServiceError):
            SampleBatch.from_observations([("n", ((), 0))], epoch=0, weight=0)

    def test_sample_materializes_fields(self):
        batch = make_batch()
        sample = batch.sample(2)
        assert isinstance(sample, Sample)
        assert sample.node == "leaf"
        assert sample.current_id == 9
        assert sample.weight == 2
        assert sample.thread == 4
        assert sample.stack == (entry(),)

    def test_iter_yields_all_samples(self):
        batch = make_batch()
        nodes = [s.node for s in batch]
        assert nodes == ["leaf", "leaf", "leaf", "other"]

    def test_from_samples_round_trip(self):
        original = make_batch()
        rebuilt = SampleBatch.from_samples(list(original))
        assert [s for s in rebuilt] == [s for s in original]

    def test_from_observations_stamps_constants(self):
        obs = [("a", ((entry(),), 1)), ("b", ((), 2))]
        batch = SampleBatch.from_observations(obs, epoch=5, weight=3, thread=9)
        assert len(batch) == 2
        for sample in batch:
            assert sample.epoch == 5
            assert sample.weight == 3
            assert sample.thread == 9

    def test_from_columns_equals_per_sample_append(self):
        shared = (entry(),)
        nodes = ["a", "b", "a", "c", "b"]
        stacks = [shared, (), (entry(),), [entry()], shared]
        ids = [1, 2, 1, 4, 5]
        epochs = [0, 0, 1, 1, 1]
        packed = SampleBatch.from_columns(nodes, stacks, ids, epochs)
        appended = SampleBatch()
        for node, stack, current_id, epoch in zip(nodes, stacks, ids, epochs):
            appended.append(node, (stack, current_id), epoch=epoch)
        assert packed == appended
        assert packed.to_bytes() == appended.to_bytes()
        assert len(packed._stacks) == 2  # equal stacks intern once

    def test_interning_tables_stay_small(self):
        batch = SampleBatch()
        for _ in range(100):
            batch.append("hot", ((entry(),), 5), epoch=0)
        assert len(batch) == 100
        assert batch.nbytes() < 100 * 48 + 1024  # columns, not objects


class TestGroups:
    def test_groups_collapse_repeats(self):
        batch = make_batch()
        groups = batch.groups()
        # (leaf, id=7) x2, (leaf, id=9), (other, id=0) -> 3 groups
        assert len(groups) == 3
        assert sorted(groups.values()) == [(1, 1), (1, 2), (2, 2)]

    def test_group_keys_resolve_through_tables(self):
        batch = make_batch()
        for key, (n, w) in batch.groups().items():
            assert batch.node_of(key) in ("leaf", "other")
            assert isinstance(batch.stack_of(key), tuple)

    def test_non_uniform_weights_sum(self):
        batch = SampleBatch()
        batch.append("n", ((), 1), epoch=0, weight=5)
        batch.append("n", ((), 1), epoch=0, weight=7)
        ((n, w),) = batch.groups().values()
        assert (n, w) == (2, 12)

    def test_indices_of_reconstructs_rows(self):
        batch = make_batch()
        groups = batch.groups()
        seen = sorted(
            i for key in groups for i in batch.indices_of(key)
        )
        assert seen == [0, 1, 2, 3]

    def test_epoch_separates_groups(self):
        batch = SampleBatch()
        batch.append("n", ((), 1), epoch=0)
        batch.append("n", ((), 1), epoch=1)
        assert len(batch.groups()) == 2


class TestCountedRows:
    """A row stands for ``count`` equal samples."""

    def counted(self):
        batch = SampleBatch()
        batch.append("leaf", ((entry(),), 7), epoch=0, count=3)
        batch.append("other", ((), 0), epoch=1, weight=2)
        batch.append("leaf", ((entry(),), 7), epoch=0, count=2, thread=4)
        return batch

    def test_len_counts_samples_and_rows_counts_rows(self):
        batch = self.counted()
        assert (len(batch), batch.rows) == (6, 3)
        assert batch.total_weight == 7

    def test_iteration_expands_each_row(self):
        samples = list(self.counted())
        assert [s.node for s in samples] == ["leaf"] * 3 + ["other"] + ["leaf"] * 2
        assert [s.thread for s in samples] == [0, 0, 0, 0, 4, 4]

    def test_groups_sum_counts_and_weights(self):
        batch = self.counted()
        groups = batch.groups()
        assert sorted(groups.values()) == [(1, 2), (5, 5)]
        batch.append("leaf", ((entry(),), 7), epoch=0, count=4, weight=3)
        assert sorted(batch.groups().values()) == [(1, 2), (9, 17)]

    def test_counted_rows_group_like_their_samples(self):
        batch = self.counted()
        assert batch.groups() == SampleBatch.from_samples(batch).groups()

    def test_samples_of_expands_a_group(self):
        batch = self.counted()
        (key,) = [k for k in batch.groups() if batch.node_of(k) == "leaf"]
        assert batch.indices_of(key) == [0, 2]
        assert [s.thread for s in batch.samples_of(key)] == [0, 0, 0, 4, 4]

    def test_count_must_be_positive(self):
        with pytest.raises(ServiceError, match="count"):
            SampleBatch().append("n", ((), 0), epoch=0, count=0)
        with pytest.raises(ServiceError, match="count"):
            SampleBatch.from_columns(["n"], [()], [0], [0], counts=[-2])

    def test_from_columns_counts_equal_counted_appends(self):
        shared = (entry(),)
        packed = SampleBatch.from_columns(
            ["a", "b", "a"], [shared, (), shared], [1, 2, 1], [0, 0, 1],
            counts=[4, 1, 2],
        )
        appended = SampleBatch()
        appended.append("a", (shared, 1), epoch=0, count=4)
        appended.append("b", ((), 2), epoch=0)
        appended.append("a", (shared, 1), epoch=1, count=2)
        assert packed == appended
        assert (len(packed), packed.rows) == (7, 3)

    def test_select_keeps_counts_and_reinterns(self):
        batch = self.counted()
        part = batch.select([1, 2])
        assert (len(part), part.rows) == (3, 2)
        assert part._nodes == ["other", "leaf"]
        assert list(part) == list(batch)[3:]
        assert not part._uniform
        assert batch.select([0, 2])._uniform

    def test_split_by_node_keeps_counts(self):
        batch = self.counted()
        for lanes in (1, 2, 3):
            parts = batch.split_by_node(lanes)
            assert sum(len(part) for part in parts) == len(batch)
            assert sum(part.rows for part in parts) == batch.rows
            for part in parts:
                assert part.groups() == SampleBatch.from_samples(part).groups()


class TestSerialization:
    def test_round_trip_equality(self):
        batch = make_batch()
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        assert len(rebuilt) == len(batch)
        assert [s for s in rebuilt] == [s for s in batch]
        assert rebuilt.groups() == batch.groups()

    def test_round_trip_preserves_weight_fast_path(self):
        uniform = SampleBatch().append("n", ((), 1), epoch=0)
        weighted = SampleBatch().append("n", ((), 1), epoch=0, weight=2)
        assert SampleBatch.from_bytes(uniform.to_bytes())._uniform
        assert not SampleBatch.from_bytes(weighted.to_bytes())._uniform

    def test_empty_batch_round_trips(self):
        rebuilt = SampleBatch.from_bytes(SampleBatch().to_bytes())
        assert len(rebuilt) == 0
        assert rebuilt.groups() == {}

    def test_truncated_buffer_rejected(self):
        with pytest.raises(ServiceError, match="truncated"):
            SampleBatch.from_bytes(b"DP")

    def test_crc_flip_rejected(self):
        blob = bytearray(make_batch().to_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ServiceError, match="CRC"):
            SampleBatch.from_bytes(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(make_batch().to_bytes())
        # Re-stamp the CRC so only the magic is wrong.
        import struct
        import zlib

        blob[:4] = b"NOPE"
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ServiceError, match="magic"):
            SampleBatch.from_bytes(bytes(blob))

    def test_unknown_version_rejected(self):
        import struct
        import zlib

        blob = bytearray(make_batch().to_bytes())
        blob[4] = 99
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ServiceError, match="version"):
            SampleBatch.from_bytes(bytes(blob))

    def test_weight_below_one_rejected(self):
        """A CRC-valid buffer whose weight column holds -7 must not load:
        it would subtract counts from the tree."""
        import struct
        import zlib

        blob = bytearray(
            SampleBatch().append("n", ((), 3), epoch=0).to_bytes()
        )
        # The weight column is the last 8 bytes before the CRC trailer.
        blob[-12:-4] = struct.pack("<q", -7)
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ServiceError, match="weight"):
            SampleBatch.from_bytes(bytes(blob))

    def test_count_below_one_rejected(self):
        """A CRC-valid buffer whose count column holds -7 must not load:
        it would subtract samples from the conservation law."""
        import struct
        import zlib

        blob = bytearray(
            SampleBatch().append("n", ((), 3), epoch=0).to_bytes()
        )
        # The count column is the 8 bytes before the weight column.
        blob[-20:-12] = struct.pack("<q", -7)
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ServiceError, match="count"):
            SampleBatch.from_bytes(bytes(blob))

    def test_v1_buffer_reads_as_count_one(self):
        batch = make_batch()
        v1 = as_v1(batch)
        assert v1[4] == 1 and batch.to_bytes()[4] == 2
        loaded = SampleBatch.from_bytes(v1)
        assert loaded == batch
        assert (len(loaded), loaded.rows) == (4, 4)

    def test_unserializable_label_is_loud(self):
        bad = StackEntry(
            kind=EntryKind.RECURSION, node="n", saved_id=1,
            site=CallSite("c", ("tuple", "label")),
        )
        batch = SampleBatch().append("n", ((bad,), 1), epoch=0)
        with pytest.raises(ServiceError, match="label"):
            batch.to_bytes()


# ----------------------------------------------------------------------
# Wire-form round-trip audit (DPSB v2 is the shared-memory record; a
# lossy or order-scrambling round trip would silently corrupt every
# cross-process batch).
# ----------------------------------------------------------------------

#: Function names the multiprocess router must survive: empty, spaces,
#: non-ASCII (CJK, combining marks, emoji), and JSON-hostile characters.
NASTY_NAMES = ["", " ", "função", "关数", "ńame", "🔥hot", 'q"uo\\te', "a;b\nc"]


def nasty_entry(node, label):
    return StackEntry(
        kind=EntryKind.ANCHOR, node=node, saved_id=11,
        site=CallSite("呼び出し元", label),
        expected_sid=3, resume_node=node, resume_executed=True,
    )


class TestRoundTripAudit:
    """`from_bytes(to_bytes(b)) == b` — structurally, not just as a
    sample multiset."""

    def test_empty_batch(self):
        batch = SampleBatch()
        assert SampleBatch.from_bytes(batch.to_bytes()) == batch

    def test_single_row(self):
        batch = SampleBatch().append(
            "solo", ((entry(),), 42), epoch=3, weight=5, thread=7
        )
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        assert rebuilt == batch
        assert list(rebuilt) == list(batch)

    def test_non_ascii_names_survive(self):
        batch = SampleBatch()
        for i, name in enumerate(NASTY_NAMES):
            stack = (nasty_entry(name, label=i),)
            batch.append(name, (stack, i), epoch=i % 3)
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        assert rebuilt == batch
        assert rebuilt._nodes == NASTY_NAMES
        assert [s.node for s in rebuilt] == NASTY_NAMES

    def test_round_trip_preserves_lane_routing(self):
        # split_by_node on the decoded copy must route every sample to
        # the same lane the parent chose — shard ownership is part of
        # the wire contract.
        batch = SampleBatch()
        for name in NASTY_NAMES:
            batch.append(name, ((), 1), epoch=0)
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        for lanes in (1, 2, 3, 5):
            want = [len(part) for part in batch.split_by_node(lanes)]
            got = [len(part) for part in rebuilt.split_by_node(lanes)]
            assert got == want
        assert node_lane("関数", 4) == node_lane("関数", 4)

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(NASTY_NAMES + ["f", "g", "h"]),  # node
                st.integers(0, 3),        # stack variant
                st.integers(-1, 2 ** 40),  # current_id
                st.integers(0, 4),        # epoch
                st.integers(1, 9),        # weight
                st.integers(0, 3),        # thread
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, rows):
        batch = SampleBatch()
        for node, variant, current_id, epoch, weight, thread in rows:
            stack = tuple(
                nasty_entry(node, label=j) for j in range(variant)
            )
            batch.append(
                node, (stack, current_id),
                epoch=epoch, weight=weight, thread=thread,
            )
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        assert rebuilt == batch
        assert rebuilt.groups() == batch.groups()
        assert rebuilt._uniform == batch._uniform
        # Serialization is deterministic: same batch, same bytes.
        assert rebuilt.to_bytes() == batch.to_bytes()

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(NASTY_NAMES + ["f", "g"]),  # node
                st.integers(0, 2),        # stack variant
                st.integers(0, 5),        # current_id
                st.integers(1, 2 ** 31),  # count
                st.integers(1, 4),        # weight
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_counted_round_trip_is_identity(self, rows):
        batch = SampleBatch()
        for node, variant, current_id, count, weight in rows:
            stack = tuple(
                nasty_entry(node, label=j) for j in range(variant)
            )
            batch.append(
                node, (stack, current_id), epoch=0, weight=weight,
                count=count,
            )
        rebuilt = SampleBatch.from_bytes(batch.to_bytes())
        assert rebuilt == batch
        assert (len(rebuilt), rebuilt.rows) == (len(batch), batch.rows)
        assert len(batch) == sum(row[3] for row in rows)
        assert rebuilt.groups() == batch.groups()
        assert rebuilt.total_weight == sum(r[3] * r[4] for r in rows)
        assert rebuilt.to_bytes() == batch.to_bytes()
