"""The oracle matrix: clean cases pass, seeded defects are caught."""

import pytest

from repro.analysis.incremental import GraphDelta
from repro.check.fuzz import FuzzCase, generate_case
from repro.check.invariants import CheckedProbe
from repro.check.oracle import (
    check_case,
    check_encoders,
    check_runtime,
    check_sids,
    sid_equivalence_failures,
)
from repro.core.sid import SidTable, compute_sids
from repro.graph.callgraph import CallEdge, CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import build_plan_from_graph


def _diamond():
    graph = CallGraph(entry="main")
    graph.add_edge("main", "A", "l0")
    graph.add_edge("main", "B", "l1")
    graph.add_edge("A", "C", "a0")
    graph.add_edge("B", "C", "b0")
    return graph


class TestCleanCases:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_cases_pass_all_oracles(self, seed):
        case = generate_case(seed)
        assert check_case(case, with_service=False) == []

    def test_diamond_with_additive_delta(self):
        graph = _diamond()
        delta = GraphDelta(
            added_nodes={"D": {}},
            added_edges=(CallEdge("C", "D", "c0"),),
        )
        case = FuzzCase(graph=graph, deltas=[delta], label="diamond")
        assert check_case(case, with_service=False) == []


class TestSidOracle:
    def test_catches_fresh_sid_collision(self):
        graph = CallGraph(entry="main")
        graph.add_edge("main", "A", "l0")
        graph.add_edge("main", "B", "l1")
        graph.add_edge("main", "C", "l2")
        case = FuzzCase(
            graph=graph,
            deltas=[
                GraphDelta(
                    added_edges=(
                        CallEdge("main", "A", "v"),
                        CallEdge("main", "B", "v"),
                    )
                ),
                GraphDelta(
                    added_nodes={"D": {}},
                    added_edges=(CallEdge("main", "D", "l3"),),
                ),
            ],
        )
        # The product bug is fixed, so the chained path agrees now.
        assert check_sids(case) == []

    def test_equivalence_detects_collision_and_split(self):
        graph = CallGraph(entry="main")
        graph.add_edge("main", "A", "l0")
        reference = compute_sids(graph)
        collided = SidTable(
            sid_of_node={"main": 0, "A": 0},
            sid_of_site=dict(reference.sid_of_site),
            num_sets=1,
        )
        failures = sid_equivalence_failures(collided, reference, graph)
        assert any("collision" in f for f in failures)

        split = SidTable(
            sid_of_node={"main": 0, "A": 1},
            sid_of_site={},
            num_sets=2,
        )
        merged_ref = SidTable(
            sid_of_node={"main": 0, "A": 0}, sid_of_site={}, num_sets=1
        )
        failures = sid_equivalence_failures(split, merged_ref, graph)
        assert any("split" in f for f in failures)

    def test_missing_node_reported(self):
        graph = CallGraph(entry="main")
        graph.add_edge("main", "A", "l0")
        reference = compute_sids(graph)
        partial = SidTable(sid_of_node={"main": 0}, sid_of_site={}, num_sets=1)
        failures = sid_equivalence_failures(partial, reference, graph)
        assert any("missing" in f for f in failures)


class TestEncoderOracle:
    def test_passes_on_paper_style_graph(self):
        case = FuzzCase(graph=_diamond(), width_bits=None)
        assert check_encoders(case) == []

    def test_bounded_width_overflow_is_a_skip_not_a_failure(self):
        # 2**6 contexts at every hub: int8 anchors aggressively; the
        # oracle must treat genuine EncodingOverflowError as a skip.
        graph = CallGraph(entry="main")
        prev = "main"
        for layer in range(6):
            node = f"h{layer}"
            for lane in range(2):
                graph.add_edge(prev, node, f"l{layer}_{lane}")
            prev = node
        case = FuzzCase(graph=graph, width_bits=6, label="blowup")
        assert check_encoders(case) == []


class TestRuntimeOracle:
    def test_clean_plan_passes(self):
        case = FuzzCase(graph=_diamond())
        assert check_runtime(case) == []

    def test_checked_probe_catches_corrupted_id(self):
        plan = build_plan_from_graph(_diamond())
        probe = CheckedProbe(DeltaPathProbe(plan, cpt=True))
        probe.begin_execution("main")
        probe.enter_function("main")
        probe.inner._id = -7  # corrupt the runtime state directly
        probe.before_call("main", "l0", "A")
        assert any("negative" in v for v in probe.violations)


    def test_checked_probe_catches_wrong_stack_stats(self):
        plan = build_plan_from_graph(_diamond())
        probe = CheckedProbe(DeltaPathProbe(plan, cpt=True))
        probe.begin_execution("main")
        probe.enter_function("main")
        probe.snapshot("main")
        assert probe.violations == []
        probe.inner.stack_stats[probe.stack_key] = (0, 0)  # corrupt
        probe.snapshot("main")
        assert any("stats" in v for v in probe.violations)

    def test_catches_a_stale_interned_stack_after_a_ucp_pop(self, monkeypatch):
        """Mutant: popping a UCP entry skips re-interning, so the next
        snapshot still hands out the stack with the UCP on it."""
        import repro.check.oracle as oracle_mod
        from repro.core.stackmodel import EntryKind

        class StaleAfterUcpPop(DeltaPathProbe):
            def _pop(self, kind, node):
                stale = self._stale
                popped = super()._pop(kind, node)
                if kind is EntryKind.UCP:
                    self._stale = stale
                return popped

        clean = [f for seed in range(20) for f in check_runtime(generate_case(seed))]
        assert clean == []
        monkeypatch.setattr(oracle_mod, "DeltaPathProbe", StaleAfterUcpPop)
        failures = [
            f for seed in range(20) for f in check_runtime(generate_case(seed))
        ]
        assert any(f.startswith("runtime: ") for f in failures)


class TestBatchOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_clean_cases_pass_batch_vs_scalar(self, seed):
        from repro.check.oracle import check_batch

        assert check_batch(generate_case(seed), observations=16) == []

    def test_registered_in_the_oracle_matrix(self):
        from repro.check.oracle import ORACLES

        assert "batch" in {name for name, _ in ORACLES}

    def test_catches_a_lossy_batch_path(self, monkeypatch):
        # Mutation: make grouping inflate one group's weight (sample
        # counts stay conserved, so the service still drains — only the
        # query results go wrong). The oracle must notice the service
        # diverging from the walk's ground truth.
        from repro.check.oracle import check_batch
        from repro.service.batch import SampleBatch

        real_groups = SampleBatch.groups

        def inflated(self):
            groups = real_groups(self)
            for key, (n, w) in groups.items():
                groups[key] = (n, w + 1)
                break
            return groups

        monkeypatch.setattr(SampleBatch, "groups", inflated)
        failures = check_batch(generate_case(0), observations=16)
        assert failures
        assert all(f.startswith("batch: ") for f in failures)

    def test_catches_a_dropped_group(self, monkeypatch):
        # Mutation (a): the first attempt lands every decoded group but
        # one. The accounting still reads lossless, so only the walk's
        # own paths can tell.
        import random

        from repro.check.invariants import batch_equivalence_scenario
        from repro.check.oracle import _collect_observations
        from repro.service.shards import ShardedContextTree

        real_add = ShardedContextTree.add_counts
        dropped = []

        def drop_one(self, entries, **kwargs):
            entries = list(entries)
            if entries and not dropped:
                dropped.append(entries.pop(0))
            return real_add(self, entries, **kwargs)

        monkeypatch.setattr(ShardedContextTree, "add_counts", drop_one)
        plan = build_plan_from_graph(_diamond())
        paths = []
        observations = _collect_observations(
            plan, random.Random(3), 16, paths
        )
        failures = batch_equivalence_scenario(
            plan, observations, paths=paths
        )
        assert dropped
        assert failures


class TestMultiprocOracle:
    def test_registered_and_sampled(self):
        from repro.check.oracle import (
            MULTIPROC_SAMPLE_EVERY,
            ORACLES,
            check_multiproc,
        )

        assert "multiproc" in {name for name, _ in ORACLES}
        # Off-sample seeds skip without spawning a fleet.
        assert check_multiproc(generate_case(1)) == []
        assert 1 % MULTIPROC_SAMPLE_EVERY != 0

    @pytest.mark.parametrize("seed", [0, 16])
    def test_sampled_seeds_hold_conservation(self, seed):
        from repro.check.oracle import check_multiproc

        assert check_multiproc(generate_case(seed), observations=10) == []

    def test_scenario_counts_kills_and_restarts(self):
        # Drive the scenario directly: two kills on a seeded schedule
        # must both land and both be restarted under supervision.
        import random

        from repro.check.invariants import (
            multiprocess_conservation_scenario,
        )
        from repro.check.oracle import _collect_observations

        case = generate_case(0)
        plan = build_plan_from_graph(case.graph, width=case.width)
        obs = _collect_observations(plan, random.Random(7), 10)
        assert multiprocess_conservation_scenario(
            plan, obs, seed=3, workers=2, kills=2
        ) == []


class TestCompactionOracle:
    def test_registered_in_the_oracle_matrix(self):
        from repro.check.oracle import ORACLES

        assert "compaction" in {name for name, _ in ORACLES}

    @pytest.mark.parametrize("seed", [0, 5])
    def test_clean_cases_pass(self, seed):
        from repro.check.oracle import check_compaction

        assert check_compaction(
            generate_case(seed), observations=16
        ) == []

    def test_catches_an_answer_moving_merge(self, monkeypatch):
        # Mutation: the merge silently inflates one row's count. The
        # equivalence leg must flag the plain compaction as moving
        # durable answers.
        from repro.check.oracle import check_compaction
        from repro.query import compact as compact_mod

        real_merge = compact_mod._merged_segment

        def lossy(retained, fingerprint):
            encoded = real_merge(retained, fingerprint)
            if encoded.rows:
                node, count, gaps, epoch = encoded.rows[0]
                encoded.rows[0] = (node, count + 1, gaps, epoch)
            return encoded

        monkeypatch.setattr(compact_mod, "_merged_segment", lossy)
        failures = check_compaction(generate_case(0), observations=16)
        assert failures
        assert all(f.startswith("compaction") for f in failures)
