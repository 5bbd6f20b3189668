"""ContextCollector statistics and DeltaPathPlan construction details."""

import pytest

from repro.analysis.callgraph_builder import build_callgraph
from repro.lang.parser import parse_program
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.interpreter import Interpreter
from repro.runtime.plan import build_plan, build_plan_from_graph

SRC = """
    program M.m
    class M
    class U
    def M.m
      loop 3
        call M.a
      end
      call M.b
      event tick
    end
    def M.a
      call U.leaf
    end
    def M.b
      call U.leaf
    end
    def U.leaf
      work 1
    end
"""


def _run(collector, seed=0):
    program = parse_program(SRC)
    plan = build_plan(program)
    probe = DeltaPathProbe(plan)
    Interpreter(program, probe=probe, seed=seed, collector=collector).run()
    return plan


class TestCollectorStats:
    def test_totals_and_depths(self):
        collector = ContextCollector()
        _run(collector)
        stats = collector.stats()
        # Entries: M.m, 3x(M.a + U.leaf), M.b + U.leaf -> 9.
        assert stats.total_contexts == 9
        assert stats.max_depth == 3
        assert stats.avg_depth == pytest.approx(
            (1 + (2 + 3) * 4) / 9
        )

    def test_unique_encodings(self):
        collector = ContextCollector()
        _run(collector)
        stats = collector.stats()
        # Distinct contexts: m; a; leaf-via-a; b; leaf-via-b -> 5.
        assert stats.unique_encodings == 5

    def test_truth_tracking(self):
        collector = ContextCollector(track_truth=True)
        _run(collector)
        stats = collector.stats()
        assert stats.unique_truth == 5
        assert stats.collisions == 0

    def test_interest_filter(self):
        collector = ContextCollector(interest={"U.leaf"})
        _run(collector)
        stats = collector.stats()
        assert stats.total_contexts == 4
        assert stats.max_depth == 1  # shadow counts interest frames only

    def test_event_collection(self):
        collector = ContextCollector()
        _run(collector)
        assert [tag for tag, _node, _snap in collector.events] == ["tick"]

    def test_event_collection_disabled(self):
        collector = ContextCollector(collect_events=False)
        _run(collector)
        assert collector.events == []

    def test_deltapath_metrics_present(self):
        collector = ContextCollector()
        _run(collector)
        stats = collector.stats()
        assert stats.max_stack_depth >= 1  # entry anchor element
        assert stats.max_id >= 1

    def test_unique_holds_interned_snapshot_pairs(self):
        collector = ContextCollector()
        _run(collector)
        unique = collector.unique
        assert len(unique) == collector.stats().unique_encodings == 5
        for node, (stack, current_id) in unique:
            assert isinstance(node, str) and isinstance(current_id, int)
            assert isinstance(stack, tuple)

    def test_two_probes_keep_their_keys_apart(self):
        """Each probe numbers its stacks from 0; a collector fed by two
        probes must resolve each key through its own probe."""
        program = parse_program(SRC)
        plan = build_plan(program)
        one = DeltaPathProbe(plan)
        two = DeltaPathProbe(plan)
        # Shift the second probe's keys: a bogus stack takes key 1, so
        # the stack both runs share is key 1 in one and key 2 in two.
        bogus = ("bogus",)
        two._stack_keys[bogus] = len(two.stack_table)
        two.stack_table.append(bogus)
        two.stack_stats.append((9, 9))
        shared = ContextCollector()
        Interpreter(program, probe=one, seed=0, collector=shared).run()
        first = shared.unique
        Interpreter(program, probe=two, seed=0, collector=shared).run()
        assert shared.unique == first  # same contexts, same pairs
        alone = ContextCollector()
        Interpreter(program, probe=DeltaPathProbe(plan), seed=0, collector=alone).run()
        both = shared.stats()
        single = alone.stats()
        assert both.unique_encodings == single.unique_encodings == 5
        assert both.total_contexts == 2 * single.total_contexts
        assert both.max_stack_depth == single.max_stack_depth
        assert both.avg_stack_depth == single.avg_stack_depth
        assert both.max_id == single.max_id

    def test_collisions_none_without_truth(self):
        collector = ContextCollector()
        _run(collector)
        assert collector.stats().collisions is None


class TestPlanDetails:
    def test_instrumented_site_count_counts_each_site_once(self):
        program = parse_program(SRC)
        plan = build_plan(program)
        assert plan.instrumented_site_count == 4  # m0, m1, a0, b0

    def test_decode_snapshot_convenience(self):
        program = parse_program(SRC)
        plan = build_plan(program)
        probe = DeltaPathProbe(plan)

        grabbed = []

        class Grab:
            def on_entry(self, node, depth, p):
                if node == "U.leaf":
                    grabbed.append(p.snapshot(node))

            def on_exit(self, node):
                pass

            def on_event(self, *args):
                pass

        Interpreter(program, probe=probe, collector=Grab()).run()
        decoded = plan.decode_snapshot("U.leaf", grabbed[0])
        assert decoded.nodes()[0] == "M.m"
        assert decoded.nodes()[-1] == "U.leaf"

    def test_entry_is_always_an_anchor(self):
        program = parse_program(SRC)
        plan = build_plan(program)
        sid, is_anchor = plan.node_info["M.m"]
        assert is_anchor

    def test_plan_from_graph_matches_plan_from_program(self):
        program = parse_program(SRC)
        graph = build_callgraph(program)
        p1 = build_plan(program)
        p2 = build_plan_from_graph(graph)
        assert p1.site_av == p2.site_av
        assert p1.node_info == p2.node_info


class _FakeProbe:
    """Just enough probe for the collector: a constant snapshot."""

    def snapshot(self, node):
        return ((), 7)


class TestSinkErrorPolicies:
    def _collector(self, policy, sink, **kwargs):
        return ContextCollector(sink=sink, sink_errors=policy, **kwargs)

    def test_raise_policy_propagates(self):
        from repro.errors import ServiceError

        def sink(node, snapshot, probe):
            raise ServiceError("backend down")

        collector = self._collector("raise", sink)
        with pytest.raises(ServiceError):
            collector.on_entry("f", 1, _FakeProbe())

    def test_drop_policy_counts_and_continues(self):
        from repro.errors import ServiceError

        def sink(node, snapshot, probe):
            raise ServiceError("backend down")

        collector = self._collector("drop", sink)
        for _ in range(3):
            collector.on_entry("f", 1, _FakeProbe())
        assert collector.sink_failures == 3
        assert collector.total == 3  # collection itself kept going
        assert list(collector.sink_retained) == []

    def test_retain_policy_keeps_bounded_raw_observations(self):
        from repro.errors import ServiceError

        def sink(node, snapshot, probe):
            raise ServiceError("backend down")

        collector = self._collector(
            "retain", sink, sink_retain_capacity=2
        )
        for _ in range(5):
            collector.on_entry("f", 1, _FakeProbe())
        assert collector.sink_failures == 5
        assert list(collector.sink_retained) == [
            ("f", ((), 7)), ("f", ((), 7))
        ]  # oldest evicted, capacity 2

    def test_non_repro_errors_always_propagate(self):
        def sink(node, snapshot, probe):
            raise RuntimeError("a bug, not backend weather")

        collector = self._collector("drop", sink)
        with pytest.raises(RuntimeError):
            collector.on_entry("f", 1, _FakeProbe())
        assert collector.sink_failures == 0

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError):
            ContextCollector(sink=lambda *a: None, sink_errors="ignore")

    def test_healthy_sink_still_streams(self):
        seen = []
        collector = self._collector(
            "drop", lambda node, snap, probe: seen.append((node, snap))
        )
        collector.on_entry("f", 1, _FakeProbe())
        assert seen == [("f", ((), 7))]
        assert collector.sink_failures == 0
