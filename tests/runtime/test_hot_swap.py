"""Live plan repair: ``DeltaPathPlan.apply_delta`` + probe hot-swap.

Covers the incremental lifecycle of docs/API.md end to end: a delta is
applied to a running plan, the probe's live context is remapped onto the
new tables at a safe point, execution continues into the newly loaded
code, and encoding IDs captured *before* the swap still decode through
the :class:`~repro.runtime.plan.PlanUpdate` remap table.
"""

import random

import pytest

from repro.analysis.incremental import GraphDelta, delta_for_loaded_classes
from repro.errors import PlanSwapError
from repro.graph.callgraph import CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.interpreter import Interpreter
from repro.runtime.plan import build_plan, build_plan_from_graph
from repro.core.widths import W64, Width
from repro.workloads.paperprograms import figure6_program


def walk(probe, path):
    """Drive probe hooks along (caller, label, callee) triples."""
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)


def unwind(probe, path):
    for caller, label, callee in reversed(path):
        probe.exit_function(callee)
        probe.after_call(caller, label, callee)


def submit_one(service, node, snapshot, plan):
    """Submit one observation stamped with ``plan``'s epoch."""
    from repro.service import SampleBatch

    epoch = service.engine.epoch_of(plan)
    return service.submit_batch(
        SampleBatch().append(node, snapshot, epoch=epoch)
    )


def sample_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    g.add_edge("c", "d", "s5")
    g.add_call("c", ["e", "f"], "s6")  # virtual site
    g.add_edge("d", "g", "s7")
    g.add_edge("e", "g", "s8")
    return g


def chain_delta(g2, names, src):
    """Attach a fresh chain src -> names[0] -> names[1] ... to ``g2``."""
    added = []
    prev = src
    for name in names:
        added.append(g2.add_edge(prev, name, f"load_{name}"))
        prev = name
    return GraphDelta(
        added_nodes={n: {} for n in names}, added_edges=tuple(added)
    )


class TestMidExecutionSwap:
    def start(self, width=W64):
        g = sample_graph()
        plan = build_plan_from_graph(g, width=width)
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        path = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        walk(probe, path)
        return g, plan, probe, path

    def test_live_context_survives_the_swap(self):
        g, plan, probe, path = self.start()
        before = plan.decode_snapshot("e", probe.snapshot("e")).nodes()
        delta = chain_delta(g.copy(), ["x", "y"], src="e")
        update = plan.apply_delta(delta)
        probe.hot_swap(update, "e")
        assert probe.plan is update.plan
        assert probe.hot_swaps == 1
        after = update.plan.decode_snapshot("e", probe.snapshot("e"))
        assert after.nodes() == before == ["main", "a", "c", "e"]

    def test_execution_continues_into_loaded_code(self):
        g, plan, probe, path = self.start()
        delta = chain_delta(g.copy(), ["x", "y"], src="e")
        update = plan.apply_delta(delta)
        probe.hot_swap(update, "e")
        tail = [("e", "load_x", "x"), ("x", "load_y", "y")]
        walk(probe, tail)
        ctx = update.plan.decode_snapshot("y", probe.snapshot("y"))
        assert ctx.nodes() == ["main", "a", "c", "e", "x", "y"]
        assert probe.ucp_detections == 0
        unwind(probe, tail)
        unwind(probe, path)
        stack, current = probe.snapshot("main")
        assert current == 0 and len(stack) == 1

    def test_historical_snapshot_decodes_through_remap_table(self):
        g, plan, probe, path = self.start()
        snap = probe.snapshot("e")
        old_ctx = plan.decode_snapshot("e", snap).nodes()
        delta = chain_delta(g.copy(), ["x"], src="g")
        update = plan.apply_delta(delta)
        remapped = update.remap_snapshot("e", *snap)
        new_ctx = update.plan.decoder().decode(
            "e", remapped.stack, remapped.current_id
        )
        assert new_ctx.nodes() == old_ctx

    def test_swap_against_stale_plan_is_rejected(self):
        g, plan, probe, path = self.start()
        delta = chain_delta(g.copy(), ["x"], src="e")
        update = plan.apply_delta(delta)
        probe.hot_swap(update, "e")
        # The probe now runs update.plan; the same update cannot be
        # applied again.
        with pytest.raises(PlanSwapError):
            probe.hot_swap(update, "e")
        assert probe.hot_swaps == 1

    def test_removed_in_flight_edge_refuses_cleanly(self):
        g, plan, probe, path = self.start()
        victim = next(e for e in g.edges if str(e.site) == "a[s3]"
                      or (e.caller == "a" and e.callee == "c"))
        delta = GraphDelta(removed_edges=(victim,))
        update = plan.apply_delta(delta)
        state = (list(probe._stack), probe._id)
        with pytest.raises(PlanSwapError):
            probe.hot_swap(update, "e")
        # Refusal is atomic: the probe still runs the old plan intact.
        assert probe.plan is plan
        assert (list(probe._stack), probe._id) == state
        unwind(probe, path)
        stack, current = probe.snapshot("main")
        assert current == 0


class TestRandomizedSwaps:
    """Rebuild-equivalence of the *runtime* path: for random graphs,
    random walks, and random additive deltas, the decoded context is
    identical before and after the swap, and a full unwind returns the
    probe to (entry anchor, 0)."""

    N_TRIALS = 220  # acceptance floor: >= 200 random deltas

    def test_random_swaps_preserve_context(self):
        rng = random.Random(7)
        swapped = refused = 0
        for trial in range(self.N_TRIALS):
            g = CallGraph("main")
            nodes = ["main"]
            for i in range(rng.randrange(4, 12)):
                g.add_edge(rng.choice(nodes), f"n{i}", f"l{i}")
                nodes.append(f"n{i}")
            for i in range(rng.randrange(0, 4)):
                a, b = rng.sample(nodes, 2)
                g.add_edge(a, b, f"x{i}")
            width = Width(rng.choice([6, 8, 64]))
            try:
                plan = build_plan_from_graph(g, width=width)
            except Exception:
                continue
            probe = DeltaPathProbe(plan, cpt=True)
            probe.begin_execution("main")
            probe.enter_function("main")
            path, cur = [], "main"
            while True:
                outs = g.out_edges(cur)
                if not outs or rng.random() < 0.25:
                    break
                e = rng.choice(outs)
                path.append((e.caller, e.label, e.callee))
                probe.before_call(e.caller, e.label, e.callee)
                probe.enter_function(e.callee)
                cur = e.callee
            g2 = g.copy()
            adds = []
            for i in range(rng.randrange(1, 4)):
                adds.append(
                    g2.add_edge(rng.choice(nodes), f"new{trial}_{i}", f"nl{i}")
                )
            delta = GraphDelta(
                added_nodes={e.callee: {} for e in adds},
                added_edges=tuple(adds),
            )
            before = plan.decode_snapshot(cur, probe.snapshot(cur)).nodes()
            update = plan.apply_delta(delta)
            try:
                probe.hot_swap(update, cur)
            except PlanSwapError:
                # Legitimate refusal (e.g. a promoted anchor appears in
                # the live context); the probe must be untouched.
                assert probe.plan is plan
                refused += 1
                continue
            swapped += 1
            after = update.plan.decode_snapshot(
                cur, probe.snapshot(cur)
            ).nodes()
            assert after == before, trial
            unwind(probe, path)
            stack, current = probe.snapshot("main")
            assert current == 0, trial
        assert swapped >= 150  # refusals must be the exception
        assert swapped + refused > 180


class RepairingCollector:
    """Figure 6 driver: on the first hazardous UCP, repair the plan.

    detect UCP -> build delta from the loaded classes -> apply_delta ->
    hot_swap at the detecting node — the lifecycle of docs/API.md.
    """

    def __init__(self, program):
        self.program = program
        self.interp = None
        self.shadow = []
        self.samples = []  # (node, plan-at-sample, snapshot, truth)
        self.update = None
        self.clean_from = None  # sample index after the gap frame exits
        self.ucp_after_unwind = None

    def on_entry(self, node, depth, probe):
        self.shadow.append(node)
        if self.update is None and probe.ucp_detections > 0:
            delta = delta_for_loaded_classes(
                self.program, probe.plan.graph, self.interp.loaded_classes
            )
            self.update = probe.plan.apply_delta(delta)
            probe.hot_swap(self.update, node)
        self.samples.append(
            (node, probe.plan, probe.snapshot(node), tuple(self.shadow))
        )

    def on_exit(self, node):
        if self.shadow and self.shadow[-1] == node:
            self.shadow.pop()
        if (
            self.update is not None
            and self.clean_from is None
            and node == "XImpl.m"
        ):
            # The frame that ran uninstrumented has unwound; everything
            # sampled from here on must decode gap-free.
            self.clean_from = len(self.samples)

    def on_event(self, tag, node, depth, probe):
        pass


def _run_repaired_figure6(seed, operations=8):
    program = figure6_program()
    plan = build_plan(program)
    probe = DeltaPathProbe(plan, cpt=True)
    collector = RepairingCollector(program)
    interp = Interpreter(
        program, probe=probe, seed=seed, collector=collector
    )
    collector.interp = interp
    interp.run(operations=operations)
    return plan, probe, collector


def _repair_seed():
    """A seed that loads the plugin early enough to re-dispatch after
    the repair."""
    for seed in range(40):
        program = figure6_program()
        interp = Interpreter(program, seed=seed)
        interp.run(operations=8)
        if "XImpl" in interp.loaded_classes:
            plan, probe, collector = _run_repaired_figure6(seed)
            if collector.clean_from is not None and any(
                "XImpl.m" in truth
                for _, _, _, truth in collector.samples[collector.clean_from:]
            ):
                return seed
    pytest.fail("no seed exercises dispatch-after-repair")


class TestFigure6Repair:
    def test_ucp_triggers_exactly_one_repair(self):
        seed = _repair_seed()
        plan, probe, collector = _run_repaired_figure6(seed)
        assert collector.update is not None
        assert probe.hot_swaps == 1
        assert probe.plan is collector.update.plan

    def test_repaired_plan_instruments_the_plugin(self):
        seed = _repair_seed()
        plan, probe, collector = _run_repaired_figure6(seed)
        new_plan = collector.update.plan
        assert "XImpl.m" not in plan.instrumented_nodes
        assert "XImpl.m" in new_plan.instrumented_nodes
        added = {e.callee for e in collector.update.delta.added_edges}
        assert "XImpl.m" in {
            e.callee for e in collector.update.delta.added_edges
        } | set(collector.update.delta.added_nodes)
        assert added  # the virtual site gained the new dispatch target

    def test_post_repair_dispatches_decode_gap_free(self):
        seed = _repair_seed()
        plan, probe, collector = _run_repaired_figure6(seed)
        new_plan = collector.update.plan
        instrumented = new_plan.instrumented_nodes
        saw_plugin = False
        for node, sample_plan, (stack, current), truth in collector.samples[
            collector.clean_from:
        ]:
            if node not in instrumented:
                continue
            decoded = sample_plan.decoder().decode(node, stack, current)
            assert not decoded.has_gaps, (node, truth)
            assert decoded.nodes() == [
                f for f in truth if f in instrumented
            ], (node, truth)
            if "XImpl.m" in truth:
                saw_plugin = True
                assert "XImpl.m" in decoded.nodes()
        assert saw_plugin

    def test_no_new_ucps_after_repair_unwinds(self):
        seed = _repair_seed()
        plan, probe, collector = _run_repaired_figure6(seed)
        # Once the pre-repair gap frame has unwound, the repaired plan
        # covers every dispatch: the UCP count must be frozen.
        assert probe.ucp_detections >= 1
        post = [
            s for s in collector.samples[collector.clean_from:]
        ]
        assert post, "workload ended before the gap frame unwound"
        # Re-run and track the counter at the unwind point.
        program = figure6_program()
        plan2 = build_plan(program)
        probe2 = DeltaPathProbe(plan2, cpt=True)

        class Watch(RepairingCollector):
            def on_exit(self, node):
                super().on_exit(node)
                if self.clean_from == len(self.samples):
                    self.ucp_after_unwind = probe2.ucp_detections

        collector2 = Watch(program)
        interp = Interpreter(
            program, probe=probe2, seed=seed, collector=collector2
        )
        collector2.interp = interp
        interp.run(operations=8)
        assert collector2.ucp_after_unwind is not None
        assert probe2.ucp_detections == collector2.ucp_after_unwind


# ----------------------------------------------------------------------
# Hot swap racing concurrent ingestion (repro.service epochs)
# ----------------------------------------------------------------------

class TestHotSwapUnderIngestion:
    """A swap during ingestion loses no samples and never mixes epochs.

    The delta both removes an edge (a->c) and adds a node (x off e), so
    the two failure modes are distinguishable in the aggregate:

    * a pre-swap snapshot decoded under the *new* plan yields the wrong
      path ``main-b-c-e`` (the AVs shifted) — its count must stay 0;
    * a post-swap snapshot (through ``x``) decoded under the *old* plan
      raises (``x`` is unknown there) — ``decode_errors`` must stay 0.
    """

    PATH_ACE = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
    PATH_BCD = [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s5", "d")]
    PATH_X = [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s6", "e"),
              ("e", "load_x", "x")]

    def setup_method(self):
        g = sample_graph()
        self.plan = build_plan_from_graph(g)
        g2 = g.copy()
        victim = next(
            e for e in g.edges if e.caller == "a" and e.callee == "c"
        )
        added = g2.add_edge("e", "x", "load_x")
        self.update = self.plan.apply_delta(
            GraphDelta(
                added_nodes={"x": {}},
                added_edges=(added,),
                removed_edges=(victim,),
            )
        )

    def snap(self, plan, path):
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        walk(probe, path)
        return path[-1][2], probe.snapshot(path[-1][2])

    def test_concurrent_producers_race_the_swap(self):
        import threading

        from repro.service import ContextService

        pre_ace = self.snap(self.plan, self.PATH_ACE)
        pre_bcd = self.snap(self.plan, self.PATH_BCD)
        post_x = self.snap(self.update.plan, self.PATH_X)
        PRE, POST = 150, 120

        halfway = threading.Event()
        swapped = threading.Event()
        with ContextService(self.plan, workers=2, shards=4) as service:
            def pre_producer(obs):
                node, snapshot = obs
                for i in range(PRE):
                    submit_one(service, node, snapshot, self.plan)
                    if i == PRE // 2:
                        halfway.set()

            def post_producer():
                swapped.wait(timeout=10)
                node, snapshot = post_x
                for _ in range(POST):
                    submit_one(service, node, snapshot, self.update.plan)

            threads = [
                threading.Thread(target=pre_producer, args=(pre_ace,)),
                threading.Thread(target=pre_producer, args=(pre_bcd,)),
                threading.Thread(target=post_producer),
            ]
            for t in threads:
                t.start()
            halfway.wait(timeout=10)
            assert service.install_update(self.update) == 1
            swapped.set()
            for t in threads:
                t.join(timeout=10)
            service.flush()

            m = service.service_metrics()
            assert m["submitted"] == 2 * PRE + POST
            assert m["aggregated"] == 2 * PRE + POST  # nothing lost
            assert m["dropped"] == 0
            assert m["decode_errors"] == 0  # no new-under-old decodes
            assert m["epoch_mismatches"] == 0
            assert m["hot_swaps"] == 1
            tree = service.tree
            assert tree.count_of(("main", "a", "c", "e")) == PRE
            assert tree.count_of(("main", "b", "c", "d")) == PRE
            assert tree.count_of(("main", "b", "c", "e", "x")) == POST
            # The mixed-epoch signature path was never aggregated.
            assert tree.count_of(("main", "b", "c", "e")) == 0

    def test_queued_preswap_samples_drain_after_swap(self):
        from repro.service import ContextService

        node, snapshot = self.snap(self.plan, self.PATH_ACE)
        with ContextService(self.plan, workers=1) as service:
            for _ in range(64):
                submit_one(service, node, snapshot, self.plan)
            # Swap while (at least some of) those samples are queued.
            service.install_update(self.update)
            service.flush()
            assert service.tree.count_of(("main", "a", "c", "e")) == 64
            assert service.tree.count_of(("main", "b", "c", "e")) == 0
            m = service.service_metrics()
            assert m["decode_errors"] == 0
            assert m["epoch_mismatches"] == 0

    def test_one_probe_across_the_swap_via_sink(self):
        from repro.service import ContextService

        with ContextService(self.plan) as service:
            sink = service.batch_sink()
            probe = DeltaPathProbe(self.plan, cpt=True)
            probe.begin_execution("main")
            probe.enter_function("main")
            walk(probe, self.PATH_BCD[:2] + [("c", "s6", "e")])
            sink("e", probe.snapshot("e"), probe)  # stamped epoch 0

            service.install_update(self.update)
            probe.hot_swap(self.update, "e")
            walk(probe, [("e", "load_x", "x")])
            sink("x", probe.snapshot("x"), probe)  # stamped epoch 1

            sink.flush()
            service.flush()
            assert service.tree.count_of(("main", "b", "c", "e")) == 1
            assert service.tree.count_of(("main", "b", "c", "e", "x")) == 1
            m = service.service_metrics()
            assert m["decode_errors"] == 0 and m["epoch_mismatches"] == 0
